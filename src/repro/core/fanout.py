"""The one fan-out: run a function over many items, serially or on a
fork pool.

Every level of parallelism in this repo is the same dispatch — "call
``fn`` on each of these items and hand back the results in order":

* *inside* one query, :func:`~repro.core.parallel.parallel_profile_search`
  runs one SPCS search per subset of ``conn(S)`` (paper §3.2);
* *across* queries, :meth:`repro.service.TransitService.batch` answers
  one request per item;
* *across* sources, :func:`repro.query.distance_table.build_distance_table`
  builds one row of ``D`` per item (paper §5.2);
* *across requests*, a server keeps one :class:`ForkPool` per dataset
  generation: the same dispatch with the fork taken out of it.  The
  children are forked once, when the generation starts being served,
  and answer calls until it is retired — so a served search, or one
  §3.2 partition of a served profile, runs on a core of its own for
  the price of a pipe round trip (``docs/SERVER.md``, "Execution
  model").

Backends of :func:`fan_out` (:data:`BACKENDS`):

* ``serial``    — a plain loop on the calling thread;
* ``processes`` — a fork pool.  ``fn`` and everything it closes over
  (graph, packed arrays, distance table) is inherited copy-on-write by
  the workers, so nothing but the items travels in and nothing but the
  results travels back through pickling.  A forked worker inherits
  every lock as its other threads held it at fork time, so ``fn`` must
  take no lock the forking process shares between threads.

There is no thread backend: the searches are pure Python, so threads
serialize on the GIL and measured slower than ``serial`` on every
workload tried (``docs/KERNEL.md``, "Batch vs single queries", has the
numbers).
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
import traceback
import weakref
from collections import deque
from multiprocessing.connection import Connection
from typing import Callable, Iterable, NamedTuple, Sequence

#: Valid ``backend`` arguments of :func:`fan_out`.
BACKENDS = ("serial", "processes")

# What the fork workers call, inherited copy-on-write.  Keyed by a
# token unique to one fan_out call, which every work item carries, so
# concurrent fan-outs from different threads (two datasets, two delay
# generations, a batch next to a profile search) each resolve their own
# function instead of clobbering a shared key.
_FORK_FNS: dict[int, Callable] = {}
_TOKENS = itertools.count()


def _fork_call(payload):
    token, item = payload
    return _FORK_FNS[token](item)


# Forked with these blocked, unblocked by the initializer below.
_WORKER_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def _worker_signals() -> None:
    """Pool initializer: a worker dies of SIGTERM and ignores SIGINT.

    A fork inherits the parent's Python-level handlers, and
    ``Pool.terminate()`` — every ``with Pool(...)`` exit — stops its
    workers with SIGTERM.  Under a handler that *raises* (``repro
    prepare``) that SIGTERM becomes an exception inside the worker's
    task, is reported back as a task error, the worker lives on and the
    pool never joins.  Under an event loop's no-op handler (``repro
    serve``) the worker swallows it — same hang — or writes it to the
    wake-up fd it shares with the parent, whose loop then runs its own
    SIGTERM callback and stops serving.  SIGINT to the process group is
    the parent's to handle: it terminates the pool while unwinding.

    :func:`fan_out` forks the workers with both signals blocked, so a
    short fan-out that is over before a worker got this far cannot
    reach the inherited handler either: the signal stays pending until
    the last line here.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _WORKER_SIGNALS)


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask, not the
    machine's count (``taskset``, cgroup cpusets and CI runners narrow
    it), where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class FanOut(NamedTuple):
    """Results of one :func:`fan_out`, in item order, plus what ran."""

    results: list
    #: The backend that actually executed: ``serial`` for ≤1 item, on
    #: platforms without ``fork`` and inside a pool worker (daemonic
    #: processes may not have children), whatever was asked for.
    backend: str
    #: Seconds spent starting the pool (0.0 when serial).
    spinup_seconds: float


def fan_out(
    fn: Callable, items: Sequence, *, backend: str, workers: int
) -> FanOut:
    """``[fn(item) for item in items]``, on ``backend``.

    Under ``processes`` the items and the results must pickle; ``fn``
    need not (closures and bound methods are fine — the workers inherit
    it).  Results are identical whatever the backend as long as ``fn``
    is a function of its item.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if (
        backend == "serial"
        or len(items) <= 1
        or "fork" not in mp.get_all_start_methods()
        or mp.current_process().daemon
    ):
        return FanOut([fn(item) for item in items], "serial", 0.0)
    token = next(_TOKENS)
    _FORK_FNS[token] = fn
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _WORKER_SIGNALS)
    try:
        t0 = time.perf_counter()
        with mp.get_context("fork").Pool(
            processes=workers, initializer=_worker_signals
        ) as pool:
            # Unblocked inside the ``with``: a signal that arrived while
            # the workers were being forked is raised here, where
            # unwinding terminates them.
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            spinup = time.perf_counter() - t0
            # chunksize stays pool.map's own (6 for 43 rows on 2
            # workers): chunksize=1 on the 44-row washington/small
            # table build, 35 alternating pairs in three sessions, read
            # medians 1.39 / 1.61 / 2.10 s against 1.49 / 1.50 / 2.07 s
            # and won 10 of the last 20 pairs.  (CI's 8-item batch on 2
            # workers is chunked by 1 either way.)
            results = pool.map(_fork_call, [(token, item) for item in items])
    finally:
        del _FORK_FNS[token]
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return FanOut(results, "processes", spinup)


class WorkerLost(RuntimeError):
    """The :class:`ForkPool` child running a call died before it
    answered.  That call is lost — the caller may simply ask again, a
    replacement child is already forked — and no other call is."""


class _Child(NamedTuple):
    pid: int
    #: The parent's end of the child's one pipe.
    conn: Connection


def _dumps(obj: object) -> bytes:
    return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)


def _answer(target: object, name: str, args: tuple) -> bytes:
    """A child's pickled ``(True, result)`` or ``(False, exception)``
    for one job — an exception that would not survive the trip as a
    ``RuntimeError`` naming it."""
    try:
        return _dumps((True, getattr(target, name)(*args)))
    except Exception as exc:  # noqa: BLE001 — re-raised in the parent
        try:
            answer = _dumps((False, exc))
            pickle.loads(answer)
            return answer
        except Exception:  # noqa: BLE001 — whatever pickling it raised
            return _dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _close_inherited_fds(keep: int) -> None:
    """Close every descriptor but stdio and ``keep``.  A pool child
    must hold no socket of the server that forked it — a client
    connection would stay half-open after the server closed it, the
    listening socket bound after the server died — and no end of a
    sibling's pipe, or that sibling would never read EOF."""
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))


def _stop_children(children: list[_Child], idle: list[_Child]) -> None:
    """Tell every child to exit, close its pipe and reap it."""
    idle.clear()
    for child in children:
        try:
            # Said, not only implied by the EOF that follows: a process
            # someone else forked meanwhile (a table build's pool) may
            # hold a copy of this end of the pipe.
            child.conn.send_bytes(_dumps(None))
        except OSError:
            pass
        child.conn.close()
    for child in children:
        try:
            os.waitpid(child.pid, 0)
        except ChildProcessError:
            pass
    children.clear()


class ForkPool:
    """``processes`` children forked once from ``target``, answering
    ``getattr(target, name)(*args)`` until the pool is closed.

    The persistent sibling of :func:`fan_out`: each child inherits
    ``target`` and everything it references copy-on-write, so only
    ``(name, args)`` is pickled in and the result out, over the child's
    one pipe.  :meth:`call` and :meth:`map` are thread-safe and block
    while every child is busy.  Without children — ``processes=0``, a
    platform without ``fork``, a closed pool, or the copy of the pool a
    child inherited — they run on the calling thread.

    Children are forked with SIGTERM / SIGINT blocked and reset them
    like :func:`fan_out`'s workers (:func:`_worker_signals`); they
    close every descriptor they inherited but stdio and their pipe, run
    ``initializer(target)`` — the place to replace whatever state of
    ``target`` is guarded by a lock that another thread of the parent
    may have held during the fork — and exit when told to, or on EOF:
    a parent that died leaves no orphan.  A child that dies fails the
    one call it was running with :class:`WorkerLost` and is replaced
    from the live ``target``.  The pool holds ``target`` weakly (the
    target owns the pool, not the other way round — so no bound method
    of it for an ``initializer`` either) and stops its children when it
    is closed or collected, whichever comes first.
    """

    def __init__(
        self,
        target: object,
        processes: int,
        *,
        initializer: Callable[[object], None] | None = None,
    ) -> None:
        self._target = weakref.ref(target)
        self._initializer = initializer
        #: Every child alive, busy or not — what closing stops.
        self._children: list[_Child] = []
        #: Children not running a call, the one idle longest first.
        self._idle: list[_Child] = []
        #: What each child's last job that said so was about
        #: (``affinity``).
        self._last: dict[_Child, object] = {}
        #: Guards the three; notified when a child is freed.
        self._freed = threading.Condition()
        #: Children forked to replace one that died.
        self.replaced_total = 0
        self._stop = weakref.finalize(
            self, _stop_children, self._children, self._idle
        )
        if "fork" in mp.get_all_start_methods():
            for _ in range(processes):
                self._children.append(self._fork(target))
        self._idle.extend(self._children)

    @property
    def processes(self) -> int:
        """Children alive: 0 means calls run on the calling thread."""
        return len(self._children)

    def close(self) -> None:
        """Stop and reap the children (idempotent).  Calls made from
        now on run on the calling thread; one still in a child is lost."""
        with self._freed:
            self._stop()
            self._freed.notify_all()

    def call(self, name: str, *args, affinity: object = None):
        """``getattr(target, name)(*args)``, in an idle child."""
        return self.map(name, [args], affinity=affinity)[0]

    def map(
        self, name: str, jobs: Iterable[tuple], *, affinity: object = None
    ) -> list:
        """``[getattr(target, name)(*args) for args in jobs]``, each
        job in whichever child is idle when it is handed out — for
        choice one whose last jobs had the same ``affinity`` (say what
        the jobs are about and a child's private caches are met again),
        never one that has to be waited for while another is idle.

        A caller never waits for a *further* child while one of its own
        holds an answer it has not read — it reads that answer and
        reuses the child — so callers that each want the whole pool
        take turns instead of starving one another.  The first job that
        raised, in job order, raises here."""
        outcomes: list = []
        #: Jobs sent and not yet read, oldest first.
        held: deque[tuple[int, _Child]] = deque()
        try:
            for index, args in enumerate(jobs):
                outcomes.append(None)
                child = self._acquire(affinity, wait=not held)
                if child is None and held:
                    child = self._collect(held, outcomes)
                if child is None:
                    # No children (any more): this thread is the pool.
                    outcomes[index] = (
                        True, getattr(self._target(), name)(*args)
                    )
                    continue
                held.append((index, child))
                try:
                    child.conn.send_bytes(_dumps((name, args)))
                except OSError:
                    pass  # dead; reading its answer finds out
            while held:
                self._release(self._collect(held, outcomes))
        except BaseException:
            # Unwinding past unread answers (an interrupt, a job that
            # does not pickle): those children cannot be used again.
            for _, child in held:
                self._release(self._replace(child))
            raise
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    # -- children ---------------------------------------------------------

    def _acquire(self, affinity: object, *, wait: bool) -> _Child | None:
        with self._freed:
            while not self._idle:
                if not wait or not self._children:
                    return None
                self._freed.wait()
            if affinity is None:
                return self._idle.pop(0)
            # For choice the child whose last such job was about the
            # same; else, like a job about nothing, the one idle
            # longest — the one freed last has just answered someone
            # who is likely to be back for more.
            child = next(
                (c for c in self._idle if self._last.get(c) == affinity),
                self._idle[0],
            )
            self._idle.remove(child)
            self._last[child] = affinity
            return child

    def _release(self, child: _Child | None) -> None:
        with self._freed:
            if child in self._children:  # not None, not closed meanwhile
                self._idle.append(child)
            self._freed.notify_all()

    def _collect(self, held: deque, outcomes: list) -> _Child | None:
        """Read the oldest held job's answer into ``outcomes``; the
        child to use next is the one that gave it, or its replacement
        if it died instead."""
        index, child = held[0]
        try:
            outcomes[index] = pickle.loads(child.conn.recv_bytes())
        except (EOFError, OSError):
            outcomes[index] = False, WorkerLost(
                f"search worker {child.pid} died; the call it was "
                f"running is lost, a replacement is running"
            )
            child = self._replace(child)
        held.popleft()
        return child

    def _replace(self, child: _Child) -> _Child | None:
        """Kill and reap ``child``; its successor, or ``None`` when the
        pool is closed, its target gone or the fork refused."""
        with self._freed:
            if child not in self._children:  # closed: reaped there
                return None
            self._children.remove(child)
            self._last.pop(child, None)
            child.conn.close()
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
            target = self._target()
            if target is None:
                return None
            try:
                successor = self._fork(target)
            except OSError:
                traceback.print_exc()
                return None
            self._children.append(successor)
            self.replaced_total += 1
            return successor

    def _fork(self, target: object) -> _Child:
        ours, theirs = mp.Pipe()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _WORKER_SIGNALS)
        try:
            pid = os.fork()
            if pid == 0:
                self._serve(target, theirs)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        theirs.close()
        return _Child(pid, ours)

    def _serve(self, target: object, conn: Connection) -> None:
        """The child: answer calls until told to stop; never returns."""
        status = 1
        try:
            # This copy of the pool has no children: what the target
            # asks of it runs here.  Its lock may have been held.
            self._children.clear()
            self._idle.clear()
            self._freed = threading.Condition()
            _close_inherited_fds(conn.fileno())
            signal.set_wakeup_fd(-1)
            if self._initializer is not None:
                self._initializer(target)
            # What was inherited is the parent's to collect; a
            # collector pass over it here would only unshare pages.
            gc.freeze()
            _worker_signals()
            try:
                while (job := pickle.loads(conn.recv_bytes())) is not None:
                    conn.send_bytes(_answer(target, *job))
            except (EOFError, OSError):  # the parent is gone
                pass
            status = 0
        except BaseException:  # noqa: BLE001 — reported; the exit is below
            traceback.print_exc()
        finally:
            os._exit(status)
