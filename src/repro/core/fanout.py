"""The one fan-out: run a function over many items, serially or in
forked children.

Every level of parallelism in this repo is the same dispatch — "call
``fn`` on each of these items and hand back the results in order":

* *inside* one query, :func:`~repro.core.parallel.parallel_profile_search`
  runs one SPCS search per subset of ``conn(S)`` (paper §3.2);
* *across* queries, :meth:`repro.service.TransitService.batch` answers
  one request per item.

There is one way onto another core, :class:`ForkPool`, and it has two
lifetimes.  *Per call*: :func:`fan_out` under ``backend="processes"``
forks a pool from ``fn``, maps the items over it and reaps it before it
returns — ``parallel_profile_search(backend="processes")``, direct
callers.  *Per generation*: a service
keeps one pool (:meth:`repro.service.TransitService.start_workers`),
forked once, so a search, one §3.2 partition of a profile or one item
of a batch costs a pipe round trip and no fork (``docs/SERVER.md``,
"Execution model").  Such a pool is driven two ways over the one set
of children: a server's event loop hands it jobs without blocking
(:meth:`ForkPool.submit`: the loop waits on the pipes in its selector,
no thread waits for it), in-process callers block in
:meth:`ForkPool.call` / :meth:`ForkPool.map`.  Either way the
children inherit what they are forked from — ``fn`` and all it
closes over, a whole service —
copy-on-write: only items and results are pickled.  A forked child
inherits every lock as the parent's other threads held it at fork time,
so what runs there must take no lock the forking process shares between
threads.  And a pool child never forks: a pool made inside one runs on
the calling thread, so there is one level of processes however the
layers nest (a profile that is one item of a batch runs its partitions
in the worker that has it).  How many children a pool asked for ``n``
should fork is :func:`pool_size`.  What a child does about signals,
descriptors and a parent that dies is said at :class:`ForkPool`.

Backends of :func:`fan_out` (:data:`BACKENDS`): ``serial``, a plain
loop on the calling thread, and ``processes``.  There is no thread
backend: the searches are pure Python, so threads serialize on the GIL
and measured slower than ``serial`` on every workload tried
(``docs/KERNEL.md``, "Batch vs single queries", has the numbers).
"""

from __future__ import annotations

import asyncio
import gc
import os
import pickle
import signal
import threading
import traceback
import weakref
from collections import deque
from multiprocessing.connection import Connection, Pipe, wait
from typing import Callable, Iterable, NamedTuple, Sequence

#: Valid ``backend`` arguments of :func:`fan_out`.
BACKENDS = ("serial", "processes")

# Forked with these blocked, unblocked by _worker_signals below.
_WORKER_SIGNALS = (signal.SIGTERM, signal.SIGINT)

# True in a pool child, for good: the one place that forks looks here.
_in_pool_child = False


def _worker_signals() -> None:
    """A pool child dies of SIGTERM and ignores SIGINT.

    A fork inherits the parent's Python-level handlers.  Under a
    handler that *raises* (``repro prepare``) a SIGTERM becomes an
    exception inside the child's job, is reported back as that job's
    error, and the child lives on.  Under an event loop's no-op handler
    (``repro serve``) the child swallows it, or writes it to the wake-up
    fd it shares with the parent, whose loop then runs its own SIGTERM
    callback and stops serving.  SIGINT to the process group is the
    parent's to handle: it stops its children while unwinding.  Both
    are blocked across the fork, so one that arrives before a child got
    this far stays pending until the last line here.
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


def pool_size(requested: int) -> int:
    """The search workers to fork when ``requested`` searches may run
    at once: one per such search that has a usable core — a process
    more than the cores would only take turns with another."""
    return min(requested, usable_cores())


class FanOut(NamedTuple):
    """Results of one :func:`fan_out`, in item order, plus what ran."""

    results: list
    #: The backend that actually executed: ``serial`` for ≤1 item, on
    #: platforms without ``fork`` and inside a pool child (which never
    #: forks), whatever was asked for.
    backend: str


class _Apply:
    """What :func:`fan_out`'s pool is forked from: ``fn``, as the
    attribute its jobs name."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn


def fan_out(
    fn: Callable, items: Sequence, *, backend: str, workers: int
) -> FanOut:
    """``[fn(item) for item in items]``, on ``backend``.

    Under ``processes`` the items and the results must pickle; ``fn``
    need not (closures and bound methods are fine — the children
    inherit it).  Results are identical whatever the backend as long as
    ``fn`` is a function of its item.  The first item that raised, in
    item order, raises here with its type — as a ``RuntimeError``
    naming it if the exception does not survive pickling — and a child
    that died fails the call with :class:`WorkerLost`.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if backend == "processes" and len(items) > 1:
        target = _Apply(fn)  # kept here: a pool holds its target weakly
        pool = ForkPool(target, min(workers, len(items)))
        try:
            if pool.processes:
                results = pool.map("fn", [(item,) for item in items])
                return FanOut(results, "processes")
        finally:
            pool.close()
    return FanOut([fn(item) for item in items], "serial")


class WorkerLost(RuntimeError):
    """The :class:`ForkPool` child running a job died before it
    answered.  That job is lost — the caller may simply ask again, a
    replacement child is already forked — and no other job is."""


class _Child(NamedTuple):
    pid: int
    #: The parent's end of the child's one pipe.
    conn: Connection


def _dumps(obj: object) -> bytes:
    return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)


def _lost(child: _Child) -> WorkerLost:
    return WorkerLost(
        f"pool worker {child.pid} died; the job it was running is lost, "
        f"a replacement is running"
    )


def _fail(future: asyncio.Future, exc: BaseException) -> None:
    if not future.done():  # cancelled: nobody is waiting
        future.set_exception(exc)


def _running_loop() -> asyncio.AbstractEventLoop | None:
    try:
        return asyncio.get_running_loop()
    except RuntimeError:
        return None


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
            # Said, not only implied by the EOF that follows: that comes
            # when the *last* copy of this end is closed, and a process
            # the embedding application forked by other means than this
            # module holds one for as long as it lives.
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
    ``getattr(target, name)(*args)`` until the pool is closed — at the
    end of one :func:`fan_out`, or of a served generation.

    Each child inherits ``target`` and everything it references
    copy-on-write, so only ``(name, args)`` is pickled in and the
    result out, over the child's one pipe.  :meth:`call` and
    :meth:`map` are thread-safe and block while every child is busy.
    Without children — ``processes=0``, a platform without ``fork``, a
    closed pool, a pool constructed inside a pool child or the copy of
    its own pool a child inherited — they run on the calling thread.
    :meth:`submit` is their non-blocking twin for an event loop: it
    returns a future at once, jobs that find every child busy wait
    first come first served, and without children it refuses.

    Children are forked with SIGTERM / SIGINT blocked and, before their
    first job, close every descriptor they inherited but stdio and
    their pipe, run ``initializer(target)`` — the place to replace
    whatever state of ``target`` is guarded by a lock that another
    thread of the parent may have held during the fork — and reset the
    two signals (:func:`_worker_signals`).  They exit when told to, or
    on EOF: a parent that died leaves no orphan.  A child that dies
    fails the one job it was running with :class:`WorkerLost` and is
    replaced from the live ``target``.  The pool holds ``target``
    weakly (the target owns the pool, not the other way round — so no
    bound method of it for an ``initializer`` either; :func:`fan_out`
    keeps its own for the call) and stops its children when it
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
        #: Submitted jobs no child was idle for, oldest first:
        #: ``(future, pickled job, affinity)``.
        self._queued: deque[tuple[asyncio.Future, bytes, object]] = deque()
        #: Guards the four; notified when a child is freed.
        self._freed = threading.Condition()
        #: The children running a submitted job, and its future — read
        #: and written on the thread of that future's loop only.
        self._running: dict[_Child, asyncio.Future] = {}
        #: Children forked to replace one that died.
        self.replaced_total = 0
        self._stop = weakref.finalize(
            self, _stop_children, self._children, self._idle
        )
        if hasattr(os, "fork") and not _in_pool_child:
            for _ in range(processes):
                self._children.append(self._fork(target))
        self._idle.extend(self._children)

    @property
    def processes(self) -> int:
        """Children alive: 0 means calls run on the calling thread."""
        return len(self._children)

    def close(self) -> None:
        """Stop and reap the children (idempotent).  Blocking calls
        made from now on run on the calling thread; one still in a
        child is lost.  Every submitted job not yet answered fails with
        :class:`WorkerLost` — a child running one is killed, not waited
        for, and its pipe leaves the loop's selector first — so this
        must run on the thread of their loop when there are any."""
        with self._freed:
            queued = [future for future, _, _ in self._queued]
            self._queued.clear()
        for future in queued:
            _fail(future, WorkerLost("the pool was closed before the job ran"))
        while self._running:
            child, future = self._running.popitem()
            future.get_loop().remove_reader(child.conn.fileno())
            os.kill(child.pid, signal.SIGKILL)
            _fail(future, WorkerLost(
                f"pool worker {child.pid} was stopped with the pool; "
                f"the job it was running is lost"
            ))
        with self._freed:
            self._stop()
            self._freed.notify_all()

    def submit(
        self, name: str, *args, affinity: object = None
    ) -> asyncio.Future:
        """``getattr(target, name)(*args)`` in a child, from the
        running event loop without blocking it: the job is handed to an
        idle child — chosen by ``affinity`` as :meth:`map` chooses —
        or, while every child is busy, queued behind the jobs submitted
        before it, and the future returned is resolved by a reader on
        the child's pipe.  The job's exception, or :class:`WorkerLost`
        if the child died (a replacement is forked), is the future's.

        A pool without children — closed, or none forked — raises
        ``RuntimeError``: the caller runs the job itself, off the loop."""
        if not self._children:
            raise RuntimeError("the pool has no children to submit to")
        job = _dumps((name, args))
        future = asyncio.get_running_loop().create_future()
        with self._freed:
            self._queued.append((future, job, affinity))
        self._hand_out()
        return future

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
        holds an answer it has not read — it reads the first answer
        any of them gives and reuses that child — so callers that each
        want the whole pool take turns instead of starving one another,
        and a long map keeps every child it holds busy.  The first job
        that raised, in job order, raises here."""
        outcomes: list = []
        #: The children running a job of this map, and which job.
        held: dict[_Child, int] = {}
        try:
            for index, args in enumerate(jobs):
                outcomes.append(None)
                child = self._acquire(affinity, block=not held)
                if child is None and held:
                    child = self._collect(held, outcomes)
                if child is None:
                    # No children (any more): this thread is the pool.
                    outcomes[index] = (
                        True, getattr(self._target(), name)(*args)
                    )
                    continue
                held[child] = index
                try:
                    child.conn.send_bytes(_dumps((name, args)))
                except OSError:
                    pass  # dead; reading its answer finds out
            while held:
                self._release(self._collect(held, outcomes))
        except BaseException:
            # Unwinding past unread answers (an interrupt, a job that
            # does not pickle): those children cannot be used again.
            for child in held:
                self._release(self._replace(child))
            raise
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    # -- children ---------------------------------------------------------

    def _acquire(self, affinity: object, *, block: bool) -> _Child | None:
        with self._freed:
            while not self._idle:
                if not block or not self._children:
                    return None
                self._freed.wait()
            return self._take(affinity)

    def _take(self, affinity: object) -> _Child:
        """An idle child for a job about ``affinity`` (the lock held)."""
        if affinity is None:
            return self._idle.pop(0)
        # For choice the child whose last such job was about the same;
        # else, like a job about nothing, the one idle longest — the
        # one freed last has just answered someone who is likely to be
        # back for more.
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
            loop = self._queued[0][0].get_loop() if self._queued else None
        if loop is None:
            return
        # A submitted job is waiting: it is handed out on its loop.
        if _running_loop() is loop:
            self._hand_out()
        else:
            loop.call_soon_threadsafe(self._hand_out)

    # -- submitted jobs (on the loop's thread) -----------------------------

    def _hand_out(self) -> None:
        """Give queued jobs to idle children, the oldest job first; a
        job whose future is done (cancelled) is dropped unsent."""
        while True:
            with self._freed:
                while self._queued and self._queued[0][0].done():
                    self._queued.popleft()
                if not self._queued:
                    return
                if not self._children:  # every replacement refused
                    orphans = [future for future, _, _ in self._queued]
                    self._queued.clear()
                elif not self._idle:
                    return
                else:
                    orphans = None
                    future, job, affinity = self._queued.popleft()
                    child = self._take(affinity)
            if orphans is not None:
                for future in orphans:
                    _fail(future, WorkerLost("no pool worker is left"))
                return
            self._running[child] = future
            try:
                child.conn.send_bytes(job)
            except OSError:
                pass  # dead; the reader finds out
            future.get_loop().add_reader(
                child.conn.fileno(), self._read, child
            )

    def _read(self, child: _Child) -> None:
        """``child`` answered its submitted job, or died running it."""
        future = self._running.pop(child)
        future.get_loop().remove_reader(child.conn.fileno())
        try:
            ok, value = pickle.loads(child.conn.recv_bytes())
        except (EOFError, OSError):
            ok, value = False, _lost(child)
            child = self._replace(child)
        if ok:
            if not future.done():  # cancelled while it ran
                future.set_result(value)
        else:
            _fail(future, value)
        self._release(child)

    def _collect(
        self, held: dict[_Child, int], outcomes: list
    ) -> _Child | None:
        """Read one held job's answer into ``outcomes`` — that of the
        child that answers (or dies) first; the child to use next is
        that one, or its replacement if it died.  A lone held job,
        every :meth:`call`, reads its pipe without asking a selector."""
        child = next(iter(held))
        try:
            if len(held) > 1:
                ready = wait([c.conn for c in held])
                child = next(c for c in held if c.conn in ready)
            outcome = pickle.loads(child.conn.recv_bytes())
        except (EOFError, OSError):  # dead, or the pool closed meanwhile
            outcomes[held.pop(child)] = False, _lost(child)
            return self._replace(child)
        outcomes[held.pop(child)] = outcome
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
        ours, theirs = Pipe()
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
        global _in_pool_child
        status = 1
        try:
            # One level of processes: a pool made here forks nothing,
            # and this copy of the pool has no children — what the
            # target asks of it runs here.  Its lock may have been held.
            _in_pool_child = True
            self._children.clear()
            self._idle.clear()
            self._queued = deque()
            self._running = {}
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
