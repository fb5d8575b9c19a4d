"""The one way onto another core: :class:`ForkPool`, search processes
forked once and driven from an event loop.

Every level of parallelism in this repo is the same dispatch — "call
this method on each of these argument tuples and hand back the results":

* *inside* one query, the paper's §3.2 split of a profile: one SPCS
  search per subset of ``conn(S)``;
* *across* queries, :meth:`repro.service.TransitService.batch`: one
  search per item.

A service keeps one pool per generation
(:meth:`repro.service.TransitService.start_workers`), forked once, so a
search, one §3.2 partition of a profile or one item of a batch costs a
pipe round trip and no fork (``docs/SERVER.md``, "Execution model").
The pool has one discipline: an event loop hands it jobs without
blocking (:meth:`ForkPool.submit`) and waits on the children's pipes in
its selector — a server's loop, or the private loop a blocking query
method runs (``asyncio.run``).  No thread waits for a child, and the
pool's state is confined to the thread of the loop whose jobs it holds.
The children inherit what they are forked from — a whole service —
copy-on-write: only the job's arguments and its result are pickled.  A
forked child inherits every lock as the parent's other threads held it
at fork time, so what runs there must take no lock the forking process
shares between threads.  And a pool child never forks: a pool made
inside one has no children, and its owner runs the jobs itself, so
there is one level of processes however the layers nest (a profile that
is one item of a batch runs its partitions in the worker that has it).
How many children a pool asked for ``n`` should fork is
:func:`pool_size`.  What a child does about signals, descriptors and a
parent that dies is said at :class:`ForkPool`.

Processes, not threads: the searches are pure Python, so threads
serialize on the GIL and measured slower than one thread on every
workload tried (``docs/KERNEL.md``, "Batch vs single queries", has the
numbers).
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import traceback
import weakref
from collections import deque
from typing import TYPE_CHECKING, Callable, NamedTuple

# asyncio and the pipes are imported where a pool submits and forks: a
# process that never starts workers (a cold prepare) loads neither.
if TYPE_CHECKING:
    import asyncio
    from multiprocessing.connection import Connection

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
    # Done: cancelled, nobody is waiting.  Of a closed loop: a blocking
    # caller's private loop that an exception unwound, nobody will.
    if not future.done() and not future.get_loop().is_closed():
        future.set_exception(exc)


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
    """Stop every child — tell an idle one to exit, kill one still
    running a job, whose answer nobody would read — close its pipe and
    reap it."""
    for child in children:
        if child in idle:
            try:
                # Said, not only implied by the EOF that follows: that
                # comes when the *last* copy of this end is closed, and
                # a process the embedding application forked by other
                # means than this module holds one for as long as it
                # lives.
                child.conn.send_bytes(_dumps(None))
            except OSError:
                pass
        else:
            os.kill(child.pid, signal.SIGKILL)
        child.conn.close()
    for child in children:
        try:
            os.waitpid(child.pid, 0)
        except ChildProcessError:
            pass
    idle.clear()
    children.clear()


class ForkPool:
    """``processes`` children forked once from ``target``, answering
    ``getattr(target, name)(*args)`` submitted from an event loop until
    the pool is closed.

    Each child inherits ``target`` and everything it references
    copy-on-write, so only ``(name, args)`` is pickled in and the
    result out, over the child's one pipe.  :meth:`submit` returns a
    future at once; jobs that find every child busy wait first come
    first served.  The pool's state belongs to the loop whose jobs it
    holds: a submit from another loop while those are queued or running
    is refused.  Without children — ``processes=0``, a platform without
    ``fork``, a closed pool, a pool constructed inside a pool child or
    the copy of its own pool a child inherited — :meth:`submit`
    refuses too, and the owner runs the job itself.

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
    bound method of it for an ``initializer`` either) and stops its
    children when it is closed or collected, whichever comes first.
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
        #: Children not running a job, the one idle longest first.
        self._idle: list[_Child] = []
        #: What each child's last job that said so was about
        #: (``affinity``).
        self._last: dict[_Child, object] = {}
        #: Submitted jobs no child was idle for, oldest first:
        #: ``(future, pickled job, affinity)``.
        self._queued: deque[tuple[asyncio.Future, bytes, object]] = deque()
        #: The children running a submitted job, and its future.
        self._running: dict[_Child, asyncio.Future] = {}
        #: The loop whose jobs are queued or running: while there are
        #: any, the pool is read and written on its thread only.
        self._loop: asyncio.AbstractEventLoop | None = None
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
        """Children alive: 0 means the owner runs its jobs itself."""
        return len(self._children)

    def close(self) -> None:
        """Stop and reap the children (idempotent); :meth:`submit`
        refuses from now on.  Every submitted job not yet answered
        fails with :class:`WorkerLost` — a child running one is killed,
        not waited for, and its pipe leaves the loop's selector first —
        so this runs on the thread of their loop when there are any."""
        for future, _, _ in self._queued:
            _fail(future, WorkerLost("the pool was closed before the job ran"))
        self._queued.clear()
        for child, future in self._running.items():
            self._loop.remove_reader(child.conn.fileno())
            _fail(future, WorkerLost(
                f"pool worker {child.pid} was stopped with the pool; "
                f"the job it was running is lost"
            ))
        self._running.clear()
        self._stop()

    def submit(
        self, name: str, *args, affinity: object = None
    ) -> asyncio.Future:
        """``getattr(target, name)(*args)`` in a child, from the
        running event loop without blocking it.  The job is handed to
        an idle child — for choice one whose last job had the same
        ``affinity`` (say what the jobs are about and a child's private
        caches are met again), never one that has to be waited for
        while another is idle — or, while every child is busy, queued
        behind the jobs submitted before it; the future returned is
        resolved by a reader on the child's pipe.  The job's exception,
        or :class:`WorkerLost` if the child died (a replacement is
        forked), is the future's.

        A pool without children — closed, or none forked — raises
        ``RuntimeError``: the caller runs the job itself, off the loop.
        So does a submit from a loop other than the one whose jobs are
        queued or running, unless that loop is closed — a blocking
        caller's private loop that an exception unwound, a signal
        handler's say.  Then its jobs are dropped and the children
        running them replaced, as their answers would be read by
        nobody."""
        if not self._children:
            raise RuntimeError("the pool has no children to submit to")
        import asyncio

        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            self._adopt(loop)
        job = _dumps((name, args))
        future = loop.create_future()
        self._queued.append((future, job, affinity))
        self._hand_out()
        return future

    # -- children (on the loop's thread) ----------------------------------

    def _adopt(self, loop: asyncio.AbstractEventLoop) -> None:
        """Confine the pool to ``loop``, abandoning the jobs of a closed
        one (:meth:`submit`)."""
        if self._queued or self._running:
            if not self._loop.is_closed():
                raise RuntimeError(
                    "the pool is running jobs of another event loop"
                )
            self._queued.clear()
            abandoned = list(self._running)
            self._running.clear()
            for child in abandoned:
                self._release(self._replace(child))
        self._loop = loop

    def _take(self, affinity: object) -> _Child:
        """An idle child for a job about ``affinity``."""
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
        """``child`` is idle again (``None``: it died and nothing
        replaced it); a queued job may take it."""
        if child is not None:
            self._idle.append(child)
        self._hand_out()

    def _hand_out(self) -> None:
        """Give queued jobs to idle children, the oldest job first; a
        job whose future is done (cancelled) is dropped unsent."""
        while self._queued:
            future, job, affinity = self._queued[0]
            if future.done():
                self._queued.popleft()
            elif not self._children:  # every replacement refused
                for future, _, _ in self._queued:
                    _fail(future, WorkerLost("no pool worker is left"))
                self._queued.clear()
            elif not self._idle:
                return
            else:
                self._queued.popleft()
                child = self._take(affinity)
                self._running[child] = future
                try:
                    child.conn.send_bytes(job)
                except OSError:
                    pass  # dead; the reader finds out
                self._loop.add_reader(child.conn.fileno(), self._read, child)

    def _read(self, child: _Child) -> None:
        """``child`` answered its submitted job, or died running it."""
        future = self._running.pop(child)
        self._loop.remove_reader(child.conn.fileno())
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

    def _replace(self, child: _Child) -> _Child | None:
        """Kill and reap ``child``; its successor, or ``None`` when the
        pool is closed, its target gone or the fork refused."""
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
        from multiprocessing.connection import Pipe

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
        """The child: answer jobs until told to stop; never returns."""
        global _in_pool_child
        status = 1
        try:
            # One level of processes: a pool made here forks nothing,
            # and this copy of the pool has no children — what the
            # target asks of it runs here.
            _in_pool_child = True
            self._children.clear()
            self._idle.clear()
            self._queued = deque()
            self._running = {}
            self._loop = None
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
