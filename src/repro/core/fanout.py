"""The one fan-out: run a function over many items, serially or on a
fork pool.

Every level of parallelism in this repo is the same dispatch — "call
``fn`` on each of these items and hand back the results in order":

* *inside* one query, :func:`~repro.core.parallel.parallel_profile_search`
  runs one SPCS search per subset of ``conn(S)`` (paper §3.2);
* *across* queries, :meth:`repro.service.TransitService.batch` answers
  one request per item;
* *across* sources, :func:`repro.query.distance_table.build_distance_table`
  builds one row of ``D`` per item (paper §5.2).

Backends (:data:`BACKENDS`):

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

import itertools
import multiprocessing as mp
import os
import signal
import time
from typing import Callable, NamedTuple, Sequence

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
