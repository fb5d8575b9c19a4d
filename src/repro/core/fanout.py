"""The one fan-out: run a function over many items, serially or on a
fork pool.

Both levels of parallelism in this repo are the same dispatch — "call
``fn`` on each of these items and hand back the results in order":

* *inside* one query, :func:`~repro.core.parallel.parallel_profile_search`
  runs one SPCS search per subset of ``conn(S)`` (paper §3.2);
* *across* queries, :meth:`repro.service.TransitService.batch` answers
  one request per item.

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


class FanOut(NamedTuple):
    """Results of one :func:`fan_out`, in item order, plus what ran."""

    results: list
    #: The backend that actually executed: ``serial`` for ≤1 item and
    #: on platforms without ``fork``, whatever was asked for.
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
    ):
        return FanOut([fn(item) for item in items], "serial", 0.0)
    token = next(_TOKENS)
    _FORK_FNS[token] = fn
    try:
        t0 = time.perf_counter()
        with mp.get_context("fork").Pool(processes=workers) as pool:
            spinup = time.perf_counter() - t0
            results = pool.map(_fork_call, [(token, item) for item in items])
    finally:
        del _FORK_FNS[token]
    return FanOut(results, "processes", spinup)
