"""Parallel SPCS driver (paper §3.2).

Partitions ``conn(S)`` into ``p`` subsets, runs one SPCS instance per
subset, merges the labels and reduces.  Here the subsets run one after
another on the calling thread (``backend="serial"``, the only backend:
exact per-thread work/time accounting, and what every experiment
uses).  A served generation runs this module's two halves itself —
:func:`split_profile`, one subset job per search worker,
:func:`merge_profile`: the paper's master / worker scheme with
processes for threads — the master partitions and merges, the workers
search — measured at 1.71–1.80× for p = 2 on two cores, through HTTP
(``docs/SERVER.md``, "Execution model").  A pool forked for one search
repaid its fork only where the search was long, and is gone
(``docs/KERNEL.md``, "Batch vs single queries").

CPython threads cannot run the searches in parallel (they serialize on
the GIL), which is why the paper's shared-memory threads are processes
here, and why the experiments also report the *simulated-cores* time
below, which needs no second core to be measured.

``kernel`` selects the per-subset search implementation:

* ``python`` — the reference object-graph SPCS
  (:func:`~repro.core.spcs.spcs_profile_search`); default, and the
  implementation every other path is validated against;
* ``flat``   — the flat-array kernel
  (:func:`~repro.core.spcs_kernel.spcs_kernel_search`) over a packed
  :class:`~repro.graph.td_arrays.TDGraphArrays`; several times faster,
  identical reduced profiles, and the only kernel a
  :class:`~repro.service.TransitService` runs.  ``python`` is reached
  by passing ``kernel=`` here: the paper's experiments
  (:mod:`repro.analysis.runners`) and the tests do.

Every subset's result keeps its station rows only
(:func:`timed_subset_search`), so the merged result — and a cached
profile answer — holds ``num_stations × |conn(S)|`` labels.

The result carries *simulated-cores* accounting:
``simulated_time = max_t(thread_time_t) + merge_time`` — the wall-clock
a p-core machine would see, because the master must wait for the
slowest thread before merging (paper §3.2, "Choice of the Partition").
The per-thread settled-connection counts expose the paper's key
parallel effect: self-pruning cannot cross threads, so total work grows
with p.

Most callers reach this function through the
:class:`~repro.service.TransitService` facade (``service.profile``),
which prepares the packed arrays once and composes the same two
halves around its search workers; calling this function directly is
equivalent and remains supported (docs/API.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.merge import MergedProfileResult, merge_thread_results
from repro.core.partition import PARTITION_STRATEGIES
from repro.core.spcs import SPCSResult
from repro.core.spcs_kernel import run_spcs_search
from repro.graph.td_arrays import TDGraphArrays, packed_arrays

if TYPE_CHECKING:
    from repro.graph.td_model import TDGraph

#: Valid ``kernel`` arguments of :func:`parallel_profile_search`.
KERNELS = ("python", "flat")


@dataclass(slots=True)
class ParallelRunStats:
    """Work and time accounting of one parallel one-to-all query."""

    num_threads: int
    partition_sizes: list[int]
    #: Settled connections per thread (queue extractions).
    settled_per_thread: list[int]
    #: Wall-clock seconds each thread's search took.
    time_per_thread: list[float]
    #: Seconds spent merging labels.
    merge_time: float
    #: Wall-clock of the whole call.
    total_time: float

    @property
    def settled_connections(self) -> int:
        """Total settled connections, summed over threads (Table 1)."""
        return sum(self.settled_per_thread)

    @property
    def simulated_time(self) -> float:
        """What a p-core machine would measure: slowest thread + merge."""
        slowest = max(self.time_per_thread) if self.time_per_thread else 0.0
        return slowest + self.merge_time


@dataclass(slots=True)
class ParallelProfileResult:
    """Merged result plus accounting."""

    merged: MergedProfileResult
    thread_results: list[SPCSResult]
    stats: ParallelRunStats

    def profile(self, station: int):
        return self.merged.profile(station)


def timed_subset_search(
    graph: TDGraph | None,
    arrays: "TDGraphArrays | None",
    source: int,
    subset: Sequence[int],
    *,
    self_pruning: bool = True,
) -> tuple[SPCSResult, float]:
    """One subset's SPCS run and its wall time, measured where it runs
    — in a worker process, that worker's own clock.

    The result keeps the station rows only, as a contiguous copy of
    ``labels[:num_stations]``: a profile reads nothing else, and this is
    what travels back through a worker's pipe, is merged and is cached.
    Every caller of the §3.2 driver — served, in process, an empty
    subset — gets this one shape.  With ``arrays`` (the flat kernel)
    nothing reads ``graph``, which may be ``None``."""
    t0 = time.perf_counter()
    result = run_spcs_search(
        graph,
        arrays,
        source,
        connection_subset=subset,
        self_pruning=self_pruning,
    )
    num_stations = (arrays if arrays is not None else graph).num_stations
    result.labels = result.labels[:num_stations].copy()
    return result, time.perf_counter() - t0


@dataclass(frozen=True, slots=True)
class ProfileSplit:
    """The master's half of §3.2 before the workers search: ``conn(S)``
    cut into one subset per thread (:func:`split_profile`); the
    subsets' searches and :func:`merge_profile` finish the query."""

    num_threads: int
    #: Indices into ``conn(S)``, one list per thread.
    parts: list[list[int]]
    #: ``|conn(S)|``.
    num_connections: int
    #: ``time.perf_counter()`` once the partition was made: the clock
    #: of :attr:`ParallelRunStats.total_time`.
    started: float


def split_profile(
    graph: TDGraph | None,
    source: int,
    num_threads: int = 1,
    *,
    strategy: str = "equal-connections",
    kernel: str = "python",
    arrays: "TDGraphArrays | None" = None,
) -> ProfileSplit:
    """Partition ``conn(source)`` into ``num_threads`` subsets with
    ``strategy`` (a :data:`~repro.core.partition.PARTITION_STRATEGIES`
    key), reading the departures off the pack for ``kernel="flat"``
    (``arrays``, else the graph's own pack) and off the timetable for
    ``"python"``."""
    if num_threads < 1:
        raise ValueError(f"need at least one thread, got {num_threads}")
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
    try:
        partition_fn = PARTITION_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown partition strategy {strategy!r}; "
            f"choose from {sorted(PARTITION_STRATEGIES)}"
        ) from None

    if kernel == "flat":
        if arrays is None:
            arrays = packed_arrays(graph)
        if not arrays.is_station_node(source):
            raise ValueError(f"source must be a station node, got {source}")
        conn_deps = arrays.source_connection_arrays(source)[0].tolist()
        period = arrays.period
    else:
        if not graph.is_station_node(source):
            raise ValueError(f"source must be a station node, got {source}")
        timetable = graph.timetable
        conn_deps = [
            c.dep_time for c in timetable.outgoing_connections(source)
        ]
        period = timetable.period
    return ProfileSplit(
        num_threads=num_threads,
        parts=partition_fn(conn_deps, num_threads, period),
        num_connections=len(conn_deps),
        started=time.perf_counter(),
    )


def merge_profile(
    split: ProfileSplit, timed: Sequence[tuple[SPCSResult, float]]
) -> ParallelProfileResult:
    """The master's other half: merge one :func:`timed_subset_search`
    outcome per subset of ``split``, in order, and account the run."""
    thread_results = [result for result, _ in timed]
    times = [elapsed for _, elapsed in timed]

    t_merge = time.perf_counter()
    merged = merge_thread_results(thread_results, split.num_connections)
    merge_time = time.perf_counter() - t_merge
    total_time = time.perf_counter() - split.started

    stats = ParallelRunStats(
        num_threads=split.num_threads,
        partition_sizes=[len(p) for p in split.parts],
        settled_per_thread=[
            r.stats.settled_connections for r in thread_results
        ],
        time_per_thread=times,
        merge_time=merge_time,
        total_time=total_time,
    )
    return ParallelProfileResult(
        merged=merged, thread_results=thread_results, stats=stats
    )


def parallel_profile_search(
    graph: TDGraph | None,
    source: int,
    num_threads: int = 1,
    *,
    strategy: str = "equal-connections",
    backend: str = "serial",
    self_pruning: bool = True,
    queue: str = "binary",
    kernel: str = "python",
    arrays: "TDGraphArrays | None" = None,
) -> ParallelProfileResult:
    """One-to-all profile search on ``num_threads`` simulated cores:
    :func:`split_profile`, one :func:`timed_subset_search` per subset,
    one after another, :func:`merge_profile`.

    ``strategy`` is a :data:`~repro.core.partition.PARTITION_STRATEGIES`
    key; ``backend`` must be ``"serial"`` (kept for callers that
    still name one);
    ``kernel`` one of :data:`KERNELS`: the reference runs on the
    paper's binary heap, the flat kernel on its bucket queue.  ``queue``
    is accepted for callers that still name one, and must be
    ``"binary"`` on either kernel.
    ``arrays`` injects a pre-packed :class:`TDGraphArrays` for the
    ``flat`` kernel (the service facade owns one shared pack); when
    omitted the graph's own pack (:func:`packed_arrays`) is used.  The
    flat kernel reads ``conn(S)``, the stations and the period from the
    pack, never the graph: with ``arrays`` given ``graph`` may be
    ``None`` (a served generation does not build one).
    """
    if queue != "binary":
        raise ValueError(
            f"unknown queue {queue!r}; the only queue is 'binary'"
        )
    if backend != "serial":
        raise ValueError(
            f"unknown backend {backend!r}; the only backend is 'serial'"
        )
    split = split_profile(
        graph, source, num_threads, strategy=strategy, kernel=kernel,
        arrays=arrays,
    )
    if kernel == "flat" and arrays is None:
        arrays = packed_arrays(graph)
    elif kernel == "python":
        arrays = None

    timed = [
        timed_subset_search(
            graph, arrays, source, subset, self_pruning=self_pruning
        )
        for subset in split.parts
    ]
    return merge_profile(split, timed)
