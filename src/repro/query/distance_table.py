"""The profile distance table ``D`` (paper §4).

``D : S_trans × S_trans × Π → N0`` returns, for each pair of transfer
stations, the arrival time at the second when departing the first at a
given time — *without* transfer times at either endpoint (the pruning
rules add those explicitly).  Stored as one reduced
:class:`~repro.functions.algebra.Profile` per ordered pair.

Precomputation runs the parallel one-to-all algorithm from every
transfer station (paper §5.2), which is exactly the semantics required:
profile searches start at route nodes (no source transfer) and read
arrivals off station nodes (no target transfer).

Two kinds of parallelism meet here and stay apart.  ``num_threads`` is
the number of ``conn(S)`` *partitions inside one search* (paper §3.2);
it changes the work done (self-pruning cannot cross partitions), not
the processes used.  *Across sources* the rows of ``D`` are independent
searches, so :func:`patch_distance_table` hands them to
:func:`repro.core.fanout.fan_out` — one ``ForkPool`` per build, sized
to the cores this process may use, and only when the build is long
enough to repay it (:data:`POOL_MIN_SECONDS`).  The stored profiles do
not depend on either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.fanout import fan_out, usable_cores
from repro.core.parallel import parallel_profile_search
from repro.functions.algebra import Profile
from repro.functions.piecewise import INF_TIME
from repro.graph.td_model import TDGraph

#: Fork a pool for the rows after the first only when they are
#: predicted — their count × the first row's measured time — to take
#: longer than this many seconds on the calling thread.  Two children
#: fork in 2–5 ms on the 2-core reference VM and every row is pickled
#: back; medians of 7 alternating builds: 23–25 ms of rows take 11–13
#: ms *longer* on a pool, 82 ms save 24, 213 ms save 79, 248 ms save
#: 103.  A pool breaks even near 50 ms; the constant sits where two
#: workers save ≈ 0.1 s, because below it a fork — out of a threaded
#: server, for a delay patch — buys tens of milliseconds at best.
POOL_MIN_SECONDS = 0.25


@dataclass(slots=True)
class DistanceTable:
    """Profile distance table over the transfer stations.

    ``profiles[a][b]`` is the reduced profile from transfer station
    ``transfer_stations[a]`` to ``transfer_stations[b]``.
    """

    transfer_stations: np.ndarray
    index_of: dict[int, int]
    profiles: list[list[Profile]]
    period: int
    #: Wall-clock seconds the precomputation took (Table 2, Prepro Time).
    build_seconds: float
    #: Total settled connections during precomputation.
    build_settled: int
    #: Processes that built the rows: 1 for a serial build, the pool
    #: size otherwise.  A statistic of the run like ``build_seconds``,
    #: not stored — a table loaded from a store reads 1.
    build_workers: int = 1

    @property
    def num_transfer_stations(self) -> int:
        return int(self.transfer_stations.size)

    def contains(self, station: int) -> bool:
        return station in self.index_of

    def earliest_arrival(self, origin: int, dest: int, tau: int) -> int:
        """``D(origin, dest, τ)`` — both must be transfer stations.

        ``D(a, a, τ) = τ``: you are already there.
        """
        if origin == dest:
            return tau
        a = self.index_of[origin]
        b = self.index_of[dest]
        return self.profiles[a][b].earliest_arrival(tau)

    def profile_between(self, origin: int, dest: int) -> Profile:
        return self.profiles[self.index_of[origin]][self.index_of[dest]]

    def size_bytes(self) -> int:
        """Memory of the stored connection points (two int64 per point),
        the figure reported as Table 2's *Space* column."""
        points = sum(
            len(profile)
            for row in self.profiles
            for profile in row
        )
        return 16 * points

    def size_mib(self) -> float:
        return self.size_bytes() / (1024.0 * 1024.0)


def build_distance_table(
    graph: TDGraph,
    transfer_stations: np.ndarray | list[int],
    *,
    num_threads: int = 8,
    strategy: str = "equal-connections",
    kernel: str = "python",
    arrays=None,
) -> DistanceTable:
    """Precompute ``D`` by one parallel one-to-all run per transfer
    station (paper §5.2: "distance tables are computed by running our
    parallel one-to-all algorithm on 8 cores from every transfer
    station").

    ``kernel``/``arrays`` select the per-search implementation exactly
    as in :func:`~repro.core.parallel.parallel_profile_search`; both
    kernels produce identical reduced profiles, so the stored table is
    the same whichever builds it (the ``flat`` kernel is just faster).

    A cold build is :func:`patch_distance_table` with every source
    affected, over a table that has no rows yet.
    """
    stations = np.asarray(sorted(set(int(s) for s in transfer_stations)), dtype=np.int64)
    for s in stations:
        if not graph.is_station_node(int(s)):
            raise ValueError(f"transfer station {s} is not a station node")
    blank = DistanceTable(
        transfer_stations=stations,
        index_of={int(s): i for i, s in enumerate(stations)},
        profiles=[[] for _ in stations],
        period=graph.timetable.period,
        build_seconds=0.0,
        build_settled=0,
    )
    return patch_distance_table(
        blank,
        graph,
        np.ones(graph.num_stations, dtype=bool),
        num_threads=num_threads,
        strategy=strategy,
        kernel=kernel,
        arrays=arrays,
    )


def patch_distance_table(
    table: DistanceTable,
    graph: TDGraph,
    affected_sources,
    *,
    num_threads: int = 8,
    strategy: str = "equal-connections",
    kernel: str = "python",
    arrays=None,
) -> DistanceTable:
    """Rebuild only the rows of ``D`` whose one-to-all search can have
    changed, against an incrementally patched ``graph``.

    ``affected_sources`` is a boolean mask over stations (see
    :func:`repro.graph.td_patch.stations_reaching`): stations that can
    reach a delay-trigger station.  A profile search seeded at a source
    outside the mask never relaxes a changed route edge nor seeds from
    a changed ``conn(S)`` row, so its reduced profiles — and therefore
    the whole table row — are exactly what a cold build on the delayed
    graph would produce; those row lists are shared by reference (rows
    are never mutated after construction).

    The first affected row is built on the calling thread and timed;
    the others follow it there, or go to one
    :class:`~repro.core.fanout.ForkPool` when this process may use more
    than one core and they are predicted to take longer than
    :data:`POOL_MIN_SECONDS`.  Its children inherit ``graph``,
    ``arrays`` and the kernel mirrors copy-on-write (a pack
    is constructed with its mirrors, and the first row has packed
    ``graph`` where the caller passed no ``arrays``); station indices
    travel in, finished rows and their settled counts travel back; a
    child killed under its row fails the patch (``WorkerLost``).

    ``build_seconds``/``build_settled``/``build_workers`` report *this
    patch's* work, not cumulative totals — they are diagnostics of the
    latest (re)build, which is what the replan accounting wants.
    """
    stations = table.transfer_stations
    mask = np.asarray(affected_sources, dtype=bool)
    sources = [a for a, origin in enumerate(stations) if mask[int(origin)]]
    empty = Profile(
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), table.period
    )

    def build_row(a: int) -> tuple[list[Profile], int]:
        result = parallel_profile_search(
            graph,
            int(stations[a]),
            num_threads,
            strategy=strategy,
            kernel=kernel,
            arrays=arrays,
        )
        row = [
            empty if b == a else result.profile(int(dest))
            for b, dest in enumerate(stations)
        ]
        return row, result.stats.settled_connections

    t0 = time.perf_counter()
    built = [build_row(a) for a in sources[:1]]
    probe_seconds = time.perf_counter() - t0
    rest = sources[1:]
    workers = min(usable_cores(), len(rest))
    pooled = workers > 1 and len(rest) * probe_seconds > POOL_MIN_SECONDS
    run = fan_out(
        build_row,
        rest,
        backend="processes" if pooled else "serial",
        workers=workers,
    )
    built += run.results
    profiles = list(table.profiles)
    for a, (row, _) in zip(sources, built):
        profiles[a] = row
    build_seconds = time.perf_counter() - t0

    return DistanceTable(
        transfer_stations=stations,
        index_of=table.index_of,
        profiles=profiles,
        period=table.period,
        build_seconds=build_seconds,
        build_settled=sum(settled for _, settled in built),
        build_workers=workers if run.backend == "processes" else 1,
    )
