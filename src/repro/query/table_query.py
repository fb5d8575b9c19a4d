"""Station-to-station queries with distance-table pruning (paper §4).

Combines, per query:

* the **stopping criterion** (Theorem 2) — always on by default;
* **distance-table pruning** (Theorem 3) for *global* queries: per
  (connection, via-station) upper bounds ``µ_{i,j}`` maintained at
  transfer-station settles, pruning nodes that provably cannot improve
  the arrival at any via station of the target;
* **target pruning** (Theorem 4) when the target is itself a transfer
  station: per-connection lower bounds ``γ_i``, valid once every queue
  item has a transfer-station ancestor, stopping a connection's search
  outright when upper and lower bounds meet;
* the ``S, T ∈ S_trans`` **shortcut**: answer straight from the table.

The parallel setup mirrors §3.2: threads own disjoint connection
subsets, and since all pruning state (``µ_{i,j}``, ``γ_i``, ``Tm``) is
indexed per connection, sequentially sharing one pruner across thread
runs is behaviourally identical to per-thread state.

The :class:`~repro.service.TransitService` facade is the usual way to
reach this engine (``service.journey``): it injects the shared
prepared artifacts via the ``arrays=``/``station_graph=`` parameters
so repeated engine construction over one dataset re-packs nothing
(docs/API.md).  Direct construction stays supported and behaves
identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.merge import merge_thread_results
from repro.core.partition import PARTITION_STRATEGIES
from repro.core.spcs import PRUNE_CONNECTION, PRUNE_NODE, PRUNE_NONE
from repro.core.parallel import KERNELS
from repro.core.spcs_kernel import run_spcs_search
from repro.graph.td_arrays import TDGraphArrays, packed_arrays
from repro.functions.algebra import Profile
from repro.functions.piecewise import INF_TIME
from repro.graph.station_graph import StationGraph, build_station_graph
from repro.graph.td_model import TDGraph
from repro.query.distance_table import DistanceTable
from repro.query.via import ViaInfo, compute_via_stations


class DistanceTablePruner:
    """Implements Theorems 3 and 4 as an SPCS settle hook."""

    def __init__(
        self,
        graph: TDGraph,
        table: DistanceTable,
        source: int,
        target: int,
        via_stations: tuple[int, ...],
        *,
        target_pruning: bool = True,
    ) -> None:
        self._graph = graph
        self._table = table
        self._source = source
        self._target = target
        self._via = via_stations
        self._transfer_time = [s.transfer_time for s in graph.timetable.stations]
        self._target_is_transfer = table.contains(target)
        self._target_pruning = target_pruning and self._target_is_transfer
        #: µ_{i,j}: upper bound on the earliest train catchable at via
        #: station j for connection i, even with a transfer there.
        self._mu: dict[int, list[int]] = {}
        #: Per-station cache of the via-station profiles (and target
        #: profile) so the hot settle path avoids table index lookups.
        self._via_profiles: dict[int, list] = {}
        self._target_profiles: dict[int, object] = {}
        #: γ_i: tentative lower bound on the arrival at T (Theorem 4).
        self._gamma: dict[int, int] = {}
        #: arr(T, i) recorded when target pruning stops connection i.
        self.final_arrivals: dict[int, int] = {}
        #: Diagnostics.
        self.mu_updates = 0
        self.prunes = 0
        self.connection_stops = 0

    def on_settle(
        self, node: int, conn_index: int, arrival: int, ancestry_complete: bool
    ) -> int:
        graph = self._graph
        station = graph.node_station[node]
        if station == self._source:
            # Settles that never left the source (its seed route nodes,
            # the source station node, re-boarding platforms) do not
            # represent paths starting with connection i: letting them
            # contribute µ/γ would encode "wait for a later train" —
            # sound for mid-day anchors, where reduction covers it with
            # a later-index connection, but *wrong* for the last trains
            # of the day, whose cheaper alternative wraps past midnight
            # to a smaller index that reduction cannot substitute.
            return PRUNE_NONE
        if not self._table.contains(station):
            return PRUNE_NONE
        transfer_here = self._transfer_time[station]

        if self._target_pruning:
            target = self._target
            target_profile = self._target_profiles.get(station)
            if target_profile is None and station != target:
                target_profile = self._table.profile_between(station, target)
                self._target_profiles[station] = target_profile
            gamma = self._gamma.get(conn_index, INF_TIME)
            lower = (
                arrival
                if station == target
                else target_profile.earliest_arrival(arrival)
            )
            if lower < gamma:
                gamma = lower
                self._gamma[conn_index] = gamma
            if ancestry_complete and gamma < INF_TIME:
                if station == target:
                    upper = arrival
                else:
                    upper = target_profile.earliest_arrival(
                        arrival + transfer_here
                    )
                if upper <= gamma:
                    best = self.final_arrivals.get(conn_index, INF_TIME)
                    if upper < best:
                        self.final_arrivals[conn_index] = upper
                    self.connection_stops += 1
                    return PRUNE_CONNECTION

        if not self._via:
            return PRUNE_NONE

        # Per-station cache: (via station, its transfer time, profile or
        # None when station == via).
        cached = self._via_profiles.get(station)
        if cached is None:
            cached = [
                (
                    via,
                    self._transfer_time[via],
                    None
                    if station == via
                    else self._table.profile_between(station, via),
                )
                for via in self._via
            ]
            self._via_profiles[station] = cached

        # Theorem 3: update µ_{i,j} from this transfer-station settle...
        mu = self._mu.get(conn_index)
        if mu is None:
            mu = [INF_TIME] * len(self._via)
            self._mu[conn_index] = mu
        ready = arrival + transfer_here
        for j, (via, via_transfer, profile) in enumerate(cached):
            if profile is None:
                candidate = arrival + via_transfer
            else:
                reach = profile.earliest_arrival(ready)
                if reach >= INF_TIME:
                    continue
                candidate = reach + via_transfer
            if candidate < mu[j]:
                mu[j] = candidate
                self.mu_updates += 1

        # ... then prune if v provably cannot matter for any via station.
        for j, (via, _via_transfer, profile) in enumerate(cached):
            lower = arrival if profile is None else profile.earliest_arrival(arrival)
            if lower <= mu[j]:
                return PRUNE_NONE
        self.prunes += 1
        return PRUNE_NODE


@dataclass(slots=True)
class StationToStationResult:
    """Answer and accounting of one station-to-station profile query."""

    source: int
    target: int
    profile: Profile
    #: "local", "global", "table" (both endpoints transfer) or "trivial".
    classification: str
    settled_connections: int
    time_per_thread: list[float]
    merge_time: float
    total_time: float
    table_prunes: int = 0
    connection_stops: int = 0

    @property
    def simulated_time(self) -> float:
        slowest = max(self.time_per_thread) if self.time_per_thread else 0.0
        return slowest + self.merge_time

    def earliest_arrival(self, tau: int) -> int:
        return self.profile.earliest_arrival(tau)


class StationToStationEngine:
    """Reusable engine: build once per (graph, distance table) pair.

    ``kernel`` selects the per-subset search implementation: ``python``
    (the reference object-graph SPCS) or ``flat`` (the flat-array
    kernel over a packed :class:`TDGraphArrays`; identical reduced
    profiles, several times faster).  All pruning hooks — the stopping
    criterion, Theorem 3 distance-table pruning and Theorem 4 target
    pruning — run identically on either kernel because the pruner
    speaks the integer verdict-code protocol.
    """

    def __init__(
        self,
        graph: TDGraph,
        table: DistanceTable | None = None,
        *,
        num_threads: int = 8,
        strategy: str = "equal-connections",
        stopping: bool = True,
        table_pruning: bool = True,
        target_pruning: bool = True,
        queue: str = "binary",
        kernel: str = "python",
        arrays: TDGraphArrays | None = None,
        station_graph: StationGraph | None = None,
    ) -> None:
        if kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from {KERNELS}"
            )
        self.graph = graph
        self.table = table
        self.num_threads = num_threads
        self.strategy = strategy
        self.stopping = stopping
        self.table_pruning = table_pruning and table is not None
        self.target_pruning = target_pruning and table is not None
        self.queue = queue
        self.kernel = kernel
        # Shared prepared artifacts (the service facade injects both so
        # every engine over one dataset reuses one pack / one station
        # graph); standalone construction falls back to the memoized
        # pack cache and a fresh station graph.
        if kernel == "flat":
            self._arrays = arrays if arrays is not None else packed_arrays(graph)
            # Pay the kernel-side mirror build at engine construction,
            # not inside the first query's timed search loop.
            self._arrays.kernel_adjacency()
        else:
            self._arrays = None
        self.station_graph: StationGraph = (
            station_graph
            if station_graph is not None
            else build_station_graph(graph.timetable)
        )
        num_stations = graph.num_stations
        self._transfer_mask = np.zeros(num_stations, dtype=bool)
        if table is not None:
            self._transfer_mask[table.transfer_stations] = True
        #: Per-target via info, reused across queries to the same
        #: target (the mask and station graph are fixed per engine).
        self._via_cache: dict[int, ViaInfo] = {}

    def needs_search(self, source: int, target: int) -> bool:
        """Whether :meth:`query` has to search at all: not for
        ``"trivial"`` and ``"table"`` queries, which it answers in
        microseconds from what is already in memory."""
        return source != target and not self._both_in_table(source, target)

    def _both_in_table(self, source: int, target: int) -> bool:
        table = self.table
        return (
            table is not None
            and table.contains(source)
            and table.contains(target)
        )

    def classify(self, source: int, target: int) -> tuple[str, ViaInfo | None]:
        """Classify a query; the via info is reused by the pruner."""
        if source == target:
            return "trivial", None
        if self._both_in_table(source, target):
            return "table", None
        if self.table is None or not self.table_pruning:
            return "local", None
        via_info = self._via_cache.get(target)
        if via_info is None:
            via_info = compute_via_stations(
                self.station_graph, target, self._transfer_mask
            )
            self._via_cache[target] = via_info
        return via_info.classify(source), via_info

    def query(self, source: int, target: int) -> StationToStationResult:
        """All best connections from ``source`` to ``target`` over a full
        period, as a reduced profile."""
        graph = self.graph
        if not graph.is_station_node(source) or not graph.is_station_node(target):
            raise ValueError("source and target must be station nodes")

        start_total = time.perf_counter()
        classification, via_info = self.classify(source, target)

        if classification == "trivial":
            profile = Profile(
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                graph.timetable.period,
            )
            return StationToStationResult(
                source=source,
                target=target,
                profile=profile,
                classification="trivial",
                settled_connections=0,
                time_per_thread=[],
                merge_time=0.0,
                total_time=time.perf_counter() - start_total,
            )

        if classification == "table":
            # Both endpoints are transfer stations: the table already
            # holds all best connections (paper §4, Special Cases).
            profile = self.table.profile_between(source, target)
            return StationToStationResult(
                source=source,
                target=target,
                profile=profile,
                classification="table",
                settled_connections=0,
                time_per_thread=[],
                merge_time=0.0,
                total_time=time.perf_counter() - start_total,
            )

        timetable = graph.timetable
        conns = timetable.outgoing_connections(source)
        conn_deps = [c.dep_time for c in conns]
        parts = PARTITION_STRATEGIES[self.strategy](
            conn_deps, self.num_threads, timetable.period
        )

        use_table = (
            classification == "global"
            and self.table is not None
            and self.table_pruning
            and via_info is not None
        )
        pruner: DistanceTablePruner | None = None
        if use_table:
            pruner = DistanceTablePruner(
                graph,
                self.table,
                source,
                target,
                tuple(sorted(via_info.via_stations)),
                target_pruning=self.target_pruning,
            )
        elif (
            self.table is not None
            and self.target_pruning
            and self.table.contains(target)
        ):
            # Local query to a transfer-station target: Theorem 4 only.
            pruner = DistanceTablePruner(
                graph, self.table, source, target, (), target_pruning=True
            )

        # Ancestry must not count the source station itself: the pruner
        # skips source settles (they have not boarded connection i), so
        # γ's validity condition has to require a *contributing*
        # transfer-station ancestor.
        ancestry_mask = None
        if pruner is not None:
            ancestry_mask = self._transfer_mask.copy()
            ancestry_mask[source] = False

        thread_results = []
        times: list[float] = []
        for subset in parts:
            t0 = time.perf_counter()
            thread_results.append(
                run_spcs_search(
                    graph,
                    self._arrays,
                    source,
                    connection_subset=subset,
                    target=target if self.stopping else None,
                    pruner=pruner,
                    transfer_stations=ancestry_mask,
                    queue=self.queue,
                )
            )
            times.append(time.perf_counter() - t0)

        t_merge = time.perf_counter()
        merged = merge_thread_results(thread_results, len(conns))
        # Fold in arrivals recorded by target pruning (Theorem 4).
        if pruner is not None and pruner.final_arrivals:
            for g, arrival in pruner.final_arrivals.items():
                if arrival < merged.labels[target, g]:
                    merged.labels[target, g] = arrival
        profile = merged.profile(target)
        merge_time = time.perf_counter() - t_merge

        settled = sum(r.stats.settled_connections for r in thread_results)
        return StationToStationResult(
            source=source,
            target=target,
            profile=profile,
            classification=classification,
            settled_connections=settled,
            time_per_thread=times,
            merge_time=merge_time,
            total_time=time.perf_counter() - start_total,
            table_prunes=pruner.prunes if pruner else 0,
            connection_stops=pruner.connection_stops if pruner else 0,
        )
