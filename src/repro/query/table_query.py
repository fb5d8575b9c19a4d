"""Station-to-station queries with distance-table pruning (paper §4).

Combines, per query:

* the **stopping criterion** (Theorem 2) — always on by default;
* **distance-table pruning** (Theorem 3) for *global* queries: per
  (connection, via-station) upper bounds ``µ_{i,j}`` maintained at
  transfer-station settles, pruning nodes that provably cannot improve
  the arrival at any via station of the target — the reference
  kernel's rule only;
* **target pruning** (Theorem 4) when the target is itself a transfer
  station: per-connection lower bounds ``γ_i``, valid once every queue
  item has a transfer-station ancestor, stopping a connection's search
  outright when upper and lower bounds meet;
* the ``S, T ∈ S_trans`` **shortcut**: answer straight from the table.

The §3.2 partition splits ``conn(S)`` into subsets that one query runs
one after another, and since all pruning state (``µ_{i,j}``, ``γ_i``,
the final arrivals) is indexed per connection, sharing one pruner
across the subsets' runs is behaviourally identical to per-subset
state.

One :class:`DistanceTablePruner` per query holds that state.  The
reference kernel consults it through the settle-hook protocol of
:mod:`repro.core.spcs`; the flat kernel reads the same object as flat
data and applies Theorem 4 inside its loop (``docs/KERNEL.md``).  The
flat kernel runs no Theorem 3: it cut settles and saved no time, so a
flat engine with ``table_pruning`` and a table is refused, and the
facade's engine runs Theorem 4 alone.  A query keeps one row of
labels — the target's — per subset, never the ``nodes × connections``
matrix.

With the stopping criterion on, the flat kernel's search is also
*goal-directed*: the engine computes one vector of lower bounds to the
target per query (:meth:`TDGraphArrays.lower_bounds_to`) and every
subset's run keys its queue by arrival + bound — table or no table.
The reference kernel stays the paper's algorithm to the letter.

The :class:`~repro.service.TransitService` facade is the usual way to
reach this engine (``service.journey``): it injects the shared
prepared artifacts via the ``arrays=``/``station_graph=`` parameters
so repeated engine construction over one dataset re-packs nothing
(docs/API.md).  Direct construction stays supported and behaves
identically.  An engine is stateless after its constructor: whatever a
query derives (via stations, the pruner, ``π_T``) lives and dies with
that query.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.partition import PARTITION_STRATEGIES
from repro.core.spcs import PRUNE_CONNECTION, PRUNE_NODE, PRUNE_NONE
from repro.core.parallel import KERNELS
from repro.core.spcs_kernel import run_spcs_search
from repro.graph.td_arrays import TDGraphArrays, packed_arrays
from repro.functions.algebra import Profile
from repro.functions.piecewise import INF_TIME
from repro.graph.station_graph import StationGraph, build_station_graph
from repro.query.distance_table import DistanceTable
from repro.query.via import ViaInfo, compute_via_stations

if TYPE_CHECKING:
    from repro.graph.td_model import TDGraph


class DistanceTablePruner:
    """Theorems 3 and 4 for one query: the state, and the settle hook.

    One state, two readers.  The reference kernel
    (:func:`~repro.core.spcs.spcs_profile_search`) calls
    :meth:`on_settle` once per live settle and acts on the verdict; the
    flat kernel (:func:`~repro.core.spcs_kernel.spcs_kernel_search`)
    applies Theorem 4 inside its loop, per queue item so that it
    survives goal direction (``docs/KERNEL.md``), reading the public
    fields below directly — and refuses a state with via stations.
    ``on_settle`` is therefore both the readable statement of the
    paper's rules and, with the reference kernel, the oracle the flat
    loop's answers are tested against — it evaluates ``D`` through the
    table, the loop by indexing the per-minute rows
    (:meth:`DistanceTable.row`) :meth:`target_row` hands it.

    ``num_connections`` (``|conn(source)|``), ``transfer_time``,
    ``contributes`` and ``node_station`` are what the engine already
    knows or derives from its own constants; each is derived here from
    ``graph`` when omitted — given all four, ``graph`` may be ``None``.
    """

    def __init__(
        self,
        graph: TDGraph | None,
        table: DistanceTable,
        source: int,
        target: int,
        via_stations: tuple[int, ...],
        *,
        target_pruning: bool = True,
        num_connections: int | None = None,
        transfer_time: list[int] | None = None,
        contributes: bytes | None = None,
        node_station: Sequence[int] | None = None,
    ) -> None:
        self._table = table
        self.source = source
        self.target = target
        self.via = via_stations
        #: Theorem 4 applies only to a transfer-station target.
        self.target_pruning = target_pruning and table.contains(target)
        self.node_station = (
            node_station if node_station is not None else graph.node_station
        )
        #: ``T(S)`` per station, so also the station count.
        self.transfer_time = (
            transfer_time
            if transfer_time is not None
            else [s.transfer_time for s in graph.timetable.stations]
        )
        #: Per node: its station is a transfer station other than the
        #: source — the settles the rules look at, and the ancestors
        #: that make γ valid.
        self.contributes = (
            contributes
            if contributes is not None
            else self.ancestry_mask[self.node_station].tobytes()
        )
        num_conns = (
            num_connections
            if num_connections is not None
            else len(graph.timetable.outgoing_connections(source))
        )
        #: µ_{i,j}: upper bound on the earliest train catchable at via
        #: station j for connection i, even with a transfer there.
        self.mu: list[list[int] | None] = [None] * num_conns
        #: γ_i: tentative lower bound on the arrival at T (Theorem 4).
        self.gamma = [INF_TIME] * num_conns
        #: Arrivals at T that target pruning found through the table
        #: and dropped queue items against: the hook records one when
        #: it stops connection i, the flat loop the best any settled
        #: transfer station offered i.  The query folds them in.
        self.final_arrivals: dict[int, int] = {}
        #: Per station, filled on first settle there: the profile to the
        #: target as a per-minute row.
        self.target_rows: list[array | None] = [None] * len(self.transfer_time)
        #: Diagnostics.
        self.mu_updates = 0
        self.prunes = 0
        self.connection_stops = 0

    @property
    def ancestry_mask(self) -> np.ndarray:
        """``S_trans`` without the source, as a station mask.

        Ancestry must not count the source station itself: source
        settles are skipped below (they have not boarded connection i),
        so γ's validity condition has to require a *contributing*
        transfer-station ancestor."""
        mask = np.zeros(len(self.transfer_time), dtype=bool)
        mask[self._table.transfer_stations] = True
        mask[self.source] = False
        return mask

    def target_row(self, station: int) -> array:
        """The per-minute row of ``D(station, target, ·)``."""
        row = self._table.row(station, self.target)
        self.target_rows[station] = row
        return row

    def on_settle(
        self, node: int, conn_index: int, arrival: int, ancestry_complete: bool
    ) -> int:
        station = self.node_station[node]
        if station == self.source:
            # Settles that never left the source (its seed route nodes,
            # the source station node, re-boarding platforms) do not
            # represent paths starting with connection i: letting them
            # contribute µ/γ would encode "wait for a later train" —
            # sound for mid-day anchors, where reduction covers it with
            # a later-index connection, but *wrong* for the last trains
            # of the day, whose cheaper alternative wraps past midnight
            # to a smaller index that reduction cannot substitute.
            return PRUNE_NONE
        table = self._table
        if not table.contains(station):
            return PRUNE_NONE
        transfer_here = self.transfer_time[station]
        dist = table.earliest_arrival  # D(a, b, τ); D(a, a, τ) = τ

        if self.target_pruning:
            target = self.target
            gamma = min(self.gamma[conn_index], dist(station, target, arrival))
            self.gamma[conn_index] = gamma
            if ancestry_complete and gamma < INF_TIME:
                # No transfer is needed to *be* at the target.
                upper = dist(
                    station,
                    target,
                    arrival if station == target else arrival + transfer_here,
                )
                if upper <= gamma:
                    best = self.final_arrivals.get(conn_index, INF_TIME)
                    if upper < best:
                        self.final_arrivals[conn_index] = upper
                    self.connection_stops += 1
                    return PRUNE_CONNECTION

        if not self.via:
            return PRUNE_NONE

        # Theorem 3: update µ_{i,j} from this transfer-station settle...
        mu = self.mu[conn_index]
        if mu is None:
            mu = self.mu[conn_index] = [INF_TIME] * len(self.via)
        for j, via in enumerate(self.via):
            # Already at via j: nothing to ride, no transfer before it.
            ready = arrival if station == via else arrival + transfer_here
            reach = dist(station, via, ready)
            if reach >= INF_TIME:
                continue
            candidate = reach + self.transfer_time[via]
            if candidate < mu[j]:
                mu[j] = candidate
                self.mu_updates += 1

        # ... then prune if v provably cannot matter for any via station.
        for j, via in enumerate(self.via):
            if dist(station, via, arrival) <= mu[j]:
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
    #: µ_{i,j} bounds lowered (Theorem 3, the reference kernel's hook).
    mu_updates: int = 0

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
    profiles, several times faster).  Both read one
    :class:`DistanceTablePruner` state per query, the reference
    through its settle hook, the flat kernel inline; ``stopping``
    gives either kernel its target, which on the flat kernel also
    makes the search goal-directed (fewer settled connections, the
    same profile).  ``table_pruning`` (Theorem 3) is the reference
    kernel's: a flat engine with a table must be given
    ``table_pruning=False``, and then classifies every searched query
    ``"local"``.  ``queue`` is accepted for callers that still name
    one, and must be ``"binary"`` on either kernel.

    The flat kernel reads the stations, the period, ``st(u)`` and
    ``T(S)`` off the pack, never the object graph: with ``arrays`` and
    ``station_graph`` given, ``graph`` may be ``None`` (the facade's
    engine, which a loaded generation serves without ever building
    one).
    """

    def __init__(
        self,
        graph: TDGraph | None,
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
        if queue != "binary":
            raise ValueError(
                f"unknown queue {queue!r}; the only queue is 'binary'"
            )
        if num_threads < 1:
            raise ValueError(f"need at least one thread, got {num_threads}")
        if strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {strategy!r}; "
                f"choose from {sorted(PARTITION_STRATEGIES)}"
            )
        self.graph = graph
        self.table = table
        self.num_threads = num_threads
        self.strategy = strategy
        self.stopping = stopping
        self.table_pruning = table_pruning and table is not None
        if self.table_pruning and kernel == "flat":
            raise ValueError(
                "the flat kernel runs no Theorem 3: pass "
                "table_pruning=False, or kernel='python' for the "
                "reference rule"
            )
        self.target_pruning = target_pruning and table is not None
        self.kernel = kernel
        # Shared prepared artifacts (the service facade injects both so
        # every engine over one dataset reuses one pack / one station
        # graph); standalone construction falls back to the graph's
        # own pack and a fresh station graph.
        if kernel == "flat":
            self._arrays = arrays if arrays is not None else packed_arrays(graph)
        else:
            self._arrays = None
        self.station_graph: StationGraph = (
            station_graph
            if station_graph is not None
            else build_station_graph(graph.timetable)
        )
        # Constants of every search, kept out of the query.  The engine
        # holds nothing else: after this constructor no query assigns
        # to it.
        packed = self._arrays
        if packed is not None:
            self._num_stations = packed.num_stations
            self._period = packed.period
            self._transfer_time = packed.transfer_time.tolist()
            self._node_station = np.asarray(packed.node_station, dtype=np.int64)
            # st(u) as the loop indexes it, one Python int per read.
            self._station_of: Sequence[int] = array(
                "q", self._node_station.tobytes()
            )
        else:
            self._num_stations = graph.num_stations
            self._period = graph.timetable.period
            self._transfer_time = [
                s.transfer_time for s in graph.timetable.stations
            ]
            self._station_of = graph.node_station
            self._node_station = np.asarray(graph.node_station, dtype=np.int64)
        self._transfer_mask = np.zeros(self._num_stations, dtype=bool)
        if table is not None:
            self._transfer_mask[table.transfer_stations] = True

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
        via_info = compute_via_stations(
            self.station_graph, target, self._transfer_mask
        )
        return via_info.classify(source), via_info

    def query(self, source: int, target: int) -> StationToStationResult:
        """All best connections from ``source`` to ``target`` over a full
        period, as a reduced profile."""
        graph = self.graph
        n = self._num_stations
        if not (0 <= source < n and 0 <= target < n):
            raise ValueError("source and target must be station nodes")

        start_total = time.perf_counter()
        classification, via_info = self.classify(source, target)

        if classification == "trivial":
            profile = Profile(
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                self._period,
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

        if self._arrays is not None:
            conn_deps = np.asarray(
                self._arrays.source_connection_arrays(source)[0],
                dtype=np.int64,
            )
        else:
            conns = graph.timetable.outgoing_connections(source)
            conn_deps = np.asarray(
                [c.dep_time for c in conns], dtype=np.int64
            )
        period = self._period
        parts = PARTITION_STRATEGIES[self.strategy](
            conn_deps.tolist(), self.num_threads, period
        )

        # One pruner for all subsets: µ, γ and the final arrivals are
        # per connection, so the serially-run subsets share one state.
        pruner: DistanceTablePruner | None = None
        if classification == "global" and via_info is not None:
            via = tuple(sorted(via_info.via_stations))
            pruner = self._pruner(
                source, target, via, self.target_pruning, conn_deps.size
            )
        elif (
            self.table is not None
            and self.target_pruning
            and self.table.contains(target)
        ):
            # Local query to a transfer-station target: Theorem 4 only.
            pruner = self._pruner(source, target, (), True, conn_deps.size)

        # Goal direction (flat kernel): one π_T for all subsets' runs.
        potential = None
        if self.stopping and self._arrays is not None:
            potential = self._arrays.lower_bounds_to(target)

        # A station-to-station answer is one row of the label matrix:
        # read it off each subset's run and merge rows, not matrices.
        arrivals = np.full(conn_deps.size, INF_TIME, dtype=np.int64)
        settled = 0
        times: list[float] = []
        for subset in parts:
            t0 = time.perf_counter()
            run = run_spcs_search(
                graph,
                self._arrays,
                source,
                connection_subset=subset,
                target=target if self.stopping else None,
                pruner=pruner,
                potential=potential,
            )
            times.append(time.perf_counter() - t0)
            arrivals[run.conn_indices] = run.labels[target]
            settled += run.stats.settled_connections

        t_merge = time.perf_counter()
        # Fold in arrivals recorded by target pruning (Theorem 4).
        if pruner is not None:
            for g, arrival in pruner.final_arrivals.items():
                if arrival < arrivals[g]:
                    arrivals[g] = arrival
        profile = Profile.from_raw(conn_deps, arrivals, period)
        merge_time = time.perf_counter() - t_merge

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
            mu_updates=pruner.mu_updates if pruner else 0,
        )

    def _pruner(
        self,
        source: int,
        target: int,
        via: tuple[int, ...],
        target_pruning: bool,
        num_connections: int,
    ) -> DistanceTablePruner:
        mask = self._transfer_mask.copy()
        mask[source] = False  # as DistanceTablePruner.ancestry_mask
        return DistanceTablePruner(
            self.graph,
            self.table,
            source,
            target,
            via,
            target_pruning=target_pruning,
            num_connections=num_connections,
            transfer_time=self._transfer_time,
            contributes=mask[self._node_station].tobytes(),
            node_station=self._station_of,
        )
