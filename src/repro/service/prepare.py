"""Prepare-once artifact construction for :class:`TransitService`.

The paper's pipeline is *one dataset prepared once, queried many
times*: timetable → time-dependent graph → (optionally) transfer
stations and the profile distance table.  :func:`prepare_dataset`
performs that pipeline exactly once and returns a
:class:`PreparedDataset` snapshot owning every shared artifact, with
:class:`PrepareStats` timing and size accounting for benchmarks.

Every pack is built one way, from a timetable and its routes
(:func:`~repro.graph.td_arrays.pack_timetable`), and no served path
builds the object graph.  Delay replanning
(:meth:`TransitService.apply_delays`) re-derives only the artifacts
delays can affect.  Delayed trains keep their routes, so the routes,
the station graph and the transfer-station selection (a pure function
of the station graph) are *shared* with the original dataset; the
packed arrays and the distance table carry travel times and are
rebuilt — re-packed over the shared routes and rescanned by
:func:`replan_dataset`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.station_graph import StationGraph, build_station_graph
from repro.graph.td_arrays import TDGraphArrays, pack_timetable
from repro.graph.td_model import TDGraph, build_td_graph
from repro.query.distance_table import DistanceTable, build_distance_table
from repro.query.transfer_selection import select_transfer_stations
from repro.service.config import ServiceConfig
from repro.timetable.routes import partition_routes
from repro.timetable.types import Route, Timetable


@dataclass(frozen=True, slots=True)
class PrepareStats:
    """Wall-clock and size accounting of one preparation run.

    All times in seconds.  ``graph_seconds`` times the route
    partition (:func:`~repro.timetable.routes.partition_routes`), the
    one step of the time-dependent graph a pack does not do itself —
    no served path builds the object graph; the name is the one
    benchmarks read.  ``packed_bytes`` is the size of the packed
    arrays every dataset carries (built or loaded);
    ``selection_seconds``/``table_seconds``/``table_mib`` are zero
    when the distance table is off.  ``shared_station_graph`` records
    whether the station graph (and transfer selection) were inherited
    from a prior service instead of rebuilt: a delay replan
    (:func:`replan_dataset`).
    ``loaded_from_store`` marks a warm start from the artifact store
    (:mod:`repro.store`): nothing was built, so every stage is zero.
    A replan shares its parent's routes: its ``graph_seconds`` is
    zero and ``pack_seconds`` is the re-pack.
    """

    graph_seconds: float
    station_graph_seconds: float
    pack_seconds: float
    selection_seconds: float
    table_seconds: float
    total_seconds: float
    num_stations: int
    num_nodes: int
    num_edges: int
    num_connections: int
    packed_bytes: int
    num_transfer_stations: int
    table_mib: float
    shared_station_graph: bool = False
    loaded_from_store: bool = False


@dataclass(frozen=True, slots=True)
class TimetableCounts:
    """A timetable's name and sizes: what serving reads of it — the
    ``/v1/datasets`` entry, the wire parsers' range checks — without
    the timetable itself.  A loaded dataset reads them off its store
    record's header."""

    name: str
    stations: int
    trains: int
    connections: int

    @classmethod
    def of(cls, timetable: Timetable) -> "TimetableCounts":
        return cls(
            timetable.name,
            timetable.num_stations,
            timetable.num_trains,
            timetable.num_connections,
        )


class PackMismatchError(ValueError):
    """A loaded pack is not the pack of the routes its timetable
    partitions into: the store's ``dataset.bin`` and ``arrays/`` come
    from different datasets."""


def _check_pack(routes: list[Route], arrays: TDGraphArrays) -> None:
    """Raise :class:`PackMismatchError` unless ``arrays`` has the node
    stations, the edge count and the points per travel-time function
    of the graph ``routes`` make (``build_td_graph``'s numbering): a
    route of k stations and n trains adds k route nodes, 3(k − 1)
    edges and k − 1 functions of n points each, in route order."""
    num_edges = sum(3 * route.num_legs for route in routes)
    if num_edges != arrays.num_edges:
        raise PackMismatchError(
            f"the routes of the timetable make {num_edges} edges, "
            f"the loaded pack {arrays.num_edges}"
        )
    for what, built, packed in (
        (
            "node_station",
            [
                *range(arrays.num_stations),
                *(station for route in routes for station in route.stations),
            ],
            arrays.node_station.tolist(),
        ),
        (
            "points per travel-time function",
            [len(route.trains) for route in routes for _ in range(route.num_legs)],
            np.diff(arrays.ttf_indptr).tolist(),
        ),
    ):
        if built == packed:
            continue
        if len(built) != len(packed):
            detail = f"{len(built)} entries, the loaded pack {len(packed)}"
        else:
            i = next(i for i, (a, b) in enumerate(zip(built, packed)) if a != b)
            detail = f"{built[i]} at index {i}, the loaded pack {packed[i]}"
        raise PackMismatchError(
            f"{what} differs: the routes of the timetable make {detail}"
        )


class PreparedDataset:
    """Immutable snapshot of every shared artifact of one dataset.

    Engines never rebuild any of these: the facade injects them into
    :class:`~repro.query.table_query.StationToStationEngine` and
    :func:`~repro.core.parallel.parallel_profile_search`, so packing,
    station-graph construction and table building happen at most once
    per service instance (``tests/service/test_facade.py`` pins this
    with call counters).  No query assigns to any of them either, a
    distance table's lazy per-pair rows and lookup profiles excepted
    (``docs/KERNEL.md``, "What a generation owns").

    A served search reads the pack, the station graph, the transfer
    stations, the table and :attr:`counts` — never ``timetable``,
    ``routes`` or ``graph``.  Those three are built on first access,
    once, under a lock, when the dataset was not given them: whoever
    asks first — a delay swap, a save, an oracle — builds it, and
    every other asker gets that one object.  A cold prepare is given
    its timetable and routes, a replan its delayed timetable and its
    parent's routes (delays keep routes); a dataset loaded from a
    store (:mod:`repro.store`) neither, but a timetable builder
    (``hydrate_timetable``) and its ``counts``.  No dataset is given
    its graph.  The routes are ``partition_routes(timetable)`` and
    must match the pack (:class:`PackMismatchError` otherwise); the
    graph, which only an oracle asks for, is
    ``build_td_graph(timetable)``, built only after the routes have
    passed that check, and takes the pack as its own.  The timetable
    builder is dropped once its timetable is published; the record it
    built from stays open only for the train names, which the
    timetable decodes when one is first read.
    """

    def __init__(
        self,
        timetable: Timetable | None,
        config: ServiceConfig,
        station_graph: StationGraph,
        arrays: TDGraphArrays,
        transfer_stations: np.ndarray | None,
        table: DistanceTable | None,
        stats: PrepareStats,
        *,
        routes: list[Route] | None = None,
        counts: TimetableCounts | None = None,
        hydrate_timetable: Callable[[], Timetable] | None = None,
    ) -> None:
        self._timetable = timetable
        self._routes = routes
        self._graph: TDGraph | None = None
        self._hydrate_timetable = hydrate_timetable
        # Re-entrant: the graph needs the routes, the routes the timetable.
        self._hydrating = threading.RLock()
        self.config = config
        self.station_graph = station_graph
        #: The pack: what every served search reads.
        self.arrays = arrays
        #: Sorted transfer-station ids (``None`` when the table is off).
        self.transfer_stations = transfer_stations
        self.table = table
        self.stats = stats
        self.counts = (
            counts if counts is not None else TimetableCounts.of(timetable)
        )

    @property
    def timetable(self) -> Timetable:
        """The timetable, built on first access if it was loaded."""
        timetable = self._timetable
        if timetable is None:
            with self._hydrating:
                if self._timetable is None:
                    built = self._hydrate_timetable()
                    self._timetable, self._hydrate_timetable = built, None
                timetable = self._timetable
        return timetable

    @property
    def routes(self) -> list[Route]:
        """The timetable's routes, partitioned on first access if the
        dataset was loaded, and checked against its pack then."""
        routes = self._routes
        if routes is None:
            with self._hydrating:
                if self._routes is None:
                    built = partition_routes(self.timetable)
                    _check_pack(built, self.arrays)
                    self._routes = built
                routes = self._routes
        return routes

    @property
    def graph(self) -> TDGraph:
        """The object graph, built from the timetable on first access;
        it owns :attr:`arrays` as its pack."""
        graph = self._graph
        if graph is None:
            with self._hydrating:
                if self._graph is None:
                    self.routes  # a loaded pack is checked before it is owned
                    built = build_td_graph(self.timetable)
                    built._arrays = self.arrays
                    self._graph = built
                graph = self._graph
        return graph

    @property
    def hydrated(self) -> frozenset[str]:
        """Which of ``"timetable"`` and ``"graph"`` exist: the
        timetable alone after a cold prepare or a replan, neither after
        a load, until something asks for them."""
        return frozenset(
            name
            for name, value in (
                ("timetable", self._timetable),
                ("graph", self._graph),
            )
            if value is not None
        )


def prepare_dataset(
    timetable: Timetable, config: ServiceConfig
) -> PreparedDataset:
    """Run the prepare-once pipeline for ``(timetable, config)``.

    A delayed timetable is not prepared here but replanned
    (:func:`replan_dataset`); a cold build of it is the oracle a
    replan is tested against.
    """
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    routes = partition_routes(timetable)
    graph_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    station_graph = build_station_graph(timetable)
    station_graph_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    arrays = pack_timetable(timetable, routes)
    pack_seconds = time.perf_counter() - t0

    selection_seconds = 0.0
    table_seconds = 0.0
    table: DistanceTable | None = None
    table_mib = 0.0
    if config.use_distance_table:
        t0 = time.perf_counter()
        transfer_stations = select_transfer_stations(
            timetable,
            method=config.transfer_selection,
            fraction=config.transfer_fraction,
            min_degree=config.min_degree,
            station_graph=station_graph,
        )
        selection_seconds = time.perf_counter() - t0
        if transfer_stations.size:
            t0 = time.perf_counter()
            table = build_distance_table(arrays, transfer_stations)
            table_seconds = time.perf_counter() - t0
            table_mib = table.size_mib()
    else:
        transfer_stations = None

    stats = PrepareStats(
        graph_seconds=graph_seconds,
        station_graph_seconds=station_graph_seconds,
        pack_seconds=pack_seconds,
        selection_seconds=selection_seconds,
        table_seconds=table_seconds,
        total_seconds=time.perf_counter() - t_start,
        num_stations=timetable.num_stations,
        num_nodes=arrays.num_nodes,
        num_edges=arrays.num_edges,
        num_connections=timetable.num_connections,
        packed_bytes=arrays.nbytes(),
        num_transfer_stations=(
            0 if transfer_stations is None else int(transfer_stations.size)
        ),
        table_mib=table_mib,
    )
    return PreparedDataset(
        timetable=timetable,
        config=config,
        station_graph=station_graph,
        arrays=arrays,
        transfer_stations=transfer_stations,
        table=table,
        stats=stats,
        routes=routes,
    )


def replan_dataset(
    prepared: PreparedDataset, delayed: Timetable
) -> PreparedDataset:
    """Delta replan, the one way a generation is derived from a delay
    batch: a :class:`PreparedDataset` for the delayed timetable that
    shares ``prepared``'s routes, station graph and transfer stations.

    ``delayed`` must be ``apply_delays(prepared.timetable, batch)``.
    Its pack is built over ``prepared``'s routes by the call
    :func:`prepare_dataset` makes
    (:func:`~repro.graph.td_arrays.pack_timetable`), handed
    ``prepared``'s pack so as to reuse the forward-mirror row of every
    travel-time function the batch left alone, and a configured
    table over that pack by the call it makes too
    (:func:`~repro.query.distance_table.build_distance_table`), every
    row of it new.  The result is value-identical to
    ``prepare_dataset(delayed, config)``: delays keep every train's
    route, so the cold build's routes, station graph and transfer
    stations are the parent's (``tests/service/test_delay_replanning.py``
    pins all three), and that cold build is the oracle
    (``tests/streams/test_incremental_equivalence.py``).
    """
    config = prepared.config
    t_start = time.perf_counter()

    routes = prepared.routes
    t0 = time.perf_counter()
    arrays = pack_timetable(delayed, routes, prepared.arrays)
    pack_seconds = time.perf_counter() - t0

    table: DistanceTable | None = None
    table_seconds = 0.0
    table_mib = 0.0
    if prepared.table is not None:
        t0 = time.perf_counter()
        table = build_distance_table(arrays, prepared.transfer_stations)
        table_seconds = time.perf_counter() - t0
        table_mib = table.size_mib()

    stats = PrepareStats(
        graph_seconds=0.0,
        station_graph_seconds=0.0,
        pack_seconds=pack_seconds,
        selection_seconds=0.0,
        table_seconds=table_seconds,
        total_seconds=time.perf_counter() - t_start,
        num_stations=delayed.num_stations,
        num_nodes=arrays.num_nodes,
        num_edges=arrays.num_edges,
        num_connections=delayed.num_connections,
        packed_bytes=arrays.nbytes(),
        num_transfer_stations=prepared.stats.num_transfer_stations,
        table_mib=table_mib,
        shared_station_graph=True,
    )
    return PreparedDataset(
        timetable=delayed,
        config=config,
        station_graph=prepared.station_graph,
        arrays=arrays,
        transfer_stations=prepared.transfer_stations,
        table=table,
        stats=stats,
        routes=routes,
    )
