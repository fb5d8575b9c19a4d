"""Realistic time-dependent model (paper §2, Fig. 1).

For a timetable, the graph contains:

* one **station node** per station (ids ``0 .. |S|−1``);
* one **route node** per (route, position) pair — a route running
  through ``k`` stations contributes ``k`` route nodes;
* a constant **boarding edge** station → route node with weight
  ``T(S)`` (the minimum transfer time);
* a constant **alighting edge** route node → station with weight 0;
* a **time-dependent route edge** between consecutive route nodes of a
  route, carrying the elementary connections of that leg as a
  :class:`~repro.functions.piecewise.TravelTimeFunction`.

Starting a journey at station ``S`` does **not** pay ``T(S)``: profile
searches seed the queue directly at route nodes (paper §3.1), so the
boarding cost applies only to actual transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.functions.piecewise import TravelTimeFunction
from repro.timetable.routes import connections_by_route_leg, partition_routes
from repro.timetable.types import Connection, Route, Timetable

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.graph.td_arrays import TDGraphArrays


class Edge(NamedTuple):
    """One outgoing edge in the time-dependent graph.

    ``ttf is None`` ⇒ constant edge of weight ``weight`` (transfer /
    alight); otherwise a time-dependent route edge (``weight`` unused).
    """

    target: int
    weight: int
    ttf: TravelTimeFunction | None

    def arrival(self, t: int) -> int:
        """Absolute arrival at ``target`` when leaving the tail at ``t``."""
        if self.ttf is None:
            return t + self.weight
        return self.ttf.arrival(t)


@dataclass(slots=True)
class TDGraph:
    """The realistic time-dependent graph of a timetable."""

    timetable: Timetable
    routes: list[Route]
    #: adjacency[u] — outgoing edges of node u.
    adjacency: list[list[Edge]]
    #: node_station[u] — st(u): the station a node belongs to.
    node_station: list[int]
    #: route node id of (route_id, position).
    route_node_ids: dict[tuple[int, int], int]
    #: starting route node of an elementary connection, keyed by
    #: (train, dep_station, dep_time).  A train may depart twice at one
    #: time point — a delay or slack recovery can move a departure onto
    #: the previous one's minute — but not from one station:
    #: ``apply_delays`` refuses such a delay.
    conn_start_node: dict[tuple[int, int, int], int]
    #: The packed twin (:func:`repro.graph.td_arrays.packed_arrays`),
    #: owned by the graph it was packed from and freed with it.
    _arrays: TDGraphArrays | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_nodes(self) -> int:
        return len(self.adjacency)

    @property
    def num_stations(self) -> int:
        return self.timetable.num_stations

    @property
    def num_route_nodes(self) -> int:
        return self.num_nodes - self.num_stations

    @property
    def num_edges(self) -> int:
        return sum(len(edges) for edges in self.adjacency)

    def is_station_node(self, u: int) -> bool:
        return 0 <= u < self.num_stations

    def station_of(self, u: int) -> int:
        """``st(u)``: the station node ``u`` belongs to."""
        return self.node_station[u]

    def source_route_node(self, connection: Connection) -> int:
        """Route node where an elementary connection starts (SPCS init)."""
        try:
            return self.conn_start_node[
                (connection.train, connection.dep_station, connection.dep_time)
            ]
        except KeyError:
            raise KeyError(
                f"connection is not part of this graph's timetable: {connection}"
            ) from None


def build_td_graph(timetable: Timetable) -> TDGraph:
    """Construct the realistic time-dependent graph from a timetable."""
    routes = partition_routes(timetable)
    legs = connections_by_route_leg(timetable, routes)

    num_stations = timetable.num_stations
    node_station: list[int] = list(range(num_stations))
    route_node_ids: dict[tuple[int, int], int] = {}

    for route in routes:
        for pos, station in enumerate(route.stations):
            route_node_ids[(route.id, pos)] = num_stations + len(route_node_ids)
            node_station.append(station)

    num_nodes = num_stations + len(route_node_ids)
    adjacency: list[list[Edge]] = [[] for _ in range(num_nodes)]

    for route in routes:
        for pos, station in enumerate(route.stations):
            route_node = route_node_ids[(route.id, pos)]
            transfer = timetable.transfer_time(station)
            # Boarding: only where the route actually departs (every
            # position but the last has a departing leg).
            if pos < route.num_legs:
                adjacency[station].append(Edge(route_node, transfer, None))
            # Alighting: only where the route actually arrives.
            if pos > 0:
                adjacency[route_node].append(Edge(station, 0, None))

        for pos in range(route.num_legs):
            conns = legs.get((route.id, pos), [])
            if not conns:
                continue
            ttf = TravelTimeFunction.from_connections(conns, timetable.period)
            adjacency[route_node_ids[(route.id, pos)]].append(
                Edge(route_node_ids[(route.id, pos + 1)], 0, ttf)
            )

    conn_start_node: dict[tuple[int, int, int], int] = {}
    for (route_id, pos), conns in legs.items():
        node = route_node_ids[(route_id, pos)]
        for c in conns:
            conn_start_node[(c.train, c.dep_station, c.dep_time)] = node

    return TDGraph(
        timetable=timetable,
        routes=routes,
        adjacency=adjacency,
        node_station=node_station,
        route_node_ids=route_node_ids,
        conn_start_node=conn_start_node,
    )
