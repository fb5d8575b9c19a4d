"""Unit tests for the realistic time-dependent model (paper §2, Fig. 1)."""

import pytest

from repro.functions.piecewise import TravelTimeFunction
from repro.graph.td_model import Edge, build_td_graph
from repro.timetable.builder import TimetableBuilder


@pytest.fixture()
def two_station_graph():
    """Fig. 1's shape: two stations, two routes through them."""
    builder = TimetableBuilder(name="fig1")
    s1 = builder.add_station("S1", transfer_time=3)
    s2 = builder.add_station("S2", transfer_time=4)
    # Route A (two trains, same sequence S1→S2).
    builder.add_trip([(s1, 100), (s2, 130)], name="Z1")
    builder.add_trip([(s1, 200), (s2, 230)], name="Z2")
    # Route B (opposite direction).
    builder.add_trip([(s2, 150), (s1, 180)], name="Z3")
    return build_td_graph(builder.build())


class TestStructure:
    def test_node_counts(self, two_station_graph):
        g = two_station_graph
        # 2 stations + 2 route nodes per route × 2 routes.
        assert g.num_stations == 2
        assert g.num_route_nodes == 4
        assert g.num_nodes == 6
        assert len(g.routes) == 2

    def test_trains_partition_into_routes(self, two_station_graph):
        routes = {r.stations: r.trains for r in two_station_graph.routes}
        assert routes[(0, 1)] == (0, 1)  # Z1, Z2 share the sequence
        assert routes[(1, 0)] == (2,)

    def test_station_nodes_first(self, two_station_graph):
        g = two_station_graph
        assert g.is_station_node(0) and g.is_station_node(1)
        assert not g.is_station_node(2)

    def test_node_station_mapping(self, two_station_graph):
        g = two_station_graph
        for (route_id, pos), node in g.route_node_ids.items():
            assert g.station_of(node) == g.routes[route_id].stations[pos]

    def test_boarding_edge_costs_transfer_time(self, two_station_graph):
        g = two_station_graph
        for edge in g.adjacency[0]:  # S1 station node
            assert edge.ttf is None
            assert edge.weight == 3  # T(S1)

    def test_boarding_only_where_route_departs(self, two_station_graph):
        g = two_station_graph
        # S1 boards route A at pos 0 and route B at pos 1 — but route B's
        # pos 1 is its terminus: no departing leg, so no boarding edge.
        boarding_targets = {e.target for e in g.adjacency[0]}
        route_a_start = g.route_node_ids[(0, 0)]
        assert boarding_targets == {route_a_start}

    def test_alighting_edges_zero_cost(self, two_station_graph):
        g = two_station_graph
        route_a_end = g.route_node_ids[(0, 1)]
        edges = g.adjacency[route_a_end]
        alight = [e for e in edges if e.ttf is None]
        assert len(alight) == 1
        assert alight[0].target == 1 and alight[0].weight == 0

    def test_route_edge_carries_connections(self, two_station_graph):
        g = two_station_graph
        route_a_start = g.route_node_ids[(0, 0)]
        td_edges = [e for e in g.adjacency[route_a_start] if e.ttf is not None]
        assert len(td_edges) == 1
        assert td_edges[0].ttf.connection_points() == [(100, 30), (200, 30)]

    def test_num_edges(self, two_station_graph):
        # Boarding: S1→A0, S2→B0.  Alight: A1→S2, B1→S1.  Route: A0→A1, B0→B1.
        assert two_station_graph.num_edges == 6


class TestSourceRouteNode:
    def test_maps_connections_to_start_nodes(self, two_station_graph):
        g = two_station_graph
        conns = g.timetable.outgoing_connections(0)
        for c in conns:
            node = g.source_route_node(c)
            assert g.station_of(node) == 0
            assert not g.is_station_node(node)

    def test_unknown_connection_rejected(self, two_station_graph):
        from repro.timetable.types import Connection

        foreign = Connection(
            train=0, dep_station=0, arr_station=1, dep_time=999, arr_time=1000
        )
        with pytest.raises(KeyError, match="not part of"):
            two_station_graph.source_route_node(foreign)


class TestEdge:
    def test_constant_edge_arrival(self):
        edge = Edge(target=1, weight=5, ttf=None)
        assert edge.arrival(100) == 105

    def test_td_edge_arrival(self):
        ttf = TravelTimeFunction([100], [30])
        edge = Edge(target=1, weight=0, ttf=ttf)
        assert edge.arrival(90) == 130


def test_instance_graph_consistency(oahu_tiny_graph):
    g = oahu_tiny_graph
    # Every adjacency target in range; st() consistent.
    for u, edges in enumerate(g.adjacency):
        for edge in edges:
            assert 0 <= edge.target < g.num_nodes
            if edge.ttf is None and g.is_station_node(u):
                # Boarding edges go to route nodes of the same station.
                assert g.station_of(edge.target) == u
