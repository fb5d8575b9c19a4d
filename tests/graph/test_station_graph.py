"""Unit tests for the station graph G_S (paper §4)."""

from repro.graph.station_graph import build_station_graph

from tests.helpers import toy_timetable


class TestBuildStationGraph:
    def test_edges_where_trains_run(self, toy):
        sg = build_station_graph(toy)
        assert sg.successors(0).tolist() == [1, 3]  # A→B (line 1), A→D (line 3)
        assert sg.successors(1).tolist() == [2]
        assert sg.successors(2).tolist() == [3]
        assert sg.successors(3).size == 0

    def test_weights_are_min_travel_time(self, toy):
        sg = build_station_graph(toy)
        weights = dict(
            zip(sg.successors(0).tolist(), sg.successor_weights(0).tolist())
        )
        assert weights[1] == 15  # A→B leg
        assert weights[3] == 70  # direct A→D

    def test_predecessors(self, toy):
        sg = build_station_graph(toy)
        assert sg.predecessors(3).tolist() == [0, 2]
        assert sg.predecessors(0).size == 0

    def test_degrees(self, toy):
        sg = build_station_graph(toy)
        assert sg.out_degree(0) == 2
        assert sg.in_degree(3) == 2
        # Undirected degree of B: neighbors {A, C}.
        assert sg.degree(1) == 2

    def test_num_edges(self, toy):
        sg = build_station_graph(toy)
        assert sg.num_edges == 4


def test_instance_station_graph(oahu_tiny):
    sg = build_station_graph(oahu_tiny)
    assert sg.num_stations == oahu_tiny.num_stations
    # Bidirectional lines ⇒ symmetric reachability: every out-neighbor
    # is also an in-neighbor.
    for s in range(sg.num_stations):
        assert set(sg.successors(s).tolist()) == set(sg.predecessors(s).tolist())
