"""Unit tests for the time-dependent Dijkstra baseline (paper §2)."""

import pytest

from repro.baselines.time_query import time_query
from repro.functions.piecewise import INF_TIME


class TestToyAnswers:
    """Hand-checked answers on the 4-station toy network.

    Lines: A→B→C every 30' (15'/leg, from 08:00), C→D every 40'
    (20', from 08:10), A→D direct hourly (70', from 08:20).
    Transfers: A=2, B=3, C=1, D=2.
    """

    def test_direct_ride(self, toy_graph):
        result = time_query(toy_graph, 0, 480)  # depart A at 08:00
        assert result.arrival_at_station(1) == 495  # B 08:15
        assert result.arrival_at_station(2) == 510  # C 08:30

    def test_transfer_respected(self, toy_graph):
        # Arrive C 08:30; with transfer time 1 the 08:30 C→D train is
        # missed too tightly?  No: trains run 08:10, 08:50, 09:30; the
        # first boardable departure after 08:31 is 08:50, arriving 09:10.
        result = time_query(toy_graph, 0, 480)
        assert result.arrival_at_station(3) == 550  # D 09:10 via 08:50 train

    def test_direct_beats_transfer_when_departing_0820(self, toy_graph):
        result = time_query(toy_graph, 0, 500)  # 08:20
        # Direct A→D 08:20 arrives 09:30 (570); via C also 570 — equal.
        assert result.arrival_at_station(3) == 570

    def test_waiting_at_source_has_no_transfer_cost(self, toy_graph):
        # Departing A at 07:59 may still catch the 08:00 train.
        result = time_query(toy_graph, 0, 479)
        assert result.arrival_at_station(1) == 495

    def test_source_arrival_is_departure(self, toy_graph):
        result = time_query(toy_graph, 0, 480)
        assert result.arrival_at_station(0) == 480
        assert result.travel_time(0) == 0

    def test_wraps_to_next_day(self, toy_graph):
        result = time_query(toy_graph, 0, 720)  # noon: all trips done
        assert result.arrival_at_station(1) == 1440 + 495

    def test_travel_time(self, toy_graph):
        result = time_query(toy_graph, 0, 480)
        assert result.travel_time(2) == 30

    def test_unreachable_station(self):
        from repro.graph.td_model import build_td_graph
        from repro.timetable.builder import TimetableBuilder

        builder = TimetableBuilder()
        a, b = builder.add_station("a"), builder.add_station("b")
        builder.add_station("island")
        builder.add_trip([(a, 10), (b, 20)])
        graph = build_td_graph(builder.build())
        result = time_query(graph, 0, 0)
        assert result.arrival_at_station(2) == INF_TIME
        assert result.travel_time(2) == INF_TIME


class TestOptions:
    def test_early_termination_at_target(self, toy_graph):
        full = time_query(toy_graph, 0, 480)
        stopped = time_query(toy_graph, 0, 480, target=1)
        assert stopped.arrival_at_station(1) == full.arrival_at_station(1)
        assert stopped.settled <= full.settled

    def test_rejects_non_station_source(self, toy_graph):
        with pytest.raises(ValueError, match="station"):
            time_query(toy_graph, toy_graph.num_nodes - 1, 0)

    def test_rejects_non_station_target(self, toy_graph):
        with pytest.raises(ValueError, match="station"):
            time_query(toy_graph, 0, 0, target=toy_graph.num_nodes - 1)


class TestLabelSetting:
    def test_settled_counts_bounded_by_nodes(self, toy_graph):
        result = time_query(toy_graph, 0, 480)
        assert 0 < result.settled <= toy_graph.num_nodes

    def test_monotone_in_departure_time(self, oahu_tiny_graph):
        """FIFO network ⇒ leaving later never arrives earlier."""
        early = time_query(oahu_tiny_graph, 0, 400)
        late = time_query(oahu_tiny_graph, 0, 460)
        for station in range(oahu_tiny_graph.num_stations):
            a, b = early.arrival_at_station(station), late.arrival_at_station(station)
            if a < INF_TIME and b < INF_TIME:
                assert b >= a
