"""Tests for the multi-criteria extension (paper §6 future work):
profile search over (arrival time, number of transfers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multicriteria import mc_profile_search
from repro.core.spcs import spcs_profile_search
from repro.functions.piecewise import INF_TIME
from repro.graph.td_model import build_td_graph

from tests.helpers import random_line_timetable
from tests.oracles.mc_time_query import mc_time_query


class TestToyAnswers:
    """On the toy network (A→B→C line, C→D line, slow A→D direct):
    reaching D either needs one transfer (via C) or zero (direct)."""

    def test_direct_vs_transfer_tradeoff(self, toy_graph):
        result = mc_profile_search(toy_graph, 0, max_transfers=3)
        # Depart 08:00: via C arrives 09:10 with 1 transfer; the direct
        # (0-transfer) train leaves 08:20 and arrives 09:30.
        assert result.arrival(3, 480, 0) == 570
        assert result.arrival(3, 480, 1) == 550
        front = result.pareto_front(3, 480)
        assert front == [(0, 570), (1, 550)]

    def test_zero_budget_forbids_transfers(self, toy_graph):
        result = mc_profile_search(toy_graph, 0, max_transfers=0)
        # B and C are on the direct line (no transfer); fine.
        assert result.arrival(1, 480, 0) == 495
        assert result.arrival(2, 480, 0) == 510

    def test_monotone_in_budget(self, toy_graph):
        result = mc_profile_search(toy_graph, 0, max_transfers=4)
        for station in range(toy_graph.num_stations):
            for tau in (0, 480, 700):
                arrivals = [
                    result.arrival(station, tau, k) for k in range(5)
                ]
                assert all(
                    later <= earlier
                    for earlier, later in zip(arrivals, arrivals[1:])
                )

    def test_large_budget_matches_single_criterion(self, toy_graph):
        """With an ample transfer budget the best arrival equals the
        unconstrained SPCS profile."""
        mc = mc_profile_search(toy_graph, 0, max_transfers=6)
        single = spcs_profile_search(toy_graph, 0)
        for station in range(1, toy_graph.num_stations):
            profile = single.profile(station)
            for tau in range(400, 800, 37):
                assert mc.arrival(station, tau, 6) == profile.earliest_arrival(tau)

    def test_rejects_bad_arguments(self, toy_graph):
        with pytest.raises(ValueError, match="station"):
            mc_profile_search(toy_graph, toy_graph.num_nodes - 1)
        with pytest.raises(ValueError, match="max_transfers"):
            mc_profile_search(toy_graph, 0, max_transfers=-1)

    def test_profile_points_reduced(self, toy_graph):
        result = mc_profile_search(toy_graph, 0, max_transfers=3)
        points = result.profile_points(3, 3)
        arrivals = [dep + dur for dep, dur in points]
        assert arrivals == sorted(arrivals)
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))


class TestAgainstLayeredDijkstra:
    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=800))
    def test_matches_mc_time_query_at_anchors(self, seed):
        """The MC profile evaluated at any anchor equals the layered
        transfer-bounded Dijkstra for every budget."""
        graph = build_td_graph(
            random_line_timetable(seed, num_stations=8, num_lines=4)
        )
        max_transfers = 3
        mc = mc_profile_search(graph, 0, max_transfers=max_transfers)
        anchors = sorted(
            {c.dep_time for c in graph.timetable.outgoing_connections(0)}
        )
        for tau in anchors[:: max(1, len(anchors) // 6)]:
            truth = mc_time_query(graph, 0, tau, max_transfers=max_transfers)
            for station in range(1, graph.num_stations):
                for k in range(max_transfers + 1):
                    assert mc.arrival(station, tau, k) == truth.arrival_at_station(
                        station, k
                    ), (seed, station, tau, k)

    @settings(deadline=None, max_examples=6)
    @given(seed=st.integers(min_value=0, max_value=800))
    def test_self_pruning_lossless(self, seed):
        graph = build_td_graph(
            random_line_timetable(seed, num_stations=7, num_lines=4)
        )
        pruned = mc_profile_search(graph, 0, max_transfers=3)
        plain = mc_profile_search(graph, 0, max_transfers=3, self_pruning=False)
        for station in range(1, graph.num_stations):
            for tau in range(0, 1440, 177):
                for k in range(4):
                    assert pruned.arrival(station, tau, k) == plain.arrival(
                        station, tau, k
                    ), (seed, station, tau, k)

    @settings(deadline=None, max_examples=6)
    @given(seed=st.integers(min_value=0, max_value=800))
    def test_pareto_fronts_non_dominated(self, seed):
        graph = build_td_graph(
            random_line_timetable(seed, num_stations=7, num_lines=4)
        )
        mc = mc_profile_search(graph, 0, max_transfers=4)
        for station in range(1, graph.num_stations):
            front = mc.pareto_front(station, 480)
            transfers = [k for k, _ in front]
            arrivals = [a for _, a in front]
            assert transfers == sorted(transfers)
            assert all(b < a for a, b in zip(arrivals, arrivals[1:]))


class TestWorkReduction:
    def test_self_pruning_reduces_settles(self, oahu_tiny_graph):
        pruned = mc_profile_search(oahu_tiny_graph, 0, max_transfers=3)
        plain = mc_profile_search(
            oahu_tiny_graph, 0, max_transfers=3, self_pruning=False
        )
        assert pruned.stats.pruned > 0
        assert pruned.stats.settled < plain.stats.settled

    def test_stats_populated(self, toy_graph):
        stats = mc_profile_search(toy_graph, 0, max_transfers=2).stats
        assert stats.settled > 0
        assert stats.queue_pushes > 0


class TestMcTimeQuery:
    def test_transfer_bound_zero(self, toy_graph):
        truth = mc_time_query(toy_graph, 0, 480, max_transfers=2)
        assert truth.arrival_at_station(3, 0) == 570  # direct only
        assert truth.arrival_at_station(3, 1) == 550  # via C
        assert truth.pareto_front(3) == [(0, 570), (1, 550)]

    def test_rejects_bad_arguments(self, toy_graph):
        with pytest.raises(ValueError, match="station"):
            mc_time_query(toy_graph, toy_graph.num_nodes - 1, 0)
        with pytest.raises(ValueError, match="max_transfers"):
            mc_time_query(toy_graph, 0, 0, max_transfers=-1)

    def test_unreachable_is_infinite(self, toy_graph):
        # D has no outgoing trains: from D everything else is unreachable.
        truth = mc_time_query(toy_graph, 3, 480, max_transfers=3)
        assert truth.arrival_at_station(0, 3) == INF_TIME
