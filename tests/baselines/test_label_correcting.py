"""Unit tests for the label-correcting profile baseline (paper §2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.label_correcting import label_correcting_profile
from repro.functions.piecewise import INF_TIME
from repro.graph.td_model import build_td_graph

from tests.helpers import random_line_timetable
from tests.oracles.mc_time_query import mc_time_query


class TestToyProfiles:
    def test_profile_matches_time_queries(self, toy_graph):
        lc = label_correcting_profile(toy_graph, 0)
        profile = lc.profile(3)
        for dep, dur in profile.connection_points():
            truth = mc_time_query(toy_graph, 0, dep, max_transfers=None)
            assert truth.arrival_at_station(3, 0) == dep + dur

    def test_label_matrix_shape(self, toy_graph):
        lc = label_correcting_profile(toy_graph, 0)
        conns = toy_graph.timetable.outgoing_connections(0)
        assert lc.labels.shape == (toy_graph.num_nodes, len(conns))
        assert lc.conn_deps.tolist() == [c.dep_time for c in conns]

    def test_source_without_departures(self, toy_graph):
        lc = label_correcting_profile(toy_graph, 3)  # D has no departures
        assert lc.labels.shape[1] == 0
        assert lc.settled_connections == 0

    def test_rejects_route_node_source(self, toy_graph):
        with pytest.raises(ValueError, match="station"):
            label_correcting_profile(toy_graph, toy_graph.num_nodes - 1)

    def test_counts_positive(self, toy_graph):
        lc = label_correcting_profile(toy_graph, 0)
        assert lc.settled_connections > 0
        assert lc.queue_pops > 0


class TestScalarMode:
    def test_identical_labels(self, toy_graph):
        fast = label_correcting_profile(toy_graph, 0, vectorized=True)
        slow = label_correcting_profile(toy_graph, 0, vectorized=False)
        assert (fast.labels == slow.labels).all()
        assert fast.settled_connections == slow.settled_connections
        assert fast.queue_pops == slow.queue_pops

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_identical_on_random_networks(self, seed):
        graph = build_td_graph(
            random_line_timetable(seed, num_stations=8, num_lines=4)
        )
        fast = label_correcting_profile(graph, 0, vectorized=True)
        slow = label_correcting_profile(graph, 0, vectorized=False)
        assert (fast.labels == slow.labels).all()


class TestAgainstTimeQueries:
    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_anchor_evaluations_exact(self, seed):
        """Evaluating the reduced profile at each anchor must match a
        direct time-query (function equality; a kept point may be
        cyclically dominated by next-day service, which the evaluation
        resolves)."""
        graph = build_td_graph(
            random_line_timetable(seed, num_stations=8, num_lines=4)
        )
        lc = label_correcting_profile(graph, 0)
        conns = graph.timetable.outgoing_connections(0)
        if not conns:
            return
        # Skip the source itself: a time-query trivially "arrives" at the
        # departure time, whereas a profile tracks journeys returning to it.
        for station in range(1, graph.num_stations):
            profile = lc.profile(station, graph.timetable.period)
            for dep, _dur in profile.connection_points():
                truth = mc_time_query(
                    graph, 0, dep, max_transfers=None
                ).arrival_at_station(station, 0)
                assert truth == profile.earliest_arrival(dep)
