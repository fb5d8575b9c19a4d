"""Unit tests for the SPCS algorithm (paper §3.1)."""

import numpy as np
import pytest

from repro.core.spcs import spcs_profile_search
from repro.functions.piecewise import INF_TIME

from tests.oracles.mc_time_query import mc_time_query


class TestBasics:
    def test_profile_matches_time_queries(self, toy_graph):
        result = spcs_profile_search(toy_graph, 0)
        for station in (1, 2, 3):
            for dep, dur in result.profile(station).connection_points():
                truth = mc_time_query(
                    toy_graph, 0, dep, max_transfers=None
                ).arrival_at_station(station, 0)
                assert truth == dep + dur

    def test_rejects_route_node_source(self, toy_graph):
        with pytest.raises(ValueError, match="station"):
            spcs_profile_search(toy_graph, toy_graph.num_nodes - 1)

    def test_rejects_route_node_target(self, toy_graph):
        with pytest.raises(ValueError, match="station"):
            spcs_profile_search(toy_graph, 0, target=toy_graph.num_nodes - 1)

    def test_source_without_departures(self, toy_graph):
        result = spcs_profile_search(toy_graph, 3)
        assert result.labels.shape[1] == 0
        assert result.stats.settled_connections == 0

    def test_label_dimensions(self, toy_graph):
        result = spcs_profile_search(toy_graph, 0)
        conns = toy_graph.timetable.outgoing_connections(0)
        assert result.labels.shape == (toy_graph.num_nodes, len(conns))
        assert result.conn_indices.tolist() == list(range(len(conns)))

    def test_stats_populated(self, toy_graph):
        stats = spcs_profile_search(toy_graph, 0).stats
        assert stats.settled_connections > 0
        assert stats.queue_pushes > 0
        assert stats.relaxed_edges > 0


class TestConnectionSubset:
    def test_subset_columns_match_full_run(self, toy_graph):
        full = spcs_profile_search(toy_graph, 0)
        subset = [1, 3, 5]
        partial = spcs_profile_search(toy_graph, 0, connection_subset=subset)
        assert partial.conn_indices.tolist() == subset
        # Without cross-subset pruning, each column's finite entries may
        # only be a superset of the full run's (self-pruning removes
        # fewer connections); where both are finite they must agree.
        for local, global_idx in enumerate(subset):
            partial_col = partial.labels[:, local]
            full_col = full.labels[:, global_idx]
            both = (partial_col < INF_TIME) & (full_col < INF_TIME)
            assert (partial_col[both] == full_col[both]).all()

    def test_rejects_unsorted_subset(self, toy_graph):
        with pytest.raises(ValueError, match="ascending"):
            spcs_profile_search(toy_graph, 0, connection_subset=[3, 1])

    def test_rejects_out_of_range_subset(self, toy_graph):
        with pytest.raises(ValueError, match="range"):
            spcs_profile_search(toy_graph, 0, connection_subset=[999])

    def test_empty_subset(self, toy_graph):
        result = spcs_profile_search(toy_graph, 0, connection_subset=[])
        assert result.labels.shape[1] == 0


class TestSelfPruning:
    def test_profiles_identical_with_and_without(self, toy_graph):
        pruned = spcs_profile_search(toy_graph, 0, self_pruning=True)
        unpruned = spcs_profile_search(toy_graph, 0, self_pruning=False)
        for station in range(toy_graph.num_stations):
            assert pruned.profile(station) == unpruned.profile(station)

    def test_pruning_reduces_work(self, oahu_tiny_graph):
        pruned = spcs_profile_search(oahu_tiny_graph, 0, self_pruning=True)
        unpruned = spcs_profile_search(oahu_tiny_graph, 0, self_pruning=False)
        assert (
            pruned.stats.settled_connections
            < unpruned.stats.settled_connections
        )
        assert pruned.stats.pruned_self > 0
        assert unpruned.stats.pruned_self == 0

    def test_pruned_labels_marked_infinite(self, oahu_tiny_graph):
        """Self-pruned (node, connection) entries carry ∞ (paper §3.1)."""
        result = spcs_profile_search(oahu_tiny_graph, 0)
        assert result.stats.pruned_self > 0
        assert (result.labels == INF_TIME).any()


class TestStoppingCriterion:
    def test_target_profile_preserved(self, toy_graph):
        full = spcs_profile_search(toy_graph, 0)
        stopped = spcs_profile_search(toy_graph, 0, target=3)
        assert stopped.profile(3) == full.profile(3)

    def test_stopping_reduces_work(self, oahu_tiny_graph):
        full = spcs_profile_search(oahu_tiny_graph, 0)
        stopped = spcs_profile_search(oahu_tiny_graph, 0, target=1)
        assert (
            stopped.stats.settled_connections
            <= full.stats.settled_connections
        )
        assert stopped.stats.pruned_stopping > 0

    def test_all_targets_preserved(self, oahu_tiny_graph):
        full = spcs_profile_search(oahu_tiny_graph, 0)
        for target in range(1, min(6, oahu_tiny_graph.num_stations)):
            stopped = spcs_profile_search(oahu_tiny_graph, 0, target=target)
            assert stopped.profile(target) == full.profile(target), target
