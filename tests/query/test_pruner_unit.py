"""Unit tests for DistanceTablePruner internals (paper §4, Theorems
3/4) — in particular the source-station exclusion that guards against
the midnight-wrap unsoundness (see table_query.py comments)."""

import numpy as np
import pytest

from repro.core.spcs import PRUNE_CONNECTION, PRUNE_NODE, PRUNE_NONE
from repro.graph.td_arrays import packed_arrays
from repro.query.distance_table import build_distance_table
from repro.query.table_query import DistanceTablePruner
from repro.query.transfer_selection import select_transfer_stations


@pytest.fixture(scope="module")
def setup(request):
    graph = request.getfixturevalue("oahu_tiny_graph")
    stations = select_transfer_stations(
        graph.timetable, method="contraction", fraction=0.3
    )
    table = build_distance_table(packed_arrays(graph), stations)
    return graph, table, stations


def _route_node_at(graph, station):
    for node in range(graph.num_stations, graph.num_nodes):
        if graph.node_station[node] == station:
            return node
    raise AssertionError(f"no route node at station {station}")


class TestSourceExclusion:
    def test_source_settles_never_contribute(self, setup):
        graph, table, stations = setup
        source = int(stations[0])  # transfer-station source: the risky case
        target = int(stations[1])
        pruner = DistanceTablePruner(
            graph, table, source, target, (target,), target_pruning=True
        )
        node = _route_node_at(graph, source)
        verdict = pruner.on_settle(node, 0, 480, True)
        assert verdict == PRUNE_NONE
        assert pruner.mu_updates == 0
        assert pruner.final_arrivals == {}

    def test_non_source_transfer_contributes(self, setup):
        graph, table, stations = setup
        source = int(stations[0])
        via = int(stations[1])
        other = int(stations[2])
        pruner = DistanceTablePruner(
            graph, table, source, via, (via,), target_pruning=False
        )
        node = _route_node_at(graph, other)
        pruner.on_settle(node, 0, 480, False)
        assert pruner.mu_updates > 0


class TestPruneDecisions:
    def test_non_transfer_station_ignored(self, setup):
        graph, table, stations = setup
        non_transfer = next(
            s for s in range(graph.num_stations) if not table.contains(s)
        )
        pruner = DistanceTablePruner(
            graph, table, 0, int(stations[0]), (int(stations[0]),)
        )
        node = _route_node_at(graph, non_transfer)
        assert pruner.on_settle(node, 0, 480, True) == PRUNE_NONE
        assert pruner.mu_updates == 0

    def test_via_station_itself_not_pruned(self, setup):
        graph, table, stations = setup
        via = int(stations[1])
        pruner = DistanceTablePruner(
            graph, table, 0, via, (via,), target_pruning=False
        )
        node = _route_node_at(graph, via)
        # At the via station the lower bound is the arrival itself and µ
        # is at least arrival + transfer — never prunable.
        assert pruner.on_settle(node, 0, 480, False) == PRUNE_NONE

    def test_hopeless_node_pruned(self, setup):
        graph, table, stations = setup
        via = int(stations[1])
        other = int(stations[2])
        pruner = DistanceTablePruner(
            graph, table, 0, via, (via,), target_pruning=False
        )
        # Establish a tight µ from the via station itself ...
        pruner.on_settle(_route_node_at(graph, via), 0, 480, False)
        # ... then a much later settle elsewhere must be pruned.
        verdict = pruner.on_settle(_route_node_at(graph, other), 0, 1400, False)
        assert verdict == PRUNE_NODE
        assert pruner.prunes == 1

    def test_target_pruning_needs_valid_gamma(self, setup):
        graph, table, stations = setup
        source = next(
            s for s in range(graph.num_stations) if not table.contains(s)
        )
        target = int(stations[1])
        other = int(stations[2])
        pruner = DistanceTablePruner(
            graph, table, source, target, (target,), target_pruning=True
        )
        node = _route_node_at(graph, other)
        # Without ancestry completeness, never PRUNE_CONNECTION.
        verdict = pruner.on_settle(node, 0, 480, False)
        assert verdict != PRUNE_CONNECTION
        # Settling *at the target* with complete ancestry stops the
        # connection with the recorded arrival.
        target_node = _route_node_at(graph, target)
        verdict = pruner.on_settle(target_node, 0, 490, True)
        assert verdict == PRUNE_CONNECTION
        assert pruner.final_arrivals[0] == 490
