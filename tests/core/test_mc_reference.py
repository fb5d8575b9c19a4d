"""Oracle equivalence for the whole-day multi-criteria search.

:func:`repro.core.mc_reference.mc_reference_search` — what
:func:`repro.core.multicriteria.mc_profile_search` runs — must equal,
front for front and arrival for arrival at every departure anchor,
:func:`tests.oracles.mc_time_query.mc_time_query`: a layered
time-dependent Dijkstra (one query per departure time) that shares
nothing with it but the graph — and, on the generated instances, the
fronts of :func:`repro.core.multicriteria.mc_time_search` at a few
departures.

The input distribution is Hypothesis-generated and adversarial on
purpose: short periods with trains wrapping them, zero transfer times,
duplicate trains, an express overtaking the local on the same leg
(non-FIFO route edges) and — a consequence of small integer times —
exact arrival ties everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mc_reference import mc_reference_search
from repro.core.multicriteria import mc_profile_search, mc_time_search
from repro.graph.td_arrays import pack_td_graph
from repro.graph.td_model import build_td_graph
from repro.synthetic.instances import make_instance
from repro.timetable.builder import TimetableBuilder

from tests.oracles.mc_time_query import mc_time_query
from tests.strategies import adversarial_timetables


def _probe_times(result, period: int) -> list[int]:
    """Every anchor, its neighbours, and the same one period on."""
    taus = {0, period - 1}
    for dep in result.conn_deps.tolist():
        taus.update((dep - 1, dep, dep + 1, dep + period))
    return sorted(t for t in taus if t >= 0)


def _assert_same_answers(result, other, graph, max_transfers: int) -> None:
    period = graph.timetable.period
    taus = _probe_times(result, period)
    budgets = range(max_transfers + 2)  # one past: clamps to the top layer
    assert result.conn_deps.tolist() == other.conn_deps.tolist()
    for station in range(graph.num_stations):
        for k in budgets:
            assert result.profile_points(station, k) == other.profile_points(
                station, k
            ), (station, k)
        for tau in taus:
            assert result.pareto_front(station, tau) == other.pareto_front(
                station, tau
            ), (station, tau)
            for k in budgets:
                assert result.arrival(station, tau, k) == other.arrival(
                    station, tau, k
                ), (station, tau, k)


def _assert_matches_layered_dijkstra(result, graph, max_transfers: int) -> None:
    source = result.source
    for tau in _probe_times(result, graph.timetable.period):
        truth = mc_time_query(graph, source, tau, max_transfers=max_transfers)
        for station in range(graph.num_stations):
            if station == source:
                continue  # the baseline is "already there" at tau
            assert result.pareto_front(station, tau) == truth.pareto_front(
                station
            ), (source, station, tau)
            for k in range(max_transfers + 1):
                assert result.arrival(
                    station, tau, k
                ) == truth.arrival_at_station(station, k), (
                    source, station, tau, k,
                )


class TestGeneratedTimetables:
    @settings(
        deadline=None,
        max_examples=150,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        timetable=adversarial_timetables(),
        self_pruning=st.booleans(),
        max_transfers=st.sampled_from([0, 1, 3]),
        data=st.data(),
    )
    def test_matches_layered_dijkstra(
        self, timetable, self_pruning, max_transfers, data
    ):
        graph = build_td_graph(timetable)
        source = data.draw(st.integers(0, graph.num_stations - 1))
        result = mc_reference_search(
            graph,
            source,
            max_transfers=max_transfers,
            self_pruning=self_pruning,
        )
        _assert_matches_layered_dijkstra(result, graph, max_transfers)

    @settings(deadline=None, max_examples=25)
    @given(timetable=adversarial_timetables())
    def test_self_pruning_changes_work_not_answers(self, timetable):
        graph = build_td_graph(timetable)
        pruned = mc_reference_search(graph, 0, max_transfers=3)
        plain = mc_reference_search(
            graph, 0, max_transfers=3, self_pruning=False
        )
        _assert_same_answers(pruned, plain, graph, 3)
        assert plain.stats.pruned == 0
        assert pruned.stats.settled <= plain.stats.settled


@pytest.mark.parametrize(
    "instance,scale",
    [("oahu", "tiny"), ("washington", "tiny"), ("germany", "tiny")],
)
@pytest.mark.parametrize("self_pruning", [True, False])
def test_matches_time_search_on_instance_grids(instance, scale, self_pruning):
    """On the generated instances the whole-day fronts, read at a
    departure, are the fixed-departure search's fronts there."""
    graph = build_td_graph(make_instance(instance, scale=scale))
    arrays = pack_td_graph(graph)
    # Unpruned searches settle 4-5x the items: probe fewer sources.
    for source in range(0, graph.num_stations, 5 if self_pruning else 17):
        result = mc_reference_search(graph, source, self_pruning=self_pruning)
        for tau in (0, 480, 1000, 2000):
            fixed = mc_time_search(arrays, source, tau)
            for station in range(graph.num_stations):
                if station == source:
                    continue  # the fixed search is "already there" at tau
                assert result.pareto_front(station, tau) == fixed.pareto_front(
                    station
                ), (source, station, tau)


# ---------------------------------------------------------------------------
# The entry point, and the search's edges
# ---------------------------------------------------------------------------


def test_duplicate_trains_tie():
    """Two identical trains s0 → s1 (depart 0, arrive 1) seed one route
    node at time 0.  The heap pops the earlier connection first, and
    nothing is pruned (maxconn only ever rises): both anchors keep
    their label, and the profile has the one point."""
    builder = TimetableBuilder(period=60, name="tie")
    a = builder.add_station("s0", transfer_time=0)
    b = builder.add_station("s1", transfer_time=0)
    builder.add_trip([(a, 0), (b, 1)])
    builder.add_trip([(a, 0), (b, 1)])
    graph = build_td_graph(builder.build())
    result = mc_reference_search(graph, 0, max_transfers=1)

    assert result.labels[1].tolist() == [[1, 1], [1, 1]]
    assert (result.stats.settled, result.stats.pruned) == (6, 0)
    assert result.profile_points(1, 0) == [(0, 1)]
    _assert_matches_layered_dijkstra(result, graph, 1)


def test_public_entry_point_runs_the_reference(germany_tiny_graph):
    """``mc_profile_search(graph, …)`` is the reference search."""
    direct = mc_reference_search(germany_tiny_graph, 3, max_transfers=2)
    assert np.array_equal(
        mc_profile_search(germany_tiny_graph, 3, max_transfers=2).labels,
        direct.labels,
    )


def test_labels_cover_every_node_anchor_and_layer(germany_tiny_graph):
    result = mc_profile_search(germany_tiny_graph, 0)
    assert result.labels.dtype == np.int64
    assert result.labels.shape == (
        germany_tiny_graph.num_nodes,
        result.conn_deps.size,
        result.max_transfers + 1,
    )


def test_rejects_bad_inputs(toy_graph):
    with pytest.raises(ValueError, match="station node"):
        mc_reference_search(toy_graph, toy_graph.num_nodes - 1)
    with pytest.raises(ValueError, match="max_transfers"):
        mc_reference_search(toy_graph, 0, max_transfers=-1)


def test_source_without_departures_is_a_no_op():
    builder = TimetableBuilder()
    a, b = builder.add_station("a"), builder.add_station("b")
    builder.add_station("island")
    builder.add_trip([(a, 100), (b, 130)])
    graph = build_td_graph(builder.build())
    result = mc_reference_search(graph, 2)
    assert result.labels.shape == (graph.num_nodes, 0, 6)
    assert result.stats.settled == 0
    assert result.pareto_front(1, 0) == []
    assert result.profile_points(1, 5) == []


def test_time_dependent_edge_out_of_a_station_keeps_its_layer(toy_graph):
    """Only *constant* edges out of a station are boardings.  A
    hand-built graph may hang a (here zero-point, so never usable)
    travel-time function on a station node; the search must evaluate it
    like the layered Dijkstra instead of stepping the layer or
    crashing."""
    from repro.functions.piecewise import TravelTimeFunction
    from repro.graph.td_model import Edge

    toy_graph.adjacency[1].append(
        Edge(toy_graph.num_stations, 0, TravelTimeFunction([], []))
    )
    try:
        result = mc_reference_search(toy_graph, 0, max_transfers=2)
        _assert_matches_layered_dijkstra(result, toy_graph, 2)
    finally:
        toy_graph.adjacency[1].pop()
