"""Oracle-equivalence harness for the flat multi-criteria kernel.

:func:`repro.core.multicriteria.mc_kernel_search` must be
indistinguishable — arrival for arrival, front for front — from two
independent implementations:

* :func:`repro.core.mc_reference.mc_reference_search`, the readable
  object-graph version of the same §6 algorithm;
* :func:`repro.baselines.mc_time_query.mc_time_query`, a layered
  time-dependent Dijkstra (one query per departure time) that shares
  nothing with either but the graph.

The input distribution is Hypothesis-generated and adversarial on
purpose: short periods with trains wrapping them, zero transfer times,
duplicate trains, an express overtaking the local on the same leg
(non-FIFO route edges) and — a consequence of small integer times —
exact arrival ties everywhere.  Raw labels may legitimately differ on
such ties (see the contract in the kernel's module doc and the pinned
case below); reduced profiles, arrivals and fronts may not.

Two regression guards ride along, one per finding that decided the
kernel's design: its heap tie-break (work) and its label store
(memory).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.mc_time_query import mc_time_query
from repro.core.mc_reference import mc_reference_search
from repro.core.multicriteria import mc_kernel_search, mc_profile_search
from repro.graph.td_arrays import pack_td_graph
from repro.graph.td_model import build_td_graph
from repro.synthetic.instances import make_instance
from repro.timetable.builder import TimetableBuilder

from tests.strategies import adversarial_timetables


def _probe_times(result, period: int) -> list[int]:
    """Every anchor, its neighbours, and the same one period on."""
    taus = {0, period - 1}
    for dep in result.conn_deps.tolist():
        taus.update((dep - 1, dep, dep + 1, dep + period))
    return sorted(t for t in taus if t >= 0)


def _assert_same_answers(flat, reference, graph, max_transfers: int) -> None:
    period = graph.timetable.period
    taus = _probe_times(reference, period)
    budgets = range(max_transfers + 2)  # one past: clamps to the top layer
    assert flat.conn_deps.tolist() == reference.conn_deps.tolist()
    for station in range(graph.num_stations):
        for k in budgets:
            assert flat.profile_points(station, k) == reference.profile_points(
                station, k
            ), (station, k)
        for tau in taus:
            assert flat.pareto_front(station, tau) == reference.pareto_front(
                station, tau
            ), (station, tau)
            for k in budgets:
                assert flat.arrival(station, tau, k) == reference.arrival(
                    station, tau, k
                ), (station, tau, k)


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
    def test_flat_matches_reference_and_layered_dijkstra(
        self, timetable, self_pruning, max_transfers, data
    ):
        graph = build_td_graph(timetable)
        arrays = pack_td_graph(graph)
        source = data.draw(st.integers(0, graph.num_stations - 1))
        flat = mc_kernel_search(
            arrays,
            source,
            max_transfers=max_transfers,
            self_pruning=self_pruning,
        )
        reference = mc_reference_search(
            graph,
            source,
            max_transfers=max_transfers,
            self_pruning=self_pruning,
        )
        _assert_same_answers(flat, reference, graph, max_transfers)

        for tau in _probe_times(reference, timetable.period):
            truth = mc_time_query(
                graph, source, tau, max_transfers=max_transfers
            )
            for station in range(graph.num_stations):
                if station == source:
                    continue  # the baseline is "already there" at tau
                assert flat.pareto_front(station, tau) == truth.pareto_front(
                    station
                ), (source, station, tau)
                for k in range(max_transfers + 1):
                    assert flat.arrival(
                        station, tau, k
                    ) == truth.arrival_at_station(station, k), (
                        source, station, tau, k,
                    )

    @settings(deadline=None, max_examples=25)
    @given(timetable=adversarial_timetables())
    def test_self_pruning_changes_work_not_answers(self, timetable):
        graph = build_td_graph(timetable)
        arrays = pack_td_graph(graph)
        pruned = mc_kernel_search(arrays, 0, max_transfers=3)
        plain = mc_kernel_search(
            arrays, 0, max_transfers=3, self_pruning=False
        )
        _assert_same_answers(pruned, plain, graph, 3)
        assert plain.stats.pruned == 0
        assert pruned.stats.settled <= plain.stats.settled


@pytest.mark.parametrize(
    "instance,scale",
    [("oahu", "tiny"), ("washington", "tiny"), ("germany", "tiny")],
)
@pytest.mark.parametrize("self_pruning", [True, False])
def test_flat_matches_reference_on_instance_grids(
    instance, scale, self_pruning
):
    graph = build_td_graph(make_instance(instance, scale=scale))
    arrays = pack_td_graph(graph)
    # Unpruned searches settle 4-5x the items: probe fewer sources.
    for source in range(0, graph.num_stations, 5 if self_pruning else 17):
        flat = mc_kernel_search(arrays, source, self_pruning=self_pruning)
        reference = mc_reference_search(
            graph, source, self_pruning=self_pruning
        )
        for station in range(graph.num_stations):
            for k in range(6):
                assert flat.profile_points(
                    station, k
                ) == reference.profile_points(station, k)
            for tau in (0, 480, 1000, 2000):
                assert flat.pareto_front(
                    station, tau
                ) == reference.pareto_front(station, tau)


# ---------------------------------------------------------------------------
# The contract's fine print, and the kernel's edges
# ---------------------------------------------------------------------------


def _duplicate_train_graph():
    """Two identical trains s0 → s1 (depart 0, arrive 1): the smallest
    input on which the two implementations' raw labels differ."""
    builder = TimetableBuilder(period=60, name="tie")
    a = builder.add_station("s0", transfer_time=0)
    b = builder.add_station("s1", transfer_time=0)
    builder.add_trip([(a, 0), (b, 1)])
    builder.add_trip([(a, 0), (b, 1)])
    return build_td_graph(builder.build())


def test_raw_labels_may_differ_on_an_exact_tie():
    """Both duplicate connections seed one route node at time 0.  The
    kernel pops the later one first, which then self-prunes its twin;
    the reference's heap pops the earlier one first, and nothing is
    pruned (maxconn only ever rises).  Same profile either way."""
    graph = _duplicate_train_graph()
    flat = mc_kernel_search(pack_td_graph(graph), 0, max_transfers=1)
    reference = mc_reference_search(graph, 0, max_transfers=1)

    inf = int(flat.labels.max())
    assert flat.labels[1].tolist() == [[inf, inf], [1, 1]]
    assert reference.labels[1].tolist() == [[1, 1], [1, 1]]
    assert (flat.stats.settled, flat.stats.pruned) == (4, 1)
    assert (reference.stats.settled, reference.stats.pruned) == (6, 0)

    _assert_same_answers(flat, reference, graph, 1)
    assert flat.profile_points(1, 0) == [(0, 1)]


def test_public_entry_point_runs_the_kernel(germany_tiny_graph):
    """``mc_profile_search(graph, …)`` is the kernel on the memoized
    pack; ``queue`` is accepted and changes nothing."""
    arrays = pack_td_graph(germany_tiny_graph)
    direct = mc_kernel_search(arrays, 3, max_transfers=2)
    for queue in ("binary", "4-ary", "lazy"):
        public = mc_profile_search(
            germany_tiny_graph, 3, max_transfers=2, queue=queue
        )
        assert np.array_equal(public.labels, direct.labels)
        assert public.stats == direct.stats


def test_labels_are_a_view_of_one_buffer(germany_tiny_graph):
    """(b) of the design notes: the result exposes the search's own
    label buffer, not a converted copy of it."""
    result = mc_profile_search(germany_tiny_graph, 0)
    assert result.labels.dtype == np.int64
    assert not result.labels.flags.owndata
    assert result.labels.shape == (
        germany_tiny_graph.num_nodes,
        result.conn_deps.size,
        result.max_transfers + 1,
    )


def test_kernel_rejects_bad_inputs(toy_graph):
    arrays = pack_td_graph(toy_graph)
    with pytest.raises(ValueError, match="station node"):
        mc_kernel_search(arrays, toy_graph.num_nodes - 1)
    with pytest.raises(ValueError, match="max_transfers"):
        mc_kernel_search(arrays, 0, max_transfers=-1)


def test_source_without_departures_is_a_no_op():
    builder = TimetableBuilder()
    a, b = builder.add_station("a"), builder.add_station("b")
    builder.add_station("island")
    builder.add_trip([(a, 100), (b, 130)])
    graph = build_td_graph(builder.build())
    result = mc_kernel_search(pack_td_graph(graph), 2)
    assert result.labels.shape == (graph.num_nodes, 0, 6)
    assert result.stats.settled == 0
    assert result.pareto_front(1, 0) == []
    assert result.profile_points(1, 5) == []


def test_time_dependent_edge_out_of_a_station_keeps_its_layer(toy_graph):
    """Only *constant* edges out of a station are boardings.  A
    hand-built graph may hang a (here zero-point, so never usable)
    travel-time function on a station node; the kernel must evaluate it
    like the reference instead of stepping the layer or crashing."""
    from repro.functions.piecewise import TravelTimeFunction
    from repro.graph.td_model import Edge

    toy_graph.adjacency[1].append(
        Edge(toy_graph.num_stations, 0, TravelTimeFunction([], []))
    )
    try:
        flat = mc_kernel_search(pack_td_graph(toy_graph), 0, max_transfers=2)
        reference = mc_reference_search(toy_graph, 0, max_transfers=2)
        _assert_same_answers(flat, reference, toy_graph, 2)
    finally:
        toy_graph.adjacency[1].pop()


# ---------------------------------------------------------------------------
# Regression guards for the two design findings
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def germany_small():
    graph = build_td_graph(make_instance("germany", scale="small"))
    return graph, pack_td_graph(graph)


GUARD_SOURCES = (0, 7, 19, 33)


def test_kernel_settles_no_more_than_the_reference(germany_small):
    """(a) the heap tie-break.  Later connection first, then fewer
    transfers, lets self-pruning fire on ties; with ascending order the
    kernel settles 1.2–3x what the reference does on these sources."""
    graph, arrays = germany_small
    for source in GUARD_SOURCES:
        flat = mc_kernel_search(arrays, source).stats
        reference = mc_reference_search(graph, source).stats
        assert flat.settled <= reference.settled, source
        assert flat.queue_pushes <= reference.queue_pushes, source


def _traced_peak(search) -> int:
    tracemalloc.start()
    try:
        result = search()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stats.settled > 0
    return peak


def test_kernel_peak_memory_no_higher_than_the_reference(germany_small):
    """(b) the label store.  Labels in an ``array('q')`` buffer cost the
    reference's 8 bytes each; a Python list of the same N·C·L labels
    peaks at ~3x (boxed ints) and fails this."""
    graph, arrays = germany_small
    arrays.kernel_adjacency()  # a per-dataset cache, not search memory
    for source in GUARD_SOURCES[:2]:  # tracing slows a search ~10x
        flat = _traced_peak(lambda: mc_kernel_search(arrays, source))
        reference = _traced_peak(lambda: mc_reference_search(graph, source))
        assert flat <= reference, (source, flat, reference)
