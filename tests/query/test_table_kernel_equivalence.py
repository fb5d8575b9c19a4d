"""Oracle-equivalence harness for the table-pruned search (paper §4).

The flat kernel applies Theorems 2–4 inside its loop; the reference
kernel asks :class:`~repro.query.table_query.DistanceTablePruner`'s
settle hook.  Whatever is switched on, on whichever kernel, over
however many connection subsets, a station-to-station answer must be
the reduced profile an unpruned one-to-all search reads off at the
target — and that of the label-correcting baseline, which shares
nothing with either kernel but the graph.

The timetables are Hypothesis-generated and adversarial on purpose
(:func:`tests.strategies.adversarial_timetables`: period wrap, zero
transfer times, duplicate and overtaking trains, stations without
departures), and so is ``S_trans``: any subset of the stations, so
targets inside and outside it, sources inside it, local and global
queries all occur.

Two guards pin the *mechanism* by count rather than by time: the
goal-directed searches do exactly the recorded work, never more than
the same loop did in plain arrival order, and the flat path calls no
Python per settle.
"""

from __future__ import annotations

import sys
from array import array
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.baselines.label_correcting import label_correcting_profile
from repro.functions.piecewise import INF_TIME
from repro.core.spcs import spcs_profile_search
from repro.graph.td_arrays import pack_td_graph, packed_arrays
from repro.graph.td_model import build_td_graph
from repro.query.distance_table import build_distance_table
from repro.query.table_query import StationToStationEngine
from repro.query.transfer_selection import select_transfer_stations
from repro.synthetic.instances import INSTANCE_NAMES, make_instance
from repro.timetable.builder import TimetableBuilder

from tests.strategies import adversarial_timetables

#: stopping × table_pruning × target_pruning.
TOGGLES = list(product([True, False], repeat=3))


class TestGeneratedTimetables:
    @settings(
        deadline=None,
        max_examples=150,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        timetable=adversarial_timetables(max_stations=12, max_lines=12),
        data=st.data(),
    )
    def test_every_configuration_answers_like_the_unpruned_search(
        self, timetable, data
    ):
        graph = build_td_graph(timetable)
        arrays = pack_td_graph(graph)
        num_stations = graph.num_stations
        transfer = data.draw(
            st.lists(
                st.integers(0, num_stations - 1),
                min_size=1,
                max_size=num_stations - 1,
                unique=True,
            ),
            label="S_trans",
        )
        # Any station: S_trans or not, with departures or without.
        source = data.draw(st.integers(0, num_stations - 1), label="source")
        table = build_distance_table(packed_arrays(graph), transfer)

        unpruned = spcs_profile_search(graph, source)
        baseline = label_correcting_profile(graph, source)
        truth = [unpruned.profile(t) for t in range(num_stations)]
        for t in range(num_stations):
            assert truth[t] == baseline.profile(t, timetable.period), t

        for kernel, threads, (stopping, table_pruning, target_pruning) in (
            product(("flat", "python"), (1, 3), TOGGLES)
        ):
            engine = StationToStationEngine(
                graph,
                table,
                num_threads=threads,
                stopping=stopping,
                table_pruning=table_pruning,
                target_pruning=target_pruning,
                kernel=kernel,
                arrays=arrays,
            )
            for target in range(num_stations):
                if target == source:
                    continue
                result = engine.query(source, target)
                event(
                    f"{result.classification}, target in S_trans: "
                    f"{table.contains(target)}"
                )
                assert result.profile == truth[target], (
                    kernel, threads, stopping, table_pruning,
                    target_pruning, source, target, result.classification,
                )


# ---------------------------------------------------------------------------
# What the flat loop's §4 update skip rests on
# ---------------------------------------------------------------------------
#
# At a settle of connection i at transfer station S, the flat loop lowers
# γ_i, U_i and µ_{i,·} only if S's station node holds no label no later
# than the settle's arrival (``docs/KERNEL.md``, "Where the §4 rules
# sit").  That is exact because of the two facts below: such a label
# was relaxed from a route node of S that had been through the whole
# update block at an arrival no later, and what the block reads of the
# table cannot have been lower there.


def _edges_into_station_nodes_leave_their_station(timetable) -> None:
    arrays = pack_td_graph(build_td_graph(timetable))
    tails = np.repeat(np.arange(arrays.num_nodes), np.diff(arrays.edge_indptr))
    into = arrays.edge_target < arrays.num_stations
    assert into.any()
    assert (tails[into] >= arrays.num_stations).all()  # from route nodes
    assert (arrays.node_station[tails[into]] == arrays.edge_target[into]).all()


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_an_instance_enters_a_station_node_from_its_own_station(name):
    _edges_into_station_nodes_leave_their_station(make_instance(name, "tiny"))


@settings(deadline=None, max_examples=100)
@given(timetable=adversarial_timetables(max_stations=12, max_lines=12))
def test_a_generated_timetable_enters_a_station_node_from_its_own_station(
    timetable,
):
    _edges_into_station_nodes_leave_their_station(timetable)


def _through_row(row, period: int, t: int) -> int:
    """``D(·, ·, t)`` as the flat loop evaluates it on a profile's
    per-minute row: one index, an empty row unreachable."""
    if not row:
        return INF_TIME
    tau = t % period
    return t - tau + row[tau]


@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    timetable=adversarial_timetables(max_stations=12, max_lines=12),
    data=st.data(),
)
def test_a_table_profile_never_arrives_earlier_for_leaving_later(
    timetable, data
):
    """Over two whole periods of absolute departure times, wrap included."""
    graph = build_td_graph(timetable)
    period = timetable.period
    transfer = data.draw(
        st.lists(
            st.integers(0, graph.num_stations - 1),
            min_size=1,
            max_size=graph.num_stations,
            unique=True,
        ),
        label="S_trans",
    )
    table = build_distance_table(packed_arrays(graph), transfer)
    stations = table.transfer_stations.tolist()
    for a in stations:
        for b in stations:
            row = table.row(a, b)
            arrivals = [
                _through_row(row, period, t) for t in range(2 * period + 1)
            ]
            assert arrivals == sorted(arrivals)


def test_an_unreachable_via_station_keeps_the_node():
    """Theorem 3 reads an empty table profile as ``INF_TIME``: a node at
    a transfer station that cannot reach via j is kept while µ_{i,j} is
    still ``INF_TIME`` (``INF ≤ INF``), as the settle hook keeps it.

    S reaches the transfer station X, a dead end, and — on another
    train — T through its one via station V, so ``D(X, V, ·)`` is
    empty.  Without the stopping criterion (whose goal direction never
    pushes a node that cannot reach T) the search settles X for the
    night train before any settle has offered it a way to V; the train
    arrives after midnight, so the evaluation is on day 1, where
    ``day + INF_TIME`` would exceed ``INF_TIME`` and prune."""
    builder = TimetableBuilder(name="dead-end")
    s, x, v, t = (builder.add_station(n, transfer_time=2) for n in "SXVT")
    builder.add_trip([(s, 1435), (x, 1445)], name="s-x")
    builder.add_trip([(s, 500), (v, 510), (t, 520)], name="s-v-t")
    graph = build_td_graph(builder.build())
    arrays = pack_td_graph(graph)
    table = build_distance_table(arrays, [x, v])
    assert table.profile_between(x, v).row() == array("B")
    for kernel in ("flat", "python"):
        engine = StationToStationEngine(
            graph, table, num_threads=1, stopping=False, kernel=kernel,
            arrays=arrays,
        )
        assert engine.classify(s, t)[0] == "global"
        result = engine.query(s, t)
        assert result.table_prunes == 0, kernel
        assert result.profile == spcs_profile_search(graph, s).profile(t)


# ---------------------------------------------------------------------------
# Less work: counts recorded before and after goal direction
# ---------------------------------------------------------------------------

#: ``(source, target): (settled_connections, table_prunes,
#: connection_stops, mu_updates, settled_before)`` of global queries on
#: the flat kernel, contraction-selected ``S_trans`` at fraction 0.2,
#: per ``num_threads``.  The first four are what the goal-directed loop
#: does — ``mu_updates`` the µ_{i,j} bounds the §4 block lowered, so
#: the pin covers its update work as well as its prunes;
#: ``settled_before`` is what the same loop settled in plain
#: arrival order (commit 1fd0bb0, equal to the hook-driven kernel of
#: f20665f), kept so that the pin states a direction: goal direction
#: never costs a recorded query work.  ``table_prunes`` fall with it —
#: they count rule firings, and fewer items reach a transfer station.
RECORDED = {
    ("oahu", 1): {
        (3, 11): (5474, 24, 0, 589, 8798),
        (20, 40): (19388, 167, 0, 658, 24802),
        (37, 21): (631, 0, 98, 0, 1792),
        (6, 2): (4520, 135, 0, 381, 9700),
        (23, 31): (2838, 2, 0, 378, 4074),
        (40, 12): (1810, 0, 69, 52, 4156),
        (9, 41): (10790, 501, 0, 141, 12628),
        (26, 22): (1400, 0, 94, 105, 5235),
    },
    ("oahu", 3): {
        (3, 11): (5474, 24, 0, 589, 8810),
        (20, 40): (19536, 170, 0, 658, 25082),
        (37, 21): (645, 0, 100, 0, 1812),
        (6, 2): (4568, 135, 0, 385, 9792),
        (23, 31): (2838, 2, 0, 378, 4074),
        (40, 12): (1817, 0, 70, 52, 4157),
        (9, 41): (10846, 503, 0, 141, 12702),
        (26, 22): (1400, 0, 94, 105, 5238),
    },
    ("washington", 1): {
        (3, 11): (12075, 678, 0, 115, 17019),
        (20, 40): (7285, 345, 0, 101, 10280),
        (37, 69): (5614, 3, 195, 106, 15220),
        (54, 10): (18951, 1234, 0, 224, 20690),
        (71, 39): (13271, 71, 0, 900, 28586),
        (0, 68): (3774, 13, 0, 294, 7027),
        (17, 9): (8453, 254, 0, 216, 12307),
        (34, 38): (3120, 17, 214, 109, 9862),
    },
    ("washington", 3): {
        (3, 11): (12238, 684, 0, 116, 17368),
        (20, 40): (7431, 355, 0, 102, 10536),
        (37, 69): (5661, 3, 196, 108, 15328),
        (54, 10): (18961, 1236, 0, 224, 20728),
        (71, 39): (13326, 71, 0, 905, 28857),
        (0, 68): (3787, 13, 0, 294, 7044),
        (17, 9): (8585, 258, 0, 218, 12570),
        (34, 38): (3121, 17, 216, 109, 9917),
    },
}


@pytest.fixture(scope="module", params=["oahu", "washington"])
def small_instance(request):
    graph = build_td_graph(make_instance(request.param, "small"))
    arrays = pack_td_graph(graph)
    stations = select_transfer_stations(
        graph.timetable, method="contraction", fraction=0.2
    )
    table = build_distance_table(arrays, stations)
    return request.param, graph, arrays, table


@pytest.mark.parametrize("threads", [1, 3])
def test_fused_loop_does_the_recorded_work(small_instance, threads):
    name, graph, arrays, table = small_instance
    engine = StationToStationEngine(
        graph, table, num_threads=threads, kernel="flat", arrays=arrays
    )
    for (source, target), (*counts, before) in RECORDED[name, threads].items():
        result = engine.query(source, target)
        assert result.classification == "global"
        assert [
            result.settled_connections,
            result.table_prunes,
            result.connection_stops,
            result.mu_updates,
        ] == counts, (name, threads, source, target)
        assert result.settled_connections <= before, (
            name, threads, source, target,
        )


def test_flat_query_calls_no_python_per_settle(small_instance):
    """Every Python-level call a global flat query makes into
    ``repro.query`` / ``repro.functions`` is per query or per
    (transfer station, via station) first touched — a few dozen —
    while it settles thousands of connections; the hook and the profile
    evaluator it used to call once per settle are not called at all."""
    name, graph, arrays, table = small_instance
    engine = StationToStationEngine(
        graph, table, num_threads=1, kernel="flat", arrays=arrays
    )
    (source, target), (settled, prunes, *_) = max(
        RECORDED[name, 1].items(), key=lambda item: item[1][1]
    )
    _, via_info = engine.classify(source, target)
    engine.query(source, target)  # build the lazy profile rows

    calls: list[str] = []

    def tracer(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if "/repro/query/" in filename or "/repro/functions/" in filename:
                calls.append(frame.f_code.co_name)

    sys.setprofile(tracer)
    try:
        result = engine.query(source, target)
    finally:
        sys.setprofile(None)

    assert (result.settled_connections, result.table_prunes) == (settled, prunes)
    assert "on_settle" not in calls and "earliest_arrival" not in calls
    per_touched_row = len(via_info.via_stations) + 3
    assert len(calls) <= 40 + table.num_transfer_stations * per_touched_row
    assert len(calls) * 10 < settled
