"""Oracle-equivalence harness for the table-pruned search (paper §4).

The flat kernel applies Theorems 2 and 4 inside its loop; the
reference kernel asks :class:`~repro.query.table_query.
DistanceTablePruner`'s settle hook, Theorem 3 included, which is the
hook's alone.  Whatever is switched on, on whichever kernel, over
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
from repro.core.spcs_kernel import spcs_kernel_search
from repro.graph.td_arrays import pack_td_graph, packed_arrays
from repro.graph.td_model import build_td_graph
from repro.query.distance_table import build_distance_table
from repro.query.table_query import DistanceTablePruner, StationToStationEngine
from repro.query.transfer_selection import select_transfer_stations
from repro.synthetic.instances import INSTANCE_NAMES, make_instance
from repro.timetable.builder import TimetableBuilder

from tests.strategies import adversarial_timetables

#: stopping × table_pruning × target_pruning; ``table_pruning`` on the
#: reference kernel only, which alone runs Theorem 3.
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
            if kernel == "flat" and table_pruning:
                continue
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
# γ_i and U_i only if S's station node holds no label no later than the
# settle's arrival (``docs/KERNEL.md``, "Where the §4 rules
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
    """Theorem 3 reads an empty table profile as ``INF_TIME``: the
    settle hook keeps a node at a transfer station that cannot reach
    via j while µ_{i,j} is still ``INF_TIME`` (``INF ≤ INF``).

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
    engine = StationToStationEngine(
        graph, table, num_threads=1, stopping=False, kernel="python"
    )
    assert engine.classify(s, t)[0] == "global"
    result = engine.query(s, t)
    assert result.table_prunes == 0
    assert result.profile == spcs_profile_search(graph, s).profile(t)


def test_the_flat_kernel_refuses_a_pruner_with_via_stations():
    """The flat loop has no Theorem 3: a pruner that carries via
    stations is refused rather than searched without its rule.  The
    same pruner drives the reference kernel's hook, and one without
    via stations (Theorem 4) the flat loop."""
    builder = TimetableBuilder(name="via")
    s, v, t = (builder.add_station(n, transfer_time=2) for n in "SVT")
    builder.add_trip([(s, 500), (v, 510), (t, 520)], name="s-v-t")
    graph = build_td_graph(builder.build())
    arrays = pack_td_graph(graph)
    table = build_distance_table(arrays, [v])
    with_via = DistanceTablePruner(graph, table, s, t, (v,))
    with pytest.raises(ValueError, match="via stations"):
        spcs_kernel_search(arrays, s, target=t, table=with_via)
    truth = spcs_profile_search(graph, s).profile(t)
    hooked = spcs_profile_search(graph, s, target=t, pruner=with_via)
    assert hooked.profile(t) == truth
    theorem_4 = DistanceTablePruner(graph, table, s, t, ())
    flat = spcs_kernel_search(arrays, s, target=t, table=theorem_4)
    assert flat.profile(t) == truth


# ---------------------------------------------------------------------------
# Less work: counts recorded beside the reference kernel's
# ---------------------------------------------------------------------------

#: ``(source, target): (settled_connections, connection_stops,
#: settled_plain)`` of queries the reference kernel classifies global,
#: on the flat kernel, contraction-selected ``S_trans`` at fraction
#: 0.2, per ``num_threads``.  The first two are what the goal-directed
#: loop does with Theorem 4 (at a transfer-station target) and no
#: Theorem 3, which is the hook's alone — so it prunes no node and
#: lowers no µ bound; ``settled_plain`` is what the reference kernel
#: settles with the same rules in plain arrival order, kept so that the
#: pin states a direction: goal direction never costs a recorded query
#: work.
RECORDED = {
    ("oahu", 1): {
        (3, 11): (5541, 0, 10215),
        (20, 40): (20469, 0, 34788),
        (37, 21): (631, 98, 1800),
        (6, 2): (4739, 0, 12726),
        (23, 31): (2852, 0, 6823),
        (40, 12): (1810, 69, 4277),
        (9, 41): (12471, 0, 21711),
        (26, 22): (1400, 94, 5677),
    },
    ("oahu", 3): {
        (3, 11): (5541, 0, 10218),
        (20, 40): (20621, 0, 35503),
        (37, 21): (645, 100, 1821),
        (6, 2): (4787, 0, 12897),
        (23, 31): (2852, 0, 6821),
        (40, 12): (1817, 70, 4288),
        (9, 41): (12527, 0, 21637),
        (26, 22): (1400, 94, 5640),
    },
    ("washington", 1): {
        (3, 11): (14368, 0, 33274),
        (20, 40): (7584, 0, 12873),
        (37, 69): (5622, 195, 26043),
        (54, 10): (24104, 0, 38724),
        (71, 39): (13307, 0, 34570),
        (0, 68): (3826, 0, 7434),
        (17, 9): (11191, 0, 34031),
        (34, 38): (3130, 214, 17675),
    },
    ("washington", 3): {
        (3, 11): (14534, 0, 33938),
        (20, 40): (7736, 0, 13083),
        (37, 69): (5669, 196, 25579),
        (54, 10): (24122, 0, 38896),
        (71, 39): (13362, 0, 35265),
        (0, 68): (3839, 0, 7497),
        (17, 9): (11350, 0, 34362),
        (34, 38): (3131, 216, 17746),
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


def _served_engine(graph, arrays, table, threads: int) -> StationToStationEngine:
    return StationToStationEngine(
        graph, table, num_threads=threads, table_pruning=False,
        kernel="flat", arrays=arrays,
    )


@pytest.mark.parametrize("threads", [1, 3])
def test_fused_loop_does_the_recorded_work(small_instance, threads):
    name, graph, arrays, table = small_instance
    engine = _served_engine(graph, arrays, table, threads)
    reference = StationToStationEngine(graph, table, kernel="python")
    for (source, target), (*counts, plain) in RECORDED[name, threads].items():
        assert reference.classify(source, target)[0] == "global"
        result = engine.query(source, target)
        assert result.classification == "local"
        assert (result.table_prunes, result.mu_updates) == (0, 0)
        assert [
            result.settled_connections, result.connection_stops
        ] == counts, (name, threads, source, target)
        assert result.settled_connections <= plain, (
            name, threads, source, target,
        )


def test_flat_query_calls_no_python_per_settle(small_instance):
    """Every Python-level call a flat query makes into ``repro.query`` /
    ``repro.functions`` is per query or per transfer station first
    touched — a few dozen — while it settles thousands of connections;
    the hook and the profile evaluator it used to call once per settle
    are not called at all."""
    name, graph, arrays, table = small_instance
    engine = _served_engine(graph, arrays, table, 1)
    # The busiest recorded query that stops a connection: Theorem 4 ran.
    (source, target), (settled, stops, _) = max(
        RECORDED[name, 1].items(), key=lambda item: (item[1][1] > 0, item[1][0])
    )
    assert stops > 0
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

    assert (result.settled_connections, result.connection_stops) == (settled, stops)
    assert "on_settle" not in calls and "earliest_arrival" not in calls
    assert len(calls) <= 40 + table.num_transfer_stations * 3
    assert len(calls) * 10 < settled
