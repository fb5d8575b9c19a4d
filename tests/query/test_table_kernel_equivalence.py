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
searches do exactly the work they did before the rules moved into the
loop, and the flat path calls no Python per settle.
"""

from __future__ import annotations

import sys
from itertools import product

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.baselines.label_correcting import label_correcting_profile
from repro.core.spcs import spcs_profile_search
from repro.graph.td_arrays import pack_td_graph
from repro.graph.td_model import build_td_graph
from repro.query.distance_table import build_distance_table
from repro.query.table_query import StationToStationEngine
from repro.query.transfer_selection import select_transfer_stations
from repro.synthetic.instances import make_instance

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
        table = build_distance_table(graph, transfer, num_threads=2)

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
# Same work: counts recorded before Theorems 3/4 moved into the loop
# ---------------------------------------------------------------------------

#: ``(source, target): (settled_connections, table_prunes,
#: connection_stops)`` of global queries as the hook-driven flat kernel
#: answered them (commit f20665f), contraction-selected ``S_trans`` at
#: fraction 0.2, per ``num_threads``.
RECORDED = {
    ("oahu", 1): {
        (3, 11): (8798, 232, 0),
        (20, 40): (24802, 586, 0),
        (37, 21): (1792, 0, 0),
        (6, 2): (9700, 671, 0),
        (23, 31): (4074, 232, 0),
        (40, 12): (4156, 190, 69),
        (9, 41): (12628, 723, 0),
        (26, 22): (5235, 190, 4),
    },
    ("oahu", 3): {
        (3, 11): (8810, 235, 0),
        (20, 40): (25082, 592, 0),
        (37, 21): (1812, 0, 0),
        (6, 2): (9792, 678, 0),
        (23, 31): (4074, 232, 0),
        (40, 12): (4157, 190, 70),
        (9, 41): (12702, 726, 0),
        (26, 22): (5238, 190, 4),
    },
    ("washington", 1): {
        (3, 11): (17019, 1500, 0),
        (20, 40): (10280, 761, 0),
        (37, 69): (15220, 873, 145),
        (54, 10): (20690, 1569, 0),
        (71, 39): (28586, 440, 0),
        (0, 68): (7027, 278, 0),
        (17, 9): (12307, 584, 0),
        (34, 38): (9862, 509, 246),
    },
    ("washington", 3): {
        (3, 11): (17368, 1538, 0),
        (20, 40): (10536, 784, 0),
        (37, 69): (15328, 870, 144),
        (54, 10): (20728, 1570, 0),
        (71, 39): (28857, 460, 0),
        (0, 68): (7044, 278, 0),
        (17, 9): (12570, 598, 0),
        (34, 38): (9917, 518, 247),
    },
}


@pytest.fixture(scope="module", params=["oahu", "washington"])
def small_instance(request):
    graph = build_td_graph(make_instance(request.param, "small"))
    arrays = pack_td_graph(graph)
    stations = select_transfer_stations(
        graph.timetable, method="contraction", fraction=0.2
    )
    table = build_distance_table(
        graph, stations, num_threads=1, kernel="flat", arrays=arrays
    )
    return request.param, graph, arrays, table


@pytest.mark.parametrize("threads", [1, 3])
def test_fused_loop_does_the_recorded_work(small_instance, threads):
    name, graph, arrays, table = small_instance
    engine = StationToStationEngine(
        graph, table, num_threads=threads, kernel="flat", arrays=arrays
    )
    for (source, target), counts in RECORDED[name, threads].items():
        result = engine.query(source, target)
        assert result.classification == "global"
        assert (
            result.settled_connections,
            result.table_prunes,
            result.connection_stops,
        ) == counts, (name, threads, source, target)


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
    (source, target), (settled, prunes, _) = max(
        RECORDED[name, 1].items(), key=lambda item: item[1][1]
    )
    _, via_info = engine.classify(source, target)
    engine.query(source, target)  # fill the lazy profile mirrors

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
