"""The flat kernel's work, pinned run by run
(``tests/fixtures/kernel_stats_adversarial.json``, written by
``tests/fixtures/regen_kernel_stats.py``, whose ``observe`` this test
runs again).

The kernel's queue decides which of two equal keys pops first, and that
order shows in the work: a self-prune fires only if the later
connection settles a node first, a stale pop only if an improved label
overtakes its older entry.  Answers survive a change of order (the
reduced profiles of ``test_kernel_equivalence.py`` would not notice);
these counts and the raw labels do not.  So every ``SPCSStats`` field,
a digest of the label matrix and, on table-pruned runs, the pruner's
counters and final arrivals must be what the fixture recorded —
one-to-all, connection subsets, goal-directed runs to a target, and
runs with Theorems 3 and 4.
"""

from __future__ import annotations

import json
from functools import lru_cache

import pytest

from repro.core.spcs import spcs_profile_search
from repro.core.spcs_kernel import spcs_kernel_search
from repro.graph.td_arrays import pack_td_graph
from repro.graph.td_model import build_td_graph
from repro.timetable.builder import TimetableBuilder
from repro.timetable.io import timetable_from_dict

from tests.fixtures.regen_kernel_stats import FIXTURE, observe, prepare

DATA = json.loads(FIXTURE.read_text())
KINDS = ("one-to-all", "subset", "targeted", "table")


@lru_cache(maxsize=None)
def _case(index: int):
    return prepare(timetable_from_dict(DATA["cases"][index]["timetable"]))


def test_fixture_covers_every_kind_of_run_and_its_work():
    runs = [run for case in DATA["cases"] for run in case["runs"]]
    assert {run["kind"] for run in runs} == set(KINDS)
    fields = DATA["stats_fields"]
    total = dict(zip(fields, map(sum, zip(*(run["stats"] for run in runs)))))
    # Every counter the pop order moves is exercised somewhere.
    assert total["queue_pushes"] > total["settled_connections"]  # stale pops
    for field in ("pruned_self", "pruned_stopping", "pruned_table"):
        assert total[field] > 0, field
    pruners = [run["pruner"] for run in runs if "pruner" in run]
    assert all(map(sum, zip(*pruners)))  # table prunes, stops, µ updates


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("index", range(len(DATA["cases"])))
def test_kernel_does_the_recorded_work(index, kind):
    prepared = _case(index)
    for run in DATA["cases"][index]["runs"]:
        if run["kind"] == kind:
            expected = {
                key: run[key]
                for key in ("stats", "labels", "pruner", "final_arrivals")
                if key in run
            }
            assert observe(run, *prepared) == expected, run


def test_a_ride_of_a_hundred_thousand_minutes():
    """Keys spread over 10⁵ minutes and more (a ride must be shorter
    than the period, so the period is longer still): the queue holds
    what is pending, not the range of times between, and the answers
    are the reference SPCS's — targeted or not, at every station."""
    builder = TimetableBuilder(period=300_000, name="long-ride")
    a, b, c, d = (
        builder.add_station(name, transfer_time=t)
        for name, t in (("a", 0), ("b", 2), ("c", 0), ("d", 3))
    )
    builder.add_trip([(a, 10), (b, 100_010), (c, 100_030)], name="slow")
    builder.add_trip([(a, 20), (c, 140)], name="fast")
    for dep in range(0, 1440, 180):
        builder.add_trip([(c, dep), (d, dep + 5)], name=f"cd-{dep}")
        builder.add_trip([(b, dep + 7), (d, dep + 250_000)], name=f"bd-{dep}")
    graph = build_td_graph(builder.build(require_fifo=False))
    arrays = pack_td_graph(graph)
    for source in range(graph.num_stations):
        reference = spcs_profile_search(graph, source)
        kernel = spcs_kernel_search(arrays, source)
        for station in range(graph.num_stations):
            assert kernel.profile(station) == reference.profile(station)
            targeted = spcs_kernel_search(arrays, source, target=station)
            assert targeted.profile(station) == reference.profile(station)
    # The slow ride is the only way from a to b.
    assert spcs_kernel_search(arrays, a).profile(b).arrs.tolist() == [100_010]
