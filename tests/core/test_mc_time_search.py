"""Oracle equivalence for the fixed-departure multi-criteria loop.

:func:`repro.core.multicriteria.mc_time_search` — what the served
``multicriteria`` and ``min_transfers`` shapes run on a flat service —
must equal, for every departure:

* :func:`repro.baselines.mc_time_query.mc_time_query`, the layered
  Dijkstra over the object graph it is the flat twin of, arrival for
  arrival at every (node, transfer budget);
* the whole-day §6 profile search read off at that departure
  (``mc_kernel_search(...).pareto_front(station, departure)``), front
  for front — the answers the served shapes gave before they ran it.

Inputs are the adversarial timetables of ``tests.strategies`` (wrap,
zero transfer times, duplicate and overtaking trains), departures on
both sides of the period boundary and every budget from 0 to 5.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.mc_time_query import mc_time_query
from repro.core.multicriteria import mc_kernel_search, mc_time_search
from repro.functions.piecewise import INF_TIME
from repro.graph.td_arrays import pack_td_graph
from repro.graph.td_model import build_td_graph
from repro.synthetic.instances import make_instance

from tests.strategies import adversarial_timetables


def _departures(period: int) -> tuple[int, ...]:
    return (0, 480, period - 1, period, period + 7)


@settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    timetable=adversarial_timetables(),
    max_transfers=st.integers(0, 5),
    data=st.data(),
)
def test_matches_layered_dijkstra_and_the_profile_search(
    timetable, max_transfers, data
):
    graph = build_td_graph(timetable)
    arrays = pack_td_graph(graph)
    source = data.draw(st.integers(0, graph.num_stations - 1))
    profile = mc_kernel_search(arrays, source, max_transfers=max_transfers)
    for departure in _departures(timetable.period):
        flat = mc_time_search(
            arrays, source, departure, max_transfers=max_transfers
        )
        truth = mc_time_query(
            graph, source, departure, max_transfers=max_transfers
        )
        assert flat.arrival == truth.arrival, (source, departure)
        for station in range(graph.num_stations):
            for k in range(max_transfers + 2):  # one past: clamps
                assert flat.arrival_at_station(
                    station, k
                ) == truth.arrival_at_station(station, k), (station, k)
            if station != source:  # the profile search is not there yet
                assert flat.pareto_front(station) == profile.pareto_front(
                    station, departure
                ), (source, station, departure)


@pytest.mark.parametrize(
    "instance,scale", [("oahu", "tiny"), ("germany", "tiny")]
)
def test_matches_layered_dijkstra_on_instance_grids(instance, scale):
    graph = build_td_graph(make_instance(instance, scale=scale))
    arrays = pack_td_graph(graph)
    for source in range(0, graph.num_stations, 4):
        for departure in (300, 480, 1020, 1439, 1447):
            flat = mc_time_search(arrays, source, departure)
            truth = mc_time_query(graph, source, departure)
            assert flat.arrival == truth.arrival, (source, departure)
            assert flat.settled > 0 and truth.settled > 0


def test_toy_tradeoff_and_source(toy_graph):
    """The toy network of ``test_multicriteria``: the direct train
    arrives 09:30, the one-transfer journey via C 09:10; the source
    itself is reached at the departure with no transfer."""
    result = mc_time_search(pack_td_graph(toy_graph), 0, 480, max_transfers=3)
    assert result.pareto_front(3) == [(0, 570), (1, 550)]
    assert result.pareto_front(0) == [(0, 480)]
    assert result.arrival_at_station(3, 0) == 570
    assert result.arrival_at_station(3, 9) == 550  # clamps to the top
    tight = mc_time_search(pack_td_graph(toy_graph), 0, 480, max_transfers=0)
    assert tight.pareto_front(3) == [(0, 570)]
    # Station D has no departures: nothing is reachable from it.
    island = mc_time_search(pack_td_graph(toy_graph), 3, 480)
    assert island.pareto_front(0) == []
    assert island.arrival_at_station(0, 5) == INF_TIME
    assert island.settled == 0


def test_rejects_bad_inputs(toy_graph):
    arrays = pack_td_graph(toy_graph)
    with pytest.raises(ValueError, match="station node"):
        mc_time_search(arrays, toy_graph.num_nodes - 1, 0)
    with pytest.raises(ValueError, match="max_transfers"):
        mc_time_search(arrays, 0, 0, max_transfers=-1)
