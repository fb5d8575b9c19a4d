"""Oracle equivalence for the fixed-departure multi-criteria loop.

:func:`repro.core.multicriteria.mc_time_search` — what the served
``multicriteria`` and ``min_transfers`` shapes run on a flat service —
must equal, for every departure:

* :func:`tests.oracles.mc_time_query.mc_time_query`, the layered
  Dijkstra over the object graph it is the flat twin of, arrival for
  arrival at every (node, transfer budget);
* the whole-day §6 profile search read off at that departure
  (``mc_profile_search(...).pareto_front(station, departure)``), front
  for front — the answers the served shapes gave before they ran it.

And the journey behind every finite (station, k) label, walked along
the parents both searches record
(:meth:`~repro.core.multicriteria.McTimeQueryResult.path_to`), must be
one: a path of graph edges from the source at the departure whose
times are those edges' arrivals, and whose legs chain, end at the
label's arrival and use at most ``k`` transfers.

With no budget (``max_transfers=None``, the search a dated ``journey``
and ``via`` read) both loops have one layer, the single-criterion §2
time query: equal node for node, equal to the layered search's top
layer under a budget no journey exceeds, and their parent walks
journeys all the same.  Both also give the hand-checked answers on the
toy network (``tests.helpers.toy_timetable``).

Inputs are the adversarial timetables of ``tests.strategies`` (wrap,
zero transfer times, duplicate and overtaking trains), departures on
both sides of the period boundary and every budget from 0 to 5.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.multicriteria import mc_profile_search, mc_time_search
from repro.core.spcs import spcs_profile_search
from repro.functions.piecewise import INF_TIME
from repro.graph.td_arrays import pack_td_graph
from repro.graph.td_model import build_td_graph
from repro.service.journeys import legs_along
from repro.synthetic.instances import make_instance
from repro.timetable.builder import TimetableBuilder

from tests.oracles.mc_time_query import mc_time_query
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
    profile = mc_profile_search(graph, source, max_transfers=max_transfers)
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


def _assert_walks_are_journeys(graph, result) -> None:
    """Every finite (station, k) label's parent walk is a journey that
    realises it (module doc); an unbounded search's one layer bounds no
    transfers."""
    source, departure = result.source, result.departure
    for station in range(graph.num_stations):
        for k in range(result.top_layer + 1):
            arrival = result.arrival[station][k]
            if arrival >= INF_TIME:
                continue
            path = result.path_to(station, k)
            assert path[0] == (source, departure), (station, k, path)
            assert path[-1] == (station, arrival), (station, k, path)
            for step, ((u, t), (v, t_v)) in enumerate(zip(path, path[1:])):
                arrivals = [
                    e.arrival(t) for e in graph.adjacency[u] if e.target == v
                ]
                assert arrivals, (station, k, u, v)
                # The first boarding is free of transfer time.
                expected = departure if step == 0 else min(arrivals)
                assert t_v == expected, (station, k, path)
            legs = legs_along(graph, path)
            if station == source:
                assert legs == ()
                continue
            assert legs[0].from_station == source
            assert legs[0].departure == departure
            for prev, nxt in zip(legs, legs[1:]):
                assert prev.to_station == nxt.from_station
                assert prev.arrival == nxt.departure
            # No station node strictly inside a leg: the walk's station
            # nodes after the source are exactly the legs' ends.
            assert [
                (u, t) for u, t in path[1:] if graph.is_station_node(u)
            ] == [(leg.to_station, leg.arrival) for leg in legs]
            assert legs[-1].arrival == arrival
            if result.max_transfers is not None:
                assert len(legs) - 1 <= k, (station, k, legs)


@settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    timetable=adversarial_timetables(),
    max_transfers=st.integers(0, 5),
    flat=st.booleans(),
    data=st.data(),
)
def test_parent_walks_are_journeys(timetable, max_transfers, flat, data):
    graph = build_td_graph(timetable)
    source = data.draw(st.integers(0, graph.num_stations - 1))
    for departure in _departures(timetable.period):
        if flat:
            result = mc_time_search(
                pack_td_graph(graph), source, departure,
                max_transfers=max_transfers,
            )
        else:
            result = mc_time_query(
                graph, source, departure, max_transfers=max_transfers
            )
        _assert_walks_are_journeys(graph, result)


@settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(timetable=adversarial_timetables(), data=st.data())
def test_unbounded_is_the_time_query(timetable, data):
    """``max_transfers=None`` — what a dated journey and each via hop
    read — is one layer in which a boarding edge stays: both loops give
    the single-criterion §2 time query's arrival at every node — the
    top layer of a budget no journey exceeds (a shortest path boards at
    most once per station) — and every finite label walks back along a
    journey that realises it.  That top layer shares its code with the
    oracle row, so at the stations it is itself checked against the SPCS
    profiles read at the departure, a search with no code in common."""
    graph = build_td_graph(timetable)
    arrays = pack_td_graph(graph)
    source = data.draw(st.integers(0, graph.num_stations - 1))
    profiles = spcs_profile_search(graph, source)
    for departure in _departures(timetable.period):
        truth = [
            labels[-1]
            for labels in mc_time_query(
                graph, source, departure, max_transfers=graph.num_stations
            ).arrival
        ]
        for station in range(graph.num_stations):
            if station != source:
                assert profiles.profile(station).earliest_arrival(
                    departure
                ) == truth[station], (source, departure, station)
        for result in (
            mc_time_search(arrays, source, departure, max_transfers=None),
            mc_time_query(graph, source, departure, max_transfers=None),
        ):
            assert result.top_layer == 0
            assert [labels[0] for labels in result.arrival] == truth, (
                source, departure,
            )
            assert [
                result.arrival_at_station(station, 3)
                for station in range(graph.num_stations)
            ] == truth[: graph.num_stations]
            _assert_walks_are_journeys(graph, result)


#: Both fixed-departure searches as ``search(graph, source, departure,
#: max_transfers=None)``: the flat loop over the graph's pack — what a
#: flat service runs — and the oracle.
BOTH = pytest.mark.parametrize(
    "search",
    [
        lambda graph, source, departure, max_transfers=None: mc_time_search(
            pack_td_graph(graph), source, departure,
            max_transfers=max_transfers,
        ),
        lambda graph, source, departure, max_transfers=None: mc_time_query(
            graph, source, departure, max_transfers=max_transfers
        ),
    ],
    ids=["flat", "oracle"],
)


@BOTH
def test_unbounded_toy_takes_the_earliest_journey(toy_graph, search):
    """On the toy network the one-transfer journey via C (09:10) beats
    the direct train (09:30) with no budget to stop it, and its legs
    are read off layer 0 whatever budget is asked."""
    result = search(toy_graph, 0, 480)
    assert result.arrival_at_station(3, 0) == 550
    assert [
        (u, t) for u, t in result.path_to(3, 5)
        if toy_graph.is_station_node(u)
    ] == [(0, 480), (2, 510), (3, 550)]
    with pytest.raises(ValueError, match="max_transfers"):
        search(toy_graph, 0, 480, max_transfers=-1)


@BOTH
class TestToyAnswers:
    """Hand-checked unbounded answers on the 4-station toy network.

    Lines: A→B→C every 30' (15'/leg, from 08:00), C→D every 40'
    (20', from 08:10), A→D direct hourly (70', from 08:20).
    Transfers: A=2, B=3, C=1, D=2.
    """

    def test_direct_ride(self, toy_graph, search):
        result = search(toy_graph, 0, 480)  # depart A at 08:00
        assert result.arrival_at_station(1, 0) == 495  # B 08:15
        assert result.arrival_at_station(2, 0) == 510  # C 08:30

    def test_transfer_respected(self, toy_graph, search):
        # Arrive C 08:30; with transfer time 1 the C→D trains at 08:10,
        # 08:50, 09:30 leave 08:50 as the first one boardable after
        # 08:31, arriving 09:10.
        result = search(toy_graph, 0, 480)
        assert result.arrival_at_station(3, 0) == 550

    def test_direct_ties_transfer_when_departing_0820(self, toy_graph, search):
        result = search(toy_graph, 0, 500)  # 08:20
        # Direct A→D 08:20 arrives 09:30 (570); via C also 570 — equal.
        assert result.arrival_at_station(3, 0) == 570

    def test_waiting_at_source_has_no_transfer_cost(self, toy_graph, search):
        # Departing A at 07:59 may still catch the 08:00 train.
        result = search(toy_graph, 0, 479)
        assert result.arrival_at_station(1, 0) == 495

    def test_source_arrival_is_departure(self, toy_graph, search):
        result = search(toy_graph, 0, 480)
        assert result.arrival_at_station(0, 0) == 480
        assert result.arrival_at_station(0, 0) - result.departure == 0

    def test_wraps_to_next_day(self, toy_graph, search):
        result = search(toy_graph, 0, 720)  # noon: all trips done
        assert result.arrival_at_station(1, 0) == 1440 + 495

    def test_travel_time(self, toy_graph, search):
        result = search(toy_graph, 0, 480)
        assert result.arrival_at_station(2, 0) - result.departure == 30

    def test_unreachable_station(self, search):
        builder = TimetableBuilder()
        a, b = builder.add_station("a"), builder.add_station("b")
        builder.add_station("island")
        builder.add_trip([(a, 10), (b, 20)])
        graph = build_td_graph(builder.build())
        result = search(graph, 0, 0)
        assert result.arrival_at_station(2, 0) == INF_TIME

    def test_rejects_non_station_source(self, toy_graph, search):
        with pytest.raises(ValueError, match="station"):
            search(toy_graph, toy_graph.num_nodes - 1, 0)

    def test_settles_each_label_at_most_once(self, toy_graph, search):
        for budget in (None, 2):
            result = search(toy_graph, 0, 480, max_transfers=budget)
            labels = toy_graph.num_nodes * (result.top_layer + 1)
            assert 0 < result.settled <= labels, budget

    def test_monotone_in_departure_time(self, oahu_tiny_graph, search):
        """FIFO network ⇒ leaving later never arrives earlier."""
        early = search(oahu_tiny_graph, 0, 400)
        late = search(oahu_tiny_graph, 0, 460)
        for station in range(oahu_tiny_graph.num_stations):
            a = early.arrival_at_station(station, 0)
            b = late.arrival_at_station(station, 0)
            if a < INF_TIME and b < INF_TIME:
                assert b >= a


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
            _assert_walks_are_journeys(graph, flat)
            _assert_walks_are_journeys(graph, truth)


def test_toy_tradeoff_and_source(toy_graph):
    """The toy network of ``test_multicriteria``: the direct train
    arrives 09:30, the one-transfer journey via C 09:10 — and each
    label walks back along its own journey; the source itself is
    reached at the departure with no transfer."""
    result = mc_time_search(pack_td_graph(toy_graph), 0, 480, max_transfers=3)
    assert result.pareto_front(3) == [(0, 570), (1, 550)]
    assert result.pareto_front(0) == [(0, 480)]
    assert result.arrival_at_station(3, 0) == 570
    assert result.arrival_at_station(3, 9) == 550  # clamps to the top

    def stations(path):
        return [(u, t) for u, t in path if toy_graph.is_station_node(u)]

    assert stations(result.path_to(3, 0)) == [(0, 480), (3, 570)]
    assert stations(result.path_to(3, 9)) == [(0, 480), (2, 510), (3, 550)]
    assert result.path_to(0, 3) == [(0, 480)]
    tight = mc_time_search(pack_td_graph(toy_graph), 0, 480, max_transfers=0)
    assert tight.pareto_front(3) == [(0, 570)]
    # Station D has no departures: nothing is reachable from it.
    island = mc_time_search(pack_td_graph(toy_graph), 3, 480)
    assert island.pareto_front(0) == []
    assert island.arrival_at_station(0, 5) == INF_TIME
    assert island.settled == 0
    with pytest.raises(ValueError, match="unreachable"):
        island.path_to(0, 5)


def test_rejects_bad_inputs(toy_graph):
    arrays = pack_td_graph(toy_graph)
    with pytest.raises(ValueError, match="station node"):
        mc_time_search(arrays, toy_graph.num_nodes - 1, 0)
    with pytest.raises(ValueError, match="max_transfers"):
        mc_time_search(arrays, 0, 0, max_transfers=-1)
