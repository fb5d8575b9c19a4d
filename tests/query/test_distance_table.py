"""Unit tests for the profile distance table D (paper §4): the backward
scan that builds it, against the paper's build — one one-to-all SPCS
search per transfer station — to the byte, and against hand-computed
values of the route model both read."""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import fanout
from repro.core.spcs import spcs_profile_search
from repro.graph.td_arrays import packed_arrays
from repro.graph.td_model import build_td_graph
from repro.query.distance_table import build_distance_table
from repro.query.transfer_selection import select_transfer_stations
from repro.service import ServiceConfig, TransitService
from repro.synthetic.instances import make_instance
from repro.timetable.builder import TimetableBuilder
from repro.timetable.delays import Delay, apply_delays

from tests.helpers import (
    assert_packs_equal,
    assert_rows_bitwise_equal,
    retimed,
    spcs_table_rows,
    swapped_pack,
)
from tests.strategies import adversarial_timetables, retimings


@pytest.fixture(scope="module")
def table_setup(request):
    oahu_graph = request.getfixturevalue("oahu_tiny_graph")
    stations = select_transfer_stations(
        oahu_graph.timetable, method="contraction", fraction=0.3
    )
    table = build_distance_table(packed_arrays(oahu_graph), stations)
    return oahu_graph, stations, table


class TestBuildDistanceTable:
    def test_contains(self, table_setup):
        graph, stations, table = table_setup
        for s in stations:
            assert table.contains(int(s))
        non_transfer = set(range(graph.num_stations)) - set(stations.tolist())
        assert all(not table.contains(s) for s in non_transfer)

    def test_entries_match_direct_profile_search(self, table_setup):
        graph, stations, table = table_setup
        for origin in stations.tolist():
            truth = spcs_profile_search(graph, origin)
            for dest in stations.tolist():
                if origin == dest:
                    continue
                assert table.profile_between(origin, dest) == truth.profile(dest)

    def test_self_distance_is_identity(self, table_setup):
        _graph, stations, table = table_setup
        origin = int(stations[0])
        assert table.earliest_arrival(origin, origin, 333) == 333

    def test_evaluation_consistency(self, table_setup):
        graph, stations, table = table_setup
        a, b = int(stations[0]), int(stations[1])
        profile = table.profile_between(a, b)
        for tau in (0, 480, 720, 1300):
            assert table.earliest_arrival(a, b, tau) == profile.earliest_arrival(tau)

    def test_unknown_station_rejected(self, table_setup):
        graph, stations, table = table_setup
        outsider = next(
            s for s in range(graph.num_stations) if not table.contains(s)
        )
        with pytest.raises(KeyError):
            table.earliest_arrival(outsider, int(stations[0]), 0)

    def test_size_accounting(self, table_setup):
        _graph, _stations, table = table_setup
        points = sum(
            len(profile) for row in table.profiles for profile in row
        )
        assert table.size_bytes() == 16 * points
        assert table.size_mib() == pytest.approx(table.size_bytes() / 2**20)

    def test_build_metadata(self, table_setup):
        _graph, stations, table = table_setup
        assert table.num_transfer_stations == stations.size
        assert table.build_seconds > 0
        assert table.build_passes >= 1

    def test_rejects_route_node(self, oahu_tiny_graph):
        with pytest.raises(ValueError, match="station"):
            build_distance_table(
                packed_arrays(oahu_tiny_graph), [oahu_tiny_graph.num_nodes - 1]
            )

    def test_duplicate_stations_deduplicated(self, oahu_tiny_graph):
        table = build_distance_table(packed_arrays(oahu_tiny_graph), [0, 0, 1])
        assert table.num_transfer_stations == 2


# ---------------------------------------------------------------------------
# The route model, by hand
# ---------------------------------------------------------------------------

A, B, C, D = range(4)


def route_model_toy():
    """Four stations, three routes, every D value computed by hand
    below.  Route X (A→B→C): x2 leaves A first but x1 overtakes it to
    B, and x2 is the fast one on to C.  Route Y (C→D): y1 leaves C one
    minute before a rider off route X may board it.  Route Z (D→A)
    runs overnight."""
    builder = TimetableBuilder(name="route-model")
    for name, transfer in zip("ABCD", (5, 6, 2, 4)):
        builder.add_station(name, transfer_time=transfer)
    builder.add_trip([(A, 480), (B, 490), (C, 530)], name="x1")
    builder.add_trip([(A, 470), (B, 495), (C, 505)], name="x2")
    builder.add_trip([(C, 506), (D, 520)], name="y1")
    builder.add_trip([(C, 510), (D, 530)], name="y2")
    builder.add_trip([(D, 1430), (A, 1455)], name="z1")
    return builder.build(require_fifo=False)


#: ``D(a, b)`` as ``(departure, arrival)`` points.
ROUTE_MODEL_D = {
    # x1 to B at 490 and on with x2 at 495 at B's route node, without
    # T(B) = 6: C at 505 (one train per ride, changing at B, is 530).
    (A, B): [(480, 490)],
    (A, C): [(480, 505)],
    # A change of route pays T(C) = 2: y1 at 506 is gone by 507.
    (A, D): [(480, 530)],
    (B, A): [(495, 1455)],
    (B, C): [(495, 505)],
    (B, D): [(495, 530)],
    (C, A): [(510, 1455)],
    (C, B): [(510, 1930)],
    # The first boarding is free: y1 straight from C at 506.
    (C, D): [(506, 520), (510, 530)],
    # Overnight: A at 1455, then route X a day on, at 470 + T(A).
    (D, A): [(1430, 1455)],
    (D, B): [(1430, 1930)],
    (D, C): [(1430, 1945)],
}


def test_the_route_model_by_hand():
    """The scan, the SPCS oracle and the hand values agree on a toy
    that has a ride on at a route node, a change of route, a free first
    boarding, and journeys a day on that the scan's second pass finds."""
    graph = build_td_graph(route_model_toy())
    table = build_distance_table(packed_arrays(graph), [A, B, C, D])
    for (a, b), points in ROUTE_MODEL_D.items():
        profile = table.profiles[a][b]
        assert list(zip(profile.deps.tolist(), profile.arrs.tolist())) == points
    assert all(len(table.profiles[a][a]) == 0 for a in range(4))
    assert_rows_bitwise_equal(spcs_table_rows(graph, [A, B, C, D]), table.profiles)
    # Pass one leaves every journey that crosses midnight and then
    # rides on unknown; pass two finds them, but what it carries over
    # a day still moves (x1 then D → A overnight reaches B two days
    # on), so pass three runs and changes nothing.
    assert table.build_passes == 3


# ---------------------------------------------------------------------------
# The scan against SPCS, to the byte
# ---------------------------------------------------------------------------


@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(timetable=adversarial_timetables(), data=st.data())
def test_scan_equals_spcs_rows_on_adversarial_timetables(timetable, data):
    """Wrap-heavy periods of 60 / 240 / 1 440, overtaking, duplicate
    trains, zero transfer times and — in random ``S_trans`` subsets —
    stations without departures."""
    graph = build_td_graph(timetable)
    stations = data.draw(
        st.lists(
            st.integers(0, timetable.num_stations - 1), min_size=1, unique=True
        ),
        label="S_trans",
    )
    num_threads = data.draw(st.sampled_from([1, 3]), label="p")
    table = build_distance_table(packed_arrays(graph), stations)
    expected = spcs_table_rows(graph, stations, num_threads=num_threads)
    assert_rows_bitwise_equal(expected, table.profiles)


def test_a_station_without_departures_gets_an_empty_row(toy_graph):
    """Station D of the toy network has no departures."""
    (silent,) = [
        s
        for s in range(toy_graph.num_stations)
        if not toy_graph.timetable.outgoing_connections(s)
    ]
    table = build_distance_table(packed_arrays(toy_graph), range(toy_graph.num_stations))
    assert all(len(profile) == 0 for profile in table.profiles[silent])
    assert_rows_bitwise_equal(
        spcs_table_rows(toy_graph, range(toy_graph.num_stations)), table.profiles
    )


@pytest.mark.parametrize("num_threads", [1, 3], ids=lambda p: f"p{p}")
@pytest.mark.parametrize("instance", ["oahu", "germany", "losangeles", "washington"])
def test_scan_equals_spcs_rows_on_the_instances(instance, num_threads):
    """The oracle on one simulated core and on three: SPCS's rows do
    not depend on its thread count, so the scan equals both."""
    timetable = make_instance(instance, scale="tiny")
    graph = build_td_graph(timetable)
    stations = select_transfer_stations(
        timetable, method="contraction", fraction=0.3
    )
    table = build_distance_table(packed_arrays(graph), stations)
    assert_rows_bitwise_equal(
        spcs_table_rows(graph, stations, num_threads=num_threads), table.profiles
    )


def test_the_reference_kernel_agrees(germany_tiny_graph):
    stations = select_transfer_stations(
        germany_tiny_graph.timetable, method="contraction", fraction=0.3
    )
    table = build_distance_table(packed_arrays(germany_tiny_graph), stations)
    assert_rows_bitwise_equal(
        spcs_table_rows(germany_tiny_graph, stations, num_threads=3, kernel="python"),
        table.profiles,
    )


def test_column_blocks_change_nothing(germany_tiny_graph, monkeypatch):
    """A state budget of a few columns scans the targets block by
    block: the same table."""
    from repro.query import distance_table

    stations = select_transfer_stations(
        germany_tiny_graph.timetable, method="contraction", fraction=0.5
    )
    whole = build_distance_table(packed_arrays(germany_tiny_graph), stations)
    monkeypatch.setattr(distance_table, "_STATE_BYTES", 1)
    blocked = build_distance_table(packed_arrays(germany_tiny_graph), stations)
    assert_rows_bitwise_equal(whole.profiles, blocked.profiles)


# ---------------------------------------------------------------------------
# Replans
# ---------------------------------------------------------------------------


@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(timetable=adversarial_timetables(), data=st.data())
def test_a_replanned_table_equals_the_oracle(timetable, data):
    """Trains re-timed — later, and riding longer or *shorter* — then
    the table built on the swapped pack, as a replan builds it: it
    equals the SPCS rows of a cold graph of the delayed timetable, and
    the table built on that graph's own pack."""
    stations = data.draw(
        st.lists(
            st.integers(0, timetable.num_stations - 1), min_size=1, unique=True
        ),
        label="S_trans",
    )
    changes = data.draw(retimings(timetable), label="(shift, stretch) per train")
    delayed = retimed(timetable, changes)
    swapped, cold_arrays = swapped_pack(timetable, delayed)
    assert_packs_equal(swapped, cold_arrays)
    replanned = build_distance_table(swapped, stations)

    cold_graph = build_td_graph(delayed)
    assert_rows_bitwise_equal(spcs_table_rows(cold_graph, stations), replanned.profiles)
    cold = build_distance_table(cold_arrays, stations)
    assert_rows_bitwise_equal(cold.profiles, replanned.profiles)


MATRIX = [
    pytest.param(instance, kernel, num_threads, id=f"{instance}-{kernel}-p{num_threads}")
    for instance in ("oahu_tiny", "germany_tiny")
    for kernel in ("flat", "python")
    for num_threads in (1, 3)
]


@pytest.mark.parametrize("instance,kernel,num_threads", MATRIX)
def test_a_delay_swap_rescans_the_table_to_the_oracle(
    request, instance, kernel, num_threads
):
    """Through the service: a delay swap's table equals
    the SPCS rows of the delayed timetable, on either kernel, and the
    table of a cold service on it, whatever the service's thread
    count."""
    timetable = request.getfixturevalue(instance)
    config = ServiceConfig(
        num_threads=num_threads,
        use_distance_table=True,
        transfer_fraction=0.3,
    )
    delays = [Delay(train=timetable.connections[0].train, minutes=25)]
    swapped = TransitService(timetable, config).apply_delays(delays)
    delayed = apply_delays(timetable, delays)
    expected = spcs_table_rows(
        build_td_graph(delayed),
        swapped.table.transfer_stations,
        num_threads=num_threads,
        kernel=kernel,
    )
    assert_rows_bitwise_equal(expected, swapped.table.profiles)
    cold = TransitService(delayed, config).table
    assert np.array_equal(cold.transfer_stations, swapped.table.transfer_stations)
    assert_rows_bitwise_equal(cold.profiles, swapped.table.profiles)


# ---------------------------------------------------------------------------
# One process, any thread
# ---------------------------------------------------------------------------


def test_neither_build_nor_swap_forks(oahu_tiny, monkeypatch):
    """The scan runs in the calling process: preparing a table-on
    service and swapping delays into it fork nothing, on any box."""

    def no_fork(*args, **kwargs):
        raise AssertionError("the table forked")

    monkeypatch.setattr(fanout.ForkPool, "_fork", no_fork)
    monkeypatch.setattr(os, "fork", no_fork)
    config = ServiceConfig(use_distance_table=True, transfer_fraction=0.3)
    service = TransitService(oahu_tiny, config)
    delays = [Delay(train=oahu_tiny.connections[0].train, minutes=25)]
    swapped = service.apply_delays(delays)
    assert service.table.num_transfer_stations == swapped.table.num_transfer_stations


def test_concurrent_prepares_build_their_own_tables(oahu_tiny, germany_tiny):
    """Two datasets prepared from four threads at once: no scan may
    read another's state, so each table equals its dataset's serial
    build to the byte."""
    config = ServiceConfig(use_distance_table=True, transfer_fraction=0.3)
    timetables = [oahu_tiny, germany_tiny] * 2
    with ThreadPoolExecutor(max_workers=len(timetables)) as pool:
        services = list(pool.map(lambda tt: TransitService(tt, config), timetables))
    for timetable, service in zip(timetables, services):
        serial = TransitService(timetable, config).table
        assert np.array_equal(serial.transfer_stations, service.table.transfer_stations)
        assert_rows_bitwise_equal(serial.profiles, service.table.profiles)
