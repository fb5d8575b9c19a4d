"""Delay replanning parity: ``service.apply_delays(...)`` ≡ a cold
service built from the delayed timetable.

``apply_delays`` shares the station graph and transfer-station
selection with the original service (delays never change route
topology) and rebuilds only the travel-time-dependent artifacts.  The
contract: answers after replanning are *bitwise identical* to a
``TransitService`` constructed from scratch on the delayed timetable —
on profile, journey and batch paths, with and without a distance
table, on at least two synthetic instances.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.graph.td_arrays as td_arrays_module
import repro.graph.td_model as td_model_module
import repro.service.facade as facade_module
import repro.service.prepare as prepare_module
import repro.timetable.types as types_module
import tests.helpers as helpers_module
from repro.graph.station_graph import build_station_graph
from repro.graph.td_arrays import TDGraphArrays
from repro.client import HttpBackend, LocalBackend
from repro.fleet.catchup import coalesce_delay_log
from repro.query.transfer_selection import select_transfer_stations
from repro.server import DatasetRegistry
from repro.service import (
    BatchRequest,
    BatchResponse,
    ProfileResult,
    ServiceConfig,
    TransitService,
)
from repro.synthetic.instances import make_instance
from repro.synthetic.workloads import random_station_pairs
from repro.timetable.builder import TimetableBuilder
from repro.timetable.delays import Delay, apply_delays
from repro.timetable.routes import partition_routes

from tests.helpers import (
    apply_delays_by_connection,
    ask_every_shape,
    assert_packs_equal,
    assert_tables_bitwise_equal,
    child_alive,
    random_line_timetable,
)
from tests.oracles.reference_service import ReferenceService
from tests.server.harness import ServerHarness
from tests.strategies import adversarial_timetables


def assert_profiles_bitwise_equal(expected, got, context=""):
    assert got.period == expected.period, context
    assert np.array_equal(got.deps, expected.deps), context
    assert np.array_equal(got.arrs, expected.arrs), context


def _instances():
    return [
        ("oahu-tiny", make_instance("oahu", scale="tiny")),
        ("germany-tiny", make_instance("germany", scale="tiny")),
        ("random-line", random_line_timetable(42, num_stations=8, num_lines=5)),
    ]


def _delays_for(timetable):
    """Delays valid for any instance: ``from_stop`` must name an actual
    departure of its train (apply_delays validates this), so pick the
    mid-run victim among trains with at least two legs."""
    legs_per_train: dict[int, int] = {}
    for c in timetable.connections:
        legs_per_train[c.train] = legs_per_train.get(c.train, 0) + 1
    mid_run_victim = next(
        t for t in sorted(legs_per_train) if t > 0 and legs_per_train[t] >= 2
    )
    return [
        Delay(train=0, minutes=25),
        Delay(train=mid_run_victim, minutes=40, from_stop=1),
    ]


@pytest.mark.parametrize(
    "name,timetable", _instances(), ids=lambda v: v if isinstance(v, str) else ""
)
@pytest.mark.parametrize("with_table", (False, True), ids=["plain", "table"])
def test_apply_delays_matches_cold_service(name, timetable, with_table):
    config = ServiceConfig(
        num_threads=2,
        use_distance_table=with_table,
        transfer_fraction=0.3,
    )
    delays = _delays_for(timetable)
    warm = TransitService(timetable, config).apply_delays(delays)
    cold = TransitService(
        apply_delays(timetable, delays), config
    )

    # Replanning must not silently change the dataset identity.
    assert warm.timetable.num_stations == cold.timetable.num_stations
    assert [c.dep_time for c in warm.timetable.connections] == [
        c.dep_time for c in cold.timetable.connections
    ]

    pairs = random_station_pairs(timetable, 6, seed=9)
    for s, t in pairs:
        assert_profiles_bitwise_equal(
            cold.journey(s, t).profile,
            warm.journey(s, t).profile,
            f"{name}[{with_table}]: journey {s}->{t}",
        )
    for source in {s for s, _ in pairs}:
        cold_p = cold.profile(source)
        warm_p = warm.profile(source)
        for target in range(timetable.num_stations):
            assert_profiles_bitwise_equal(
                cold_p.profile(target),
                warm_p.profile(target),
                f"{name}[{with_table}]: profile {source}->{target}",
            )


def test_apply_delays_shares_topology_artifacts():
    timetable = make_instance("oahu", scale="tiny")
    config = ServiceConfig(
        use_distance_table=True, transfer_fraction=0.3
    )
    service = TransitService(timetable, config)
    delayed = service.apply_delays([Delay(train=1, minutes=15)])

    assert delayed.prepare_stats.shared_station_graph
    assert delayed.prepared.station_graph is service.prepared.station_graph
    assert (
        delayed.prepared.transfer_stations
        is service.prepared.transfer_stations
    )
    # Travel-time-dependent artifacts are fresh.
    assert delayed.prepared.graph is not service.prepared.graph
    assert delayed.prepared.arrays is not service.prepared.arrays
    assert delayed.prepared.table is not service.prepared.table
    # And slack-recovery plumbs through.
    recovered = service.apply_delays(
        [Delay(train=1, minutes=15)], slack_per_leg=5
    )
    assert recovered.timetable.name.endswith("+delays")


def test_apply_delays_batch_parity():
    timetable = random_line_timetable(7, num_stations=9, num_lines=5)
    config = ServiceConfig(num_threads=2)
    delays = _delays_for(timetable)
    warm = TransitService(timetable, config).apply_delays(delays)
    cold = TransitService(apply_delays(timetable, delays), config)
    pairs = random_station_pairs(timetable, 5, seed=1)
    warm_batch = warm.batch(BatchRequest.from_pairs(pairs))
    cold_batch = cold.batch(BatchRequest.from_pairs(pairs))
    for w, c in zip(warm_batch.journeys, cold_batch.journeys):
        assert_profiles_bitwise_equal(c.profile, w.profile)


# ---------------------------------------------------------------------------
# What a swap shares with its parent
# ---------------------------------------------------------------------------


@st.composite
def delay_batches(draw, timetable):
    """One to three delays on ``timetable``'s trains, each anchored at
    one of its train's departures, up to two periods late (so a train
    wraps past the period), and a slack of 0–30 minutes per leg."""
    legs: dict[int, int] = {}
    for c in timetable.connections:
        legs[c.train] = legs.get(c.train, 0) + 1
    trains = sorted(legs)
    delays = [
        Delay(
            train=train,
            minutes=draw(st.integers(0, 2 * timetable.period)),
            from_stop=draw(st.integers(0, legs[train] - 1)),
        )
        for train in draw(
            st.lists(st.sampled_from(trains), min_size=1, max_size=3)
        )
    ]
    return delays, draw(st.integers(0, 30))


STATION_GRAPH_BUFFERS = ("indptr", "targets", "weights", "rev_indptr", "rev_targets")


@settings(
    deadline=None,
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(timetable=adversarial_timetables(), data=st.data())
def test_a_delay_batch_keeps_what_a_swap_shares(timetable, data):
    """A swap keeps its parent's routes, station graph and transfer
    stations (:func:`repro.service.prepare.replan_dataset`); a cold
    build of the delayed timetable must make the same three, or the
    swap would answer unlike its oracle.  Delays move departures and
    keep every ride's duration, so none of the three may move."""
    delays, slack = data.draw(delay_batches(timetable))
    try:
        delayed = apply_delays(timetable, delays, slack_per_leg=slack)
    except ValueError:  # a train made to depart one station twice at once
        assume(False)
    before, after = build_station_graph(timetable), build_station_graph(delayed)
    for name in STATION_GRAPH_BUFFERS:
        a, b = getattr(before, name), getattr(after, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert [(r.stations, r.trains) for r in partition_routes(delayed)] == [
        (r.stations, r.trains) for r in partition_routes(timetable)
    ]
    fraction = data.draw(st.sampled_from([0.2, 0.5, 1.0]))
    min_degree = data.draw(st.integers(1, 3))
    for method in ("contraction", "degree"):
        picked = [
            select_transfer_stations(
                tt, method=method, fraction=fraction, min_degree=min_degree
            ).tolist()
            for tt in (timetable, delayed)
        ]
        assert picked[0] == picked[1], method


# ---------------------------------------------------------------------------
# No served path builds a graph: a cold prepare, a swap asked any way, a save
# ---------------------------------------------------------------------------


def _wire(delays) -> list[dict]:
    return [
        {"train": d.train, "minutes": d.minutes, "from_stop": d.from_stop}
        for d in delays
    ]


def _swap_in_process(service, first, second):
    return service.apply_delays(first).apply_delays(second)


def _swap_naming_full(service, first, second):
    return service.apply_delays(first, mode="full").apply_delays(
        second, mode="full"
    )


def _swap_through_local_backend(service, first, second):
    backend = LocalBackend(service)
    backend.apply_delays(first)
    backend.apply_delays(second)
    return backend.service


def _served(post):
    """A swap asked of a live server: ``post(harness, first,
    second)`` sends the requests, and the served generation is
    returned."""

    def drive(service, first, second):
        registry = DatasetRegistry.from_services({"oahu": service})
        harness = ServerHarness(registry)
        try:
            post(harness, first, second)
            return registry.get("oahu").service
        finally:
            harness.close()

    return drive


def _post(harness, body) -> dict:
    status, payload = harness.request("POST", "/v1/datasets/oahu/delays", body)
    assert status == 200, payload
    return payload


def _http_apply(harness, first, second):
    for delays in (first, second):
        _post(harness, {"delays": _wire(delays), "replan": "full"})


def _catch_up(harness, first, second):
    """What a gateway posts to a rejoining worker: the two logged
    batches coalesced into one apply standing for both."""
    log = [
        json.dumps({"delays": _wire(delays), "replan": "full"}).encode()
        for delays in (first, second)
    ]
    (body, represented), = coalesce_delay_log(log)
    assert represented == 2 and "replan" not in body
    assert _post(harness, body)["generation"] == 2


SWAP_REQUESTS = {
    "apply_delays": _swap_in_process,
    "apply_delays-mode-full": _swap_naming_full,
    "LocalBackend": _swap_through_local_backend,
    "http-apply-replan-full": _served(_http_apply),
    "fleet-catch-up": _served(_catch_up),
}


def _comparable(answer, num_stations: int):
    """An answer without its wall-clock accounting: a profile answer
    as its profile to every station, a batch as its items."""
    if isinstance(answer, BatchResponse):
        return [
            _comparable(item, num_stations)
            for item in (*answer.journeys, *answer.profiles)
        ]
    if isinstance(answer, ProfileResult):
        return [answer.profile(t) for t in range(num_stations)]
    return replace(answer, stats=None)


def _every_shape(service, stations) -> list:
    n = service.prepared.counts.stations
    return [
        _comparable(answer, n)
        for source, via, target in stations
        for answer in ask_every_shape(service, source, via, target)
    ]


@pytest.mark.parametrize("with_table", (False, True), ids=["plain", "table"])
@pytest.mark.parametrize("request_swap", SWAP_REQUESTS.values(), ids=SWAP_REQUESTS)
def test_no_served_path_builds_a_graph(
    monkeypatch, tmp_path, request_swap, with_table
):
    """With ``build_td_graph`` and ``pack_td_graph`` poisoned
    throughout, a cold service prepares, answers all six shapes as the
    reference kernel does on the object graph, and saves; and a swap,
    however it is asked for — no ``mode``, ``mode="full"``, the SDK's
    default, the wire's ``replan: "full"`` in one phase or two, a
    coalesced catch-up — runs no cold prepare either, answers like a
    cold service on the delayed timetable (its pack and table byte for
    byte) and saves.  Neither generation has a graph."""
    timetable = make_instance("oahu", scale="tiny")
    config = _config(with_table)
    first, second = _delays_for(timetable), [Delay(train=3, minutes=12)]
    delayed = apply_delays(apply_delays(timetable, first), second)
    stations = [
        (s, (s + t) // 2, t)
        for s, t in random_station_pairs(timetable, 2, seed=3)
    ]
    reference = _every_shape(ReferenceService(timetable, config), stations)
    cold = TransitService(delayed, config)
    with monkeypatch.context() as poisoned:
        for module, name in (
            (td_model_module, "build_td_graph"),
            (td_arrays_module, "pack_td_graph"),
        ):
            poisoned.setattr(module, name, _forbidden(name))
        service = TransitService(timetable, config)
        assert service.prepared.hydrated == {"timetable"}
        assert _every_shape(service, stations) == reference
        service.save(tmp_path / "cold")
        with monkeypatch.context() as swapping:
            for module in (facade_module, prepare_module):
                swapping.setattr(
                    module, "prepare_dataset", _forbidden("prepare_dataset")
                )
            swapped = request_swap(service, first, second)
        assert swapped.prepared.hydrated == {"timetable"}
        answers = _every_shape(swapped, stations)
        swapped.save(tmp_path / "swapped")
        assert swapped.prepared.hydrated == {"timetable"}
    assert_packs_equal(swapped.prepared.arrays, cold.prepared.arrays)
    if with_table:
        assert_tables_bitwise_equal(cold.prepared.table, swapped.prepared.table)
    assert answers == _every_shape(cold, stations)


def _forbidden(name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"a served path called {name}")

    return forbidden


def _cold_generation(timetable, config, tmp_path):
    return TransitService(timetable, config)


def _loaded_generation(timetable, config, tmp_path):
    TransitService(timetable, config).save(tmp_path / "store")
    return TransitService.load(tmp_path / "store")


@pytest.mark.parametrize("with_table", (False, True), ids=["plain", "table"])
@pytest.mark.parametrize(
    "provenance",
    (_cold_generation, _loaded_generation),
    ids=lambda fn: fn.__name__[1:].split("_")[0],
)
def test_a_swap_reads_no_connection_object(
    monkeypatch, tmp_path, provenance, with_table
):
    """A swap's cost follows its batch: with the one pass over the
    connection objects (``Timetable.connection_columns`` reads each
    field of every connection with ``attrgetter``) and the
    per-connection oracle poisoned, a swap off a cold or loaded
    generation and a swap off that swapped one still answer all six
    shapes as a cold service on the delayed timetable does — the
    delayed timetables carry their columns, and a loaded one is handed
    its record's."""
    timetable = make_instance("oahu", scale="tiny")
    config = _config(with_table)
    first, second = _delays_for(timetable), [Delay(train=3, minutes=12)]
    once = apply_delays_by_connection(timetable, first)
    twice = apply_delays_by_connection(once, second)
    colds = [TransitService(once, config), TransitService(twice, config)]
    stations = [
        (s, (s + t) // 2, t)
        for s, t in random_station_pairs(timetable, 2, seed=3)
    ]
    service = provenance(timetable, config, tmp_path)
    with monkeypatch.context() as poisoned:
        poisoned.setattr(types_module, "attrgetter", _forbidden("attrgetter"))
        poisoned.setattr(
            helpers_module,
            "apply_delays_by_connection",
            _forbidden("apply_delays_by_connection"),
        )
        swapped = service.apply_delays(first)
        swapped_twice = swapped.apply_delays(second)
        for swap, cold in zip((swapped, swapped_twice), colds):
            assert swap.timetable.connections == cold.timetable.connections
            assert _every_shape(swap, stations) == _every_shape(cold, stations)


# ---------------------------------------------------------------------------
# A train that departs twice at one time point
# ---------------------------------------------------------------------------


def _line(*trips):
    builder = TimetableBuilder(period=1440, name="line")
    for k in range(4):
        builder.add_station(f"s{k}", transfer_time=0)
    for trip in trips:
        builder.add_trip(trip)
    return builder.build()


#: ``(trips, delays, slack, source, departure, arrivals)``: each delay
#: moves one of train 0's departures onto the minute of the one before
#: it, from another station — by wrapping a day (s1 at 490 + 1430 ≡
#: 480), or by slack recovery on a ride without dwell (s1 at 12 + 3 =
#: 15, the train having left s0 at 10 + 5).  ``arrivals[s]``: the
#: earliest arrival at station ``s`` leaving ``source`` at
#: ``departure``, riding on past the stop the train leaves before it
#: arrives.
TWICE_AT_ONE_MINUTE = {
    "wrap": (
        ([(0, 480), (1, 490), (2, 500)], [(3, 400), (0, 470)]),
        [Delay(train=0, minutes=1430, from_stop=1)],
        0, 0, 480, {1: 490, 2: 1930},
    ),
    "slack": (
        ([(0, 10), (1, 12), (2, 20)],),
        [Delay(train=0, minutes=5)],
        2, 0, 15, {1: 17, 2: 1463},
    ),
}


@pytest.mark.parametrize("case", TWICE_AT_ONE_MINUTE)
def test_a_train_departing_twice_at_one_minute(case):
    """Each departure seeds its own leg: a profile from the first stop
    does not start at the second one (it used to, in a cold build: a
    train's start nodes were keyed by its departure minute alone)."""
    trips, delays, slack, source, departure, arrivals = TWICE_AT_ONE_MINUTE[case]
    service = TransitService(_line(*trips), ServiceConfig())
    delayed = service.apply_delays(delays, slack_per_leg=slack)
    cold = TransitService(
        apply_delays(service.timetable, delays, slack_per_leg=slack),
        ServiceConfig(),
    )
    for generation in (delayed, cold):
        profile = generation.profile(source)
        for station, arrival in arrivals.items():
            assert profile.earliest_arrival(station, departure) == arrival, station
        journey = generation.journey(source, 1, departure=departure)
        assert journey.arrival == arrivals[1]


def test_a_train_departing_twice_at_one_minute_over_http():
    trips, delays, slack, source, departure, arrivals = TWICE_AT_ONE_MINUTE["wrap"]
    service = TransitService(_line(*trips), ServiceConfig())
    harness = ServerHarness(DatasetRegistry.from_services({"line": service}))
    try:
        url = f"http://127.0.0.1:{harness.port}"
        with HttpBackend(url, dataset="line") as remote:
            remote.apply_delays(delays)
            profile = remote.profile(source)
            for station, arrival in arrivals.items():
                assert profile.earliest_arrival(station, departure) == arrival
    finally:
        harness.close()


def test_a_delay_that_departs_one_station_twice_is_refused():
    """Train 0 leaves s0 at 0 and, after a loop, at 20: 1420 minutes
    late from its third stop, it would leave s0 at 0 twice — which leg
    a connection of s0 starts is then undecidable, so the batch is
    refused, in process (``ValueError``) and on the wire (400
    ``invalid_request``, no swap)."""
    service = TransitService(
        _line([(0, 0), (1, 10), (0, 20), (2, 30)]), ServiceConfig()
    )
    delays = [Delay(train=0, minutes=1420, from_stop=2)]
    with pytest.raises(ValueError, match="train 0 would depart station 0 twice at 0"):
        service.apply_delays(delays)
    harness = ServerHarness(DatasetRegistry.from_services({"line": service}))
    try:
        status, payload = harness.request(
            "POST",
            "/v1/datasets/line/delays",
            {"delays": [{"train": 0, "minutes": 1420, "from_stop": 2}]},
        )
        assert status == 400, payload
        assert payload["error"]["code"] == "invalid_request"
        assert "depart station 0 twice at 0" in payload["error"]["message"]
        listed = harness.request("GET", "/v1/datasets")[1]["datasets"]
        assert listed[0]["generation"] == 0
    finally:
        harness.close()


# ---------------------------------------------------------------------------
# A swapped-out generation is garbage, and a swap sorts no timetable
# ---------------------------------------------------------------------------


def _live_packs():
    """Every live pack: one per generation, whether it has built its
    ``TDGraph`` (which owns it) or not — a swap builds none.  The collector's object list is the census."""
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) is TDGraphArrays]


def test_swapped_out_generations_are_not_pinned():
    """Ten delay batches leave one pack alive per live service: the
    pack belongs to its generation, so nothing module-global can hold a
    generation nobody serves from any more."""
    others = len(_live_packs())  # session fixtures of other tests
    service = TransitService(
        make_instance("oahu", scale="tiny"), ServiceConfig()
    )
    for train in range(10):
        service = service.apply_delays([Delay(train=train, minutes=5)])
    assert len(_live_packs()) - others == 1
    del service
    assert len(_live_packs()) - others == 0


def test_swapped_out_generations_take_their_workers_with_them():
    """The same ten batches over a generation that has search workers:
    each swap hands the next generation workers of its own, and a
    generation nobody holds any more is collected, workers and all —
    the pool knows its service only weakly, so no cycle keeps either."""
    others = len(_live_packs())
    service = TransitService(
        make_instance("oahu", scale="tiny"), ServiceConfig()
    )
    service.start_workers(2)
    seen: list[int] = []
    for train in range(10):
        seen += [child.pid for child in service._workers._children]
        service = service.apply_delays([Delay(train=train, minutes=5)])
        assert service.worker_stats == (2, 0)
    assert len(_live_packs()) - others == 1
    last = [child.pid for child in service._workers._children]
    assert len(set(seen + last)) == 22
    assert not any(map(child_alive, seen))  # reaped, every one
    assert service.journey(0, 5).profile is not None
    del service
    assert len(_live_packs()) - others == 0
    assert not any(map(child_alive, last))


def test_search_workers_get_a_result_cache_of_their_own():
    """The fork may happen while another thread of the server holds the
    cache's lock (here: this one does).  A worker that kept the
    inherited cache would wait for that lock for ever the first time a
    ``multicriteria`` looked up its shared search."""
    service = TransitService(
        make_instance("oahu", scale="tiny"), ServiceConfig()
    )
    with service._result_cache._lock:
        service.start_workers(1)
    answers: list = []
    ask = threading.Thread(
        target=lambda: answers.append(
            service.multicriteria(2, 5, departure=480)
        ),
        daemon=True,
    )
    ask.start()
    ask.join(timeout=20)
    try:
        assert not ask.is_alive(), "the worker is stuck on an inherited lock"
        twin = TransitService(service.timetable, service.config)
        assert (
            answers[0].options
            == twin.multicriteria(2, 5, departure=480).options
        )
        assert service.cache_stats.misses == 1  # its search is not ours
    finally:
        if ask.is_alive():
            for child in service._workers._children:
                os.kill(child.pid, signal.SIGKILL)
        service.stop_workers()


def _config(with_table):
    return ServiceConfig(
        num_threads=2,
        use_distance_table=with_table,
        transfer_fraction=0.3,
    )


@pytest.mark.parametrize("with_table", (False, True), ids=["plain", "table"])
def test_no_timetable_sort_after_a_swap_or_a_load(tmp_path, with_table):
    """``Timetable.outgoing_connections`` sorts the whole timetable on
    first use.  The flat kernel reads ``conn(S)`` from the pack, so
    neither a swap (its table rows included) nor any of
    the six shapes on a swapped or loaded generation pays that sort."""
    service = TransitService(
        make_instance("oahu", scale="tiny"), _config(with_table)
    )
    swapped = service.apply_delays([Delay(train=0, minutes=25)])
    assert swapped.timetable._conn_by_dep_station is None  # the swap itself
    service.save(tmp_path / "store")
    for generation in (swapped, TransitService.load(tmp_path / "store")):
        ask_every_shape(generation, 0, 3, 7)
        assert generation.timetable._conn_by_dep_station is None
