"""A loaded generation serves from its pack.

:func:`repro.store.load_dataset` hands a :class:`PreparedDataset` a
timetable builder, the dataset builds its object graph from that
timetable with ``build_td_graph``, and no query reads either
(``docs/KERNEL.md``, "What a generation owns").  Pinned here with both
builders poisoned: every shape, a mixed batch and ``/v1/datasets``
are answered — in process, and by ``serve``'s search workers, which
are forked from the poisoned process — as an eagerly built service
answers them.  Then what may hydrate does so once: a delay swap builds
each object exactly one time and answers like the eager service's
swap, and two threads racing the first access get one graph, which
owns the loaded pack.  That graph packs to the loaded pack, buffer by
buffer, on every kind of timetable a store can hold.
"""

from __future__ import annotations

import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.service.prepare as prepare_mod
import repro.store.store as store_mod
from repro.client import HttpBackend, LocalBackend
from repro.graph.td_arrays import pack_td_graph, packed_arrays
from repro.server import DatasetRegistry
from repro.service import (
    BatchRequest,
    JourneyRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
)
from repro.timetable.delays import Delay

from tests.client.test_transport_parity import scrubbed
from tests.helpers import random_line_timetable
from tests.server.harness import ServerHarness
from tests.server.test_search_workers import CALLS as SHAPE_CALLS
from tests.strategies import adversarial_timetables

CONFIG = ServiceConfig(
    num_threads=2, use_distance_table=True, transfer_fraction=0.25
)

#: Every shape (``SHAPE_CALLS``), then a batch of journeys and profiles.
CALLS = (
    *SHAPE_CALLS,
    lambda b: b.batch(
        BatchRequest(
            journeys=(JourneyRequest(0, 5), JourneyRequest(9, 2)),
            profiles=(ProfileRequest(3), ProfileRequest(6, num_threads=1)),
        )
    ),
)

DELAYS = [Delay(train=0, minutes=45), Delay(train=7, minutes=20)]


@pytest.fixture()
def store(tmp_path, oahu_tiny):
    path = tmp_path / "oahu"
    TransitService(oahu_tiny, CONFIG).save(path)
    return path


@pytest.fixture()
def eager(oahu_tiny):
    return TransitService(oahu_tiny, CONFIG)


@pytest.fixture()
def poisoned(monkeypatch):
    """Both builders of a loaded dataset raise from now on — in this
    process and in whatever it forks."""

    def hydrated(*args, **kwargs):
        raise AssertionError("a loaded generation was hydrated")

    monkeypatch.setattr(store_mod, "_hydrate_timetable", hydrated)
    monkeypatch.setattr(prepare_mod, "build_td_graph", hydrated)


def _answers(backend) -> list:
    return [scrubbed(call(backend)) for call in CALLS]


def _counting(monkeypatch) -> dict[str, int]:
    """Count the calls of both builders, which still build."""
    calls = {"timetable": 0, "graph": 0}
    for key, mod, name in (
        ("timetable", store_mod, "_hydrate_timetable"),
        ("graph", prepare_mod, "build_td_graph"),
    ):
        real = getattr(mod, name)

        def counted(*args, _real=real, _key=key):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(mod, name, counted)
    return calls


def test_a_loaded_service_answers_everything_unhydrated(
    store, eager, poisoned
):
    expected = _answers(LocalBackend(eager, name="oahu"))
    loaded = TransitService.load(store)
    assert _answers(LocalBackend(loaded)) == expected
    assert loaded.describe() == eager.describe()
    # A sibling over the same artifacts builds nothing either.
    sibling = loaded.with_runtime_overrides(num_threads=1)
    assert sibling.journey(0, 5).profile == eager.journey(0, 5).profile
    assert loaded.prepared.hydrated == frozenset()
    assert loaded.prepare_stats.graph_seconds == 0.0


def test_serve_answers_everything_unhydrated(store, eager, poisoned):
    expected = _answers(LocalBackend(eager, name="oahu"))
    registry = DatasetRegistry.from_stores([store])
    harness = ServerHarness(registry)
    try:
        served = registry.get("oahu").service
        assert served.worker_stats[0] >= 1
        url = f"http://127.0.0.1:{harness.port}"
        with HttpBackend(url, dataset="oahu") as remote:
            assert _answers(remote) == expected
        status, datasets = harness.request("GET", "/v1/datasets")
        assert status == 200
        (entry,) = datasets["datasets"]
        assert {key: entry[key] for key in eager.describe()} == (
            eager.describe()
        )
        assert served.prepared.hydrated == frozenset()
    finally:
        harness.close()


def test_a_delay_swap_hydrates_each_once(store, eager, monkeypatch):
    calls = _counting(monkeypatch)
    loaded = TransitService.load(store)
    swapped = loaded.apply_delays(DELAYS, mode="incremental")
    assert calls == {"timetable": 1, "graph": 1}
    # Published once, the timetable builder and its record are dropped.
    prepared = loaded.prepared
    assert prepared.hydrated == {"timetable", "graph"}
    assert prepared._hydrate_timetable is None
    assert packed_arrays(prepared.graph) is prepared.arrays

    again = loaded.apply_delays(DELAYS, mode="incremental")
    swapped.apply_delays(DELAYS, mode="incremental")
    assert calls == {"timetable": 1, "graph": 1}

    reference = eager.apply_delays(DELAYS, mode="incremental")
    expected = _answers(LocalBackend(reference, name="oahu"))
    assert _answers(LocalBackend(swapped)) == expected
    assert _answers(LocalBackend(again)) == expected
    assert swapped.prepared.hydrated == {"timetable", "graph"}


def test_racing_first_accesses_build_one_graph(store, monkeypatch):
    loaded = TransitService.load(store)
    calls = _counting(monkeypatch)
    real = prepare_mod.build_td_graph

    def slow(*args):
        time.sleep(0.05)  # both readers are inside the property by now
        return real(*args)

    monkeypatch.setattr(prepare_mod, "build_td_graph", slow)
    barrier = threading.Barrier(2)
    graphs = []

    def reader() -> None:
        barrier.wait(timeout=10)
        graphs.append(loaded.prepared.graph)

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(graphs) == 2 and graphs[0] is graphs[1]
    assert calls == {"timetable": 1, "graph": 1}
    assert packed_arrays(graphs[0]) is loaded.prepared.arrays
    assert graphs[0].timetable is loaded.prepared.timetable


def test_legs_and_options_are_python_ints(store, poisoned):
    """The pack's stations are numpy integers; nothing of them may
    reach an answer as one (the wire and the SDK expect ``int``)."""
    loaded = TransitService.load(store)
    answers = [
        loaded.multicriteria(2, 5, departure=480),
        loaded.min_transfers(2, 5, departure=480),
        loaded.via(2, 5, 7, departure=480),
        loaded.journey(2, 9, departure=480),
    ]
    values = []
    for answer in answers:
        assert answer.legs, answer
        for leg in answer.legs:
            values += [leg.from_station, leg.to_station]
            values += [leg.departure, leg.arrival]
    for option in answers[0].options:
        values += [option.transfers, option.arrival]
    values += [answers[1].transfers, answers[1].arrival]
    values.append(answers[2].via_arrival)
    assert values and all(type(value) is int for value in values), [
        type(value) for value in values
    ]


def _assert_builds_its_pack(path) -> None:
    """The graph a loaded store builds packs to the loaded pack, buffer
    by buffer, and owns it."""
    prepared = TransitService.load(path).prepared
    graph = prepared.graph
    fresh = pack_td_graph(graph)
    for name in store_mod._ARRAY_FIELDS:
        assert np.array_equal(
            getattr(fresh, name), getattr(prepared.arrays, name)
        ), name
    assert packed_arrays(graph) is prepared.arrays


@pytest.mark.parametrize("instance", ["oahu_tiny", "germany_tiny", "random"])
def test_a_loaded_graph_is_built_to_its_pack(tmp_path, request, instance):
    timetable = (
        random_line_timetable(77, num_stations=8, num_lines=5)
        if instance == "random"
        else request.getfixturevalue(instance)
    )
    TransitService(timetable, ServiceConfig()).save(tmp_path)
    _assert_builds_its_pack(tmp_path)


def test_a_swapped_generation_is_built_to_its_pack(tmp_path, eager):
    eager.apply_delays(DELAYS, mode="incremental").save(tmp_path)
    _assert_builds_its_pack(tmp_path)


@settings(
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(timetable=adversarial_timetables())
def test_an_adversarial_graph_is_built_to_its_pack(timetable):
    with tempfile.TemporaryDirectory() as path:
        TransitService(timetable, ServiceConfig()).save(path)
        _assert_builds_its_pack(path)
