"""A loaded generation serves from its pack.

:func:`repro.store.load_dataset` hands a :class:`PreparedDataset` a
timetable builder, the dataset partitions that timetable into routes
and builds its object graph from it with ``build_td_graph``, and no
query reads any of them (``docs/KERNEL.md``, "What a generation
owns").  Pinned here with the builders poisoned: every shape, a mixed
batch and ``/v1/datasets`` are answered — in process, and by
``serve``'s search workers, which are forked from the poisoned
process — as an eagerly built service answers them.  Then what may
hydrate does so once: a delay swap builds the timetable and the routes
exactly one time, never a graph, and answers like a cold service on
the delayed timetable; two threads racing the first access — two oracles, or a swap and
an oracle — get one routes list and one graph, which owns the loaded
pack.  That graph packs to the loaded pack, buffer by buffer, on every
kind of timetable a store can hold, and so does the graph an oracle
asks of a swapped generation.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.service.prepare as prepare_mod
import repro.store.codec as codec_mod
import repro.store.store as store_mod
from repro.client import HttpBackend, LocalBackend
from repro.graph.td_arrays import pack_td_graph, packed_arrays
from repro.graph.td_model import build_td_graph
from repro.server import DatasetRegistry
from repro.service import (
    BatchRequest,
    JourneyRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
)
from repro.store.codec import read_record, write_record
from repro.timetable.delays import Delay, apply_delays

from tests.helpers import (
    CORRUPT_CONNECTION_ROWS,
    assert_packs_equal,
    random_line_timetable,
    run_in_own_group,
    scrubbed,
)
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
    """The three builders of a loaded dataset raise from now on — in
    this process and in whatever it forks."""

    def hydrated(*args, **kwargs):
        raise AssertionError("a loaded generation was hydrated")

    monkeypatch.setattr(store_mod, "_hydrate_timetable", hydrated)
    monkeypatch.setattr(prepare_mod, "partition_routes", hydrated)
    monkeypatch.setattr(prepare_mod, "build_td_graph", hydrated)


def _answers(backend) -> list:
    return [scrubbed(call(backend)) for call in CALLS]


def _counting(monkeypatch) -> dict[str, int]:
    """Count the calls of the three builders, which still build."""
    calls = {"timetable": 0, "routes": 0, "graph": 0}
    for key, mod, name in (
        ("timetable", store_mod, "_hydrate_timetable"),
        ("routes", prepare_mod, "partition_routes"),
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


#: The record sections serving reads: the header, the station graph
#: and the transfer stations.  The rest is the timetable's.
SERVING_SECTIONS = {
    "meta",
    "timetable_name",
    "transfer_stations",
    "sg_indptr",
    "sg_targets",
    "sg_weights",
    "sg_rev_indptr",
    "sg_rev_targets",
}


def test_a_load_decodes_only_what_serving_reads(store, eager, monkeypatch):
    """The record is held open, not read: a load decodes its serving
    sections, every shape is answered without another, and the
    timetable's sections are decoded through the same descriptor when
    a swap hydrates — after ``dataset.bin`` is gone from the
    directory — but for the train names, which no swap reads."""
    decoded: list[str] = []
    real = codec_mod.HeldRecord.get

    def get(self, name, **kwargs):
        decoded.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(codec_mod.HeldRecord, "get", get)
    loaded = TransitService.load(store)
    assert _answers(LocalBackend(loaded)) == _answers(
        LocalBackend(eager, name="oahu")
    )
    assert set(decoded) == SERVING_SECTIONS
    decoded.clear()
    (store / "dataset.bin").unlink()
    swapped = loaded.apply_delays(DELAYS)
    assert set(decoded) == {
        "station_names",
        "station_transfer_time",
        "connections",
    }
    assert loaded.timetable.connections == eager.timetable.connections
    assert loaded.timetable.trains == eager.timetable.trains
    assert "train_names" in decoded
    reference = TransitService(
        apply_delays(eager.timetable, DELAYS), eager.config
    )
    assert _answers(LocalBackend(swapped)) == _answers(
        LocalBackend(reference, name="oahu")
    )


def test_a_swap_builds_no_row_object(tmp_path, oahu_tiny):
    """A loaded table-off generation answers, is swapped twice and the
    newest answers again, in a process of its own: no
    :class:`Connection` or :class:`Train` exists after that, and the
    train names were never decoded — a swap reads the connection
    columns alone.  The answers are a cold service's on the
    twice-delayed timetable."""
    path = tmp_path / "plain"
    TransitService(oahu_tiny, ServiceConfig()).save(path)
    returncode, stdout, stderr = run_in_own_group(
        """
        import gc
        import json
        import sys

        import repro.store.codec as codec
        from repro.service import TransitService
        from repro.timetable.delays import Delay
        from repro.timetable.types import Connection, Train

        decoded = []
        real = codec.HeldRecord.get

        def get(self, name):
            decoded.append(name)
            return real(self, name)

        codec.HeldRecord.get = get
        service = TransitService.load(sys.argv[1])
        service.journey(0, 5)
        once = service.apply_delays([Delay(train=0, minutes=45)])
        twice = once.apply_delays([Delay(train=7, minutes=20)])
        profile = twice.journey(0, 5).profile
        gc.collect()
        rows = sum(
            isinstance(obj, (Connection, Train)) for obj in gc.get_objects()
        )
        assert rows == 0, f"{rows} row objects after two swaps"
        assert "train_names" not in decoded, decoded
        print(json.dumps([profile.deps.tolist(), profile.arrs.tolist()]))
        """,
        path,
    )
    assert returncode == 0, stderr
    cold = TransitService(
        apply_delays(
            apply_delays(oahu_tiny, [Delay(train=0, minutes=45)]),
            [Delay(train=7, minutes=20)],
        ),
        ServiceConfig(),
    ).journey(0, 5).profile
    assert json.loads(stdout) == [cold.deps.tolist(), cold.arrs.tolist()]


def test_a_table_on_swap_imports_no_numpy_ma(store):
    """``numpy.ma`` (≈ 0.9 MB, imported by ``np.unique``) stays out of a
    loaded table-on service: its queries do not import it, and neither
    does a swap, which rescans the distance table."""
    returncode, _stdout, stderr = run_in_own_group(
        """
        import sys
        from repro.service import TransitService
        from repro.timetable.delays import Delay

        service = TransitService.load(sys.argv[1])
        service.journey(0, 5)
        service.journey(3, 9, departure=480)
        service.profile(2)
        assert "numpy.ma" not in sys.modules, "imported by a query"
        swapped = service.apply_delays([Delay(train=0, minutes=45)])
        swapped.journey(0, 5)
        assert swapped.table is not None
        assert "numpy.ma" not in sys.modules, "imported by a table-on swap"
        """,
        store,
    )
    assert returncode == 0, stderr


def test_a_delay_swap_hydrates_each_once(store, eager, monkeypatch):
    reference = TransitService(
        apply_delays(eager.timetable, DELAYS), eager.config
    )
    calls = _counting(monkeypatch)

    def graph_built(*args, **kwargs):
        raise AssertionError("a delay swap built an object graph")

    monkeypatch.setattr(prepare_mod, "build_td_graph", graph_built)
    loaded = TransitService.load(store)
    swapped = loaded.apply_delays(DELAYS)
    assert calls == {"timetable": 1, "routes": 1, "graph": 0}
    # Published once, the timetable builder and its record are dropped.
    prepared = loaded.prepared
    assert prepared.hydrated == {"timetable"}
    assert prepared._hydrate_timetable is None
    # Delays keep routes: every generation shares the first one's.
    assert swapped.prepared.routes is prepared.routes

    again = loaded.apply_delays(DELAYS)
    swapped.apply_delays(DELAYS)
    assert calls == {"timetable": 1, "routes": 1, "graph": 0}

    expected = _answers(LocalBackend(reference, name="oahu"))
    assert _answers(LocalBackend(swapped)) == expected
    assert _answers(LocalBackend(again)) == expected
    assert swapped.prepared.hydrated == {"timetable"}


def _first_swap(service) -> None:
    service.apply_delays(DELAYS)


def _oracle(service) -> None:
    service.prepared.graph


@pytest.mark.parametrize(
    "first", (_oracle, _first_swap), ids=("oracles", "swap-and-oracle")
)
def test_racing_first_accesses_build_one_graph(store, monkeypatch, first):
    loaded = TransitService.load(store)
    calls = _counting(monkeypatch)
    real = prepare_mod.partition_routes

    def slow(*args):
        time.sleep(0.05)  # both threads are inside the property by now
        return real(*args)

    monkeypatch.setattr(prepare_mod, "partition_routes", slow)
    barrier = threading.Barrier(2)
    routes = []

    def reader(access) -> None:
        barrier.wait(timeout=10)
        access(loaded)
        routes.append(loaded.prepared.routes)

    threads = [
        threading.Thread(target=reader, args=(access,))
        for access in (first, _oracle)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(routes) == 2 and routes[0] is routes[1]
    assert calls == {"timetable": 1, "routes": 1, "graph": 1}
    graph = loaded.prepared.graph
    assert packed_arrays(graph) is loaded.prepared.arrays
    assert graph.timetable is loaded.prepared.timetable


def _timetable(service) -> None:
    service.prepared.timetable


@pytest.mark.parametrize(
    "access", (_first_swap, _timetable), ids=("swap", "timetable")
)
@pytest.mark.parametrize(
    "corrupt, message",
    CORRUPT_CONNECTION_ROWS,
    ids=[corrupt.__name__[1:] for corrupt, _ in CORRUPT_CONNECTION_ROWS],
)
def test_corrupt_connection_rows_are_refused_at_first_access(
    store, corrupt, message, access
):
    """A connection row of the record that :class:`Connection` would
    refuse still loads — no load reads the rows — and raises its
    ``ValueError`` when the timetable is first built, by a swap or by
    whoever asks for it."""
    record = store / "dataset.bin"
    sections = read_record(record)
    rows = sections["connections"].reshape(-1, 5).copy()
    corrupt(rows.T, len(rows) // 2)
    sections["connections"] = rows.reshape(-1)
    write_record(record, sections)
    loaded = TransitService.load(store)
    with pytest.raises(ValueError, match=message):
        access(loaded)
    assert loaded.prepared.hydrated == frozenset()


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
    eager.apply_delays(DELAYS).save(tmp_path)
    _assert_builds_its_pack(tmp_path)


@pytest.mark.parametrize("parent", ("cold", "loaded"))
def test_an_oracle_builds_a_swapped_generations_graph(store, eager, parent):
    """A replan builds no graph; the one an oracle asks for is
    ``build_td_graph`` of the delayed timetable and owns the swapped
    pack."""
    service = eager if parent == "cold" else TransitService.load(store)
    prepared = service.apply_delays(DELAYS).prepared
    assert prepared.hydrated == {"timetable"}
    graph = prepared.graph
    cold = build_td_graph(prepared.timetable)
    assert graph.conn_start_node == cold.conn_start_node
    assert graph.route_node_ids == cold.route_node_ids
    assert_packs_equal(pack_td_graph(graph), pack_td_graph(cold))
    assert_packs_equal(prepared.arrays, pack_td_graph(cold))
    assert packed_arrays(graph) is prepared.arrays


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
