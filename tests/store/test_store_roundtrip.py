"""Artifact-store guarantees: save→load answers bitwise-identically to
an in-memory prepare, loads never build, and incompatible stores are
rejected loudly.

Three contracts:

1. **Round-trip equivalence** — for both kernels, with and without a
   distance table, on multiple seeded instances: a service loaded from
   a store answers all three query shapes (profile / journey / batch)
   bitwise-identically to the service that was saved.
2. **Warm means warm** — loading and querying runs *no* builder
   (graph build, packing, station graph, transfer selection, table
   build), asserted by monkeypatching every builder to raise.
3. **Versioning** — format-version and config-hash mismatches raise
   :class:`StoreError` instead of producing wrong answers, as do
   truncated or tampered files.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

import repro.service.prepare as prepare_mod
from repro.service import (
    BatchRequest,
    JourneyRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
)
from repro.store import (
    FORMAT_VERSION,
    CodecError,
    StoreError,
    config_hash,
    describe_store,
    load_dataset,
    read_record,
    save_dataset,
    write_record,
)
from repro.synthetic.workloads import random_station_pairs
from repro.timetable.delays import Delay

from tests.helpers import (
    assert_tables_bitwise_equal,
    random_line_timetable,
    run_in_own_group,
)
from tests.oracles.reference_service import SERVICE_OF_KERNEL

KERNELS = ("python", "flat")


def assert_profiles_bitwise_equal(expected, got, context=""):
    assert got.period == expected.period, context
    assert np.array_equal(got.deps, expected.deps), context
    assert np.array_equal(got.arrs, expected.arrs), context


def _assert_same_answers(cold: TransitService, warm: TransitService, seed=13):
    """All three query shapes agree bitwise between two services."""
    timetable = cold.timetable
    pairs = random_station_pairs(timetable, 6, seed=seed) + [(0, 0)]
    for s, t in pairs:
        a, b = cold.journey(s, t), warm.journey(s, t)
        assert b.stats.classification == a.stats.classification, (s, t)
        assert_profiles_bitwise_equal(a.profile, b.profile, f"journey {s}->{t}")
    for source in sorted({s for s, _ in pairs})[:3]:
        a, b = cold.profile(source), warm.profile(source)
        assert (
            b.stats.settled_connections == a.stats.settled_connections
        ), source
        for target in range(timetable.num_stations):
            assert_profiles_bitwise_equal(
                a.profile(target), b.profile(target), f"profile {source}->{target}"
            )
    batch_request = BatchRequest(
        journeys=tuple(JourneyRequest(s, t) for s, t in pairs[:4]),
        profiles=(ProfileRequest(pairs[0][0]),),
    )
    a, b = cold.batch(batch_request), warm.batch(batch_request)
    for exp, got in zip(a.journeys, b.journeys):
        assert_profiles_bitwise_equal(exp.profile, got.profile, "batch journey")
    for exp, got in zip(a.profiles, b.profiles):
        assert np.array_equal(got.raw.merged.labels, exp.raw.merged.labels)


# ---------------------------------------------------------------------------
# Round-trip equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("with_table", (False, True), ids=["plain", "table"])
def test_roundtrip_bitwise_identical(tmp_path, oahu_tiny, kernel, with_table):
    config = ServiceConfig(
        num_threads=2,
        use_distance_table=with_table,
        transfer_fraction=0.3,
    )
    cold = SERVICE_OF_KERNEL[kernel](oahu_tiny, config)
    cold.save(tmp_path / "store")
    warm = SERVICE_OF_KERNEL[kernel].load(tmp_path / "store")
    assert warm.prepare_stats.loaded_from_store
    assert warm.config == config
    assert (warm.table is None) == (cold.table is None)
    _assert_same_answers(cold, warm)


@pytest.mark.parametrize("kernel", KERNELS)
def test_roundtrip_on_rail_and_random_instances(tmp_path, germany_tiny, kernel):
    for name, timetable in (
        ("germany", germany_tiny),
        ("random", random_line_timetable(77, num_stations=8, num_lines=5)),
    ):
        config = ServiceConfig(num_threads=2)
        cold = SERVICE_OF_KERNEL[kernel](timetable, config)
        cold.save(tmp_path / name)
        warm = SERVICE_OF_KERNEL[kernel].load(tmp_path / name)
        _assert_same_answers(cold, warm, seed=5)


def test_roundtrip_preserves_timetable_exactly(tmp_path, oahu_tiny):
    service = TransitService(oahu_tiny, ServiceConfig())
    service.save(tmp_path / "store")
    loaded = TransitService.load(tmp_path / "store").timetable
    assert loaded.name == oahu_tiny.name
    assert loaded.period == oahu_tiny.period
    assert loaded.stations == oahu_tiny.stations
    assert loaded.trains == oahu_tiny.trains
    assert loaded.connections == oahu_tiny.connections


def test_loaded_service_supports_delay_replanning(tmp_path, oahu_tiny):
    """apply_delays on a warm-started service matches a cold service on
    the delayed timetable (the store carries everything replanning
    shares: station graph and transfer selection), its table to the
    byte — the swap first builds the loaded generation's timetable and
    routes, then packs the delayed timetable over them and scans; no
    graph is built."""
    from repro.timetable.delays import apply_delays

    config = ServiceConfig(
        use_distance_table=True, transfer_fraction=0.3
    )
    TransitService(oahu_tiny, config).save(tmp_path / "store")
    warm = TransitService.load(tmp_path / "store")
    delays = [Delay(train=1, minutes=20)]
    replanned = warm.apply_delays(delays)
    assert replanned.prepare_stats.shared_station_graph
    assert replanned.prepared.hydrated == {"timetable"}
    reference = TransitService(apply_delays(oahu_tiny, delays), config)
    assert np.array_equal(
        reference.table.transfer_stations, replanned.table.transfer_stations
    )
    assert_tables_bitwise_equal(reference.table, replanned.table)
    for s, t in random_station_pairs(oahu_tiny, 4, seed=3):
        assert_profiles_bitwise_equal(
            reference.journey(s, t).profile,
            replanned.journey(s, t).profile,
            f"delayed {s}->{t}",
        )


# ---------------------------------------------------------------------------
# Warm means warm: no builder runs on load or on loaded-service queries
# ---------------------------------------------------------------------------


def test_load_and_query_run_no_builder(tmp_path, oahu_tiny, monkeypatch):
    config = ServiceConfig(
        num_threads=2,
        use_distance_table=True,
        transfer_fraction=0.3,
    )
    TransitService(oahu_tiny, config).save(tmp_path / "store")

    def forbidden(name):
        def _raise(*args, **kwargs):  # pragma: no cover - exercised on failure
            raise AssertionError(f"warm start must not call {name}")

        return _raise

    # Every builder the prepare pipeline (or an engine fallback) could
    # reach: if the load path or a loaded-service query touches one,
    # the store is not a warm start.
    for target in (
        "repro.service.prepare.build_td_graph",
        "repro.service.prepare.build_station_graph",
        "repro.service.prepare.build_distance_table",
        "repro.service.prepare.select_transfer_stations",
        "repro.service.prepare.pack_timetable",
        "repro.graph.td_arrays.pack_td_graph",
        "repro.query.table_query.build_station_graph",
        "repro.query.table_query.packed_arrays",
        "repro.core.parallel.packed_arrays",
    ):
        monkeypatch.setattr(target, forbidden(target))

    warm = TransitService.load(tmp_path / "store")
    assert warm.prepare_stats.loaded_from_store
    assert warm.prepare_stats.station_graph_seconds == 0.0
    assert warm.prepare_stats.pack_seconds == 0.0
    assert warm.prepare_stats.table_seconds == 0.0
    # All three query shapes work on the warm service.
    warm.profile(0)
    warm.journey(0, 5)
    warm.journey(2, 7, departure=8 * 60)
    warm.batch([(0, 5), (1, 6)])
    warm.batch(BatchRequest.from_sources([0, 3]))


# ---------------------------------------------------------------------------
# Versioning and rejection
# ---------------------------------------------------------------------------


@pytest.fixture()
def small_store(tmp_path, oahu_tiny):
    path = tmp_path / "store"
    TransitService(oahu_tiny, ServiceConfig(num_threads=2)).save(path)
    return path


def test_format_version_mismatch_rejected(small_store):
    manifest_path = small_store / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="format version"):
        TransitService.load(small_store)


#: What an older format's manifest config carried that a config no
#: longer has: ``backend`` / ``workers`` (version 1), ``kernel`` /
#: ``queue`` (version 3, before every store was loaded with its pack),
#: the partition strategy and the four pruning switches (version 4,
#: before a service always ran the paper's full algorithm); a version 5
#: config is today's, but its ``arrays/`` held the graph hydrator's
#: side-tables, and a version 6 one too, but its table was one
#: ``table.npz`` of int64 points.
OLD_FORMAT_CONFIG = {
    1: {"backend": "processes", "workers": 4},
    3: {"kernel": "python", "queue": "binary"},
    4: {
        "strategy": "equal-connections",
        "stopping": True,
        "table_pruning": True,
        "target_pruning": True,
        "self_pruning": True,
    },
    5: {},
    6: {},
}


@pytest.mark.parametrize("version", sorted(OLD_FORMAT_CONFIG))
def test_an_old_store_is_refused_for_its_version(small_store, version):
    """An older manifest stores a config with fields a config no longer
    has: the store is refused for its format version — re-run prepare
    — before that config could fail to build."""
    manifest_path = small_store / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = version
    manifest["config"].update(OLD_FORMAT_CONFIG[version])
    manifest_path.write_text(json.dumps(manifest))
    refused = rf"format version {version} is not supported .*re-run prepare"
    with pytest.raises(StoreError, match=refused):
        TransitService.load(small_store)
    with pytest.raises(StoreError, match=refused):
        describe_store(small_store)


def test_config_hash_mismatch_rejected(small_store):
    """Editing the manifest's config without its hash is tampering."""
    manifest_path = small_store / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["num_threads"] = 8
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="hash mismatch"):
        TransitService.load(small_store)


def test_expected_config_mismatch_rejected(small_store):
    # A different preparation recipe (table on) is a mismatch ...
    with pytest.raises(StoreError, match="different config"):
        TransitService.load(
            small_store,
            config=ServiceConfig(
                use_distance_table=True, transfer_fraction=0.3
            ),
        )
    # ... the stored config is accepted, as is one differing only in
    # runtime fields (same artifacts fit both).
    TransitService.load(small_store, config=ServiceConfig(num_threads=2))
    TransitService.load(
        small_store, config=ServiceConfig(num_threads=7, result_cache_size=0)
    )


def test_missing_store_rejected(tmp_path):
    with pytest.raises(StoreError, match="manifest"):
        TransitService.load(tmp_path / "nowhere")


@pytest.mark.parametrize(
    "field, value",
    [
        ("kernel", "gpu"),
        # A store written before the thread backend was removed.
        ("backend", "threads"),
        # A pruning switch is an engine argument, not configuration.
        ("stopping", False),
    ],
)
def test_invalid_manifest_config_rejected(small_store, field, value):
    manifest_path = small_store / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"][field] = value
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="manifest config is invalid"):
        TransitService.load(small_store)


def test_truncated_dataset_rejected(small_store):
    dataset = small_store / "dataset.bin"
    dataset.write_bytes(dataset.read_bytes()[:-40])
    with pytest.raises(StoreError, match="truncated"):
        TransitService.load(small_store)


def test_missing_buffer_rejected(small_store):
    (small_store / "arrays" / "edge_target.npy").unlink()
    with pytest.raises(StoreError, match="edge_target"):
        TransitService.load(small_store)


def test_config_hash_is_field_sensitive():
    base = ServiceConfig()
    assert config_hash(base) == config_hash(ServiceConfig(num_threads=1))
    assert config_hash(base) != config_hash(ServiceConfig(num_threads=2))


def test_prepare_config_hash_ignores_runtime_fields():
    from repro.store import prepare_config_hash

    base = ServiceConfig()
    runtime_twin = ServiceConfig(num_threads=8, result_cache_size=0)
    assert prepare_config_hash(base) == prepare_config_hash(runtime_twin)
    assert prepare_config_hash(base) != prepare_config_hash(
        ServiceConfig(use_distance_table=True)
    )


def test_describe_store_reports_sizes(small_store):
    info = describe_store(small_store)
    assert info["format_version"] == FORMAT_VERSION
    assert info["counts"]["stations"] > 0
    assert info["total_bytes"] > 0
    assert info["sizes_bytes"]["arrays"] > 0


def test_save_then_save_without_table_drops_stale_table(
    tmp_path, oahu_tiny
):
    path = tmp_path / "store"
    with_table = ServiceConfig(
        use_distance_table=True, transfer_fraction=0.3
    )
    TransitService(oahu_tiny, with_table).save(path)
    assert (path / "table" / "point_arr.npy").exists()
    TransitService(oahu_tiny, ServiceConfig()).save(path)
    assert not (path / "table").exists()
    assert TransitService.load(path).table is None


def test_resave_drops_stale_buffers(tmp_path, oahu_tiny):
    """Saving over an older store deletes every buffer that is not the
    pack's, as it deletes a stale table."""
    fresh, resaved = tmp_path / "fresh", tmp_path / "resaved"
    (resaved / "arrays").mkdir(parents=True)
    np.save(resaved / "arrays" / "conn_train.npy", np.arange(64))
    for path in (fresh, resaved):
        TransitService(oahu_tiny, ServiceConfig()).save(path)
    assert not (resaved / "arrays" / "conn_train.npy").exists()
    assert len(list((resaved / "arrays").glob("*.npy"))) == 13
    assert (
        describe_store(resaved)["sizes_bytes"]
        == describe_store(fresh)["sizes_bytes"]
    )


def test_a_timetable_paired_with_another_pack_is_refused(tmp_path):
    """``dataset.bin`` of one store beside ``arrays/`` of another with as
    many stations loads (nothing is built), but the graph its timetable
    builds does not match the pack: the first access refuses it before
    a swap could pack over its routes, and publishes nothing."""
    for seed in (3, 4):
        TransitService(
            random_line_timetable(seed), ServiceConfig()
        ).save(tmp_path / str(seed))
    (tmp_path / "3" / "dataset.bin").replace(tmp_path / "4" / "dataset.bin")
    loaded = TransitService.load(tmp_path / "4")
    with pytest.raises(prepare_mod.PackMismatchError, match="the loaded pack"):
        loaded.apply_delays([Delay(train=0, minutes=5)])
    with pytest.raises(prepare_mod.PackMismatchError, match="the loaded pack"):
        loaded.prepared.graph
    assert loaded.prepared.hydrated == {"timetable"}


TABLE_CONFIG = ServiceConfig(use_distance_table=True, transfer_fraction=0.3)


@pytest.fixture()
def table_store(tmp_path, oahu_tiny):
    path = tmp_path / "table-store"
    TransitService(oahu_tiny, TABLE_CONFIG).save(path)
    return path


def _first_pair(table_dir, min_points=2):
    """``(lo, hi)`` of the first pair with ``min_points`` points whose
    first departure is not minute 0."""
    indptr = np.load(table_dir / "pair_indptr.npy")
    deps = np.load(table_dir / "point_dep.npy")
    return next(
        (lo, hi)
        for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist())
        if hi - lo >= min_points and deps[lo] > 0
    )


def _decrease_within_a_pair(buffers, lo, hi):
    buffers["point_dep"][lo + 1] = buffers["point_dep"][lo] - 1


def _negative_departure(buffers, lo, hi):
    buffers["point_dep"][lo] = -1


def _departure_past_the_period(buffers, lo, hi):
    buffers["point_dep"][hi - 1] = 1440


def _arrival_before_departure(buffers, lo, hi):
    buffers["point_arr"][lo] = buffers["point_dep"][lo] - 1


def _indptr_past_the_points(buffers, lo, hi):
    buffers["pair_indptr"][-1] += 1


def _indptr_decreasing(buffers, lo, hi):
    indptr = buffers["pair_indptr"]
    k = int(np.flatnonzero(indptr == hi)[0])
    indptr[k] = lo - 1


def _indptr_one_short(buffers, lo, hi):
    buffers["pair_indptr"] = buffers["pair_indptr"][:-1]


def _points_on_the_diagonal(buffers, lo, hi):
    # Pair 0 is station 0 to itself: give it the next pair's points.
    indptr = buffers["pair_indptr"]
    indptr[1] = indptr[2]


def _unsorted_stations(buffers, lo, hi):
    buffers["transfer_stations"] = buffers["transfer_stations"][::-1].copy()


def _float_points(buffers, lo, hi):
    buffers["point_arr"] = buffers["point_arr"].astype(np.float64)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_decrease_within_a_pair, "departures decrease within a pair"),
        (_negative_departure, "a departure outside the period"),
        (_departure_past_the_period, "a departure outside the period"),
        (_arrival_before_departure, "an arrival before its departure"),
        (_indptr_past_the_points, "bad pair_indptr"),
        (_indptr_decreasing, "bad pair_indptr"),
        (_indptr_one_short, "bad pair_indptr"),
        (_points_on_the_diagonal, "bad pair_indptr"),
        (_unsorted_stations, "transfer stations are not sorted station ids"),
        (_float_points, "point_arr is not a vector of integers"),
    ],
)
@pytest.mark.parametrize("chunk", [None, 7], ids=["one-chunk", "chunks-of-7"])
def test_a_corrupt_table_is_refused_at_load(
    table_store, corrupt, message, chunk, monkeypatch
):
    """Every table a :class:`Profile` would refuse — and every
    ``pair_indptr`` that does not frame the points — is refused when the
    store is loaded, as :class:`StoreError`, however the check is
    chunked; the store loads before the edit."""
    import repro.store.store as store_mod

    if chunk is not None:
        monkeypatch.setattr(store_mod, "_CHECK_CHUNK", chunk)
    TransitService.load(table_store)
    table_dir = table_store / "table"
    buffers = {
        name: np.load(table_dir / f"{name}.npy")
        for name in ("transfer_stations", "pair_indptr", "point_dep", "point_arr")
    }
    corrupt(buffers, *_first_pair(table_dir))
    for name, buffer in buffers.items():
        np.save(table_dir / f"{name}.npy", buffer)
    with pytest.raises(StoreError, match=f"corrupt table: {message}"):
        TransitService.load(table_store)


def test_a_decrease_at_a_chunk_boundary_is_refused(table_store, monkeypatch):
    """The first point of a chunk is compared with the last of the one
    before: a decrease there, inside one pair, is found too."""
    import repro.store.store as store_mod

    table_dir = table_store / "table"
    lo, hi = _first_pair(table_dir)
    deps = np.load(table_dir / "point_dep.npy")
    deps[lo + 1] = deps[lo] - 1
    np.save(table_dir / "point_dep.npy", deps)
    monkeypatch.setattr(store_mod, "_CHECK_CHUNK", lo + 1)
    with pytest.raises(StoreError, match="departures decrease within a pair"):
        TransitService.load(table_store)


def test_a_loaded_table_maps_its_narrow_points(table_store, oahu_tiny):
    """A loaded table is the built one, buffer for buffer and dtype for
    dtype, its points memory-mapped: a day's minutes fit in int16."""
    cold = TransitService(oahu_tiny, TABLE_CONFIG).table
    loaded = TransitService.load(table_store).table
    assert_tables_bitwise_equal(cold, loaded)
    assert cold.point_dep.dtype == np.int16
    for name in ("pair_indptr", "point_dep", "point_arr"):
        assert isinstance(getattr(loaded, name).base, np.memmap), name


def _resident_kib(path) -> int:
    """Kilobytes of ``path``'s pages this process has mapped in
    (``Rss`` of its mappings in ``/proc/self/smaps``)."""
    total, inside = 0, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            if "-" in line.split(" ", 1)[0]:
                inside = line.rstrip().endswith(str(path))
            elif inside and line.startswith("Rss:"):
                total += int(line.split()[1])
    return total


@pytest.mark.skipif(
    not os.path.exists("/proc/self/smaps"), reason="reads /proc/self/smaps"
)
def test_the_table_check_leaves_no_point_page_mapped(table_store):
    """A load checks every point, through the files (``os.pread``): no
    page of the points' maps is resident until something reads the
    points through them — a search's row, a table answer."""
    table = TransitService.load(table_store).table
    points = [
        (table_store / "table" / f"{name}.npy").resolve()
        for name in ("point_dep", "point_arr")
    ]
    assert [_resident_kib(path) for path in points] == [0, 0]
    assert int(table.point_dep.sum()) and int(table.point_arr.sum())
    assert all(_resident_kib(path) for path in points)


def _after_opening(monkeypatch, name, then):
    """Make the load call ``then(path)`` once it has opened and mapped
    the table's ``name``.npy, before it checks the points."""
    import repro.store.store as store_mod

    open_buffer = store_mod._open_buffer

    def opened(path):
        file, buffer = open_buffer(path)
        if path.name == f"{name}.npy":
            then(path)
        return file, buffer

    monkeypatch.setattr(store_mod, "_open_buffer", opened)


def test_the_table_check_reads_the_file_it_mapped(table_store, monkeypatch):
    """A save that replaces a point file between its map and its check
    changes neither: the check reads the bytes the map serves, not the
    new file at the path."""
    table_dir = table_store / "table"
    arrs = np.load(table_dir / "point_arr.npy")

    def replace(path):
        np.save(table_dir / "new.npy", arrs - 10_000)
        os.replace(table_dir / "new.npy", path)

    _after_opening(monkeypatch, "point_arr", replace)
    table = TransitService.load(table_store).table
    assert np.array_equal(table.point_arr, arrs)


def test_a_point_file_truncated_after_its_map_is_refused(table_store, monkeypatch):
    """A short read of the points is a :class:`StoreError`, never a
    numpy error or a partial check."""
    _after_opening(
        monkeypatch, "point_dep", lambda path: os.truncate(path, 200)
    )
    with pytest.raises(StoreError, match="truncated"):
        TransitService.load(table_store)


def test_a_loaded_service_saves_over_its_own_store(table_store, oahu_tiny):
    """``TransitService.load(p).save(p)`` rewrites ``p`` while the
    service has its buffers and its record mapped: every file is
    written beside its old one and renamed over it, so the service
    keeps answering from what it mapped, and ``p`` reloads to the same
    answers and the same table."""
    cold = TransitService(oahu_tiny, TABLE_CONFIG)
    loaded = TransitService.load(table_store)
    loaded.journey(0, 5)
    loaded.save(table_store)
    assert sorted(p.name for p in table_store.iterdir()) == [
        "arrays", "dataset.bin", "manifest.json", "table",
    ]
    _assert_same_answers(cold, loaded)
    reloaded = TransitService.load(table_store)
    _assert_same_answers(cold, reloaded)
    assert_tables_bitwise_equal(cold.table, reloaded.table)
    assert reloaded.timetable.connections == oahu_tiny.connections


def test_truncated_buffer_rejected(small_store):
    """A corrupt .npy surfaces as StoreError, not a raw numpy error
    (the module's error contract)."""
    buffer = small_store / "arrays" / "edge_weight.npy"
    buffer.write_bytes(buffer.read_bytes()[:-64])
    with pytest.raises(StoreError, match="corrupt buffer"):
        TransitService.load(small_store)


def test_describe_incomplete_store_rejected(small_store):
    (small_store / "dataset.bin").unlink()
    with pytest.raises(StoreError, match="incomplete"):
        describe_store(small_store)


def test_runtime_overridden_service_saves_its_own_config(
    tmp_path, oahu_tiny
):
    """save() records the service's current config, so a service built
    via with_runtime_overrides round-trips against itself — and since
    runtime overrides never change the preparation recipe, the
    pre-override config matches too."""
    base = TransitService(oahu_tiny, ServiceConfig(num_threads=2))
    tuned = base.with_runtime_overrides(num_threads=8, result_cache_size=0)
    tuned.save(tmp_path / "store")
    warm = TransitService.load(tmp_path / "store", config=tuned.config)
    assert warm.config.num_threads == 8
    assert warm.config.result_cache_size == 0
    TransitService.load(tmp_path / "store", config=base.config)


def test_crashed_resave_never_masquerades_as_complete(
    small_store, oahu_tiny, monkeypatch
):
    """A save crashing over an existing store must leave a directory
    that refuses to load (old manifest removed first, new one written
    last) — not a mixed-generation store serving stale artifacts."""
    import repro.store.store as store_mod

    def crash(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(store_mod, "write_record", crash)
    with pytest.raises(RuntimeError, match="disk full"):
        TransitService(oahu_tiny, ServiceConfig()).save(small_store)
    monkeypatch.undo()
    with pytest.raises(StoreError, match="manifest"):
        TransitService.load(small_store)


def test_sigterm_mid_save_leaves_no_partial_manifest(tmp_path):
    """The signal path of the crash-safety contract: SIGTERM landing
    mid-save (here: right before dataset.bin is written) must unwind
    the CLI cleanly — exit 130, an 'interrupted' notice, and a store
    directory with *no* manifest, which therefore refuses to load."""
    store = tmp_path / "store"
    returncode, _stdout, stderr = run_in_own_group(
        """
        import os, signal, sys
        import repro.store.store as store_mod

        real = store_mod.write_record

        def signal_then_write(*args, **kwargs):
            os.kill(os.getpid(), signal.SIGTERM)
            # The CLI's handler raises at the next bytecode boundary,
            # i.e. inside the save, exactly mid-way through the store.
            return real(*args, **kwargs)

        store_mod.write_record = signal_then_write
        from repro.cli import main

        sys.exit(
            main(
                [
                    "prepare", "--instance", "oahu", "--scale", "tiny",
                    "--store", sys.argv[1],
                ]
            )
        )
        """,
        store,
    )
    assert returncode == 130, stderr
    assert "interrupted" in stderr
    # The save got underway (artifacts exist) but never reached the
    # manifest — and without one, the store refuses to load.
    assert store.exists()
    assert not (store / "manifest.json").exists()
    assert not (store / "manifest.json.tmp").exists()
    with pytest.raises(StoreError, match="manifest"):
        load_dataset(store)


@pytest.mark.parametrize("how", ["SIGTERM-to-parent", "SIGINT-to-group"])
def test_signal_mid_table_scan_unwinds_prepare(tmp_path, how):
    """The same contract one stage earlier, while ``prepare`` is inside
    the distance table's backward scan: the signal arrives at the end
    of the scan's first pass.  Exit 130 within 5 s, an 'interrupted'
    notice, no manifest, nothing left running."""
    store = tmp_path / "store"
    stamp = tmp_path / "signalled"
    returncode, _stdout, stderr = run_in_own_group(
        """
        import os, signal, sys, time
        import repro.query.distance_table as distance_table

        store, stamp, how = sys.argv[1:]
        real = distance_table._Suffix.carry

        def carry_then_signal(self, state):
            if not os.path.exists(stamp):
                with open(stamp, "w") as out:
                    out.write(repr(time.time()))
                if how == "SIGTERM-to-parent":
                    os.kill(os.getpid(), signal.SIGTERM)
                else:
                    os.killpg(os.getpgid(0), signal.SIGINT)
            return real(self, state)

        distance_table._Suffix.carry = carry_then_signal
        from repro.cli import main

        sys.exit(
            main(
                [
                    "prepare", "--instance", "oahu", "--scale", "tiny",
                    "--transfer-fraction", "0.5", "--store", store,
                ]
            )
        )
        """,
        store,
        stamp,
        how,
        timeout=30.0,
    )
    assert returncode == 130, stderr
    assert "interrupted" in stderr
    assert "Traceback" not in stderr
    assert time.time() - float(stamp.read_text()) < 5.0
    assert not (store / "manifest.json").exists()


# ---------------------------------------------------------------------------
# Binary codec
# ---------------------------------------------------------------------------


class TestCodec:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "record.bin"
        sections = {
            "numbers": np.arange(10, dtype=np.int64) * -3,
            "empty": np.zeros(0, dtype=np.int64),
            "names": ["alpha", "", "ünïcode ✓", "d"],
            "no_names": [],
        }
        write_record(path, sections)
        loaded = read_record(path)
        assert set(loaded) == set(sections)
        assert np.array_equal(loaded["numbers"], sections["numbers"])
        assert loaded["empty"].size == 0
        assert loaded["names"] == sections["names"]
        assert loaded["no_names"] == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTASTORE")
        with pytest.raises(CodecError, match="magic"):
            read_record(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "record.bin"
        write_record(path, {"xs": np.arange(100, dtype=np.int64)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CodecError, match="truncated"):
            read_record(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "record.bin"
        write_record(path, {"xs": np.arange(4, dtype=np.int64)})
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CodecError, match="trailing"):
            read_record(path)

    def test_non_1d_rejected(self, tmp_path):
        with pytest.raises(CodecError, match="1-D"):
            write_record(
                tmp_path / "x.bin", {"m": np.zeros((2, 2), dtype=np.int64)}
            )
