"""Versioned on-disk artifact store for :class:`PreparedDataset`.

The paper's pitch is that SPCS needs essentially no preprocessing — but
a production deployment still pays a real prepare cost per process
start: graph build, flat-array packing, station graph, transfer
selection, distance table.  This module makes that cost *once per
dataset* instead of once per process: :func:`save_dataset` serializes
every prepared artifact to a store directory, and :func:`load_dataset`
brings them back without calling a single builder — the numpy buffers
are memory-mapped zero-copy (``numpy.load(..., mmap_mode="r")``), the
distance table is deserialized, never recomputed
(``tests/store/test_store_roundtrip.py`` pins builders-never-called
with failing monkeypatches), and the timetable, its routes and the
time-dependent graph, which no served search reads, are built on first
access only — the timetable from the record, the routes and the graph
from the timetable, as a prepare builds them
(``tests/store/test_lazy_hydration.py``).

Store layout (a directory)::

    manifest.json      format version, ServiceConfig (+ its hash), counts
    dataset.bin        timetable, station graph, transfer stations
                       (compact binary, :mod:`repro.store.codec`)
    arrays/<name>.npy  the 13 TDGraphArrays buffers, loaded with
                       ``mmap_mode="r"``
    table.npz          distance-table profiles as one CSR point pool
                       (present only when the config builds a table)

Compatibility contract: :data:`FORMAT_VERSION` is bumped on any layout
change and checked on load; the manifest's ``config_hash`` (SHA-256
over the canonical JSON of the :class:`ServiceConfig`) detects both
manifest tampering and loading a store against a different
configuration.  Violations raise :class:`StoreError` — never a wrong
answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.functions.algebra import Profile
from repro.graph.station_graph import StationGraph
from repro.graph.td_arrays import TDGraphArrays
from repro.query.distance_table import DistanceTable
from repro.service.config import RUNTIME_FIELDS, ServiceConfig
from repro.service.prepare import (
    PreparedDataset,
    PrepareStats,
    TimetableCounts,
)
from repro.store.codec import CodecError, read_record, write_record
from repro.timetable.types import Connection, Station, Timetable, Train

#: Bumped on any incompatible change to the store layout (2: the stored
#: config has no ``backend`` / ``workers``; 3: the table file has no
#: ``build_settled``; 4: the stored config has no ``kernel`` /
#: ``queue`` — every store is loaded with its pack; 5: nor ``strategy``
#: and the four pruning switches — a service runs the full algorithm;
#: 6: ``arrays/`` holds the pack alone — a loaded graph is built from
#: the timetable, so the five hydration side-tables are gone).
FORMAT_VERSION = 6

_MANIFEST_FORMAT = "repro-artifact-store"

#: TDGraphArrays buffers persisted one ``.npy`` file each (mmap-able).
_ARRAY_FIELDS = (
    "node_station",
    "edge_indptr",
    "edge_target",
    "edge_weight",
    "edge_ttf",
    "ttf_indptr",
    "ttf_dep",
    "ttf_dur",
    "ttf_fifo",
    "conn_indptr",
    "conn_dep",
    "conn_start",
    "transfer_time",
)

#: Record sections the timetable is hydrated from.
_TIMETABLE_SECTIONS = (
    "meta",
    "timetable_name",
    "station_names",
    "station_transfer_time",
    "train_names",
    "connections",
)


class StoreError(RuntimeError):
    """Raised when a store is missing, corrupt, from an incompatible
    format version, or prepared under a different configuration."""


def config_hash(config: ServiceConfig) -> str:
    """SHA-256 over the canonical JSON form of a :class:`ServiceConfig`.

    Two configs hash equal iff *every* field compares equal — this is
    the manifest's integrity hash (detecting an edited or corrupt
    manifest).  To compare preparation recipes, which is what decides
    whether a store's artifacts fit a config, use
    :func:`prepare_config_hash`.
    """
    canonical = json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def prepare_config_hash(config: ServiceConfig) -> str:
    """SHA-256 over the *preparation-shaping* fields only.

    Runtime-only fields (:data:`~repro.service.config.RUNTIME_FIELDS`:
    thread count, cache size) never change what preparation produces,
    so two configs differing only there share the same prepared
    artifacts — and hash equal here.
    This is the comparison :func:`load_dataset` applies to
    ``expected_config``.
    """
    fields = {
        key: value
        for key, value in dataclasses.asdict(config).items()
        if key not in RUNTIME_FIELDS
    }
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------


def save_dataset(
    prepared: PreparedDataset,
    path: str | Path,
    *,
    config: ServiceConfig | None = None,
) -> Path:
    """Serialize a :class:`PreparedDataset` into a store directory.

    ``config`` is the configuration recorded in the manifest; it
    defaults to ``prepared.config`` but the facade passes the service's
    *current* config so runtime overrides applied after preparation
    (``with_runtime_overrides``) survive a save/load round-trip.

    The directory is created (parents included) and overwritten
    artifact by artifact; any existing manifest is removed *first* and
    the new one is written *last* (atomically, sidecar + rename), so a
    save that crashes — or is signalled — midway, fresh or over an
    older store, leaves a directory that fails to load instead of one
    that masquerades as a complete (possibly mixed-generation) store
    (``tests/store/test_store_roundtrip.py`` pins both the crash and
    the SIGTERM path).  Returns the store path.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").unlink(missing_ok=True)
    (root / "manifest.json.tmp").unlink(missing_ok=True)
    timetable = prepared.timetable
    if config is None:
        config = prepared.config

    arrays = prepared.arrays

    arrays_dir = root / "arrays"
    arrays_dir.mkdir(exist_ok=True)
    for name in _ARRAY_FIELDS:
        np.save(arrays_dir / f"{name}.npy", getattr(arrays, name))
    # Buffers an older save wrote (an older format's side-tables) must
    # not survive next to a fresh manifest either.
    packed = {f"{name}.npy" for name in _ARRAY_FIELDS}
    for stale in arrays_dir.glob("*.npy"):
        if stale.name not in packed:
            stale.unlink()

    write_record(root / "dataset.bin", _dataset_sections(prepared))

    table = prepared.table
    if table is not None:
        _save_table(root / "table.npz", table)
    else:
        # A stale table from a previous save under a different config
        # must not survive next to a fresh manifest.
        (root / "table.npz").unlink(missing_ok=True)

    manifest = {
        "format": _MANIFEST_FORMAT,
        "format_version": FORMAT_VERSION,
        "config": dataclasses.asdict(config),
        "config_hash": config_hash(config),
        "timetable_name": timetable.name,
        "counts": {
            "stations": timetable.num_stations,
            "trains": timetable.num_trains,
            "connections": timetable.num_connections,
            "nodes": arrays.num_nodes,
            "edges": arrays.num_edges,
            "routes": len(prepared.routes),
            "transfer_stations": (
                0
                if prepared.transfer_stations is None
                else int(prepared.transfer_stations.size)
            ),
        },
        "artifacts": {"table": table is not None},
    }
    # Written to a sidecar and renamed into place: a crash or signal at
    # any instant leaves either no manifest (store refuses to load) or
    # a complete one — never a truncated manifest that parses as
    # corruption instead of absence.
    tmp = root / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    os.replace(tmp, root / "manifest.json")
    return root


def _dataset_sections(prepared: PreparedDataset) -> dict:
    timetable = prepared.timetable
    sg = prepared.station_graph
    sections: dict = {
        "meta": np.asarray(
            [
                timetable.period,
                timetable.num_stations,
                timetable.num_trains,
                timetable.num_connections,
                1 if prepared.transfer_stations is not None else 0,
            ],
            dtype=np.int64,
        ),
        "timetable_name": [timetable.name],
        "station_names": [s.name for s in timetable.stations],
        "station_transfer_time": np.asarray(
            [s.transfer_time for s in timetable.stations], dtype=np.int64
        ),
        "train_names": [t.name for t in timetable.trains],
        "connections": np.stack(
            timetable.connection_columns(), axis=1
        ).reshape(-1),
        "sg_indptr": sg.indptr,
        "sg_targets": sg.targets,
        "sg_weights": sg.weights,
        "sg_rev_indptr": sg.rev_indptr,
        "sg_rev_targets": sg.rev_targets,
    }
    if prepared.transfer_stations is not None:
        sections["transfer_stations"] = prepared.transfer_stations
    return sections


def _save_table(path: Path, table: DistanceTable) -> None:
    """Distance table as one CSR point pool: entry ``a * n + b`` of
    ``pair_indptr`` brackets the (dep, arr) points of profile a→b."""
    n = table.num_transfer_stations
    pair_indptr = np.zeros(n * n + 1, dtype=np.int64)
    deps: list[np.ndarray] = []
    arrs: list[np.ndarray] = []
    total = 0
    for a in range(n):
        for b in range(n):
            profile = table.profiles[a][b]
            total += len(profile)
            pair_indptr[a * n + b + 1] = total
            deps.append(profile.deps)
            arrs.append(profile.arrs)
    empty = np.zeros(0, dtype=np.int64)
    np.savez(
        path,
        transfer_stations=table.transfer_stations,
        pair_indptr=pair_indptr,
        point_dep=np.concatenate(deps) if deps else empty,
        point_arr=np.concatenate(arrs) if arrs else empty,
        build_seconds=np.asarray([table.build_seconds], dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_dataset(
    path: str | Path, *, expected_config: ServiceConfig | None = None
) -> PreparedDataset:
    """Load a store back into a :class:`PreparedDataset`, warm.

    No builder runs: the packed buffers are memory-mapped read-only,
    and the station graph, the transfer stations and the distance
    table are deserialized.  The timetable, its routes and the object
    graph are not built here: the dataset keeps the record's timetable
    sections, builds the timetable from them on first access and the
    routes and the graph from the timetable (:class:`PreparedDataset`) — so
    ``stats.graph_seconds`` is 0, and corrupt connection rows raise
    only then; the timetable's name and sizes are read off the record's
    header (``counts``).
    ``expected_config``, when given, must share
    the stored config's *preparation recipe*
    (:func:`prepare_config_hash` — a store answers exactly one recipe;
    runtime-only fields are free to differ).  Raises
    :class:`StoreError` on a missing or corrupt store, a
    format-version mismatch, or a recipe mismatch.
    """
    t_start = time.perf_counter()
    root = Path(path)
    manifest = _read_manifest(root)
    config = _config_from_manifest(manifest, root)
    if expected_config is not None and prepare_config_hash(
        expected_config
    ) != prepare_config_hash(config):
        raise StoreError(
            f"{root}: store was prepared under a different config "
            f"(stored recipe {prepare_config_hash(config)[:12]}…, "
            f"expected {prepare_config_hash(expected_config)[:12]}…; "
            f"runtime-only fields never mismatch)"
        )

    try:
        sections = read_record(root / "dataset.bin")
    except FileNotFoundError:
        raise StoreError(f"{root}: missing dataset.bin") from None
    except CodecError as exc:
        raise StoreError(str(exc)) from None

    counts = _timetable_counts(sections)
    station_graph = _hydrate_station_graph(sections)
    transfer_stations = (
        np.asarray(sections["transfer_stations"], dtype=np.int64)
        if int(sections["meta"][4])
        else None
    )
    period = int(sections["meta"][0])
    arrays = _load_arrays(root, manifest, counts.stations, period)

    table: DistanceTable | None = None
    table_mib = 0.0
    if manifest["artifacts"]["table"]:
        table = _load_table(root / "table.npz", period)
        table_mib = table.size_mib()

    # What the timetable builder keeps until it has run.
    record = {name: sections[name] for name in _TIMETABLE_SECTIONS}

    def hydrate_timetable() -> Timetable:
        return _hydrate_timetable(record)

    stats = PrepareStats(
        graph_seconds=0.0,
        station_graph_seconds=0.0,
        pack_seconds=0.0,
        selection_seconds=0.0,
        table_seconds=0.0,
        total_seconds=time.perf_counter() - t_start,
        num_stations=counts.stations,
        num_nodes=arrays.num_nodes,
        num_edges=arrays.num_edges,
        num_connections=counts.connections,
        packed_bytes=arrays.nbytes(),
        num_transfer_stations=(
            0 if transfer_stations is None else int(transfer_stations.size)
        ),
        table_mib=table_mib,
        shared_station_graph=False,
        loaded_from_store=True,
    )
    return PreparedDataset(
        timetable=None,
        config=config,
        station_graph=station_graph,
        arrays=arrays,
        transfer_stations=transfer_stations,
        table=table,
        stats=stats,
        counts=counts,
        hydrate_timetable=hydrate_timetable,
    )


def _read_manifest(root: Path) -> dict:
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise StoreError(f"{root}: not an artifact store (no manifest.json)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise StoreError(f"{manifest_path}: corrupt manifest: {exc}") from None
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise StoreError(
            f"{manifest_path}: unexpected format {manifest.get('format')!r}"
        )
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise StoreError(
            f"{root}: store format version {version!r} is not supported "
            f"(this build reads version {FORMAT_VERSION}); re-run prepare"
        )
    return manifest


def _config_from_manifest(manifest: dict, root: Path) -> ServiceConfig:
    try:
        config = ServiceConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:
        raise StoreError(f"{root}: manifest config is invalid: {exc}") from None
    if config_hash(config) != manifest.get("config_hash"):
        raise StoreError(
            f"{root}: config hash mismatch — manifest edited or corrupt"
        )
    return config


def _timetable_counts(sections: dict) -> TimetableCounts:
    meta = sections["meta"]
    return TimetableCounts(
        name=sections["timetable_name"][0],
        stations=int(meta[1]),
        trains=int(meta[2]),
        connections=int(meta[3]),
    )


def _hydrate_timetable(sections: dict) -> Timetable:
    period = int(sections["meta"][0])
    transfer = sections["station_transfer_time"].tolist()
    stations = [
        Station(id=i, name=name, transfer_time=transfer[i])
        for i, name in enumerate(sections["station_names"])
    ]
    trains = [
        Train(id=i, name=name)
        for i, name in enumerate(sections["train_names"])
    ]
    # Five column lists zipped into rows: a third less transient memory
    # than one small list per row, paid at a delay swap, not at load.
    columns = sections["connections"].reshape(-1, 5).T.tolist()
    # Positional construction; __post_init__ still validates every row,
    # so corrupt store bytes surface as ValueError at the first access
    # to the timetable.  No served answer reads these rows: searches
    # read the pack.
    connections = [Connection(*row) for row in zip(*columns)]
    return Timetable(
        stations=stations,
        trains=trains,
        connections=connections,
        period=period,
        name=sections["timetable_name"][0],
    )


def _hydrate_station_graph(sections: dict) -> StationGraph:
    return StationGraph(
        num_stations=int(sections["meta"][1]),
        indptr=sections["sg_indptr"],
        targets=sections["sg_targets"],
        weights=sections["sg_weights"],
        rev_indptr=sections["sg_rev_indptr"],
        rev_targets=sections["sg_rev_targets"],
    )


def _mmap_buffer(buffer_path: Path) -> np.ndarray:
    """``np.load(..., mmap_mode="r")`` with the module's error contract:
    a missing, truncated or malformed buffer is a :class:`StoreError`,
    never a raw numpy exception."""
    if not buffer_path.exists():
        raise StoreError(f"missing packed buffer {buffer_path.name}")
    try:
        # Zero-copy: the buffer stays on disk; pages fault in on use.
        return np.load(buffer_path, mmap_mode="r")
    except (ValueError, OSError) as exc:
        raise StoreError(f"{buffer_path}: corrupt buffer: {exc}") from None


def _load_arrays(
    root: Path, manifest: dict, num_stations: int, period: int
) -> TDGraphArrays:
    arrays_dir = root / "arrays"
    buffers: dict[str, np.ndarray] = {}
    for name in _ARRAY_FIELDS:
        buffers[name] = _mmap_buffer(arrays_dir / f"{name}.npy")
    num_nodes = int(manifest["counts"]["nodes"])
    if buffers["edge_indptr"].size != num_nodes + 1:
        raise StoreError(
            f"{root}: edge_indptr has {buffers['edge_indptr'].size} rows, "
            f"manifest says {num_nodes} nodes"
        )
    return TDGraphArrays(
        num_nodes=num_nodes,
        num_stations=num_stations,
        period=period,
        **buffers,
    )


def _load_table(path: Path, period: int) -> DistanceTable:
    if not path.exists():
        raise StoreError(f"{path}: missing (manifest promises a table)")
    try:
        with np.load(path) as data:
            transfer_stations = np.asarray(
                data["transfer_stations"], dtype=np.int64
            )
            pair_indptr = data["pair_indptr"]
            point_dep = data["point_dep"]
            point_arr = data["point_arr"]
            build_seconds = float(data["build_seconds"][0])
    except Exception as exc:  # zipfile/format errors vary by corruption
        raise StoreError(f"{path}: corrupt table: {exc}") from None
    n = int(transfer_stations.size)
    profiles: list[list[Profile]] = []
    for a in range(n):
        row: list[Profile] = []
        for b in range(n):
            lo, hi = int(pair_indptr[a * n + b]), int(pair_indptr[a * n + b + 1])
            row.append(Profile(point_dep[lo:hi], point_arr[lo:hi], period))
        profiles.append(row)
    return DistanceTable(
        transfer_stations=transfer_stations,
        index_of={int(s): i for i, s in enumerate(transfer_stations)},
        profiles=profiles,
        period=period,
        build_seconds=build_seconds,
    )


def describe_store(path: str | Path) -> dict:
    """Manifest plus on-disk sizes, for the CLI and diagnostics."""
    root = Path(path)
    manifest = _read_manifest(root)
    try:
        sizes = {
            "dataset.bin": (root / "dataset.bin").stat().st_size,
            "arrays": sum(
                f.stat().st_size for f in (root / "arrays").glob("*.npy")
            ),
        }
        if (root / "table.npz").exists():
            sizes["table.npz"] = (root / "table.npz").stat().st_size
    except OSError as exc:
        raise StoreError(f"{root}: incomplete store: {exc}") from None
    manifest["sizes_bytes"] = sizes
    manifest["total_bytes"] = sum(sizes.values())
    return manifest
