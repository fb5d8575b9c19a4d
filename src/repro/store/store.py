"""Versioned on-disk artifact store for :class:`PreparedDataset`.

The paper's pitch is that SPCS needs essentially no preprocessing — but
a production deployment still pays a real prepare cost per process
start: graph build, flat-array packing, station graph, transfer
selection, distance table.  This module makes that cost *once per
dataset* instead of once per process: :func:`save_dataset` serializes
every prepared artifact to a store directory, and :func:`load_dataset`
brings them back without calling a single builder — the pack's and the
distance table's buffers are memory-mapped zero-copy
(``numpy.load(..., mmap_mode="r")``), the record is held open and only
the sections serving reads are decoded, nothing is recomputed
(``tests/store/test_store_roundtrip.py`` pins builders-never-called
with failing monkeypatches), and the timetable, its routes and the
time-dependent graph, which no served search reads, are built on first
access only — the timetable from the held record, the routes and
the graph from the timetable, as a prepare builds them
(``tests/store/test_lazy_hydration.py``).

Store layout (a directory)::

    manifest.json      format version, ServiceConfig (+ its hash), counts
    dataset.bin        timetable, station graph, transfer stations
                       (compact binary, :mod:`repro.store.codec`)
    arrays/<name>.npy  the 13 TDGraphArrays buffers, loaded with
                       ``mmap_mode="r"``
    table/<name>.npy   the distance table's CSR point pool:
                       ``transfer_stations``, ``pair_indptr``,
                       ``point_dep``, ``point_arr`` (present only when
                       the config builds a table), mapped likewise

Every file is written to a sidecar and renamed into place, so a process
that has a store loaded — a service saving over the store it was loaded
from, say — keeps reading the files it mapped or holds open.

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
from typing import BinaryIO

import numpy as np

from repro.graph.station_graph import StationGraph
from repro.graph.td_arrays import TDGraphArrays
from repro.query.distance_table import DistanceTable
from repro.service.config import RUNTIME_FIELDS, ServiceConfig
from repro.service.prepare import (
    PreparedDataset,
    PrepareStats,
    TimetableCounts,
)
from repro.store.codec import CodecError, HeldRecord, write_record
from repro.timetable.types import Station, Timetable, TrainNames

#: Bumped on any incompatible change to the store layout (2: the stored
#: config has no ``backend`` / ``workers``; 3: the table file has no
#: ``build_settled``; 4: the stored config has no ``kernel`` /
#: ``queue`` — every store is loaded with its pack; 5: nor ``strategy``
#: and the four pruning switches — a service runs the full algorithm;
#: 6: ``arrays/`` holds the pack alone — a loaded graph is built from
#: the timetable, so the five hydration side-tables are gone; 7: the
#: table is ``table/*.npy`` in narrow dtypes, not ``table.npz``, and its
#: build time is in the manifest).
FORMAT_VERSION = 7

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

#: The distance table's buffers, one ``.npy`` file each under ``table/``.
_TABLE_FIELDS = ("transfer_stations", "pair_indptr", "point_dep", "point_arr")

#: Points the load-time check of a table reads at once: its temporaries
#: stay far below what a service holds.
_CHECK_CHUNK = 1 << 12


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
    artifact by artifact, each file through a sidecar renamed into
    place (:func:`_replace`), so a service may save over the store it
    was loaded from and keep serving from what it loaded; any existing
    manifest is removed *first* and the new one is written *last*, so a
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
    _save_buffers(root / "arrays", {name: getattr(arrays, name) for name in _ARRAY_FIELDS})

    sections = _dataset_sections(prepared)
    _replace(root / "dataset.bin", lambda tmp: write_record(tmp, sections))

    table = prepared.table
    # A format-6 table, and a table from a save under another config,
    # must not survive next to a fresh manifest.
    (root / "table.npz").unlink(missing_ok=True)
    _save_buffers(
        root / "table",
        {}
        if table is None
        else {name: getattr(table, name) for name in _TABLE_FIELDS},
    )

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
    if table is not None:
        manifest["table_build_seconds"] = table.build_seconds
    # Renamed into place: a crash or signal at any instant leaves
    # either no manifest (store refuses to load) or a complete one —
    # never a truncated manifest that parses as corruption instead of
    # absence.
    _replace(
        root / "manifest.json",
        lambda tmp: tmp.write_text(json.dumps(manifest, indent=2) + "\n"),
    )
    return root


def _replace(path: Path, write) -> None:
    """``write(sidecar)``, then rename the sidecar over ``path``: a
    mapping or a descriptor of the old file keeps its inode, and a
    crash leaves the old file or none, never a truncated one."""
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def _save_buffers(directory: Path, buffers: dict[str, np.ndarray]) -> None:
    """One ``<name>.npy`` per buffer under ``directory``; any other file
    there — an older format's buffer, a crashed save's sidecar — is
    deleted, and so is the directory when it is left empty."""
    directory.mkdir(exist_ok=True)
    for name, buffer in buffers.items():

        def write(tmp: Path, buffer=buffer) -> None:
            with open(tmp, "wb") as out:
                np.save(out, buffer)

        _replace(directory / f"{name}.npy", write)
    kept = {f"{name}.npy" for name in buffers}
    for stale in directory.iterdir():
        if stale.name not in kept:
            stale.unlink()
    if not buffers:
        directory.rmdir()


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
        "train_names": timetable.train_names(),
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


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_dataset(
    path: str | Path, *, expected_config: ServiceConfig | None = None
) -> PreparedDataset:
    """Load a store back into a :class:`PreparedDataset`, warm.

    No builder runs: the pack's and the table's buffers are
    memory-mapped read-only, and the record is held open, its headers
    all checked here but only the header fields, the station graph and
    the transfer stations decoded.  The timetable, its routes and the
    object graph are not built here: the dataset keeps the held record,
    builds the timetable from it on first access and
    the routes and the graph from the timetable
    (:class:`PreparedDataset`) — so ``stats.graph_seconds`` is 0, and
    corrupt connection rows raise only then; the timetable's name and
    sizes are read off the record's header (``counts``).  The table's
    points are checked here, in one vectorised pass
    (:func:`_check_table`).
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
        record = HeldRecord(root / "dataset.bin")
    except FileNotFoundError:
        raise StoreError(f"{root}: missing dataset.bin") from None
    except CodecError as exc:
        raise StoreError(str(exc)) from None

    meta = record.get("meta")
    counts = TimetableCounts(
        name=record.get("timetable_name")[0],
        stations=int(meta[1]),
        trains=int(meta[2]),
        connections=int(meta[3]),
    )
    station_graph = _hydrate_station_graph(record, counts.stations)
    transfer_stations = (
        record.get("transfer_stations") if int(meta[4]) else None
    )
    period = int(meta[0])
    arrays = _load_arrays(root, manifest, counts.stations, period)

    table: DistanceTable | None = None
    table_mib = 0.0
    if manifest["artifacts"]["table"]:
        table = _load_table(
            root / "table",
            period,
            counts.stations,
            float(manifest.get("table_build_seconds", 0.0)),
        )
        table_mib = table.size_mib()

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
        hydrate_timetable=lambda: _hydrate_timetable(record, counts, period),
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


def _hydrate_timetable(
    record: HeldRecord, counts: TimetableCounts, period: int
) -> Timetable:
    """The record's timetable as its five connection columns
    (:meth:`Timetable.from_columns`, which checks them as
    :class:`~repro.timetable.types.Connection` would check each row:
    corrupt store bytes surface as ``ValueError`` here, at the first
    access to the timetable).  No row object is built, and the train
    names are decoded when one is first read, through the record,
    which is closed then."""
    transfer = record.get("station_transfer_time").tolist()
    stations = [
        Station(id=i, name=name, transfer_time=transfer[i])
        for i, name in enumerate(record.get("station_names"))
    ]
    # Copies, so that the three a swap shares do not keep the whole
    # section alive.
    columns = tuple(
        np.ascontiguousarray(column)
        for column in record.get("connections").reshape(-1, 5).T
    )

    def train_names() -> list[str]:
        names = record.get("train_names")
        record.close()
        return names

    return Timetable.from_columns(
        stations,
        TrainNames(counts.trains, train_names),
        columns,
        period=period,
        name=counts.name,
    )


def _hydrate_station_graph(record: HeldRecord, num_stations: int) -> StationGraph:
    return StationGraph(
        num_stations=num_stations,
        indptr=record.get("sg_indptr"),
        targets=record.get("sg_targets"),
        weights=record.get("sg_weights"),
        rev_indptr=record.get("sg_rev_indptr"),
        rev_targets=record.get("sg_rev_targets"),
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


#: ``.npy`` header readers by format version.
_NPY_HEADERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _open_buffer(buffer_path: Path) -> tuple[BinaryIO, np.memmap]:
    """The ``.npy`` file at ``buffer_path``, open, and the read-only map
    of it made from that open file: what ``os.pread`` reads from the
    file is what the map serves, even if a save has replaced the path
    since.  Refused as :func:`_mmap_buffer` refuses."""
    try:
        file = open(buffer_path, "rb")
    except FileNotFoundError:
        raise StoreError(f"missing packed buffer {buffer_path.name}") from None
    try:
        version = np.lib.format.read_magic(file)
        if version not in _NPY_HEADERS:
            raise ValueError(f"unsupported .npy version {version}")
        shape, fortran_order, dtype = _NPY_HEADERS[version](file)
        buffer = np.memmap(
            file,
            dtype=dtype,
            mode="r",
            shape=shape,
            order="F" if fortran_order else "C",
            offset=file.tell(),
        )
    except (TypeError, ValueError, OSError) as exc:
        file.close()
        raise StoreError(f"{buffer_path}: corrupt buffer: {exc}") from None
    return file, buffer


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


def _load_table(
    directory: Path, period: int, num_stations: int, build_seconds: float
) -> DistanceTable:
    if not directory.is_dir():
        raise StoreError(f"{directory}: missing (manifest promises a table)")
    maps = {
        name: _mmap_buffer(directory / f"{name}.npy")
        for name in ("transfer_stations", "pair_indptr")
    }
    dep_file, maps["point_dep"] = _open_buffer(directory / "point_dep.npy")
    with dep_file:
        arr_file, maps["point_arr"] = _open_buffer(directory / "point_arr.npy")
        with arr_file:
            _check_table(directory, period, num_stations, dep_file, arr_file, **maps)
    # Plain views of the maps: a memmap's slice costs a Python call, and
    # a search slices a pair per row it builds.
    buffers = {name: np.asarray(buffer) for name, buffer in maps.items()}
    transfer_stations = np.asarray(buffers.pop("transfer_stations"), dtype=np.int64)
    return DistanceTable(
        transfer_stations=transfer_stations,
        index_of={int(s): i for i, s in enumerate(transfer_stations)},
        period=period,
        build_seconds=build_seconds,
        **buffers,
    )


def _check_table(
    directory: Path,
    period: int,
    num_stations: int,
    dep_file: BinaryIO,
    arr_file: BinaryIO,
    transfer_stations: np.memmap,
    pair_indptr: np.memmap,
    point_dep: np.memmap,
    point_arr: np.memmap,
) -> None:
    """Refuse, as :class:`StoreError`, a table whose points are not a
    reduced profile per pair — what :class:`Profile` would refuse: a
    departure outside the period, departures decreasing within a pair,
    an arrival before its departure — or whose stations or
    ``pair_indptr`` do not frame them.  One vectorised pass over the
    points, :data:`_CHECK_CHUNK` at a time, each chunk read with
    ``os.pread`` from ``dep_file`` / ``arr_file``, the open files the
    points are mapped from (:func:`_open_buffer`), so that the check
    reads the bytes the maps serve and leaves no page of them
    resident."""

    def refuse(what: str) -> StoreError:
        return StoreError(f"{directory}: corrupt table: {what}")

    for name, buffer in (
        ("transfer_stations", transfer_stations),
        ("pair_indptr", pair_indptr),
        ("point_dep", point_dep),
        ("point_arr", point_arr),
    ):
        if buffer.ndim != 1 or buffer.dtype.kind != "i":
            raise refuse(f"{name} is not a vector of integers")
    n = transfer_stations.size
    if n and (
        transfer_stations[0] < 0
        or transfer_stations[-1] >= num_stations
        or (np.diff(transfer_stations) <= 0).any()
    ):
        raise refuse("transfer stations are not sorted station ids")
    if point_dep.size != point_arr.size:
        raise refuse("point_dep and point_arr differ in length")
    diagonal = np.arange(n) * (n + 1)
    if (
        pair_indptr.size != n * n + 1
        or pair_indptr[0] != 0
        or pair_indptr[-1] != point_dep.size
        or (np.diff(pair_indptr) < 0).any()
        or (pair_indptr[diagonal + 1] != pair_indptr[diagonal]).any()
    ):
        raise refuse("bad pair_indptr")
    for lo in range(0, point_dep.size, _CHECK_CHUNK):
        hi = min(lo + _CHECK_CHUNK, point_dep.size)
        dep = _read_slice(dep_file, point_dep, max(lo - 1, 0), hi).astype(np.int64)
        arr = _read_slice(arr_file, point_arr, lo, hi).astype(np.int64)
        here = dep[-arr.size :]
        if (here < 0).any() or (here >= period).any():
            raise refuse(f"a departure outside the period [0, {period})")
        if (arr < here).any():
            raise refuse("an arrival before its departure")
        # Point i may depart before point i - 1 where a pair begins.
        first = hi - dep.size + 1
        falls = np.diff(dep) < 0
        begins = pair_indptr[
            np.searchsorted(pair_indptr, first) : np.searchsorted(pair_indptr, hi)
        ]
        falls[begins - first] = False
        if falls.any():
            raise refuse("departures decrease within a pair")


def _read_slice(file: BinaryIO, buffer: np.memmap, lo: int, hi: int) -> np.ndarray:
    """``buffer[lo:hi]`` read with ``os.pread`` from ``file``, the open
    ``.npy`` file ``buffer`` maps: a read through the map would keep
    its pages resident, and count in the process's RSS."""
    size = buffer.dtype.itemsize
    raw = os.pread(file.fileno(), (hi - lo) * size, buffer.offset + lo * size)
    if len(raw) != (hi - lo) * size:
        raise StoreError(
            f"{file.name}: truncated: {len(raw)} of {(hi - lo) * size} "
            f"bytes at point {lo}"
        )
    return np.frombuffer(raw, dtype=buffer.dtype)


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
        if (root / "table").is_dir():
            sizes["table"] = sum(
                f.stat().st_size for f in (root / "table").glob("*.npy")
            )
    except OSError as exc:
        raise StoreError(f"{root}: incomplete store: {exc}") from None
    manifest["sizes_bytes"] = sizes
    manifest["total_bytes"] = sum(sizes.values())
    return manifest
