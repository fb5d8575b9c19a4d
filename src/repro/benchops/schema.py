"""The benchmark record schema (one record = one benchmark run).

A :class:`BenchRecord` is deliberately flat and JSON-safe: a
trajectory file is a list of these, and every consumer — the indexer,
``bench show``, a notebook — reads them with nothing but ``json``.
Validation lives here (:func:`validate_record`) so corrupt or
hand-edited records are rejected at the indexing boundary with a
message naming the offending field, never half-ingested.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.benchops.machine import (
    current_git_sha,
    git_tree_dirty,
    machine_fingerprint,
)

#: Bumped when the record shape changes incompatibly; the indexer
#: refuses records from a different schema generation.
SCHEMA_VERSION = 1

#: Valid benchmark scales (mirrors ``benchmarks/conftest.bench_scale``).
SCALES = ("tiny", "small", "medium")

#: Machine-fingerprint keys every record carries.
MACHINE_KEYS = ("platform", "python", "machine", "cpu_count")


class BenchOpsError(Exception):
    """Base failure of the benchmark-ops layer."""


class RecordError(BenchOpsError):
    """A record violates the schema (bad field, missing key, NaN metric)."""


def config_hash(config: dict) -> str:
    """Stable hash of a benchmark's configuration knobs.

    Canonical-JSON SHA-256, truncated to 16 hex chars — enough to tell
    two benchmark setups apart without reading the whole config.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run's schema'd result.

    ``metrics`` maps metric name to a finite float.  ``config`` holds
    the knobs that shaped the run (instance list, query counts, worker
    counts, …); ``config_hash`` pins it.  ``dirty`` says whether the
    work tree had uncommitted changes when the run was captured (then
    ``git_sha`` names a commit that does not hold the measured code);
    ``None`` for a run outside a work tree and for records older than
    the field.
    """

    benchmark: str
    scale: str
    metrics: dict[str, float]
    config: dict = field(default_factory=dict)
    config_hash: str = ""
    git_sha: str | None = None
    dirty: bool | None = None
    machine: dict = field(default_factory=dict)
    created_unix: float = 0.0
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def capture(
        cls,
        benchmark: str,
        *,
        scale: str,
        metrics: dict[str, float],
        config: dict | None = None,
    ) -> "BenchRecord":
        """Build a record for *this* run: stamps the current machine
        fingerprint, git SHA and wall-clock time, and hashes ``config``."""
        config = dict(config or {})
        record = cls(
            benchmark=benchmark,
            scale=scale,
            metrics={name: float(value) for name, value in metrics.items()},
            config=config,
            config_hash=config_hash(config),
            git_sha=current_git_sha(),
            dirty=git_tree_dirty(),
            machine=machine_fingerprint(),
            created_unix=time.time(),
        )
        validate_record(record.to_dict())
        return record

    def to_dict(self) -> dict:
        record = {
            "schema_version": self.schema_version,
            "benchmark": self.benchmark,
            "scale": self.scale,
            "created_unix": self.created_unix,
            "git_sha": self.git_sha,
            "config": self.config,
            "config_hash": self.config_hash,
            "machine": self.machine,
            "metrics": self.metrics,
        }
        # Absent, not null, where unknown: an older record reads back
        # to the same bytes.
        if self.dirty is not None:
            record["dirty"] = self.dirty
        return record


def _fail(message: str) -> RecordError:
    return RecordError(f"invalid bench record: {message}")


def validate_record(raw: object) -> BenchRecord:
    """Validate a decoded JSON object into a :class:`BenchRecord`.

    Raises :class:`RecordError` naming the first offending field; the
    indexer calls this on every pending record before a trajectory is
    touched, so a bad record can never corrupt a ``BENCH_*.json``.
    """
    if not isinstance(raw, dict):
        raise _fail(f"expected an object, got {type(raw).__name__}")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise _fail(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    benchmark = raw.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise _fail(f"benchmark must be a non-empty string, got {benchmark!r}")
    if not all(c.isalnum() or c == "_" for c in benchmark):
        raise _fail(
            f"benchmark must be [A-Za-z0-9_]+ (it names a BENCH_<name>.json "
            f"file), got {benchmark!r}"
        )
    scale = raw.get("scale")
    if scale not in SCALES:
        raise _fail(f"scale must be one of {SCALES}, got {scale!r}")
    created = raw.get("created_unix")
    if not isinstance(created, (int, float)) or created < 0:
        raise _fail(f"created_unix must be a non-negative number, got {created!r}")
    git_sha = raw.get("git_sha")
    if git_sha is not None and (
        not isinstance(git_sha, str) or not git_sha
    ):
        raise _fail(f"git_sha must be null or a non-empty string, got {git_sha!r}")
    dirty = raw.get("dirty")
    if dirty is not None and not isinstance(dirty, bool):
        raise _fail(f"dirty must be absent, null or a boolean, got {dirty!r}")
    config = raw.get("config")
    if not isinstance(config, dict):
        raise _fail(f"config must be an object, got {type(config).__name__}")
    declared_hash = raw.get("config_hash")
    if not isinstance(declared_hash, str):
        raise _fail(f"config_hash must be a string, got {declared_hash!r}")
    if declared_hash != config_hash(config):
        raise _fail(
            f"config_hash {declared_hash!r} does not match config "
            f"(expected {config_hash(config)!r})"
        )
    machine = raw.get("machine")
    if not isinstance(machine, dict):
        raise _fail(f"machine must be an object, got {type(machine).__name__}")
    for key in MACHINE_KEYS:
        if key not in machine:
            raise _fail(f"machine is missing {key!r}")
    metrics = raw.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise _fail("metrics must be a non-empty object")
    for name, value in metrics.items():
        if not isinstance(name, str) or not name:
            raise _fail(f"metric names must be non-empty strings, got {name!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _fail(f"metric {name!r} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise _fail(f"metric {name!r} must be finite, got {value!r}")
    return BenchRecord(
        benchmark=benchmark,
        scale=scale,
        metrics={name: float(value) for name, value in metrics.items()},
        config=config,
        config_hash=declared_hash,
        git_sha=git_sha,
        dirty=dirty,
        machine=machine,
        created_unix=float(created),
        schema_version=version,
    )


def emit_record(record: BenchRecord, out_dir: str | os.PathLike) -> Path:
    """Write ``record`` as a pending JSON file under ``out_dir``.

    Pending records are one-file-per-run (``<benchmark>-<pid>-<n>.json``,
    collision-free within and across processes) and wait for
    ``repro-transit bench index`` to validate and fold them into the
    repo-root trajectories.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = 0
    while True:
        path = out / f"{record.benchmark}-{os.getpid()}-{n}.json"
        if not path.exists():
            break
        n += 1
    path.write_text(json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n")
    return path
