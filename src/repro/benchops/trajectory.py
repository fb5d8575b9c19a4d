"""Trajectory files: the persistent, per-benchmark perf history.

One benchmark ⇒ one ``BENCH_<name>.json`` at the repo root::

    {
      "schema_version": 1,
      "benchmark": "store_warmstart",
      "entries": [ <BenchRecord>, ... ]   # append-ordered, oldest first
    }

Trajectories are committed alongside the code whose speed they record,
so ``git log BENCH_*.json`` *is* the perf history.  The indexer is the
only writer: it validates every pending record (schema *and* matching
benchmark name) before touching a trajectory, loads-and-revalidates
the existing file, and writes atomically (temp file + rename) — a
corrupt trajectory is reported, never silently replaced or extended.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.benchops.schema import (
    SCHEMA_VERSION,
    BenchOpsError,
    BenchRecord,
    RecordError,
    validate_record,
)

_PREFIX = "BENCH_"


class TrajectoryError(BenchOpsError):
    """A trajectory file is corrupt or inconsistent with its name."""


def trajectory_path(root: str | os.PathLike, benchmark: str) -> Path:
    return Path(root) / f"{_PREFIX}{benchmark}.json"


def trajectory_names(root: str | os.PathLike) -> list[str]:
    """Benchmark names with a trajectory under ``root`` (sorted)."""
    return sorted(
        p.name[len(_PREFIX) : -len(".json")]
        for p in Path(root).glob(f"{_PREFIX}*.json")
    )


def load_trajectory(path: str | os.PathLike) -> list[BenchRecord]:
    """Load and fully validate one trajectory file.

    Every entry is re-validated on load: a hand-edited or truncated
    trajectory fails here with the offending entry's index, and the
    indexer refuses to append to it.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise TrajectoryError(f"cannot read trajectory {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise TrajectoryError(
            f"trajectory {path} is not valid JSON ({exc}) — "
            f"restore it from git before indexing"
        ) from None
    if not isinstance(raw, dict):
        raise TrajectoryError(
            f"trajectory {path} must be an object, got {type(raw).__name__}"
        )
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise TrajectoryError(
            f"trajectory {path} has schema_version "
            f"{raw.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    name = _name_from_path(path)
    if raw.get("benchmark") != name:
        raise TrajectoryError(
            f"trajectory {path} declares benchmark {raw.get('benchmark')!r} "
            f"but its filename says {name!r}"
        )
    entries = raw.get("entries")
    if not isinstance(entries, list):
        raise TrajectoryError(f"trajectory {path}: entries must be a list")
    records = []
    for i, entry in enumerate(entries):
        try:
            record = validate_record(entry)
        except RecordError as exc:
            raise TrajectoryError(f"trajectory {path}, entry {i}: {exc}") from None
        if record.benchmark != name:
            raise TrajectoryError(
                f"trajectory {path}, entry {i}: benchmark "
                f"{record.benchmark!r} does not belong here"
            )
        records.append(record)
    return records


def append_record(root: str | os.PathLike, record: BenchRecord) -> Path:
    """Append one (validated) record to its trajectory under ``root``.

    Creates the trajectory on first append; atomic write so a crash
    mid-index never leaves a half-written file.  A record captured on a
    dirty work tree is refused (:class:`RecordError`): its ``git_sha``
    names a commit that does not hold the code it measured.
    """
    validate_record(record.to_dict())
    if record.dirty:
        raise RecordError(
            f"record of {record.benchmark!r} was captured on a work tree "
            f"with uncommitted changes (git_sha {record.git_sha}): commit, "
            f"then run the benchmark again"
        )
    path = trajectory_path(root, record.benchmark)
    records = load_trajectory(path) if path.exists() else []
    records.append(record)
    document = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": record.benchmark,
        "entries": [r.to_dict() for r in records],
    }
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


@dataclass(frozen=True)
class IndexSummary:
    """What one ``bench index`` run did."""

    indexed: list[tuple[str, Path]]  # (benchmark, trajectory path)
    rejected: list[tuple[Path, str]]  # (pending file, reason)


def index_records(
    records_dir: str | os.PathLike,
    root: str | os.PathLike,
    *,
    consume: bool = True,
) -> IndexSummary:
    """Fold every pending record under ``records_dir`` into the
    trajectories under ``root``.

    Records are ingested oldest-first (by mtime, then name) so
    same-session records land in run order.  Invalid records are
    reported and left in place; valid ones are appended and — with
    ``consume`` — deleted, so re-running the indexer is idempotent.
    """
    pending = sorted(
        Path(records_dir).glob("*.json"),
        key=lambda p: (p.stat().st_mtime, p.name),
    )
    indexed: list[tuple[str, Path]] = []
    rejected: list[tuple[Path, str]] = []
    for path in pending:
        try:
            raw = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            rejected.append((path, f"unreadable: {exc}"))
            continue
        try:
            record = validate_record(raw)
            trajectory = append_record(root, record)
        except BenchOpsError as exc:
            rejected.append((path, str(exc)))
            continue
        indexed.append((record.benchmark, trajectory))
        if consume:
            path.unlink()
    return IndexSummary(indexed=indexed, rejected=rejected)


def _name_from_path(path: Path) -> str:
    name = path.name
    if not (name.startswith(_PREFIX) and name.endswith(".json")):
        raise TrajectoryError(
            f"{path} is not a trajectory file (expected {_PREFIX}<name>.json)"
        )
    return name[len(_PREFIX) : -len(".json")]
