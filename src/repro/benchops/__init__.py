"""Benchmark ops: persistent result trajectories.

Every ``benchmarks/bench_*.py`` run leaves a schema'd record behind,
and the records of the runs worth keeping are folded into committed
trajectories, so a bench's numbers are a history ``git log`` can show
rather than a table that vanishes with the terminal:

* :class:`~repro.benchops.schema.BenchRecord` — one schema'd result
  record per benchmark run: machine fingerprint, git SHA and whether
  the work tree was dirty, scale,
  config hash, and a flat ``metrics`` dict (work counts, speed-ups,
  wall times).  :func:`~repro.benchops.schema.emit_record` drops it as
  a pending JSON file.
* the **indexer** (:func:`~repro.benchops.trajectory.index_records`,
  CLI ``repro-transit bench index``) — validates pending records and
  appends them to per-benchmark ``BENCH_<name>.json`` trajectory files
  at the repo root, refusing to touch a corrupt trajectory and to
  promote a record captured on a dirty work tree.

Nothing here judges a run against an earlier one: wall times recorded
in another session, or on another machine, do not compare.  The
deterministic numbers (settled counts) are pinned by the tests.

Everything here is stdlib-only: the package must be importable from
CI shells and bench sessions without pulling in the query stack.
"""

from __future__ import annotations

from repro.benchops.machine import (
    current_git_sha,
    git_tree_dirty,
    machine_fingerprint,
)
from repro.benchops.schema import (
    SCHEMA_VERSION,
    BenchOpsError,
    BenchRecord,
    RecordError,
    emit_record,
    validate_record,
)
from repro.benchops.trajectory import (
    TrajectoryError,
    append_record,
    index_records,
    load_trajectory,
    trajectory_names,
    trajectory_path,
)

__all__ = [
    "SCHEMA_VERSION",
    "BenchOpsError",
    "BenchRecord",
    "RecordError",
    "TrajectoryError",
    "append_record",
    "current_git_sha",
    "emit_record",
    "git_tree_dirty",
    "index_records",
    "load_trajectory",
    "machine_fingerprint",
    "trajectory_names",
    "trajectory_path",
    "validate_record",
]
