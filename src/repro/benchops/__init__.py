"""Benchmark ops: persistent perf trajectories with regression gates.

Every ``benchmarks/bench_*.py`` run used to print its tables and
vanish; the only perf guards were coarse in-CI ratio asserts.  This
package is the results layer that makes the repo's speed claims
*enforceable*:

* :class:`~repro.benchops.schema.BenchRecord` — one schema'd result
  record per benchmark run: machine fingerprint, git SHA, scale,
  config hash, and a flat ``metrics`` dict (QPS, latency percentiles,
  speed-ups, wall times).  :func:`~repro.benchops.schema.emit_record`
  drops it as a pending JSON file.
* the **indexer** (:func:`~repro.benchops.trajectory.index_records`,
  CLI ``repro-transit bench index``) — validates pending records and
  appends them to per-benchmark ``BENCH_<name>.json`` trajectory files
  at the repo root, refusing to touch a corrupt trajectory.
* the **comparator** (:func:`~repro.benchops.compare.compare_records`,
  CLI ``repro-transit bench compare``) — loads the last known-good
  entry (same scale + config hash) and fails on regressions beyond a
  configurable noise band (default ±15 %, per-metric overrides).

Metric *direction* is inferred from the metric name
(:func:`~repro.benchops.compare.metric_direction`): ``*_ms`` /
``*_seconds`` are lower-is-better, ``*_qps`` / ``*_speedup`` are
higher-is-better, anything else is recorded but never gated.

Everything here is stdlib-only: the package must be importable from
CI shells and bench sessions without pulling in the query stack.
"""

from __future__ import annotations

from repro.benchops.compare import (
    ComparisonReport,
    MetricDelta,
    compare_latest,
    compare_records,
    metric_direction,
)
from repro.benchops.machine import current_git_sha, machine_fingerprint
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
    "ComparisonReport",
    "MetricDelta",
    "RecordError",
    "TrajectoryError",
    "append_record",
    "compare_latest",
    "compare_records",
    "current_git_sha",
    "emit_record",
    "index_records",
    "load_trajectory",
    "machine_fingerprint",
    "metric_direction",
    "trajectory_names",
    "trajectory_path",
    "validate_record",
]
