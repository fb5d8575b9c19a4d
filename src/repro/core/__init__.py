"""The paper's primary contribution (§3): self-pruning
connection-setting profile search (SPCS) and its parallelization.

* :mod:`repro.core.spcs` — the sequential algorithm with
  connection-setting, self-pruning, the stopping criterion and pruner
  hooks (used by the distance-table machinery in :mod:`repro.query`).
* :mod:`repro.core.spcs_kernel` — the flat-array kernel: the same
  algorithm over a packed :class:`~repro.graph.td_arrays.TDGraphArrays`
  with preallocated label vectors and a bucket queue; identical reduced
  profiles, several times faster (``kernel="flat"`` in the drivers);
  the §4 rules the reference asks its hook about are inlined here.
* :mod:`repro.core.partition` — partitioning ``conn(S)`` over threads
  (§3.2): equal time-slots, equal #connections, k-means.
* :mod:`repro.core.parallel` — the parallel driver and the
  simulated-cores accounting used by the benchmarks.
* :mod:`repro.core.fanout` — the one way onto another core: a fork
  pool per call (the parallel driver) or per service
  generation (its search workers).
* :mod:`repro.core.merge` — merging per-thread labels and reading off
  reduced profiles.
* :mod:`repro.core.multicriteria` — the §6 (arrival, transfers)
  searches: the fixed-departure loop the served shapes run
  (``mc_time_search``), whose labels carry their parents, and the
  whole-day ``mc_profile_search`` — the readable object-graph search of
  :mod:`repro.core.mc_reference`, the only one.
"""

from repro.core.spcs import SPCSResult, spcs_profile_search
from repro.core.spcs_kernel import run_spcs_search, spcs_kernel_search
from repro.core.partition import (
    PARTITION_STRATEGIES,
    partition_equal_connections,
    partition_equal_time_slots,
    partition_kmeans,
)
from repro.core.merge import MergedProfileResult, merge_thread_results
from repro.core.multicriteria import (
    McProfileResult,
    McSPCSStats,
    McTimeQueryResult,
    mc_profile_search,
    mc_time_search,
)
from repro.core.mc_reference import mc_reference_search
from repro.core.parallel import (
    KERNELS,
    ParallelProfileResult,
    ParallelRunStats,
    parallel_profile_search,
)

__all__ = [
    "SPCSResult",
    "spcs_profile_search",
    "spcs_kernel_search",
    "run_spcs_search",
    "KERNELS",
    "PARTITION_STRATEGIES",
    "partition_equal_connections",
    "partition_equal_time_slots",
    "partition_kmeans",
    "MergedProfileResult",
    "merge_thread_results",
    "McProfileResult",
    "McSPCSStats",
    "McTimeQueryResult",
    "mc_profile_search",
    "mc_reference_search",
    "mc_time_search",
    "ParallelProfileResult",
    "ParallelRunStats",
    "parallel_profile_search",
]
