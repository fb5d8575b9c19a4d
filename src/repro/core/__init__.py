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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.spcs": ("SPCSResult", "spcs_profile_search"),
        "repro.core.spcs_kernel": ("run_spcs_search", "spcs_kernel_search"),
        "repro.core.partition": (
            "PARTITION_STRATEGIES",
            "partition_equal_connections",
            "partition_equal_time_slots",
            "partition_kmeans",
        ),
        "repro.core.merge": ("MergedProfileResult", "merge_thread_results"),
        "repro.core.multicriteria": (
            "McProfileResult",
            "McSPCSStats",
            "McTimeQueryResult",
            "mc_profile_search",
            "mc_time_search",
        ),
        "repro.core.mc_reference": ("mc_reference_search",),
        "repro.core.parallel": (
            "KERNELS",
            "ParallelProfileResult",
            "ParallelRunStats",
            "parallel_profile_search",
        ),
    },
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
