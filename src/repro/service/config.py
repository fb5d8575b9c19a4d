"""Typed configuration of a :class:`~repro.service.TransitService`.

One :class:`ServiceConfig` fixes *everything* that shapes prepared
artifacts and answers — per-query core count, partition strategy,
transfer-station selection, distance table on/off — so that a
service instance is reproducible from ``(timetable, config)`` alone and
two services with equal configs answer identically.  Where the searches
run is not configuration: a service searches on the calling thread
until whoever runs it gives it search workers
(:meth:`~repro.service.TransitService.start_workers`).  Nor is the
kernel: a service always runs the flat one (``docs/KERNEL.md``).

All fields are validated eagerly at construction; an invalid
combination fails before any preparation work starts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

from repro.core.partition import PARTITION_STRATEGIES

#: Valid ``transfer_selection`` values (see
#: :func:`repro.query.transfer_selection.select_transfer_stations`).
SELECTION_METHODS = ("contraction", "degree")

#: The kernel every service runs, and the ``kernel`` that query and
#: batch stats and a ``/v1/datasets`` entry report until the protocol
#: drops the key.
SERVED_KERNEL = "flat"

#: Config fields that shape query *execution* only, never the prepared
#: artifacts: changing one over an existing :class:`PreparedDataset`
#: (``TransitService.with_runtime_overrides``) is always sound.  Every
#: other field changes what preparation produces (kernel packs arrays,
#: the transfer knobs pick ``S_trans``, …) and requires a fresh
#: prepare — and hence a fresh artifact store.  ``num_threads`` and
#: ``strategy`` also steer the distance-table *build*, but only how
#: each of its searches is partitioned, never the stored profiles.
RUNTIME_FIELDS = frozenset(
    {
        "num_threads",
        "strategy",
        "result_cache_size",
        "stopping",
        "table_pruning",
        "target_pruning",
        "self_pruning",
    }
)


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Everything a :class:`TransitService` needs beyond the timetable.

    Query execution
    ---------------
    num_threads
        Per-query connection partitioning (paper §3.2 simulated cores):
        how many subsets of ``conn(S)`` one search is split into.  Not
        a process count.
    strategy
        Partition strategy, a
        :data:`~repro.core.partition.PARTITION_STRATEGIES` key.
    result_cache_size
        Capacity of the per-service LRU cache over profile / journey /
        batch answers (:mod:`repro.service.cache`); ``0`` disables
        caching.  Runtime-only: it never shapes prepared artifacts.

    Prepared artifacts
    ------------------
    use_distance_table
        Build the transfer-station distance table at preparation time
        (paper §4); off by default because the table pays off only on
        query-heavy workloads.
    transfer_selection / transfer_fraction / min_degree
        How ``S_trans`` is chosen when the table is on: ``contraction``
        keeps the ``transfer_fraction`` share of stations surviving
        station-graph contraction longest, ``degree`` keeps stations of
        degree > ``min_degree``.

    Pruning toggles
    ---------------
    ``stopping`` (Theorem 2), ``table_pruning`` (Theorem 3),
    ``target_pruning`` (Theorem 4), ``self_pruning`` (§3.1) — on by
    default, exposed for ablations.  They govern the connection-setting
    searches (``profile``, ``journey``, ``batch``) only: the departure-time
    shapes (``multicriteria``, ``min_transfers``, ``via``) run time
    queries, which have no connections to set or prune.

    ``kernel`` and ``queue`` are read-only class constants for callers
    that still read them off a config, not fields:
    ``ServiceConfig(kernel=…)`` is a ``TypeError``.
    """

    kernel: ClassVar[str] = SERVED_KERNEL
    queue: ClassVar[str] = "binary"

    num_threads: int = 1
    strategy: str = "equal-connections"
    result_cache_size: int = 128
    use_distance_table: bool = False
    transfer_selection: str = "contraction"
    transfer_fraction: float = 0.05
    min_degree: int = 2
    stopping: bool = True
    table_pruning: bool = True
    target_pruning: bool = True
    self_pruning: bool = True

    def __post_init__(self) -> None:
        if self.strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {self.strategy!r}; "
                f"choose from {sorted(PARTITION_STRATEGIES)}"
            )
        if self.transfer_selection not in SELECTION_METHODS:
            raise ValueError(
                f"unknown transfer selection {self.transfer_selection!r}; "
                f"choose from {SELECTION_METHODS}"
            )
        if self.num_threads < 1:
            raise ValueError(
                f"need at least one thread, got {self.num_threads}"
            )
        if self.result_cache_size < 0:
            raise ValueError(
                f"result_cache_size must be non-negative, "
                f"got {self.result_cache_size}"
            )
        if not (0.0 <= self.transfer_fraction <= 1.0):
            raise ValueError(
                f"transfer_fraction must be within [0, 1], "
                f"got {self.transfer_fraction}"
            )
        if self.min_degree < 0:
            raise ValueError(
                f"min_degree must be non-negative, got {self.min_degree}"
            )

    def with_overrides(self, **changes) -> "ServiceConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)
