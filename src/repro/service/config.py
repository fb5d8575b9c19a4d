"""Typed configuration of a :class:`~repro.service.TransitService`.

One :class:`ServiceConfig` fixes *everything* that shapes prepared
artifacts and answers — per-query core count, transfer-station
selection, distance table on/off — so that a service instance is
reproducible from ``(timetable, config)`` alone and two services with
equal configs answer identically.  Where the searches run is not
configuration: a service searches on the calling thread until whoever
runs it gives it search workers
(:meth:`~repro.service.TransitService.start_workers`).  Nor is the
algorithm: a service always runs the flat kernel (``docs/KERNEL.md``)
and the paper's full search — the §3.2 equal-connections partition,
self-pruning, the stopping criterion and both distance-table rules.
Their ablation switches are arguments of the engines
(:class:`~repro.query.table_query.StationToStationEngine`,
:func:`~repro.core.parallel.parallel_profile_search`), not fields.

All fields are validated eagerly at construction; an invalid
combination fails before any preparation work starts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

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
#: other field changes what preparation produces (the transfer knobs
#: pick ``S_trans``, the table is built or not) and requires a fresh
#: prepare — and hence a fresh artifact store.
RUNTIME_FIELDS = frozenset({"num_threads", "result_cache_size"})


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Everything a :class:`TransitService` needs beyond the timetable.

    Query execution
    ---------------
    num_threads
        Per-query connection partitioning (paper §3.2 simulated cores):
        how many subsets of ``conn(S)`` one search is split into.  Not
        a process count.
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

    ``kernel``, ``queue``, ``strategy`` and the four pruning switches
    (``stopping``, ``table_pruning``, ``target_pruning``,
    ``self_pruning``) are read-only class constants for callers that
    still read them off a config, not fields: ``ServiceConfig(kernel=…)``
    is a ``TypeError``.
    """

    kernel: ClassVar[str] = SERVED_KERNEL
    queue: ClassVar[str] = "binary"
    strategy: ClassVar[str] = "equal-connections"
    stopping: ClassVar[bool] = True
    table_pruning: ClassVar[bool] = True
    target_pruning: ClassVar[bool] = True
    self_pruning: ClassVar[bool] = True

    num_threads: int = 1
    result_cache_size: int = 128
    use_distance_table: bool = False
    transfer_selection: str = "contraction"
    transfer_fraction: float = 0.05
    min_degree: int = 2

    def __post_init__(self) -> None:
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
