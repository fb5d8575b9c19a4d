"""Station-to-station queries (paper §4).

* :mod:`repro.query.via` — local stations, via stations, local/global
  classification (reverse DFS on the station graph).
* :mod:`repro.query.distance_table` — the profile distance table ``D``
  over transfer stations, precomputed with the parallel one-to-all
  algorithm.
* :mod:`repro.query.table_query` — the full station-to-station engine:
  stopping criterion + distance-table pruning (Theorem 3) + target
  pruning (Theorem 4) + the ``S, T ∈ S_trans`` shortcut.
* :mod:`repro.query.batch` — the accounting of a batched workload
  (:class:`BatchStats`); the batch itself is
  :meth:`repro.service.TransitService.batch`.
* :mod:`repro.query.transfer_selection` — choosing ``S_trans`` by
  station-graph contraction or by degree.
* :mod:`repro.query.contraction` — the CH-style contraction routine.
* :mod:`repro.query.min_transfers` — transfer-minimizing read-offs
  over multi-criteria searches (Pareto trade-off scans, fewest-transfer
  options, transfer-bounded day profiles).
"""

from repro.query.via import ViaInfo, compute_via_stations
from repro.query.min_transfers import (
    TradeoffFront,
    TradeoffScan,
    min_transfer_option,
    scan_tradeoffs,
    tradeoff_fronts,
    transfer_bounded_counts,
)
from repro.query.distance_table import DistanceTable, build_distance_table
from repro.query.table_query import (
    DistanceTablePruner,
    StationToStationEngine,
    StationToStationResult,
)
from repro.query.batch import BatchStats
from repro.query.transfer_selection import (
    select_by_contraction,
    select_by_degree,
    select_transfer_stations,
)

__all__ = [
    "ViaInfo",
    "compute_via_stations",
    "TradeoffFront",
    "TradeoffScan",
    "min_transfer_option",
    "scan_tradeoffs",
    "tradeoff_fronts",
    "transfer_bounded_counts",
    "DistanceTable",
    "build_distance_table",
    "DistanceTablePruner",
    "StationToStationEngine",
    "StationToStationResult",
    "BatchStats",
    "select_by_contraction",
    "select_by_degree",
    "select_transfer_stations",
]
