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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.query.via": ("ViaInfo", "compute_via_stations"),
        "repro.query.min_transfers": (
            "TradeoffFront",
            "TradeoffScan",
            "min_transfer_option",
            "scan_tradeoffs",
            "tradeoff_fronts",
            "transfer_bounded_counts",
        ),
        "repro.query.distance_table": (
            "DistanceTable",
            "build_distance_table",
        ),
        "repro.query.table_query": (
            "DistanceTablePruner",
            "StationToStationEngine",
            "StationToStationResult",
        ),
        "repro.query.batch": ("BatchStats",),
        "repro.query.transfer_selection": (
            "select_by_contraction",
            "select_by_degree",
            "select_transfer_stations",
        ),
    },
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
