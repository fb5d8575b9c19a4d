"""Graph models of a timetable.

* :mod:`repro.graph.td_model` — the *realistic time-dependent model* of
  Pyrga et al. used by the paper (§2): station nodes plus per-route
  route nodes, constant transfer edges and time-dependent route edges.
* :mod:`repro.graph.station_graph` — the station graph ``G_S`` (§4):
  one node per station, an edge where at least one train runs.
* :mod:`repro.graph.td_arrays` — the packed flat-array form of the
  time-dependent graph consumed by the SPCS kernel
  (:mod:`repro.core.spcs_kernel`) and shipped to worker processes,
  built straight from a timetable and its routes.
* :mod:`repro.graph.csr` — small CSR utilities shared by both.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.graph.td_model": ("Edge", "TDGraph", "build_td_graph"),
        "repro.graph.td_arrays": (
            "TDGraphArrays",
            "pack_td_graph",
            "pack_timetable",
            "packed_arrays",
        ),
        "repro.graph.station_graph": ("StationGraph", "build_station_graph"),
    },
)

__all__ = [
    "Edge",
    "TDGraph",
    "build_td_graph",
    "TDGraphArrays",
    "pack_td_graph",
    "pack_timetable",
    "packed_arrays",
    "StationGraph",
    "build_station_graph",
]
