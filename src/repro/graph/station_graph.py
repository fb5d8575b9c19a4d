"""The station graph ``G_S`` (paper §4).

One node per station; a directed edge ``(S1, S2)`` whenever at least one
train runs from ``S1`` directly to ``S2``.  Edge weights are the minimum
travel time over all elementary connections on that pair — the scalar
weight the contraction-based transfer-station selection uses.

Also provides the reverse graph (for the via-station DFS) and degree
queries (for the ``deg > k`` selection rule).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import build_weighted_csr, reverse_csr
from repro.timetable.types import Timetable


@dataclass(slots=True)
class StationGraph:
    """CSR station graph with min-travel-time weights and its reverse."""

    num_stations: int
    indptr: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    rev_indptr: np.ndarray
    rev_targets: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.targets.size)

    def successors(self, station: int) -> np.ndarray:
        """Stations directly reachable from ``station`` (view)."""
        return self.targets[self.indptr[station] : self.indptr[station + 1]]

    def successor_weights(self, station: int) -> np.ndarray:
        return self.weights[self.indptr[station] : self.indptr[station + 1]]

    def predecessors(self, station: int) -> np.ndarray:
        """Stations with a direct train to ``station`` (view)."""
        return self.rev_targets[
            self.rev_indptr[station] : self.rev_indptr[station + 1]
        ]

    def out_degree(self, station: int) -> int:
        return int(self.indptr[station + 1] - self.indptr[station])

    def in_degree(self, station: int) -> int:
        return int(self.rev_indptr[station + 1] - self.rev_indptr[station])

    def degree(self, station: int) -> int:
        """Undirected degree: number of distinct neighbor stations.

        The paper's ``deg > k`` rule counts neighbors in the station
        graph; we use the union of in- and out-neighbors.
        """
        out = set(self.successors(station).tolist())
        out.update(self.predecessors(station).tolist())
        out.discard(station)
        return len(out)


def build_station_graph(timetable: Timetable) -> StationGraph:
    """Build ``G_S`` from a timetable."""
    num_stations = timetable.num_stations
    edges = [
        (c.dep_station, c.arr_station, c.duration)
        for c in timetable.connections
    ]
    indptr, targets, weights = build_weighted_csr(num_stations, edges)
    rev_indptr, rev_targets = reverse_csr(num_stations, indptr, targets)
    return StationGraph(
        num_stations=num_stations,
        indptr=indptr,
        targets=targets,
        weights=weights,
        rev_indptr=rev_indptr,
        rev_targets=rev_targets,
    )
