"""The whole-day multi-criteria SPCS (paper §6), written for reading.

The algorithm of the §6 outlook for (arrival time, #transfers), as
:mod:`repro.core.multicriteria` describes it — queue items ``(node,
connection i, transfers k)`` keyed by arrival, boarding edges stepping
the layer, the layered ``maxconn(v, k) ≥ i`` self-pruning rule — over
the object :class:`~repro.graph.td_model.TDGraph` with 3-D numpy labels
and the paper's binary heap (:class:`repro.pq.AddressableHeap`), one
line per step of the description.

It is the only whole-day multi-criteria search
(:func:`repro.core.multicriteria.mc_profile_search` is this function),
and nothing served runs it: a request names its departure and gets the
fixed-departure search instead.  Its callers are offline — the
:mod:`repro.query.min_transfers` scans, ``examples/min_transfers.py``,
``benchmarks/bench_ext_multicriteria.py`` — and the tests, which pin it
against the layered-Dijkstra baseline at every departure anchor
(``tests/core/test_mc_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.functions.piecewise import INF_TIME
from repro.functions.reduction import reduction_mask
from repro.pq import AddressableHeap

if TYPE_CHECKING:
    from repro.graph.td_model import TDGraph

__all__ = ["McProfileResult", "McSPCSStats", "mc_reference_search"]


@dataclass(slots=True)
class McSPCSStats:
    settled: int = 0
    pruned: int = 0
    queue_pushes: int = 0


@dataclass(slots=True)
class McProfileResult:
    """Labels of a multi-criteria one-to-all profile search.

    ``labels[u, i, k]`` — earliest arrival at node ``u`` starting with
    the ``i``-th outgoing connection and using at most ``k`` transfers
    (``INF_TIME`` if impossible or pruned as dominated).  Per-station
    **Pareto profiles** are read off by reducing each transfer layer
    and stacking the fronts.
    """

    source: int
    conn_deps: np.ndarray
    max_transfers: int
    labels: np.ndarray
    stats: McSPCSStats
    period: int

    def arrival(self, station: int, tau: int, max_transfers: int) -> int:
        """Earliest arrival at ``station`` departing at/after ``tau``
        with at most ``max_transfers`` transfers."""
        k = min(max_transfers, self.max_transfers)
        deps = self.conn_deps
        if deps.size == 0:
            return INF_TIME
        layer = np.minimum.accumulate(
            self.labels[station, :, k][::-1]
        )[::-1]  # suffix minima: best arrival over anchors ≥ index
        tau_mod = tau % self.period
        base = tau - tau_mod
        idx = int(np.searchsorted(deps, tau_mod, side="left"))
        tomorrow = self.period + int(layer[0]) if layer[0] < INF_TIME else INF_TIME
        today = int(layer[idx]) if idx < deps.size else INF_TIME
        best = min(today, tomorrow)
        return base + best if best < INF_TIME else INF_TIME

    def pareto_front(self, station: int, tau: int) -> list[tuple[int, int]]:
        """Non-dominated (transfers, arrival) pairs for departing at or
        after ``tau``."""
        front: list[tuple[int, int]] = []
        best = INF_TIME
        for k in range(self.max_transfers + 1):
            arrival = self.arrival(station, tau, k)
            if arrival < best:
                front.append((k, arrival))
                best = arrival
        return front

    def profile_points(
        self, station: int, max_transfers: int
    ) -> list[tuple[int, int]]:
        """Reduced connection points of ``dist_{≤k}(S, station, ·)``."""
        k = min(max_transfers, self.max_transfers)
        arrivals = self.labels[station, :, k]
        mask = reduction_mask(arrivals)
        return [
            (int(dep), int(arr - dep))
            for dep, arr, keep in zip(self.conn_deps, arrivals, mask)
            if keep
        ]


def mc_reference_search(
    graph: TDGraph,
    source: int,
    *,
    max_transfers: int = 5,
    self_pruning: bool = True,
    queue: str = "binary",
) -> McProfileResult:
    """Multi-criteria one-to-all profile search from ``source`` on the
    object graph (see module doc).  ``queue`` is accepted for callers
    that still name one, and must be ``"binary"``."""
    if queue != "binary":
        raise ValueError(
            f"unknown queue {queue!r}; the only queue is 'binary'"
        )
    if not graph.is_station_node(source):
        raise ValueError(f"source must be a station node, got {source}")
    if max_transfers < 0:
        raise ValueError(f"max_transfers must be ≥ 0, got {max_transfers}")

    timetable = graph.timetable
    conns = timetable.outgoing_connections(source)
    num_conns = len(conns)
    layers = max_transfers + 1
    num_nodes = graph.num_nodes
    conn_deps = np.asarray([c.dep_time for c in conns], dtype=np.int64)

    labels = np.full((num_nodes, num_conns, layers), INF_TIME, dtype=np.int64)
    stats = McSPCSStats()
    result = McProfileResult(
        source=source,
        conn_deps=conn_deps,
        max_transfers=max_transfers,
        labels=labels,
        stats=stats,
        period=timetable.period,
    )
    if num_conns == 0:
        return result

    # maxconn[v, k]: highest connection index settled at v with ≤ k
    # transfers (running maximum over layers is maintained on settle).
    maxconn = np.full((num_nodes, layers), -1, dtype=np.int64)
    settled = np.zeros((num_nodes, num_conns, layers), dtype=bool)
    is_station = [graph.is_station_node(u) for u in range(num_nodes)]
    adjacency = graph.adjacency
    pq = AddressableHeap()

    def encode(node: int, i: int, k: int) -> int:
        return (node * num_conns + i) * layers + k

    for i, c in enumerate(conns):
        node = graph.source_route_node(c)
        if c.dep_time < labels[node, i, 0]:
            labels[node, i, 0] = c.dep_time
            pq.push(encode(node, i, 0), c.dep_time)
            stats.queue_pushes += 1

    while pq:
        item, key = pq.pop()
        rest, k = divmod(item, layers)
        node, i = divmod(rest, num_conns)
        if settled[node, i, k] or key > labels[node, i, k]:
            continue
        settled[node, i, k] = True
        stats.settled += 1

        if self_pruning and maxconn[node, k] >= i:
            # Dominated: a later (or the same) connection reached this
            # node no later using no more transfers.
            stats.pruned += 1
            labels[node, i, k] = INF_TIME
            continue
        if self_pruning:
            # This settle dominates every higher transfer budget too.
            np.maximum(maxconn[node, k:], i, out=maxconn[node, k:])
        labels[node, i, k] = key

        boarding_from_station = is_station[node]
        for edge in adjacency[node]:
            k_next = k + 1 if (edge.ttf is None and boarding_from_station) else k
            if k_next >= layers:
                continue
            t_next = edge.arrival(key)
            head = edge.target
            if t_next < labels[head, i, k_next] and not settled[head, i, k_next]:
                labels[head, i, k_next] = t_next
                if pq.push(encode(head, i, k_next), t_next):
                    stats.queue_pushes += 1

    # Fill upward: an arrival achieved with k transfers is achievable
    # with any larger budget (query convenience; dominance-pruned INF
    # entries inherit the better lower-layer value).
    np.minimum.accumulate(labels, axis=2, out=labels)
    return result


#: The name :mod:`repro.core.multicriteria` exports this search under.
mc_profile_search = mc_reference_search
