"""Readable reference for the multi-criteria SPCS (paper §6).

The algorithm of :mod:`repro.core.multicriteria` — queue items
``(node, connection i, transfers k)`` keyed by arrival, boarding edges
stepping the layer, the layered ``maxconn(v, k) ≥ i`` self-pruning rule
— written over the object :class:`~repro.graph.td_model.TDGraph` with
3-D numpy labels and a :mod:`repro.pq` addressable heap, one line per
step of the description.  It is the oracle the flat kernel is pinned
against (``tests/core/test_mc_kernel_equivalence.py``); whole-day
searches go through :func:`repro.core.multicriteria.mc_kernel_search`.
"""

from __future__ import annotations

import numpy as np

from repro.core.multicriteria import McProfileResult, McSPCSStats
from repro.functions.piecewise import INF_TIME
from repro.graph.td_model import TDGraph
from repro.pq import QUEUE_FACTORIES

__all__ = ["mc_reference_search"]


def mc_reference_search(
    graph: TDGraph,
    source: int,
    *,
    max_transfers: int = 5,
    self_pruning: bool = True,
    queue: str = "binary",
) -> McProfileResult:
    """Multi-criteria one-to-all profile search from ``source`` on the
    object graph (reference implementation; see module doc)."""
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
    pq = QUEUE_FACTORIES[queue]()

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
