"""Transfer-bounded time-query: ground truth for the multi-criteria
extension (paper §6, future work).

A time-dependent Dijkstra on the *layered* graph ``(node, transfers
used)``: boarding edges move one layer up, all other edges stay in
layer.  ``arrival[u][k]`` is the earliest arrival at ``u`` using at most
``k`` transfers, and every label keeps the label it was relaxed from,
so :meth:`~repro.core.multicriteria.McTimeQueryResult.path_to` walks
the journey behind it.  Exponential in nothing, just ``K+1`` layers —
used by tests to validate the multi-criteria SPCS Pareto fronts, as the
oracle of its flat twin :func:`repro.core.multicriteria.mc_time_search`,
and run by ``kernel="python"`` services for the departure-time shapes.
"""

from __future__ import annotations

from repro.core.multicriteria import McTimeQueryResult
from repro.functions.piecewise import INF_TIME
from repro.graph.td_model import TDGraph
from repro.pq import LazyHeap

__all__ = ["McTimeQueryResult", "mc_time_query"]


def mc_time_query(
    graph: TDGraph,
    source: int,
    departure: int,
    *,
    max_transfers: int = 5,
) -> McTimeQueryResult:
    """Run the layered transfer-bounded time-query."""
    if not graph.is_station_node(source):
        raise ValueError(f"source must be a station node, got {source}")
    if max_transfers < 0:
        raise ValueError(f"max_transfers must be ≥ 0, got {max_transfers}")

    layers = max_transfers + 1
    num_nodes = graph.num_nodes
    arrival = [[INF_TIME] * layers for _ in range(num_nodes)]
    # parent[u * layers + k]: the label (v, j), as v * layers + j, whose
    # relaxation last wrote arrival[u][k] (-1: the source, or never).
    parent = [-1] * (num_nodes * layers)
    adjacency = graph.adjacency
    pq = LazyHeap()
    settled = 0

    arrival[source] = [departure] * layers
    # Initial boarding is free of both transfer time and transfer count.
    for edge in adjacency[source]:
        for k in range(layers):
            arrival[edge.target][k] = departure
            parent[edge.target * layers + k] = source * layers + k
        pq.push((edge.target, 0), departure)

    while pq:
        (node, k), key = pq.pop()
        if key > arrival[node][k]:
            continue
        settled += 1
        for edge in adjacency[node]:
            t_next = edge.arrival(key)
            is_boarding = edge.ttf is None and graph.is_station_node(node)
            k_next = k + 1 if is_boarding else k
            if k_next >= layers:
                continue
            head = edge.target
            if t_next < arrival[head][k_next]:
                # A better arrival with k transfers improves every
                # budget ≥ k as well.
                for kk in range(k_next, layers):
                    if t_next < arrival[head][kk]:
                        arrival[head][kk] = t_next
                        parent[head * layers + kk] = node * layers + k
                pq.push((head, k_next), t_next)

    return McTimeQueryResult(
        source=source,
        departure=departure,
        max_transfers=max_transfers,
        arrival=arrival,
        settled=settled,
        parent=parent,
    )
