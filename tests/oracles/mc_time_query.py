"""The fixed-departure oracle: time-dependent Dijkstra from station
``S`` at time ``τ`` (paper §2), layered by transfer count (§6).

A Dijkstra on the *layered* graph ``(node, transfers used)``: boarding
edges move one layer up, all other edges stay in layer.
``arrival[u][k]`` is the earliest arrival at ``u`` using at most ``k``
transfers, and every label keeps the label it was relaxed from, so
:meth:`~repro.core.multicriteria.McTimeQueryResult.path_to` walks the
journey behind it.  ``K+1`` layers for a budget ``K``; with
``max_transfers=None`` one layer that boarding edges stay in — the
single-criterion §2 time query, whose ``arrival[u][0]`` is
``dist(S, u, τ)``.

The ground truth that the profile searches are checked against at
every departure anchor, that validates the multi-criteria Pareto
fronts, and that the flat twin
:func:`repro.core.multicriteria.mc_time_search` must equal; the
:class:`~tests.oracles.reference_service.ReferenceService` runs it for
every departure-time shape.  Departure semantics match SPCS: the
journey starts at ``S`` at ``τ`` and may board any connection
departing at or after ``τ`` without paying the transfer time ``T(S)``
at the source.
"""

from __future__ import annotations

from repro.core.multicriteria import McTimeQueryResult
from repro.functions.piecewise import INF_TIME
from repro.graph.td_model import TDGraph
from repro.pq import LazyHeap

__all__ = ["McTimeQueryResult", "brute_force_arrivals", "mc_time_query"]


def mc_time_query(
    graph: TDGraph,
    source: int,
    departure: int,
    *,
    max_transfers: int | None = 5,
) -> McTimeQueryResult:
    """Run the layered transfer-bounded time-query; with
    ``max_transfers=None``, the unbounded one in a single layer."""
    if not graph.is_station_node(source):
        raise ValueError(f"source must be a station node, got {source}")
    if max_transfers is not None and max_transfers < 0:
        raise ValueError(f"max_transfers must be ≥ 0, got {max_transfers}")

    bounded = max_transfers is not None
    layers = max_transfers + 1 if bounded else 1
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
            is_boarding = (
                bounded and edge.ttf is None and graph.is_station_node(node)
            )
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


def brute_force_arrivals(
    graph: TDGraph, source: int, times: list[int]
) -> dict[int, list[int]]:
    """Earliest arrivals per departure time: one unbounded
    :func:`mc_time_query` per time.  Returns ``{station: [arrival per
    time]}``.  O(|times|) Dijkstra runs — only for small test networks.
    """
    arrivals: dict[int, list[int]] = {
        station: [] for station in range(graph.num_stations)
    }
    for tau in times:
        result = mc_time_query(graph, source, tau, max_transfers=None)
        for station in range(graph.num_stations):
            arrivals[station].append(result.arrival_at_station(station, 0))
    return arrivals
