"""Time-query: time-dependent Dijkstra (paper §2).

Computes ``dist(S, ·, τ)`` — earliest arrivals at every node for one
fixed departure time — with the classic label-setting property.  Keys
are absolute arrival times.

Used (a) as the ground truth profile searches are verified against at
every departure anchor, and (b) as the degenerate endpoint of the
parallelization argument (§3.2: with one thread per connection, SPCS
becomes |conn(S)| independent time-queries).  No served shape runs it:
their dated answers and legs come from the transfer-layered time query
(:func:`repro.core.multicriteria.mc_time_search`).

Departure semantics match SPCS: the journey starts at station ``S`` at
time ``τ`` and may board any connection departing at or after ``τ``
without paying the transfer time ``T(S)`` at the source.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.functions.piecewise import INF_TIME
from repro.graph.td_model import TDGraph
from repro.pq import AddressableHeap


@dataclass(slots=True)
class TimeQueryResult:
    """Outcome of a one-to-all time-query.

    ``arrival[u]`` is the earliest absolute arrival at node ``u``
    (``INF_TIME`` when unreachable); ``settled`` counts queue
    extractions (the paper's work measure).
    """

    source: int
    departure: int
    arrival: list[int]
    settled: int

    def arrival_at_station(self, station: int) -> int:
        """Earliest arrival at a station node."""
        return self.arrival[station]

    def travel_time(self, station: int) -> int:
        arrival = self.arrival[station]
        return arrival - self.departure if arrival < INF_TIME else INF_TIME


def time_query(
    graph: TDGraph,
    source: int,
    departure: int,
    *,
    target: int | None = None,
) -> TimeQueryResult:
    """Run a time-query from station ``source`` at time ``departure``.

    ``target``: optional station for early termination (stop once the
    target station node is settled).  The queue is the paper's binary
    heap (:class:`repro.pq.AddressableHeap`).
    """
    if not graph.is_station_node(source):
        raise ValueError(f"source must be a station node, got {source}")
    if target is not None and not graph.is_station_node(target):
        raise ValueError(f"target must be a station node, got {target}")

    arrival = [INF_TIME] * graph.num_nodes
    adjacency = graph.adjacency
    pq = AddressableHeap()
    settled = 0

    # Seed: we are physically at the source at `departure`; boarding the
    # first train costs no transfer time, so seed the departing route
    # nodes directly (mirrors SPCS seeding, §3.1).
    arrival[source] = departure
    for edge in adjacency[source]:
        # Source boarding edges lead to route nodes; skip the T(S) cost.
        pq.push(edge.target, departure)

    while pq:
        node, key = pq.pop()
        if key >= arrival[node]:
            continue  # already settled
        arrival[node] = key
        settled += 1
        if target is not None and node == target:
            break
        for edge in adjacency[node]:
            t_next = edge.arrival(key)
            if t_next < arrival[edge.target]:
                pq.push(edge.target, t_next)

    return TimeQueryResult(
        source=source,
        departure=departure,
        arrival=arrival,
        settled=settled,
    )
