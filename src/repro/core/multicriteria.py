"""Multi-criteria search: arrival time + number of transfers (paper §6).

The paper's future-work challenge: *"incorporate multi-criteria
connections, e. g., minimizing the number of transfers.  The main
challenge here is to keep up the connection-setting property and to
find efficient criteria for self-pruning."*

This module answers it for the (arrival time, #transfers) criterion
pair by layering the search with a transfer count: boarding edges
(station → route node) increment ``k``; the first boarding at the
source is free, matching the single-criterion seeding.  Two searches
are layered that way.

:func:`mc_profile_search` covers the whole day, and is
:func:`repro.core.mc_reference.mc_reference_search` — the one
implementation, written for reading over the object graph:

* a queue item is ``(node, connection i, transfers k)``, keyed by
  arrival time — **connection-setting extends**: each triple settles at
  most once;
* **self-pruning extends**: let ``maxconn(v, k)`` be the highest
  connection index settled at ``v`` with at most ``k`` transfers.  A
  settle of ``(v, i, k)`` is pruned iff ``maxconn(v, k) ≥ i`` —
  strictly greater means a later-departing connection reached ``v`` no
  later with no more transfers (the paper's Theorem 1 argument, per
  layer); equality means the *same* connection already reached ``v``
  with fewer transfers and no later arrival (transfer-dominance).

A request that names its departure needs one column of that, not the
day: :func:`mc_time_search` is the paper's §2 time query at one
departure, layered by transfer count — one label per (node, k), a few
hundred settled items where the whole-day search settles tens of
thousands (``docs/KERNEL.md``, "Multi-criteria searches").  The served
``multicriteria`` and ``min_transfers`` shapes run it; its oracle,
the tests' layered Dijkstra over the object graph, shares its result
type (:class:`McTimeQueryResult`).  Both record with every label
the label it was relaxed from, so :meth:`McTimeQueryResult.path_to`
reads off the journey behind any (station, k) arrival — as RAPTOR reads
a journey off the round that found it (Delling, Pajor & Werneck,
ALENEX 2012) — and a served answer takes its legs from the search it
already ran.  With ``max_transfers=None`` either search has one layer
that boarding edges stay in: the single-criterion §2 time query, which
the dated ``journey`` and both hops of ``via`` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from repro.core.mc_reference import (
    McProfileResult,
    McSPCSStats,
    mc_reference_search,
)
from repro.functions.piecewise import INF_TIME
from repro.graph.td_arrays import TDGraphArrays

__all__ = [
    "McProfileResult",
    "McSPCSStats",
    "McTimeQueryResult",
    "mc_profile_search",
    "mc_time_search",
]

#: The whole-day search: ``(graph, source, *, max_transfers,
#: self_pruning) -> McProfileResult``.
mc_profile_search = mc_reference_search


@dataclass(slots=True)
class McTimeQueryResult:
    """Earliest arrivals per (node, transfer budget) for one departure,
    and the labels they were relaxed from."""

    source: int
    departure: int
    #: The transfer budget; ``None``: unbounded, one layer (k = 0 holds
    #: the earliest arrival whatever the transfers).
    max_transfers: int | None
    #: arrival[u][k] — earliest arrival at u with ≤ k transfers.
    arrival: list[list[int]]
    #: Queue extractions that were not stale (the work measure).
    settled: int
    #: parent[u * L + k] (L layers): the label ``(v, j)`` as ``v * L +
    #: j`` whose relaxation wrote ``arrival[u][k]``; ``-1`` for the
    #: source's labels and for labels never written.
    parent: list[int]

    @property
    def top_layer(self) -> int:
        """The highest layer: the budget, 0 for an unbounded search."""
        return 0 if self.max_transfers is None else self.max_transfers

    def arrival_at_station(self, station: int, max_transfers: int) -> int:
        return self.arrival[station][min(max_transfers, self.top_layer)]

    def pareto_front(self, station: int) -> list[tuple[int, int]]:
        """Non-dominated (transfers, arrival) pairs at a station."""
        front: list[tuple[int, int]] = []
        best = INF_TIME
        for k in range(self.max_transfers + 1):
            arrival = self.arrival[station][k]
            if arrival < best:
                front.append((k, arrival))
                best = arrival
        return front

    def path_to(self, node: int, max_transfers: int) -> list[tuple[int, int]]:
        """The journey behind ``arrival[node][k]`` (``k`` clamped to the
        search's budget) as ``(node, arrival)`` pairs, from ``(source,
        departure)`` on: the chain of parent labels.  Raises if ``node``
        is unreachable with that many transfers."""
        layers = self.top_layer + 1
        k = min(max_transfers, self.top_layer)
        if self.arrival[node][k] >= INF_TIME:
            raise ValueError(f"node {node} is unreachable with ≤ {k} transfers")
        path = []
        item = node * layers + k
        while item >= 0:
            u, k = divmod(item, layers)
            path.append((u, self.arrival[u][k]))
            item = self.parent[item]
        path.reverse()
        return path


def mc_time_search(
    arrays: TDGraphArrays,
    source: int,
    departure: int,
    *,
    max_transfers: int | None = 5,
) -> McTimeQueryResult:
    """Earliest arrival per (node, k ≤ ``max_transfers`` transfers) when
    leaving station ``source`` at ``departure``: the flat-array twin of
    the tests' layered Dijkstra (``tests/oracles/mc_time_query.py``),
    whose arrivals it equals for every input.  ``max_transfers=None``
    is one layer and no bound: the earliest arrival per node.

    ``departure`` is absolute (any day).  The first boarding at the
    source is free of transfer time and count, as in every search here.
    A route edge is relaxed with one index into its function's row of
    the pack's mirror (:meth:`TDGraphArrays.kernel_adjacency`).
    """
    if not arrays.is_station_node(source):
        raise ValueError(f"source must be a station node, got {source}")
    if max_transfers is not None and max_transfers < 0:
        raise ValueError(f"max_transfers must be ≥ 0, got {max_transfers}")

    layers = 1 if max_transfers is None else max_transfers + 1
    # Boarding edges leave the station nodes, ids below num_stations;
    # unbounded, they stay in the one layer like every other edge.
    num_stations = 0 if max_transfers is None else arrays.num_stations
    period = arrays.period
    size = arrays.num_nodes * layers
    INF = INF_TIME
    adjacency = arrays.kernel_adjacency()

    # labels[u * L + k]: earliest arrival at u with ≤ k transfers —
    # non-increasing in k, because every write fills the budgets above
    # it (which is why the fill below may stop at the first label it
    # does not improve).  parent[] is written wherever labels[] is.
    # Heap entries are the one int ``key * size + item``.
    labels = [INF] * size
    parent = [-1] * size
    seed = [departure] * layers
    labels[source * layers : (source + 1) * layers] = seed
    origin = range(source * layers, (source + 1) * layers)
    heap: list[int] = []
    for head, _, _ in adjacency[source]:
        item = head * layers
        if labels[item] > departure:  # once, however many edges lead there
            labels[item : item + layers] = seed
            parent[item : item + layers] = origin
            heap.append(departure * size + item)
    heapify(heap)

    settled = 0
    while heap:
        entry = heappop(heap)
        key = entry // size
        item = entry - key * size
        if key > labels[item]:
            continue  # stale: improved since, here or from a lower layer
        settled += 1
        node = item // layers
        # Boarding edges (constant edges out of a station node) use up
        # one transfer; at the top layer there is none left.
        board = node < num_stations
        no_board = board and item - node * layers == max_transfers
        for head, weight, row in adjacency[node]:
            head_item = item + (head - node) * layers
            if row is None:
                if board:
                    if no_board:
                        continue
                    head_item += 1
                t_next = key + weight
            else:
                # One index: a function without points holds INF_TIME,
                # which improves no label.
                t_next = key + row[key % period]
            if t_next < labels[head_item]:
                labels[head_item] = t_next
                parent[head_item] = item
                heappush(heap, t_next * size + head_item)
                # What k transfers reach, any larger budget reaches.
                top = head_item - head_item % layers + layers
                head_item += 1
                while head_item < top and t_next < labels[head_item]:
                    labels[head_item] = t_next
                    parent[head_item] = item
                    head_item += 1

    return McTimeQueryResult(
        source=source,
        departure=departure,
        max_transfers=max_transfers,
        arrival=[labels[u : u + layers] for u in range(0, size, layers)],
        settled=settled,
        parent=parent,
    )
