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
``multicriteria`` and ``min_transfers`` shapes run it; its oracle is
:func:`repro.baselines.mc_time_query.mc_time_query`, whose result type
(:class:`McTimeQueryResult`) it shares.  Both record with every label
the label it was relaxed from, so :meth:`McTimeQueryResult.path_to`
reads off the journey behind any (station, k) arrival — as RAPTOR reads
a journey off the round that found it (Delling, Pajor & Werneck,
ALENEX 2012) — and a served answer takes its legs from the search it
already ran.
"""

from __future__ import annotations

from bisect import bisect_left
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
#: self_pruning, queue) -> McProfileResult``.
mc_profile_search = mc_reference_search


@dataclass(slots=True)
class McTimeQueryResult:
    """Earliest arrivals per (node, transfer budget) for one departure,
    and the labels they were relaxed from."""

    source: int
    departure: int
    max_transfers: int
    #: arrival[u][k] — earliest arrival at u with ≤ k transfers.
    arrival: list[list[int]]
    #: Queue extractions that were not stale (the work measure).
    settled: int
    #: parent[u * L + k] (L = max_transfers + 1): the label ``(v, j)``
    #: as ``v * L + j`` whose relaxation wrote ``arrival[u][k]``; ``-1``
    #: for the source's labels and for labels never written.
    parent: list[int]

    def arrival_at_station(self, station: int, max_transfers: int) -> int:
        k = min(max_transfers, self.max_transfers)
        return self.arrival[station][k]

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
        layers = self.max_transfers + 1
        k = min(max_transfers, self.max_transfers)
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
    max_transfers: int = 5,
) -> McTimeQueryResult:
    """Earliest arrival per (node, k ≤ ``max_transfers`` transfers) when
    leaving station ``source`` at ``departure``: the flat-array twin of
    :func:`~repro.baselines.mc_time_query.mc_time_query`, whose arrivals
    it equals for every input.

    ``departure`` is absolute (any day).  The first boarding at the
    source is free of transfer time and count, as in every search here.
    """
    if not arrays.is_station_node(source):
        raise ValueError(f"source must be a station node, got {source}")
    if max_transfers < 0:
        raise ValueError(f"max_transfers must be ≥ 0, got {max_transfers}")

    layers = max_transfers + 1
    num_stations = arrays.num_stations
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
        for head, weight, ttf in adjacency[node]:
            head_item = item + (head - node) * layers
            if ttf is None:
                if board:
                    if no_board:
                        continue
                    head_item += 1
                t_next = key + weight
            else:
                deps, durs, fifo, n = ttf
                tau = key % period
                idx = bisect_left(deps, tau)
                if fifo:
                    if idx < n:
                        t_next = key + deps[idx] - tau + durs[idx]
                    elif n:
                        t_next = key + period + deps[0] - tau + durs[0]
                    else:
                        continue  # zero-point function
                else:
                    best = INF
                    for j in range(idx, n):
                        wait = deps[j] - tau
                        if wait >= best:
                            break
                        total = wait + durs[j]
                        if total < best:
                            best = total
                    else:
                        for j in range(idx):
                            wait = period + deps[j] - tau
                            if wait >= best:
                                break
                            total = wait + durs[j]
                            if total < best:
                                best = total
                    if best >= INF:
                        continue
                    t_next = key + best
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
