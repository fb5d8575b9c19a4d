"""Multi-criteria SPCS: arrival time + number of transfers (paper §6).

The paper's future-work challenge: *"incorporate multi-criteria
connections, e. g., minimizing the number of transfers.  The main
challenge here is to keep up the connection-setting property and to
find efficient criteria for self-pruning."*

This module answers it for the (arrival time, #transfers) criterion
pair by layering the connection index with a transfer count:

* a queue item is ``(node, connection i, transfers k)``, keyed by
  arrival time — **connection-setting extends**: each triple settles at
  most once;
* boarding edges (station → route node) increment ``k``; the first
  boarding at the source is free, matching the single-criterion
  seeding;
* **self-pruning extends**: let ``maxconn(v, k)`` be the highest
  connection index settled at ``v`` with at most ``k`` transfers.  A
  settle of ``(v, i, k)`` is pruned iff ``maxconn(v, k) ≥ i`` —
  strictly greater means a later-departing connection reached ``v`` no
  later with no more transfers (the paper's Theorem 1 argument, per
  layer); equality means the *same* connection already reached ``v``
  with fewer transfers and no later arrival (transfer-dominance).

The result stores, per (node, connection, transfer budget), the final
arrival; per-station **Pareto profiles** are read off by reducing each
transfer layer and stacking the fronts.

A request that names its departure needs one column of that, not the
day: :func:`mc_time_search` is the paper's §2 time query at one
departure, layered by transfer count — one label per (node, k), the
same loop engineering, a few hundred settled items where the profile
search settles tens of thousands (``docs/KERNEL.md``, "Fixed-departure
searches").  The served ``multicriteria`` and ``min_transfers`` shapes
run it; its oracle is :func:`repro.baselines.mc_time_query.mc_time_query`,
whose result type (:class:`McTimeQueryResult`) it shares.

Two implementations share the profile result type.  :func:`mc_kernel_search`
is the production kernel, engineered like
:mod:`repro.core.spcs_kernel`: it reads a packed
:class:`~repro.graph.td_arrays.TDGraphArrays`, keeps labels, settled
flags and ``maxconn`` in flat vectors, inlines travel-time evaluation
and uses :mod:`heapq` with lazy deletion.
:func:`repro.core.mc_reference.mc_reference_search` is the same
algorithm written for reading, over the object graph, and is the test
oracle.

Equivalence contract: for every input the kernel's reduced profiles
(:meth:`McProfileResult.profile_points`), earliest arrivals
(:meth:`~McProfileResult.arrival`, every budget) and Pareto fronts
equal the reference's and the layered time-query baseline's
(:mod:`repro.baselines.mc_time_query`).  Raw ``labels`` may differ on
exact arrival ties: which of two equal-arrival items settles first —
and so which one self-prunes the other — depends on the queue's
tie-break, and reduction collapses either outcome to the same profile.
``tests/core/test_mc_kernel_equivalence.py`` enforces the contract on
generated adversarial timetables and pins a minimal tie case.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from repro.functions.piecewise import INF_TIME
from repro.functions.reduction import reduction_mask
from repro.graph.td_arrays import TDGraphArrays, packed_arrays
from repro.graph.td_model import TDGraph

__all__ = [
    "McProfileResult",
    "McSPCSStats",
    "McTimeQueryResult",
    "mc_kernel_search",
    "mc_profile_search",
    "mc_time_search",
]


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
    (``INF_TIME`` if impossible or pruned as dominated).
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


@dataclass(slots=True)
class McTimeQueryResult:
    """Earliest arrivals per (node, transfer budget) for one departure."""

    source: int
    departure: int
    max_transfers: int
    #: arrival[u][k] — earliest arrival at u with ≤ k transfers.
    arrival: list[list[int]]
    #: Queue extractions that were not stale (the work measure).
    settled: int

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


def mc_profile_search(
    graph: TDGraph,
    source: int,
    *,
    max_transfers: int = 5,
    self_pruning: bool = True,
    queue: str = "binary",
) -> McProfileResult:
    """Multi-criteria one-to-all profile search from ``source``: the
    production kernel over ``graph``'s own pack (:func:`packed_arrays`).

    ``queue`` is accepted so callers written against the reference's
    signature keep working; the kernel always uses the lazy C heap.
    """
    del queue
    return mc_kernel_search(
        packed_arrays(graph),
        source,
        max_transfers=max_transfers,
        self_pruning=self_pruning,
    )


def mc_kernel_search(
    arrays: TDGraphArrays,
    source: int,
    *,
    max_transfers: int = 5,
    self_pruning: bool = True,
) -> McProfileResult:
    """Run the flat-array multi-criteria search from station ``source``.

    ``arrays`` is produced by :func:`~repro.graph.td_arrays.pack_td_graph`.
    Contract (module doc): reduced profiles, arrivals and Pareto fronts
    are identical to :func:`~repro.core.mc_reference.mc_reference_search`
    for every input; raw ``labels`` may differ on exact arrival ties.
    """
    if not arrays.is_station_node(source):
        raise ValueError(f"source must be a station node, got {source}")
    if max_transfers < 0:
        raise ValueError(f"max_transfers must be ≥ 0, got {max_transfers}")

    dep_view, start_view = arrays.source_connection_arrays(source)
    conn_deps = np.array(dep_view, dtype=np.int64)
    num_conns = int(conn_deps.size)
    layers = max_transfers + 1
    num_nodes = arrays.num_nodes
    num_stations = arrays.num_stations
    period = arrays.period
    per_node = num_conns * layers
    size = num_nodes * per_node
    INF = INF_TIME

    # One label per (node, connection, layer) at
    # ``(node * C + (C - 1 - i)) * L + k`` — the connection axis is
    # stored reversed so that item order is pop order (see the heap
    # below); ``result.labels`` un-reverses it with a negative stride.
    #
    # The store is an ``array('q')`` buffer that numpy views zero-copy,
    # not a Python list as in spcs_kernel: N·C·L boxed ints peak at ~3x
    # the bytes (tracemalloc, germany/medium: 4.5 vs 1.5 MB per search)
    # and the result stays alive in the service's cache.  With two
    # searches in flight a list-backed prototype raised e2ebench
    # zoo_session ``rss_mb`` 99.7 → 134.0 (bound: 15 %); the buffer
    # costs what the reference's numpy labels cost, at the same speed.
    labels = array("q", [INF]) * size
    view = np.frombuffer(labels, dtype=np.int64).reshape(
        num_nodes, num_conns, layers
    )[:, ::-1, :]
    stats = McSPCSStats()
    result = McProfileResult(
        source=source,
        conn_deps=conn_deps,
        max_transfers=max_transfers,
        labels=view,
        stats=stats,
        period=period,
    )
    if num_conns == 0:
        return result

    settled = bytearray(size)
    # maxconn[v * L + k]: highest connection index settled at v with
    # ≤ k transfers; non-decreasing in k by construction.
    maxconn = [-1] * (num_nodes * layers)
    adjacency = arrays.kernel_adjacency()
    last = num_conns - 1

    # Heap entries are the single int ``key * size + item``, so heapq
    # compares ints instead of tuples and equal keys pop in ascending
    # item order: at one node the *later* connection first, then the
    # *smaller* transfer count.  That order is what makes the layered
    # self-pruning fire on ties — the later, cheaper item settles and
    # raises maxconn before the item it dominates pops.  Popping in
    # ascending (i, k) instead lets the dominated item relax its edges
    # first: on germany/medium sources that settled 15–69 k items per
    # search where the reference settles 13–20 k; this order settles
    # fewer than the reference (12–18 k).
    # ``tests/core/test_mc_kernel_equivalence.py`` guards both findings.
    heap: list[int] = []
    settled_n = pruned = pushes = 0

    for i, (dep, node) in enumerate(zip(conn_deps.tolist(), start_view.tolist())):
        item = (node * num_conns + last - i) * layers
        if dep < labels[item]:
            labels[item] = dep
            heappush(heap, dep * size + item)
            pushes += 1

    while heap:
        entry = heappop(heap)
        key = entry // size
        item = entry - key * size
        if settled[item] or key > labels[item]:
            continue  # stale lazy-heap entry
        settled[item] = 1
        settled_n += 1
        node = item // per_node
        rest = item - node * per_node
        rev = rest // layers
        k = rest - rev * layers

        if self_pruning:
            i = last - rev
            m = node * layers + k
            if maxconn[m] >= i:
                # Dominated: a later (or the same) connection reached
                # this node no later using no more transfers.
                pruned += 1
                labels[item] = INF
                continue
            # This settle dominates every higher transfer budget too.
            for j in range(m, m - k + layers):
                if maxconn[j] >= i:
                    break
                maxconn[j] = i

        # Boarding edges (constant edges out of a station node) use up
        # one transfer; at the top layer there is none left.
        board = 1 if node < num_stations else 0
        no_board = board and k == max_transfers
        for head, weight, ttf in adjacency[node]:
            head_item = item + (head - node) * per_node
            if ttf is None:
                if no_board:
                    continue
                head_item += board
                t_next = key + weight
            else:
                deps, durs, fifo, n = ttf
                tau = key % period
                idx = bisect_left(deps, tau)
                if fifo:
                    # Next departure is optimal (arrivals non-decreasing).
                    if idx < n:
                        t_next = key + deps[idx] - tau + durs[idx]
                    elif n:
                        t_next = key + period + deps[0] - tau + durs[0]
                    else:
                        t_next = INF  # zero-point function
                else:
                    # Cyclic two-pass scan, cf. TravelTimeFunction.arrival.
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
                    t_next = key + best if best < INF else INF
            if t_next < labels[head_item] and not settled[head_item]:
                labels[head_item] = t_next
                heappush(heap, t_next * size + head_item)
                pushes += 1

    stats.settled = settled_n
    stats.pruned = pruned
    stats.queue_pushes = pushes

    # Fill upward: an arrival achieved with k transfers is achievable
    # with any larger budget (query convenience; dominance-pruned INF
    # entries inherit the better lower-layer value).  One strided pass
    # per layer: ``np.minimum.accumulate`` over an axis this short is
    # ~3x slower.
    for k in range(1, layers):
        np.minimum(view[:, :, k], view[:, :, k - 1], out=view[:, :, k])
    return result


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
    # does not improve).  Heap entries are the one int
    # ``key * size + item``.
    labels = [INF] * size
    seed = [departure] * layers
    labels[source * layers : (source + 1) * layers] = seed
    heap: list[int] = []
    for head, _, _ in adjacency[source]:
        item = head * layers
        if labels[item] > departure:  # once, however many edges lead there
            labels[item : item + layers] = seed
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
                heappush(heap, t_next * size + head_item)
                # What k transfers reach, any larger budget reaches.
                top = head_item - head_item % layers + layers
                head_item += 1
                while head_item < top and t_next < labels[head_item]:
                    labels[head_item] = t_next
                    head_item += 1

    return McTimeQueryResult(
        source=source,
        departure=departure,
        max_transfers=max_transfers,
        arrival=[labels[u : u + layers] for u in range(0, size, layers)],
        settled=settled,
    )
