"""Flat-array SPCS kernel (paper §3.1/§4, HPC form).

Same algorithm as :func:`repro.core.spcs.spcs_profile_search` — one
queue item per (node, connection) pair, connection-setting,
self-pruning, the stopping criterion and the §4 distance-table rules —
but engineered for interpreter throughput instead of readability:

* the graph is a :class:`~repro.graph.td_arrays.TDGraphArrays` pack;
  adjacency, travel-time functions and labels live in flat arrays and
  Python-list mirrors, never in per-edge/per-label objects;
* labels, settled flags and ancestry bits are preallocated flat
  vectors indexed by ``node * num_local + k`` — no tuple construction
  or 2-D numpy scalar indexing in the loop;
* the queue is C-implemented :mod:`heapq` over single-int entries with
  lazy deletion (stale entries are skipped when their key exceeds the
  current label);
* travel-time evaluation is inlined: FIFO legs take the
  next-departure fast path, non-FIFO legs fall back to the cyclic
  two-pass scan of :meth:`TravelTimeFunction.arrival`;
* Theorems 3 and 4 are inlined too.  The reference kernel asks a
  :class:`~repro.core.spcs.SettlePruner` hook once per settle; this
  loop reads the *same* per-query state object
  (:class:`~repro.query.table_query.DistanceTablePruner`) as flat data
  and evaluates the table profiles with ``bisect`` on their list
  mirrors, so a search makes no Python call per settle.  The hook is
  the readable statement of the rules and the oracle for this loop
  (``tests/query/test_table_kernel_equivalence.py``).

Equivalence contract: for every input the kernel produces the same
reduced profiles (and therefore the same earliest arrivals) as the
object-graph SPCS.  Raw labels may differ on exact arrival-time ties —
the two queues break ties differently, and which of two equal-arrival
connections self-prunes the other is order-dependent — but reduction
collapses both variants to the identical profile.
``tests/core/test_kernel_equivalence.py`` enforces this against the
pure-Python SPCS and the label-correcting oracle on randomized
instances; the pure-Python path stays as the reference implementation.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.spcs import SPCSResult, SPCSStats, spcs_profile_search
from repro.functions.piecewise import INF_TIME
from repro.graph.td_arrays import TDGraphArrays
from repro.graph.td_model import TDGraph

if TYPE_CHECKING:
    from repro.query.table_query import DistanceTablePruner


def run_spcs_search(
    graph: TDGraph,
    arrays: TDGraphArrays | None,
    source: int,
    *,
    connection_subset: Sequence[int] | None = None,
    self_pruning: bool = True,
    target: int | None = None,
    pruner: "DistanceTablePruner | None" = None,
    queue: str = "binary",
) -> SPCSResult:
    """Dispatch one SPCS run: flat kernel when ``arrays`` is given,
    otherwise the reference implementation (``queue`` applies only
    there).  The single dispatch point shared by the parallel driver,
    its fork workers and the station-to-station engine.

    ``pruner`` is the query's §4 state.  The reference kernel drives it
    as a settle hook and tracks ancestry over its station mask; the
    flat kernel reads the same state as flat data."""
    if arrays is not None:
        return spcs_kernel_search(
            arrays,
            source,
            connection_subset=connection_subset,
            self_pruning=self_pruning,
            target=target,
            table=pruner,
        )
    return spcs_profile_search(
        graph,
        source,
        connection_subset=connection_subset,
        self_pruning=self_pruning,
        target=target,
        pruner=pruner,
        transfer_stations=None if pruner is None else pruner.ancestry_mask,
        queue=queue,
    )


def spcs_kernel_search(
    arrays: TDGraphArrays,
    source: int,
    *,
    connection_subset: Sequence[int] | None = None,
    self_pruning: bool = True,
    target: int | None = None,
    table: "DistanceTablePruner | None" = None,
) -> SPCSResult:
    """Run the flat-array SPCS from station ``source``.

    ``connection_subset``, ``self_pruning`` and ``target`` mean what
    they mean to :func:`~repro.core.spcs.spcs_profile_search`;
    ``arrays`` is produced by
    :func:`~repro.graph.td_arrays.pack_td_graph`.  ``table`` is the
    query's distance-table state
    (:class:`~repro.query.table_query.DistanceTablePruner`): the loop
    reads its fields and applies Theorems 3 and 4 itself, it never
    calls ``on_settle``.  Several runs over disjoint subsets may share
    one state — µ, γ and the final arrivals are per connection.
    """
    if not arrays.is_station_node(source):
        raise ValueError(f"source must be a station node, got {source}")
    if target is not None and not arrays.is_station_node(target):
        raise ValueError(f"target must be a station node, got {target}")

    conn_lo = int(arrays.conn_indptr[source])
    num_conns = int(arrays.conn_indptr[source + 1]) - conn_lo
    if connection_subset is None:
        subset = list(range(num_conns))
    else:
        subset = list(connection_subset)
        if any(subset[k] >= subset[k + 1] for k in range(len(subset) - 1)):
            raise ValueError("connection_subset must be strictly ascending")
        if subset and not (0 <= subset[0] and subset[-1] < num_conns):
            raise ValueError(f"connection_subset out of range [0, {num_conns})")

    num_local = len(subset)
    num_nodes = arrays.num_nodes
    period = arrays.period
    INF = INF_TIME
    size = num_nodes * num_local
    conn_indices = np.asarray(subset, dtype=np.int64)
    conn_deps = np.asarray(
        arrays.conn_dep[conn_lo + conn_indices], dtype=np.int64
    )
    stats = SPCSStats()
    if num_local == 0:
        return SPCSResult(
            source=source,
            conn_indices=conn_indices,
            conn_deps=conn_deps,
            labels=np.full((num_nodes, 0), INF, dtype=np.int64),
            stats=stats,
            period=period,
        )

    # One label per (node, local connection) at ``node * num_local + k``
    # in an ``array('q')`` buffer that ``result.labels`` views without a
    # copy: a one-to-all caller gets the matrix as it stands and a
    # station-to-station caller reads one row of it.
    labels = array("q", [INF]) * size
    result = SPCSResult(
        source=source,
        conn_indices=conn_indices,
        conn_deps=conn_deps,
        labels=np.frombuffer(labels, dtype=np.int64).reshape(
            num_nodes, num_local
        ),
        stats=stats,
        period=period,
    )

    settled = bytearray(size)
    maxconn = [-1] * num_nodes
    adjacency = arrays.kernel_adjacency()

    # Heap entries are the single int ``key * size + (top - item)``:
    # heapq compares ints instead of tuples, and on equal arrival keys
    # the *later* item (larger node, then larger local index) pops
    # first, so self-pruning can kill the earlier connection before it
    # relaxes its edges — with ascending tie-break Theorem 1 would never
    # fire on ties and the search visits measurably more pairs.
    top = size - 1
    heap: list[int] = []
    starts = arrays.conn_start[conn_lo + conn_indices].tolist()
    for k, (dep, node) in enumerate(zip(conn_deps.tolist(), starts)):
        item = node * num_local + k
        if dep < labels[item]:
            labels[item] = dep
            heappush(heap, dep * size + top - item)

    pruned_self = pruned_stop = pruned_table = stale = relaxed = 0

    # Stopping criterion state (Theorem 2), as in the reference.
    t_max = -1

    # §4 state.  Ancestry (every queue item of a connection has a
    # contributing transfer station behind it) is the validity condition
    # of γ, so it is tracked only when Theorem 4 is on.
    prune_via = stop_at_target = False
    if table is not None:
        contributes = table.contributes
        node_station = table.node_station
        transfer_time = table.transfer_time
        via_rows = table.via_rows
        target_rows = table.target_rows
        mu_of = table.mu
        gamma_of = table.gamma
        final_arrivals = table.final_arrivals
        table_target = table.target
        num_via = len(table.via)
        prune_via = num_via > 0
        stop_at_target = table.target_pruning
        mu_updates = stops = 0
    if stop_at_target:
        conn_stopped = bytearray(num_local)
        anc = bytearray(size)
        no_anc_in_queue = [1] * num_local

    while heap:
        entry = heappop(heap)
        key = entry // size
        item = top - entry % size
        if settled[item] or key > labels[item]:
            stale += 1  # lazy-heap leftover of an improved label
            continue
        settled[item] = 1
        node = item // num_local
        k = item % num_local
        g = subset[k]
        if stop_at_target:
            if not anc[item]:
                no_anc_in_queue[k] -= 1
            if conn_stopped[k]:
                pruned_stop += 1
                labels[item] = INF
                continue

        if target is not None and g <= t_max:
            pruned_stop += 1
            labels[item] = INF
            continue

        if self_pruning:
            if g <= maxconn[node]:
                pruned_self += 1
                labels[item] = INF
                continue
            maxconn[node] = g

        if node == target and g > t_max:
            t_max = g

        if table is not None and contributes[node]:
            # A settle at a transfer station other than the source:
            # the rules of ``DistanceTablePruner.on_settle``, in its
            # order, on the list mirrors of the table profiles.
            station = node_station[node]
            transfer_here = transfer_time[station]

            if stop_at_target:
                # Theorem 4: γ_i, a lower bound on the arrival at T ...
                if station == table_target:
                    lower = key
                else:
                    deps, arrs, n, tomorrow = (
                        target_rows[station] or table.target_row(station)
                    )
                    if n:
                        tau = key % period
                        idx = bisect_left(deps, tau)
                        if idx < n and arrs[idx] < tomorrow:
                            lower = key - tau + arrs[idx]
                        else:
                            lower = key - tau + tomorrow
                    else:
                        lower = INF
                gamma = gamma_of[g]
                if lower < gamma:
                    gamma = gamma_of[g] = lower
                # ... met by an upper bound once it is valid: stop i.
                if gamma < INF and not no_anc_in_queue[k]:
                    if station == table_target:
                        upper = key
                    else:
                        ready = key + transfer_here
                        tau = ready % period
                        idx = bisect_left(deps, tau)
                        if idx < n and arrs[idx] < tomorrow:
                            upper = ready - tau + arrs[idx]
                        else:
                            upper = ready - tau + tomorrow
                    if upper <= gamma:
                        if upper < final_arrivals.get(g, INF):
                            final_arrivals[g] = upper
                        stops += 1
                        conn_stopped[k] = 1
                        continue

            if prune_via:
                # Theorem 3: lower µ_{i,j} from this settle, and prune
                # the node unless it can still matter at some via j.
                mu = mu_of[g]
                if mu is None:
                    mu = mu_of[g] = [INF] * num_via
                ready = key + transfer_here
                ready_tau = ready % period
                ready_day = ready - ready_tau
                key_tau = key % period
                key_day = key - key_tau
                prunable = True
                j = 0
                for via_transfer, deps, arrs, n, tomorrow in (
                    via_rows[station] or table.via_row(station)
                ):
                    if deps is None:  # this station is via j itself
                        candidate = key + via_transfer
                        lower = key
                    elif n:
                        idx = bisect_left(deps, ready_tau)
                        if idx < n and arrs[idx] < tomorrow:
                            candidate = ready_day + arrs[idx] + via_transfer
                        else:
                            candidate = ready_day + tomorrow + via_transfer
                        if prunable:
                            idx = bisect_left(deps, key_tau)
                            if idx < n and arrs[idx] < tomorrow:
                                lower = key_day + arrs[idx]
                            else:
                                lower = key_day + tomorrow
                    else:  # via j unreachable from here: µ stays
                        candidate = lower = INF
                    if candidate < mu[j]:
                        mu[j] = candidate
                        mu_updates += 1
                    if prunable and lower <= mu[j]:
                        prunable = False
                    j += 1
                if prunable:
                    pruned_table += 1
                    continue

        edges = adjacency[node]
        relaxed += len(edges)
        if stop_at_target:
            push_anc = 1 if (anc[item] or contributes[node]) else 0
        for head, weight, ttf in edges:
            if ttf is None:
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
                        # Zero-point function: unreachable via
                        # build_td_graph (empty legs get no edge) but
                        # legal for TravelTimeFunction, and is_fifo()
                        # is True for it — match arrival()'s INF_TIME.
                        t_next = INF
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
            head_item = head * num_local + k
            if t_next < labels[head_item] and not settled[head_item]:
                if stop_at_target:
                    if labels[head_item] < INF:
                        # Decrease-key may flip the path's ancestry bit.
                        if anc[head_item] != push_anc:
                            no_anc_in_queue[k] += 1 if not push_anc else -1
                            anc[head_item] = push_anc
                    else:
                        anc[head_item] = push_anc
                        if not push_anc:
                            no_anc_in_queue[k] += 1
                labels[head_item] = t_next
                heappush(heap, t_next * size + top - head_item)

    # Every push is popped (the heap drains), live or stale; every live
    # pop set its settled flag.
    stats.settled_connections = settled.count(1)
    stats.queue_pushes = stats.settled_connections + stale
    stats.pruned_self = pruned_self
    stats.pruned_stopping = pruned_stop
    stats.pruned_table = pruned_table
    stats.relaxed_edges = relaxed
    if table is not None:
        table.prunes += pruned_table
        table.connection_stops += stops
        table.mu_updates += mu_updates
    return result
