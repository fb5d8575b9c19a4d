"""Flat-array SPCS kernel (paper §3.1/§4, HPC form).

A one-to-all run is the same algorithm as
:func:`repro.core.spcs.spcs_profile_search` — one queue item per
(node, connection) pair, connection-setting, self-pruning — settling
the same pairs.  A *targeted* run (``target=``: the stopping criterion
and §4's target pruning) returns the same reduced profile at the target
from fewer settles in a different pop order: it is goal-directed.  The
queue is keyed by arrival + ``π_T(node)``, a consistent lower bound on
what is left of the way
(:meth:`~repro.graph.td_arrays.TDGraphArrays.lower_bounds_to`), and
Theorem 4 is read per queue item so that it survives that order
(``docs/KERNEL.md``, "Goal direction").  Both are engineered for
interpreter throughput instead of readability:

* the graph is a :class:`~repro.graph.td_arrays.TDGraphArrays` pack;
  adjacency, travel-time functions and labels live in flat arrays and
  Python-list mirrors, never in per-edge/per-label objects;
* labels, settled flags and ancestry bits are preallocated flat
  vectors indexed by ``node * num_local + k`` — no tuple construction
  or 2-D numpy scalar indexing in the loop;
* the queue is a bucket per whole-minute key (Dial, CACM 1969): a dict
  of item lists and a :mod:`heapq` of the distinct pending keys, with
  lazy deletion (an improved label pushes again, the stale entry is
  skipped when it pops).  A bucket is sorted when it is reached and
  popped from the end, so items pop in exactly the order of a binary
  heap over ``(key, -item)`` — ``tests/core/test_kernel_pop_order.py``
  pins the work of runs recorded with one;
* one ``targeted`` flag keeps a one-to-all run (no target, no table)
  off the stopping criterion, goal direction and Theorem 4, at pop and
  at push;
* travel-time evaluation is one index: the mirror holds each function
  as its least wait plus ride from every minute of the period
  (:func:`~repro.graph.td_arrays.travel_time_rows`), so a route edge
  relaxes to ``key + row[key % period]``, FIFO or overtaking;
* Theorem 4 is inlined too.  The reference kernel asks a
  :class:`~repro.core.spcs.SettlePruner` hook once per settle; this
  loop reads the *same* per-query state object
  (:class:`~repro.query.table_query.DistanceTablePruner`) as flat data
  and evaluates a table profile as one index too, ``day + row[τ]`` on
  the pair's per-minute row
  (:meth:`~repro.query.distance_table.DistanceTable.row`), so a search
  makes no Python call per settle.  It updates the bounds only at
  settles that can lower one — where the station node holds no label
  yet as early as the settle's arrival — and runs just the test
  elsewhere (the argument is at the loop's Theorem 4 block).  The hook
  is the readable statement of the paper's rules and, with the
  reference kernel, the oracle for this loop's answers
  (``tests/query/test_table_kernel_equivalence.py``).  Theorem 3 (the
  µ bounds through the target's via stations) is the hook's alone: it
  cut this loop's settles by a sixth and saved no time, so no served
  search runs it, and a pruner that carries via stations is refused.

Equivalence contract: for every input the kernel produces the same
reduced profiles (and therefore the same earliest arrivals) as the
object-graph SPCS — of every station for a one-to-all run, of the
target for a targeted one.  Raw labels may differ on exact
arrival-time ties — the two queues break ties differently, and which
of two equal-arrival connections self-prunes the other is
order-dependent — but reduction collapses both variants to the
identical profile.
``tests/core/test_kernel_equivalence.py`` enforces this against the
pure-Python SPCS and the label-correcting oracle on randomized
instances; the pure-Python path stays as the reference implementation.
"""

from __future__ import annotations

from array import array
from bisect import insort
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.spcs import SPCSResult, SPCSStats, spcs_profile_search
from repro.functions.piecewise import INF_TIME
from repro.graph.td_arrays import TDGraphArrays

if TYPE_CHECKING:
    from repro.graph.td_model import TDGraph
    from repro.query.table_query import DistanceTablePruner


def run_spcs_search(
    graph: TDGraph | None,
    arrays: TDGraphArrays | None,
    source: int,
    *,
    connection_subset: Sequence[int] | None = None,
    self_pruning: bool = True,
    target: int | None = None,
    pruner: "DistanceTablePruner | None" = None,
    potential: Sequence[int] | None = None,
) -> SPCSResult:
    """Dispatch one SPCS run: flat kernel when ``arrays`` is given —
    which reads nothing else, so ``graph`` may then be ``None`` —
    otherwise the reference implementation over ``graph``.  The single
    dispatch point shared by the parallel driver, its fork workers and
    the station-to-station engine.

    ``pruner`` is the query's §4 state.  The reference kernel drives it
    as a settle hook and tracks ancestry over its station mask; the
    flat kernel reads the same state as flat data.  ``potential`` is the
    query's ``arrays.lower_bounds_to(target)``, which only the flat
    kernel's goal direction reads."""
    if arrays is not None:
        return spcs_kernel_search(
            arrays,
            source,
            connection_subset=connection_subset,
            self_pruning=self_pruning,
            target=target,
            table=pruner,
            potential=potential,
        )
    return spcs_profile_search(
        graph,
        source,
        connection_subset=connection_subset,
        self_pruning=self_pruning,
        target=target,
        pruner=pruner,
        transfer_stations=None if pruner is None else pruner.ancestry_mask,
    )


def spcs_kernel_search(
    arrays: TDGraphArrays,
    source: int,
    *,
    connection_subset: Sequence[int] | None = None,
    self_pruning: bool = True,
    target: int | None = None,
    table: "DistanceTablePruner | None" = None,
    potential: Sequence[int] | None = None,
) -> SPCSResult:
    """Run the flat-array SPCS from station ``source``.

    ``connection_subset`` and ``self_pruning`` mean what they mean to
    :func:`~repro.core.spcs.spcs_profile_search`; ``arrays`` is
    produced by :func:`~repro.graph.td_arrays.pack_timetable`.
    ``target`` switches on the stopping criterion, as there, *and* goal
    direction: the queue is keyed by arrival + ``potential[node]``, where
    ``potential`` is ``arrays.lower_bounds_to(target)`` — computed here
    when the caller (who may share one vector between several subsets'
    runs) does not pass it.  Only ``labels[target]`` is meaningful
    after a targeted run.  ``table`` is the query's distance-table
    state (:class:`~repro.query.table_query.DistanceTablePruner`): the
    loop reads its fields and applies Theorem 4 itself, it never calls
    ``on_settle``; a state with via stations (Theorem 3, the reference
    kernel's rule) is a ``ValueError``.  Several runs over disjoint
    subsets may share one state — γ and the final arrivals are per
    connection.
    """
    if table is not None and table.via:
        raise ValueError(
            "the flat kernel runs Theorem 4 only; a pruner with via "
            "stations (Theorem 3) is the reference kernel's"
        )
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
    # copy: a one-to-all caller gets the matrix as it stands (the §3.2
    # driver keeps a copy of its station rows) and a station-to-station
    # caller reads one row of it.
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
    # maxconn(v) as a *local* index: the subset is strictly ascending,
    # so comparing k compares the global indices.
    maxconn = [-1] * num_nodes
    adjacency = arrays.kernel_adjacency()

    # Goal direction: a targeted run keys its queue by arrival +
    # π_T(node), a lower bound on the arrival at the target through
    # that item.  π_T is consistent, so every (node, connection) is
    # still settled once with its final label; all items of one node
    # share one π_T, so they still pop in arrival order and Theorem 1
    # reads as before; π_T(target) = 0, so everything popped after
    # connection ``t_max`` settled the target has a bound no better
    # than that arrival and Theorem 2 reads as before too.  A node that
    # cannot reach the target at all (π_T = INF) is never pushed.
    goal = target is not None
    if goal and potential is None:
        potential = arrays.lower_bounds_to(target)
    # The queue is a bucket per whole-minute key (Dial, CACM 1969):
    # ``buckets`` maps a pending key to its items, ``keys`` is a heap of
    # the distinct pending keys — a key is pushed there once, when its
    # bucket is created, so the cost follows the number of distinct
    # keys, never the range of times between them.  The bucket of the
    # key being drained is sorted once and popped from the end: on
    # equal keys the *larger* item (larger node, then larger local
    # index) pops first, so self-pruning can kill the earlier
    # connection before it relaxes its edges — with ascending tie-break
    # Theorem 1 would never fire on ties and the search visits
    # measurably more pairs.  A push never goes below the key being
    # drained (travel times are non-negative and π_T is consistent); a
    # push *at* it — a zero-duration ride, a zero transfer time, zero
    # reduced cost under π_T — is ``insort``-ed into the draining
    # bucket.  Pops therefore come in exactly the order of a binary
    # heap over the entries ``(key, -item)``, stale ones included.
    buckets: dict[int, list[int]] = {}
    keys: list[int] = []
    starts = arrays.conn_start[conn_lo + conn_indices].tolist()
    for k, (dep, node) in enumerate(zip(conn_deps.tolist(), starts)):
        item = node * num_local + k
        priority = dep + potential[node] if goal else dep
        if priority < INF:
            labels[item] = dep
            bucket = buckets.get(priority)
            if bucket is None:
                buckets[priority] = [item]
                heappush(keys, priority)
            else:
                bucket.append(item)

    pruned_self = pruned_stop = stale = relaxed = 0

    # Stopping criterion state (Theorem 2), as in the reference.
    t_max = -1

    # Theorem 4, read per queue item, which is what it takes to survive
    # goal direction: the paper stops connection i once its bounds meet
    # *and every* queue item has a contributing transfer station behind
    # it, but a goal-directed queue holds the items that lead away from
    # the target back to the very end, so that condition starves.  Per
    # item: one with such an ancestor reaches T no sooner than γ_i, and
    # any item no sooner than arrival + π_T(node); it is dropped once
    # that is no better than ``upper_of``, the earliest arrival at T a
    # settled transfer station has offered connection i through the
    # table (the query folds it into the answer).  With no
    # ancestor-less item left both readings drop the same items.
    stop_at_target = table is not None and table.target_pruning
    if stop_at_target:
        contributes = table.contributes
        node_station = table.node_station
        transfer_time = table.transfer_time
        target_rows = table.target_rows
        gamma_of = table.gamma
        final_arrivals = table.final_arrivals
        table_target = table.target
        anc = bytearray(size)
        upper_of = [INF] * num_local
        if potential is None:
            potential = [0] * num_nodes
    # Everything a one-to-all run skips: the stopping criterion, goal
    # direction and Theorem 4, at pop and at push.
    targeted = goal or stop_at_target

    while keys:
        current = heappop(keys)
        bucket = buckets.pop(current)
        bucket.sort()
        while bucket:
            item = bucket.pop()
            if settled[item]:
                stale += 1  # left behind when the item's label improved
                continue
            settled[item] = 1
            # An item's entries share one π_T and differ in arrival, so
            # the first to pop carries the current label: the arrival.
            key = labels[item]
            node = item // num_local
            k = item - node * num_local
            if targeted:
                g = subset[k]
                if stop_at_target:
                    upper = upper_of[k]
                    if upper < INF:
                        if key + potential[node] >= upper:
                            if g > t_max:
                                t_max = g
                            pruned_stop += 1
                            labels[item] = INF
                            continue
                        if anc[item] and upper <= gamma_of[g]:
                            pruned_stop += 1
                            labels[item] = INF
                            continue

                if goal and g <= t_max:
                    pruned_stop += 1
                    labels[item] = INF
                    continue

            if self_pruning:
                if k <= maxconn[node]:
                    pruned_self += 1
                    labels[item] = INF
                    continue
                maxconn[node] = k

            if targeted:
                if node == target and g > t_max:
                    t_max = g

                if stop_at_target:
                    if contributes[node]:
                        # A settle at a transfer station other than the
                        # source: Theorem 4 as ``DistanceTablePruner.
                        # on_settle`` states it, each evaluation of a
                        # table profile one index into its per-minute
                        # row, ``day + row[τ]`` (an empty row:
                        # unreachable) — its updates only where they can
                        # lower a bound.  Only alighting edges lead into
                        # a station node, each from a route node of the
                        # same station; a route node relaxes its edges
                        # only after this whole block ran at its own
                        # arrival; and D(station, T, τ) does not
                        # decrease as τ grows.  So once the station node
                        # holds a label no later than ``key`` — always
                        # so when it is the node settling — γ_i and U_i
                        # are already at most what this settle would
                        # offer, and only the test is left to run.
                        station = node_station[node]
                        if labels[station * num_local + k] > key:
                            # γ_i, a lower bound on the arrival at T ...
                            if station == table_target:
                                lower = upper = key
                            else:
                                row = target_rows[station]
                                if row is None:
                                    row = table.target_row(station)
                                if row:
                                    tau = key % period
                                    lower = key - tau + row[tau]
                                    ready = key + transfer_time[station]
                                    tau = ready % period
                                    upper = ready - tau + row[tau]
                                else:
                                    lower = upper = INF
                            if lower < gamma_of[g]:
                                gamma_of[g] = lower
                            if upper < upper_of[k]:
                                upper_of[k] = upper
                        # ... met by an upper bound: nothing through a
                        # settled transfer station, this one included,
                        # can do better.
                        upper = upper_of[k]
                        if upper <= gamma_of[g] and upper < INF:
                            continue
                        push_anc = 1
                    else:
                        push_anc = anc[item]

            edges = adjacency[node]
            relaxed += len(edges)
            for head, weight, row in edges:
                # A route edge's row: the least wait plus ride from each
                # minute; INF_TIME for a function without points, which
                # improves no label.
                t_next = key + (weight if row is None else row[key % period])
                head_item = head * num_local + k
                if t_next < labels[head_item] and not settled[head_item]:
                    priority = t_next
                    if targeted:
                        if goal:
                            priority += potential[head]
                            if priority >= INF:
                                continue  # no way from ``head`` to the target
                        if stop_at_target:
                            anc[head_item] = push_anc
                    labels[head_item] = t_next
                    if priority == current:
                        insort(bucket, head_item)
                    else:
                        pending = buckets.get(priority)
                        if pending is None:
                            buckets[priority] = [head_item]
                            heappush(keys, priority)
                        else:
                            pending.append(head_item)

    # Every push is popped (the queue drains), live or stale; every live
    # pop set its settled flag.
    stats.settled_connections = settled.count(1)
    stats.queue_pushes = stats.settled_connections + stale
    stats.pruned_self = pruned_self
    stats.pruned_stopping = pruned_stop
    stats.relaxed_edges = relaxed
    if stop_at_target:
        stops = 0
        for g, upper in zip(subset, upper_of):
            if upper < INF:
                if upper < final_arrivals.get(g, INF):
                    final_arrivals[g] = upper
                if upper <= gamma_of[g]:
                    stops += 1  # connection g ended with its bounds met
        table.connection_stops += stops
    return result
