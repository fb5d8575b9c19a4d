"""Self-pruning connection-setting profile search (paper §3.1).

One queue item per (node, connection-index) pair, keyed by arrival
time.  For each outgoing connection of the source the classic
label-setting property holds — *connection-setting* — so every pair is
settled at most once.  *Self-pruning* kills connection ``i`` at node
``v`` as soon as a later connection ``j > i`` has already settled ``v``
(it departs no earlier and arrives no later; Theorem 1).

The same routine implements the station-to-station machinery of §4
through two optional hooks:

* ``target`` — enables the stopping criterion (Theorem 2): per-target
  max settled index ``Tm``; every queue entry with ``i ≤ Tm`` is pruned.
* ``pruner`` — an object receiving settle events and deciding distance-
  table pruning (Theorems 3/4); see :mod:`repro.query.table_query`.
  Verdicts are the integer codes :data:`PRUNE_NONE` /
  :data:`PRUNE_NODE` / :data:`PRUNE_CONNECTION`.  Only this kernel
  calls the hook: the flat kernel reads the same pruner object's state
  and applies the rules inside its loop, and is tested against this
  pairing.

This module is the **reference implementation**: object-graph
adjacency, dataclass results, an addressable queue — optimized for
clarity and for being obviously equal to the paper's pseudocode.  The
performance twin is :mod:`repro.core.spcs_kernel`, which runs the same
algorithm over the packed flat-array graph
(:mod:`repro.graph.td_arrays`) with preallocated int64 label vectors
and a bucket queue; ``kernel="flat"`` in
:func:`~repro.core.parallel.parallel_profile_search` and the query
engines selects it.  ``tests/core/test_kernel_equivalence.py`` holds
the two implementations (and the label-correcting baseline) equal on
randomized instances; ``docs/KERNEL.md`` documents the layout and where
each §4 rule sits in either kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from repro.functions.algebra import Profile
from repro.functions.piecewise import INF_TIME
from repro.pq import AddressableHeap

if TYPE_CHECKING:
    from repro.graph.td_model import TDGraph


#: Pruner verdicts (see :class:`SettlePruner`).
PRUNE_NONE = 0  #: relax the node's edges normally
PRUNE_NODE = 1  #: drop this (node, connection) entry (Theorem 3)
PRUNE_CONNECTION = 2  #: stop the whole connection's search (Theorem 4)


class SettlePruner(Protocol):
    """Hook interface for distance-table pruning (paper §4).

    ``on_settle`` is called for every *live* settle event with the node,
    the global connection index, the arrival time, and
    ``ancestry_complete`` — True iff every remaining queue item of this
    connection already has a transfer station as ancestor, the validity
    condition of the γ lower bound in Theorem 4.  The verdict is one of
    the ``PRUNE_*`` codes above.  When returning
    :data:`PRUNE_CONNECTION`, the pruner is responsible for recording
    the final arrival at the target for this connection.
    """

    def on_settle(
        self, node: int, conn_index: int, arrival: int, ancestry_complete: bool
    ) -> int: ...


@dataclass(slots=True)
class SPCSStats:
    """Operation counters for one SPCS run (the paper's work measures)."""

    settled_connections: int = 0
    pruned_self: int = 0
    pruned_stopping: int = 0
    pruned_table: int = 0
    queue_pushes: int = 0
    relaxed_edges: int = 0


@dataclass(slots=True)
class SPCSResult:
    """Outcome of one (possibly partial) SPCS run.

    ``labels[u, k]`` is the final arrival at node ``u`` for the k-th
    connection *of this run's subset* (global index ``conn_indices[k]``);
    ``INF_TIME`` marks pruned or unreachable combinations.
    """

    source: int
    conn_indices: np.ndarray
    conn_deps: np.ndarray
    labels: np.ndarray
    stats: SPCSStats
    period: int

    def profile(self, station: int) -> Profile:
        """Reduced profile ``dist(S, station, ·)`` from this run alone."""
        return Profile.from_raw(self.conn_deps, self.labels[station], self.period)


def spcs_profile_search(
    graph: TDGraph,
    source: int,
    *,
    connection_subset: Sequence[int] | None = None,
    self_pruning: bool = True,
    target: int | None = None,
    pruner: "SettlePruner | None" = None,
    transfer_stations: "np.ndarray | None" = None,
) -> SPCSResult:
    """Run SPCS from station ``source``.

    Parameters
    ----------
    connection_subset:
        Global indices into ``conn(source)`` this run handles (a
        parallel thread's share).  Must be sorted ascending; defaults to
        all outgoing connections.
    self_pruning:
        Disable to measure the effect of Theorem 1 (ablation A-sp).
    target:
        Target *station* enabling the stopping criterion (§4).
    pruner:
        Distance-table pruning hook (§4); only sensible with ``target``.
    transfer_stations:
        Boolean mask over stations (``S_trans``).  When given together
        with ``pruner``, transfer-station ancestry is tracked per queue
        item so the pruner can apply target pruning (Theorem 4).
    """
    if not graph.is_station_node(source):
        raise ValueError(f"source must be a station node, got {source}")
    if target is not None and not graph.is_station_node(target):
        raise ValueError(f"target must be a station node, got {target}")

    timetable = graph.timetable
    all_conns = timetable.outgoing_connections(source)
    if connection_subset is None:
        subset = list(range(len(all_conns)))
    else:
        subset = list(connection_subset)
        if any(subset[k] >= subset[k + 1] for k in range(len(subset) - 1)):
            raise ValueError("connection_subset must be strictly ascending")
        if subset and not (0 <= subset[0] and subset[-1] < len(all_conns)):
            raise ValueError(
                f"connection_subset out of range [0, {len(all_conns)})"
            )

    num_local = len(subset)
    num_nodes = graph.num_nodes
    conn_indices = np.asarray(subset, dtype=np.int64)
    conn_deps = np.asarray(
        [all_conns[g].dep_time for g in subset], dtype=np.int64
    )

    labels = np.full((num_nodes, num_local), INF_TIME, dtype=np.int64)
    stats = SPCSStats()
    result = SPCSResult(
        source=source,
        conn_indices=conn_indices,
        conn_deps=conn_deps,
        labels=labels,
        stats=stats,
        period=timetable.period,
    )
    if num_local == 0:
        return result

    # maxconn(v): highest *global* connection index settled at v so far.
    maxconn = np.full(num_nodes, -1, dtype=np.int64)
    settled = np.zeros((num_nodes, num_local), dtype=bool)
    pq = AddressableHeap()
    adjacency = graph.adjacency

    # Queue items encode (node, local index) as one int,
    # node * num_local + k.
    for k, g in enumerate(subset):
        c = all_conns[g]
        node = graph.source_route_node(c)
        item = node * num_local + k
        if c.dep_time < labels[node, k]:
            labels[node, k] = c.dep_time
            pq.push(item, c.dep_time)
            stats.queue_pushes += 1

    # Stopping criterion state (Theorem 2): highest global index settled
    # at the target station; entries with smaller-or-equal index prune.
    t_max = -1
    # Connections cut off by target pruning (Theorem 4).
    conn_stopped = np.zeros(num_local, dtype=bool) if pruner is not None else None
    # Transfer-station ancestry per tentative path (Theorem 4 validity):
    # anc[v, k] — the best-known path to (v, k) settled at a transfer
    # station on the way; no_anc_in_queue[k] — queue items still lacking
    # such an ancestor.  γ is a feasible lower bound once it hits zero.
    track_ancestry = pruner is not None and transfer_stations is not None
    if track_ancestry:
        anc = np.zeros((num_nodes, num_local), dtype=bool)
        no_anc_in_queue = np.zeros(num_local, dtype=np.int64)
        no_anc_in_queue[:] = 1  # one seed item per connection, no ancestor yet
        node_is_transfer = np.asarray(transfer_stations, dtype=bool)[
            np.asarray(graph.node_station, dtype=np.int64)
        ]

    while pq:
        item, key = pq.pop()
        node, k = divmod(item, num_local)
        if settled[node, k] or key > labels[node, k]:
            continue  # already settled, or superseded by a better label
        settled[node, k] = True
        stats.settled_connections += 1
        g = int(conn_indices[k])
        if track_ancestry and not anc[node, k]:
            no_anc_in_queue[k] -= 1

        if target is not None and g <= t_max:
            stats.pruned_stopping += 1
            labels[node, k] = INF_TIME
            continue
        if conn_stopped is not None and conn_stopped[k]:
            stats.pruned_stopping += 1
            labels[node, k] = INF_TIME
            continue

        if self_pruning:
            if g <= maxconn[node]:
                # A later connection reached this node no later: the
                # current one cannot contribute a Pareto-optimal point.
                stats.pruned_self += 1
                labels[node, k] = INF_TIME
                continue
            maxconn[node] = g
        # Without self-pruning we still record the label (key) and relax.
        labels[node, k] = key

        if target is not None and node == target and g > t_max:
            t_max = g

        if pruner is not None:
            ancestry_complete = bool(
                track_ancestry and no_anc_in_queue[k] == 0
            )
            verdict = pruner.on_settle(node, g, key, ancestry_complete)
            if verdict == PRUNE_NODE:
                stats.pruned_table += 1
                continue
            if verdict == PRUNE_CONNECTION:
                conn_stopped[k] = True
                continue

        if track_ancestry:
            push_anc = bool(anc[node, k] or node_is_transfer[node])
        for edge in adjacency[node]:
            stats.relaxed_edges += 1
            t_next = edge.arrival(key)
            head = edge.target
            if t_next < labels[head, k] and not settled[head, k]:
                was_queued = labels[head, k] < INF_TIME
                labels[head, k] = t_next
                if pq.push(head * num_local + k, t_next):
                    stats.queue_pushes += 1
                if track_ancestry:
                    if was_queued:
                        # Decrease-key may flip the path's ancestry bit.
                        if anc[head, k] != push_anc:
                            no_anc_in_queue[k] += 1 if not push_anc else -1
                            anc[head, k] = push_anc
                    else:
                        anc[head, k] = push_anc
                        if not push_anc:
                            no_anc_in_queue[k] += 1

    # Self-pruned / stopped entries carry INF_TIME already; entries never
    # reached stay INF_TIME.  Target pruning may have recorded better
    # arrivals with the pruner; the caller folds those in (§4).
    return result
