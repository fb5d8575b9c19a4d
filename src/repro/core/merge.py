"""Merging per-thread SPCS results (paper §3.2).

After the ``p`` threads finish, a master thread merges the per-thread
labels ``arr_t(v, ·)`` into a common label ``arr(v, ·)`` in global
connection order.  The merged label is *not* necessarily FIFO — threads
cannot self-prune each other's connections — so profiles are obtained
through connection reduction (§3.1): per station
(:meth:`MergedProfileResult.profile`), or for many stations in one
numpy pass (:meth:`MergedProfileResult.connection_points`).

The driver (:func:`~repro.core.parallel.timed_subset_search`) hands
this module station rows only, so a merged one-to-all result holds
``num_stations × |conn(S)|`` labels whatever ran it; the merge itself
takes any row count its inputs agree on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.spcs import SPCSResult
from repro.functions.algebra import Profile
from repro.functions.piecewise import INF_TIME
from repro.functions.reduction import reduced_points_per_row


@dataclass(slots=True)
class MergedProfileResult:
    """Common labels of a full (parallel) one-to-all profile search.

    ``labels[u, i]`` — arrival at station ``u`` (at node ``u`` where the
    inputs kept every node's row) starting with the ``i``-th outgoing
    connection (global order); ``INF_TIME`` where pruned or unreachable.
    """

    source: int
    conn_deps: np.ndarray
    labels: np.ndarray
    period: int

    def profile(self, station: int) -> Profile:
        """Reduced profile ``dist(S, station, ·)``."""
        return Profile.from_raw(self.conn_deps, self.labels[station], self.period)

    def connection_points(self, stations: Sequence[int]) -> list[list[list[int]]]:
        """Per station of ``stations``, ``P(dist(S, station, ·))`` as
        ``[departure, duration]`` lists — what ``profile(station).
        connection_points()`` gives, for all of them in one reduction."""
        return reduced_points_per_row(self.conn_deps, self.labels[list(stations)])

    def earliest_arrival(self, station: int, tau: int) -> int:
        """Convenience: evaluate the reduced profile at time ``tau``."""
        return self.profile(station).earliest_arrival(tau)

    @property
    def num_connections(self) -> int:
        return int(self.conn_deps.size)


def merge_thread_results(
    results: Sequence[SPCSResult], num_connections: int
) -> MergedProfileResult:
    """Merge per-thread label matrices into global connection order.

    ``num_connections`` is ``|conn(S)|``; each thread contributes the
    columns listed in its ``conn_indices``.  Thread subsets must be
    disjoint; uncovered columns stay ``INF_TIME`` (legal — the driver
    may run a restricted query).  A single run over all of ``conn(S)``
    is passed through: the merged labels alias that run's labels.
    """
    if not results:
        raise ValueError("merge requires at least one thread result")
    source = results[0].source
    period = results[0].period
    num_nodes = results[0].labels.shape[0]
    for r in results[1:]:
        if r.source != source:
            raise ValueError("thread results disagree on the source station")
        if r.labels.shape[0] != num_nodes or r.period != period:
            raise ValueError("thread results disagree on the graph")

    if len(results) == 1 and results[0].conn_indices.size == num_connections:
        # One run over all of conn(S) — strictly ascending in-range
        # indices, so the identity: its labels *are* the merged labels.
        only = results[0]
        return MergedProfileResult(
            source=source,
            conn_deps=only.conn_deps,
            labels=only.labels,
            period=period,
        )

    labels = np.full((num_nodes, num_connections), INF_TIME, dtype=np.int64)
    conn_deps = np.zeros(num_connections, dtype=np.int64)
    covered = np.zeros(num_connections, dtype=bool)
    for r in results:
        idx = r.conn_indices
        if idx.size == 0:
            continue
        if covered[idx].any():
            raise ValueError("thread connection subsets overlap")
        covered[idx] = True
        labels[:, idx] = r.labels
        conn_deps[idx] = r.conn_deps

    # Anchors of uncovered columns are unknown; mark monotone-safe values
    # by forward-filling so Profile construction stays valid (their
    # arrivals are INF_TIME and vanish under reduction anyway).
    if not covered.all():
        last = 0
        for i in range(num_connections):
            if covered[i]:
                last = int(conn_deps[i])
            else:
                conn_deps[i] = last
        conn_deps = np.maximum.accumulate(conn_deps)

    return MergedProfileResult(
        source=source, conn_deps=conn_deps, labels=labels, period=period
    )
