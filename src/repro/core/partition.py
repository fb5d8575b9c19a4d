"""Partitioning ``conn(S)`` over processors (paper §3.2).

The speed-up of the parallel algorithm hinges on balancing the threads'
work.  The paper proposes two simple heuristics and mentions k-means:

* **equal time-slots** — split the period ``Π`` into ``p`` equal
  intervals; unbalanced under rush hours and night breaks;
* **equal number of connections** — split ``conn(S)`` into ``p``
  contiguous runs of (nearly) equal cardinality; the paper's default;
* **k-means** — 1-D Lloyd clustering on departure times; the paper
  found the improvement insignificant (we include it to reproduce
  that).

Every strategy returns a list of ``p`` sorted, disjoint global-index
lists covering ``0..n−1`` (some possibly empty).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def _as_dep_array(conn_deps: Sequence[int] | np.ndarray) -> np.ndarray:
    deps = np.asarray(conn_deps, dtype=np.int64)
    if deps.ndim != 1:
        raise ValueError(f"expected 1-D departure vector, got shape {deps.shape}")
    if deps.size and (np.diff(deps) < 0).any():
        raise ValueError("departure times must be non-decreasing")
    return deps


def _validate_threads(num_threads: int) -> None:
    if num_threads < 1:
        raise ValueError(f"need at least one thread, got {num_threads}")


def partition_equal_connections(
    conn_deps: Sequence[int] | np.ndarray, num_threads: int, period: int = 1440
) -> list[list[int]]:
    """Split into ``p`` contiguous runs of equal cardinality (±1)."""
    _validate_threads(num_threads)
    deps = _as_dep_array(conn_deps)
    n = deps.size
    bounds = np.linspace(0, n, num_threads + 1).astype(np.int64)
    return [
        list(range(int(bounds[t]), int(bounds[t + 1])))
        for t in range(num_threads)
    ]


def partition_equal_time_slots(
    conn_deps: Sequence[int] | np.ndarray, num_threads: int, period: int = 1440
) -> list[list[int]]:
    """Split ``Π`` into ``p`` equal intervals; assign by departure time."""
    _validate_threads(num_threads)
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    deps = _as_dep_array(conn_deps)
    # Interval t covers [t·π/p, (t+1)·π/p).
    slot = (deps * num_threads) // period
    slot = np.clip(slot, 0, num_threads - 1)
    return [
        np.nonzero(slot == t)[0].tolist() for t in range(num_threads)
    ]


def partition_kmeans(
    conn_deps: Sequence[int] | np.ndarray,
    num_threads: int,
    period: int = 1440,
    *,
    max_iterations: int = 50,
) -> list[list[int]]:
    """1-D k-means (Lloyd) on departure times.

    Because the input is sorted, clusters are contiguous runs; we run
    Lloyd's iteration on interval boundaries.  Deterministic: initial
    centroids are the equal-cardinality run means.
    """
    _validate_threads(num_threads)
    deps = _as_dep_array(conn_deps)
    n = deps.size
    if n == 0 or num_threads == 1:
        return partition_equal_connections(deps, num_threads, period)
    k = min(num_threads, n)
    # Initialize boundaries from the equal-cardinality split.
    bounds = np.linspace(0, n, k + 1).astype(np.int64)
    for _ in range(max_iterations):
        centroids = np.empty(k, dtype=np.float64)
        for t in range(k):
            lo, hi = int(bounds[t]), int(bounds[t + 1])
            centroids[t] = deps[lo:hi].mean() if hi > lo else np.float64(
                deps[min(lo, n - 1)]
            )
        # Re-assign: boundary between cluster t and t+1 sits at the
        # midpoint of their centroids (1-D Voronoi).
        new_bounds = bounds.copy()
        for t in range(k - 1):
            midpoint = (centroids[t] + centroids[t + 1]) / 2.0
            new_bounds[t + 1] = np.searchsorted(deps, midpoint, side="left")
        new_bounds[0], new_bounds[k] = 0, n
        new_bounds = np.maximum.accumulate(new_bounds)
        if (new_bounds == bounds).all():
            break
        bounds = new_bounds
    parts = [
        list(range(int(bounds[t]), int(bounds[t + 1]))) for t in range(k)
    ]
    parts.extend([] for _ in range(num_threads - k))
    return parts


PARTITION_STRATEGIES: dict[
    str, Callable[[Sequence[int], int, int], list[list[int]]]
] = {
    "equal-connections": partition_equal_connections,
    "equal-time-slots": partition_equal_time_slots,
    "kmeans": partition_kmeans,
}
