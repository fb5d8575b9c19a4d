"""Connection reduction (paper §3.1).

The raw label set ``P̂`` of a profile search contains one point per
outgoing connection of the source: ``(τ_dep(c_i), arr(v, i))``.  Because
taking an early train in the wrong direction is never *worse-ordered*
than waiting for a direct one, ``P̂`` need not be FIFO.  The reduction
scans backward, keeping track of the minimum arrival time seen, and
deletes every point whose arrival is not strictly earlier than any
later-departing point — the survivors are exactly
``P(dist(S, T, ·))``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.functions.piecewise import INF_TIME


def reduction_mask(arrivals: Sequence[int] | np.ndarray) -> np.ndarray:
    """Boolean keep-mask for the backward dominance scan.

    ``arrivals[i]`` is the (absolute) arrival time when starting with the
    ``i``-th outgoing connection, ordered by non-decreasing departure
    time; ``INF_TIME`` marks pruned/unreachable connections.  Point ``i``
    survives iff its arrival is strictly smaller than every arrival of a
    later connection (and is finite).

    Vectorized: survivors are where the reversed running minimum strictly
    improves.
    """
    arr = np.asarray(arrivals, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D arrival vector, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    # Suffix minimum over arrivals *after* i (exclusive).
    suffix_min = np.empty(n, dtype=np.int64)
    suffix_min[-1] = INF_TIME
    if n > 1:
        suffix_min[:-1] = np.minimum.accumulate(arr[::-1])[::-1][1:]
    return (arr < suffix_min) & (arr < INF_TIME)


def reduce_connection_points(
    dep_times: Sequence[int] | np.ndarray,
    arrivals: Sequence[int] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply connection reduction, returning ``(deps, arrs)`` of survivors.

    Inputs are parallel vectors: departure time of connection ``i`` (the
    anchor ``τ_dep(c_i)``) and arrival at the node in question.  Output
    arrivals are strictly increasing with departure time, so the surviving
    points form a FIFO profile: departing later never arrives earlier.
    """
    deps = np.asarray(dep_times, dtype=np.int64)
    arr = np.asarray(arrivals, dtype=np.int64)
    if deps.shape != arr.shape:
        raise ValueError(
            f"departure/arrival vectors must be parallel, got "
            f"{deps.shape} vs {arr.shape}"
        )
    mask = reduction_mask(arr)
    return deps[mask], arr[mask]


def reduced_points_per_row(
    dep_times: Sequence[int] | np.ndarray, rows: np.ndarray
) -> list[list[list[int]]]:
    """Connection reduction of many label rows in one numpy pass.

    ``rows`` is an ``(m, K)`` matrix of raw arrivals (one row per
    station, columns parallel to ``dep_times``).  Returns, per row, its
    surviving points as ``[departure, duration]`` lists of Python ints —
    for every row exactly the points ``reduce_connection_points`` keeps,
    in the same order: the exclusive suffix minimum along the
    connection axis, the keep-mask, one ``nonzero`` and one ``tolist``
    for all rows together instead of a reduction per row.
    """
    deps = np.asarray(dep_times, dtype=np.int64)
    arr = np.asarray(rows, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != deps.shape[0]:
        raise ValueError(
            f"expected an (m, {deps.shape[0]}) label matrix, got {arr.shape}"
        )
    m, n = arr.shape
    if n == 0:
        return [[] for _ in range(m)]
    # Suffix minimum over arrivals *after* each column (exclusive); the
    # last column is compared with INF_TIME, which also drops INF rows.
    after = np.empty_like(arr)
    after[:, -1] = INF_TIME
    np.minimum.accumulate(arr[:, :0:-1], axis=1, out=after[:, -2::-1])
    row_of, col = np.nonzero(arr < after)
    kept = deps[col]
    points = np.stack((kept, arr[row_of, col] - kept), axis=1).tolist()
    ends = np.cumsum(np.bincount(row_of, minlength=m)).tolist()
    return [points[lo:hi] for lo, hi in zip([0, *ends], ends)]
