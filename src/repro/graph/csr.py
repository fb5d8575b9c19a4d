"""Compressed sparse row (CSR) adjacency utilities.

The station graph and the contraction routine operate on plain integer
graphs; CSR keeps them cache-friendly and allocation-free during
traversal (cf. the HPC guide: prefer flat arrays and views over object
soup in hot paths).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def build_csr(
    num_nodes: int, edges: Iterable[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Build ``(indptr, targets)`` CSR arrays from an edge list.

    Parallel edges are kept; self-loops are allowed (callers filter).
    ``indptr`` has length ``num_nodes + 1``; the targets of node ``u``
    are ``targets[indptr[u]:indptr[u+1]]``, sorted ascending.
    """
    if num_nodes < 0:
        # Validate before materializing: ``edges`` may be a large (or
        # effectful) generator that a doomed call must not consume.
        raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
    edge_list = list(edges)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    if not edge_list:
        return indptr, np.zeros(0, dtype=np.int64)
    arr = np.asarray(edge_list, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= num_nodes:
        raise ValueError("edge endpoint out of range")
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr = arr[order]
    counts = np.bincount(arr[:, 0], minlength=num_nodes)
    indptr[1:] = np.cumsum(counts)
    return indptr, arr[:, 1].copy()


def build_weighted_csr(
    num_nodes: int, edges: Iterable[tuple[int, int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR with per-edge integer weights: ``(indptr, targets, weights)``.

    Parallel edges are collapsed to their minimum weight (the station
    graph uses min travel time as the scalar weight).
    """
    best: dict[tuple[int, int], int] = {}
    for u, v, w in edges:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge ({u}, {v}) endpoint out of range")
        key = (u, v)
        if key not in best or w < best[key]:
            best[key] = w
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    if not best:
        return indptr, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    items = sorted(best.items())
    sources = np.asarray([k[0] for k, _ in items], dtype=np.int64)
    targets = np.asarray([k[1] for k, _ in items], dtype=np.int64)
    weights = np.asarray([w for _, w in items], dtype=np.int64)
    counts = np.bincount(sources, minlength=num_nodes)
    indptr[1:] = np.cumsum(counts)
    return indptr, targets, weights


def reverse_csr(
    num_nodes: int, indptr: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the reverse graph."""
    edges = []
    for u in range(num_nodes):
        for idx in range(indptr[u], indptr[u + 1]):
            edges.append((int(targets[idx]), u))
    return build_csr(num_nodes, edges)


def neighbors(indptr: np.ndarray, targets: np.ndarray, u: int) -> np.ndarray:
    """View of ``u``'s out-neighbors (no copy)."""
    return targets[indptr[u] : indptr[u + 1]]
