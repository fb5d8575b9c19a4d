"""Unit tests for CSR utilities."""

import numpy as np
import pytest

from repro.graph.csr import (
    build_csr,
    build_weighted_csr,
    neighbors,
    reverse_csr,
)


class TestBuildCsr:
    def test_simple(self):
        indptr, targets = build_csr(3, [(0, 1), (0, 2), (2, 0)])
        assert indptr.tolist() == [0, 2, 2, 3]
        assert targets.tolist() == [1, 2, 0]

    def test_empty(self):
        indptr, targets = build_csr(2, [])
        assert indptr.tolist() == [0, 0, 0]
        assert targets.size == 0

    def test_targets_sorted_per_node(self):
        indptr, targets = build_csr(2, [(0, 1), (0, 0), (1, 0)])
        assert neighbors(indptr, targets, 0).tolist() == [0, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            build_csr(2, [(0, 5)])

    def test_negative_num_nodes_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_csr(-1, [])

    def test_negative_num_nodes_rejected_before_consuming_edges(self):
        """Validation must precede materializing the edge iterable."""
        consumed = []

        def edge_gen():
            consumed.append(True)
            yield (0, 1)

        with pytest.raises(ValueError, match="non-negative"):
            build_csr(-1, edge_gen())
        assert not consumed

    def test_zero_nodes_empty_graph(self):
        indptr, targets = build_csr(0, [])
        assert indptr.tolist() == [0]
        assert targets.size == 0

    def test_zero_nodes_with_edges_rejected(self):
        with pytest.raises(ValueError, match="range"):
            build_csr(0, [(0, 0)])

    def test_parallel_edges_kept(self):
        _indptr, targets = build_csr(2, [(0, 1), (0, 1)])
        assert targets.tolist() == [1, 1]

    def test_self_loops_kept(self):
        indptr, targets = build_csr(3, [(1, 1), (1, 2), (1, 1)])
        assert neighbors(indptr, targets, 1).tolist() == [1, 1, 2]

    def test_parallel_self_loops_and_edges_mixed(self):
        indptr, targets = build_csr(2, [(0, 0), (0, 1), (0, 0), (1, 1)])
        assert indptr.tolist() == [0, 3, 4]
        assert neighbors(indptr, targets, 0).tolist() == [0, 0, 1]
        assert neighbors(indptr, targets, 1).tolist() == [1]


class TestBuildWeightedCsr:
    def test_collapses_parallel_to_min(self):
        indptr, targets, weights = build_weighted_csr(
            2, [(0, 1, 9), (0, 1, 4), (0, 1, 7)]
        )
        assert targets.tolist() == [1]
        assert weights.tolist() == [4]

    def test_empty(self):
        indptr, targets, weights = build_weighted_csr(1, [])
        assert indptr.tolist() == [0, 0]
        assert targets.size == 0 and weights.size == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            build_weighted_csr(1, [(0, 1, 1)])


class TestReverseCsr:
    def test_reverses_edges(self):
        indptr, targets = build_csr(3, [(0, 1), (1, 2), (0, 2)])
        rev_indptr, rev_targets = reverse_csr(3, indptr, targets)
        assert neighbors(rev_indptr, rev_targets, 2).tolist() == [0, 1]
        assert neighbors(rev_indptr, rev_targets, 0).size == 0

    def test_double_reverse_is_identity(self):
        indptr, targets = build_csr(4, [(0, 1), (1, 2), (3, 0), (2, 3)])
        r1 = reverse_csr(4, indptr, targets)
        r2 = reverse_csr(4, *r1)
        assert r2[0].tolist() == indptr.tolist()
        assert r2[1].tolist() == targets.tolist()
