"""Unit and property tests for connection reduction (paper §3.1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.functions.piecewise import INF_TIME
from repro.functions.reduction import (
    reduce_connection_points,
    reduced_points_per_row,
    reduction_mask,
)


class TestReductionMask:
    def test_keeps_strictly_improving_points(self):
        # deps implicit 0..: arrivals 100, 90, 120 → middle dominates first.
        mask = reduction_mask([100, 90, 120])
        assert mask.tolist() == [False, True, True]

    def test_equal_arrival_dominated_by_later_departure(self):
        """Paper: delete j < i_min when τ_arr_j ≥ τ_arr_min — ties lose."""
        mask = reduction_mask([100, 100])
        assert mask.tolist() == [False, True]

    def test_infinite_arrivals_dropped(self):
        mask = reduction_mask([INF_TIME, 50, INF_TIME])
        assert mask.tolist() == [False, True, False]

    def test_empty(self):
        assert reduction_mask([]).size == 0

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            reduction_mask(np.zeros((2, 2), dtype=np.int64))

    def test_last_point_always_kept_if_finite(self):
        assert reduction_mask([5])[0]
        assert not reduction_mask([INF_TIME])[0]

    @given(
        arrivals=st.lists(
            st.integers(min_value=0, max_value=10_000) | st.just(INF_TIME),
            max_size=40,
        )
    )
    def test_survivors_strictly_increasing(self, arrivals):
        mask = reduction_mask(arrivals)
        kept = [a for a, keep in zip(arrivals, mask) if keep]
        assert all(b > a for a, b in zip(kept, kept[1:]))
        assert INF_TIME not in kept

    @given(
        arrivals=st.lists(
            st.integers(min_value=0, max_value=10_000) | st.just(INF_TIME),
            max_size=40,
        )
    )
    def test_removed_points_are_dominated(self, arrivals):
        """Every removed finite point has a later point arriving no later."""
        mask = reduction_mask(arrivals)
        for i, (arrival, keep) in enumerate(zip(arrivals, mask)):
            if keep or arrival >= INF_TIME:
                continue
            assert any(
                later <= arrival for later in arrivals[i + 1 :]
            ), f"point {i} removed without dominator"

    @given(
        arrivals=st.lists(
            st.integers(min_value=0, max_value=10_000), max_size=40
        )
    )
    def test_minimum_preserved(self, arrivals):
        """Reduction never loses the best (minimum) arrival."""
        mask = reduction_mask(arrivals)
        if arrivals:
            kept = [a for a, keep in zip(arrivals, mask) if keep]
            assert min(kept) == min(arrivals)


class TestReduceConnectionPoints:
    def test_parallel_output(self):
        deps, arrs = reduce_connection_points([10, 20, 30], [100, 90, 120])
        assert deps.tolist() == [20, 30]
        assert arrs.tolist() == [90, 120]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            reduce_connection_points([1, 2], [3])

    def test_idempotent(self):
        deps, arrs = reduce_connection_points([10, 20, 30], [100, 90, 120])
        deps2, arrs2 = reduce_connection_points(deps, arrs)
        assert deps2.tolist() == deps.tolist()
        assert arrs2.tolist() == arrs.tolist()


class TestReducedOutput:
    def test_empty_input_gives_empty_output(self):
        deps, arrs = reduce_connection_points([], [])
        assert deps.size == 0 and arrs.size == 0

    def test_strictly_increasing_input_is_kept_whole(self):
        deps, arrs = reduce_connection_points([10, 20, 30], [40, 50, 60])
        assert deps.tolist() == [10, 20, 30]
        assert arrs.tolist() == [40, 50, 60]

    def test_plateau_keeps_only_the_later_departure(self):
        deps, arrs = reduce_connection_points([10, 20], [50, 50])
        assert deps.tolist() == [20]
        assert arrs.tolist() == [50]

    def test_infinite_arrival_is_dropped(self):
        deps, arrs = reduce_connection_points([10, 20, 30], [40, INF_TIME, 60])
        assert deps.tolist() == [10, 30]
        assert arrs.tolist() == [40, 60]

    @given(
        arrivals=st.lists(
            st.integers(min_value=0, max_value=10_000) | st.just(INF_TIME),
            max_size=30,
        )
    )
    def test_reduction_output_is_reduced(self, arrivals):
        deps = list(range(len(arrivals)))
        _deps, arrs = reduce_connection_points(deps, np.maximum(arrivals, deps))
        # Reduced: strictly increasing and free of INF_TIME.
        assert (np.asarray(arrs) < INF_TIME).all()
        assert (np.diff(arrs) > 0).all()


@st.composite
def label_matrices(draw):
    """``(deps, rows)``: non-decreasing departures with ties, and rows of
    arrivals drawn from a narrow range (ties again) or ``INF_TIME`` —
    all-INF rows, K = 0 and K = 1 included."""
    k = draw(st.integers(0, 8))
    m = draw(st.integers(0, 5))
    deps = sorted(draw(st.lists(st.integers(0, 6), min_size=k, max_size=k)))
    arrival = st.integers(0, 12) | st.just(INF_TIME)
    rows = draw(
        st.lists(
            st.lists(arrival, min_size=k, max_size=k)
            | st.just([INF_TIME] * k),
            min_size=m,
            max_size=m,
        )
    )
    return deps, np.asarray(rows, dtype=np.int64).reshape(m, k)


class TestReducedPointsPerRow:
    @given(label_matrices())
    def test_every_row_reduces_as_on_its_own(self, matrix):
        deps, rows = matrix
        expected = []
        for row in rows:
            kept_deps, kept_arrs = reduce_connection_points(deps, row)
            expected.append(
                [[d, a - d] for d, a in zip(kept_deps.tolist(), kept_arrs.tolist())]
            )
        got = reduced_points_per_row(deps, rows)
        assert got == expected
        assert all(type(x) is int for row in got for point in row for x in point)

    def test_ties_and_infinity(self):
        rows = np.array(
            [[100, 100, 90], [INF_TIME] * 3, [50, INF_TIME, 60]], dtype=np.int64
        )
        assert reduced_points_per_row([10, 20, 20], rows) == [
            [[20, 70]],
            [],
            [[10, 40], [20, 40]],
        ]

    def test_no_connections(self):
        assert reduced_points_per_row([], np.zeros((3, 0), dtype=np.int64)) == [
            [],
            [],
            [],
        ]

    def test_rejects_non_parallel_matrix(self):
        with pytest.raises(ValueError, match="label matrix"):
            reduced_points_per_row([1, 2], np.zeros((2, 3), dtype=np.int64))
