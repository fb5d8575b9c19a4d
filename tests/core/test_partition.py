"""Unit and property tests for connection partitioning (paper §3.2)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.partition import (
    PARTITION_STRATEGIES,
    partition_equal_connections,
    partition_equal_time_slots,
    partition_kmeans,
)

sorted_deps = st.lists(
    st.integers(min_value=0, max_value=1439), min_size=0, max_size=200
).map(sorted)


@pytest.mark.parametrize("strategy", sorted(PARTITION_STRATEGIES))
class TestCommonContract:
    @given(deps=sorted_deps, p=st.integers(min_value=1, max_value=9))
    def test_disjoint_cover(self, strategy, deps, p):
        parts = PARTITION_STRATEGIES[strategy](deps, p, 1440)
        assert len(parts) == p
        flat = [i for part in parts for i in part]
        assert sorted(flat) == list(range(len(deps)))

    @given(deps=sorted_deps, p=st.integers(min_value=1, max_value=9))
    def test_parts_sorted(self, strategy, deps, p):
        parts = PARTITION_STRATEGIES[strategy](deps, p, 1440)
        for part in parts:
            assert part == sorted(part)

    def test_rejects_zero_threads(self, strategy):
        with pytest.raises(ValueError, match="thread"):
            PARTITION_STRATEGIES[strategy]([1, 2, 3], 0, 1440)

    def test_rejects_unsorted_departures(self, strategy):
        with pytest.raises(ValueError, match="non-decreasing"):
            PARTITION_STRATEGIES[strategy]([5, 3], 2, 1440)


class TestEqualConnections:
    def test_sizes_differ_by_at_most_one(self):
        parts = partition_equal_connections(list(range(10)), 3)
        sizes = sorted(len(p) for p in parts)
        assert sizes == [3, 3, 4]

    def test_contiguous_runs(self):
        parts = partition_equal_connections(list(range(8)), 2)
        assert parts == [[0, 1, 2, 3], [4, 5, 6, 7]]

    @given(deps=sorted_deps, p=st.integers(min_value=1, max_value=9))
    def test_always_balanced(self, deps, p):
        parts = partition_equal_connections(deps, p)
        sizes = [len(x) for x in parts]
        assert max(sizes) - min(sizes) <= 1


class TestEqualTimeSlots:
    def test_assignment_by_interval(self):
        # Period 100, 2 threads: slot boundary at 50.
        parts = partition_equal_time_slots([10, 40, 60, 90], 2, period=100)
        assert parts == [[0, 1], [2, 3]]

    def test_rush_hour_imbalance(self):
        """The paper's motivation: clustered departures unbalance the
        time-slot split but not the equal-connections split."""
        deps = sorted([450 + i for i in range(50)] + [1000, 1100])
        slots = partition_equal_time_slots(deps, 4)
        equal = partition_equal_connections(deps, 4)
        # Four parts of the same 52 indices each: the larger the
        # largest part, the worse the balance.
        assert max(map(len, slots)) > max(map(len, equal))

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError, match="period"):
            partition_equal_time_slots([1], 2, period=0)


class TestKMeans:
    def test_deterministic(self):
        deps = sorted([100, 105, 110, 700, 705, 710, 1300])
        assert partition_kmeans(deps, 3) == partition_kmeans(deps, 3)

    def test_separates_clusters(self):
        deps = [100, 101, 102, 800, 801, 802]
        parts = partition_kmeans(deps, 2)
        assert parts == [[0, 1, 2], [3, 4, 5]]

    def test_single_thread(self):
        assert partition_kmeans([1, 2, 3], 1) == [[0, 1, 2]]

    def test_more_threads_than_points(self):
        parts = partition_kmeans([5, 10], 4)
        assert len(parts) == 4
        flat = [i for part in parts for i in part]
        assert sorted(flat) == [0, 1]
