"""Unit and property tests for profile functions and their algebra."""

import pickle
import sys
import threading
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.functions import algebra
from repro.functions.algebra import Profile, merge_profiles
from repro.functions.piecewise import INF_TIME, narrow_row


def _profile():
    # Depart 08:00 → arrive 08:40; 09:00 → 09:05; 10:00 → 10:40.
    return Profile([480, 540, 600], [520, 545, 640])


@st.composite
def reduced_profiles(draw):
    """Random reduced profiles: strictly increasing deps and arrivals."""
    n = draw(st.integers(min_value=0, max_value=12))
    deps = sorted(draw(st.sets(st.integers(0, 1439), min_size=n, max_size=n)))
    arrs = []
    floor = 0
    for dep in deps:
        arrival = draw(st.integers(max(dep, floor) + 1, max(dep, floor) + 300))
        arrs.append(arrival)
        floor = arrival
    return Profile(deps, arrs)


class TestConstruction:
    def test_rejects_unsorted_deps(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Profile([20, 10], [30, 40])

    def test_rejects_negative_anchors(self):
        with pytest.raises(ValueError, match="negative"):
            Profile([-1, 10], [30, 40])

    def test_rejects_arrival_before_departure(self):
        with pytest.raises(ValueError, match="before departure"):
            Profile([100], [90])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="parallel"):
            Profile([1, 2], [3])

    def test_from_raw_reduces(self):
        profile = Profile.from_raw([480, 540, 600], [560, 545, 640])
        # First point (arr 560) dominated by second (dep later, arr 545).
        assert profile.connection_points() == [(540, 5), (600, 40)]

    def test_len_and_empty(self):
        assert len(_profile()) == 3
        assert not _profile().is_empty()
        assert Profile([], []).is_empty()


class TestEvaluation:
    def test_exact_anchor(self):
        assert _profile().earliest_arrival(480) == 520

    def test_between_anchors_takes_next(self):
        assert _profile().earliest_arrival(481) == 545

    def test_wraps_to_next_day(self):
        assert _profile().earliest_arrival(601) == 1440 + 520

    def test_empty_profile_unreachable(self):
        assert Profile([], []).earliest_arrival(0) == INF_TIME

    def test_travel_time(self):
        assert _profile().travel_time(481) == 545 - 481
        assert Profile([], []).travel_time(0) == INF_TIME

    def test_absolute_query_times(self):
        profile = _profile()
        assert profile.earliest_arrival(1440 + 480) == 1440 + 520


class TestMinimum:
    def test_pointwise_min(self):
        a = Profile([480], [520])
        b = Profile([480], [510])
        assert a.minimum(b) == b.minimum(a)
        assert a.minimum(b).earliest_arrival(480) == 510

    def test_empty_identity(self):
        a = _profile()
        empty = Profile([], [])
        assert a.minimum(empty) == a
        assert empty.minimum(a) == a

    def test_period_mismatch_rejected(self):
        with pytest.raises(ValueError, match="period"):
            Profile([1], [2], period=100).minimum(Profile([1], [2], period=200))

    @given(a=reduced_profiles(), b=reduced_profiles())
    def test_minimum_never_worse_than_either(self, a, b):
        merged = a.minimum(b)
        for tau in range(0, 1440, 97):
            assert merged.earliest_arrival(tau) <= a.earliest_arrival(tau)
            assert merged.earliest_arrival(tau) <= b.earliest_arrival(tau)

    @given(a=reduced_profiles(), b=reduced_profiles())
    def test_minimum_attained_by_one_side(self, a, b):
        merged = a.minimum(b)
        for tau in range(0, 1440, 97):
            assert merged.earliest_arrival(tau) == min(
                a.earliest_arrival(tau), b.earliest_arrival(tau)
            )

    @given(a=reduced_profiles())
    def test_minimum_idempotent(self, a):
        assert a.minimum(a) == a


class TestDominance:
    def test_dominates_itself(self):
        assert _profile().dominates(_profile())

    def test_better_profile_dominates(self):
        better = Profile([480, 540, 600], [500, 545, 640])
        assert better.dominates(_profile())
        assert not _profile().dominates(better)

    @given(a=reduced_profiles(), b=reduced_profiles())
    def test_minimum_dominates_operands(self, a, b):
        merged = a.minimum(b)
        assert merged.dominates(a)
        assert merged.dominates(b)


class TestMergeProfiles:
    def test_requires_input(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_profiles([])

    def test_merges_many(self):
        profiles = [Profile([100 * k], [100 * k + 10 + k]) for k in range(1, 5)]
        merged = merge_profiles(profiles)
        for profile in profiles:
            assert merged.dominates(profile)


class TestFifo:
    def test_reduced_profile_is_fifo(self):
        assert _profile().is_fifo()

    @given(a=reduced_profiles())
    def test_generated_profiles_fifo(self, a):
        assert a.is_fifo()


class TestRowIsPublishedWhole:
    def test_second_thread_never_sees_half_a_row(self, monkeypatch):
        """Regression: the evaluation cache used to be two attributes
        filled by two stores; a second executor thread evaluating the
        same distance-table profile between them read a half-built
        cache and raised ``TypeError`` (a 500 on the served path).  The
        first thread is parked inside the row build — a deterministic
        stand-in for a thread switch there — while the second
        evaluates."""
        entered, release = threading.Event(), threading.Event()

        def stalling_narrow_row(values, top):
            if not entered.is_set():
                entered.set()
                assert release.wait(10)
            return narrow_row(values, top)

        monkeypatch.setattr(algebra, "narrow_row", stalling_narrow_row)
        profile = _profile()
        answers: dict[str, object] = {}

        def evaluate(name: str) -> None:
            try:
                answers[name] = profile.earliest_arrival(530)
            except Exception as exc:  # the bug: TypeError
                answers[name] = exc

        first = threading.Thread(target=evaluate, args=("first",))
        first.start()
        assert entered.wait(10)  # first is mid-build
        second = threading.Thread(target=evaluate, args=("second",))
        second.start()
        second.join(10)
        release.set()
        first.join(10)
        assert not first.is_alive() and not second.is_alive()
        assert answers == {"first": 545, "second": 545}

    def test_many_threads_first_evaluating_the_same_profiles(self):
        """Stress form of the above: more threads than cores race to
        the first evaluation of the same fresh profiles, with the
        interpreter switching threads as often as it can."""
        profiles = [
            Profile([k, 600 + k], [k + 5, 700 + k]) for k in range(200)
        ]
        expected = [700 + k for k in range(200)]
        failures: list[object] = []

        def evaluate_all() -> None:
            try:
                got = [p.earliest_arrival(300) for p in profiles]
                if got != expected:
                    failures.append(got)
            except Exception as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=evaluate_all) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestRow:
    def test_row_matches_arrays(self):
        row = _profile().row()
        assert row.typecode == "H" and len(row) == 1440
        expected = (
            [520] * 481 + [545] * 60 + [640] * 60 + [1440 + 520] * 839
        )
        assert row.tolist() == expected
        assert Profile([], []).row() == array("B")

    def test_row_is_built_once(self):
        profile = _profile()
        assert profile.row() is profile.row()

    @pytest.mark.parametrize(
        "deps, arrs",
        [
            ([], []),  # empty: unreachable throughout
            ([17], [23]),  # one point
            ([5, 40], [70, 130]),  # arrivals past the period
            ([2, 50], [9, 100]),  # slow 50 → 100 loses to 2 + 60 → 69
        ],
        ids=["empty", "one-point", "past-period", "tomorrow-wins"],
    )
    def test_row_on_the_named_shapes(self, deps, arrs):
        _assert_row_evaluates(deps, arrs, 60)

    @given(period=st.integers(1, 90), data=st.data())
    def test_row_is_the_two_candidate_evaluation(self, period, data):
        _assert_row_evaluates(*data.draw(_points(period)), period)


def _assert_row_evaluates(deps: list[int], arrs: list[int], period: int) -> None:
    """At every τ over two periods, ``day + row[τ mod period]`` equals
    the earliest arrival read straight off the points: the first anchor
    of τ's day at or after it, unless the first anchor of the next day
    arrives sooner."""
    profile = Profile(deps, arrs, period)
    row = profile.row()
    for t in range(2 * period):
        tau = t % period
        day = t - tau
        today = [a for d, a in zip(deps, arrs) if d >= tau]
        expected = (
            INF_TIME if not deps else day + min(today[:1] + [period + arrs[0]])
        )
        got = INF_TIME if not row else day + row[tau]
        assert got == expected, (deps, arrs, period, t)
        assert profile.earliest_arrival(t) == expected


@st.composite
def _points(draw, period):
    """Reduced points over ``period``: anchors in it, arrivals rising
    and reaching up to two periods past their anchors."""
    deps = sorted(draw(st.sets(st.integers(0, period - 1), max_size=8)))
    arrs = []
    floor = 0
    for dep in deps:
        arrival = draw(st.integers(max(dep, floor), max(dep, floor) + 2 * period))
        if arrs and arrival == arrs[-1]:
            arrival += 1
        arrs.append(arrival)
        floor = arrival
    return deps, arrs


class TestPickling:
    def test_an_evaluated_profile_pickles_as_a_fresh_one(self):
        """The row is a cache: a profile a search worker evaluated and
        sends back over a pipe ships its points, not its row."""
        fresh = pickle.dumps(_profile())
        evaluated = _profile()
        evaluated.earliest_arrival(530)
        assert pickle.dumps(evaluated) == fresh
        back = pickle.loads(pickle.dumps(evaluated))
        assert back._row is None
        assert back == evaluated
        assert back.earliest_arrival(530) == 545
