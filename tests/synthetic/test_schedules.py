"""Unit tests for daily departure patterns."""

import random

import pytest

from repro.synthetic.schedules import (
    SchedulePattern,
    daily_departures,
)


def per_hour(departures: list[int]) -> list[int]:
    """Departures in each hour of the day."""
    counts = [0] * 24
    for tau in departures:
        counts[tau // 60 % 24] += 1
    return counts


class TestSchedulePattern:
    def test_headway_at_rush_hour(self):
        pattern = SchedulePattern(base_headway=20, rush_factor=4)
        assert pattern.headway_at(8 * 60) == 5  # inside 07:00–09:00
        assert pattern.headway_at(12 * 60) == 20

    def test_headway_never_below_one(self):
        pattern = SchedulePattern(base_headway=2, rush_factor=10)
        assert pattern.headway_at(8 * 60) == 1

    def test_rejects_bad_headway(self):
        with pytest.raises(ValueError, match="headway"):
            SchedulePattern(base_headway=0)

    def test_rejects_bad_rush_factor(self):
        with pytest.raises(ValueError, match="rush"):
            SchedulePattern(rush_factor=0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            SchedulePattern(service_start=100, service_end=50)


class TestDailyDepartures:
    def test_deterministic_per_rng_state(self):
        pattern = SchedulePattern()
        a = daily_departures(pattern, random.Random(3))
        b = daily_departures(pattern, random.Random(3))
        assert a == b

    def test_sorted_unique_in_period(self):
        deps = daily_departures(SchedulePattern(), random.Random(1))
        assert deps == sorted(set(deps))
        assert all(0 <= d < 1440 for d in deps)

    def test_rush_hours_denser(self):
        pattern = SchedulePattern(base_headway=20, rush_factor=4, jitter=0)
        deps = daily_departures(pattern, random.Random(0))
        hist = per_hour(deps)
        rush = hist[7] + hist[8]  # 07:00–09:00
        midday = hist[11] + hist[12]
        assert rush > 1.5 * midday

    def test_night_break_empty(self):
        pattern = SchedulePattern(jitter=0)
        deps = daily_departures(pattern, random.Random(0))
        hist = per_hour(deps)
        # Service 05:00–25:00: buckets 2..4 (02:00–05:00) must be empty.
        assert hist[2] == hist[3] == hist[4] == 0

    def test_wraps_past_midnight(self):
        pattern = SchedulePattern(
            service_start=23 * 60, service_end=25 * 60, jitter=0
        )
        deps = daily_departures(pattern, random.Random(0))
        assert any(d < 60 for d in deps)  # 00:00–01:00 service present
        assert any(d >= 23 * 60 for d in deps)

    def test_offset_shifts_phase(self):
        pattern = SchedulePattern(jitter=0)
        a = daily_departures(pattern, random.Random(0), offset=0)
        b = daily_departures(pattern, random.Random(0), offset=7)
        assert a != b
