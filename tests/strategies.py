"""Hypothesis strategies shared by the oracle-equivalence suites."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.timetable.builder import TimetableBuilder


@st.composite
def adversarial_timetables(draw, max_stations: int = 6, max_lines: int = 5):
    """A small valid timetable built to hit the kernels' edge cases.

    Each line runs ``stops`` with fixed per-leg durations at every
    drawn departure.  Departures are drawn *with* repetition (duplicate
    trains) and biased to the end of a short period (wrap-around); an
    optional express repeats the first departure one minute later with
    every leg shortened, overtaking the local.  Transfer times are
    mostly zero.  Stations no line starts at have no departures.
    """
    period = draw(st.sampled_from([60, 240, 1440]))
    num_stations = draw(st.integers(3, max_stations))
    builder = TimetableBuilder(period=period, name="adversarial")
    stations = [
        builder.add_station(
            f"s{k}", transfer_time=draw(st.sampled_from([0, 0, 1, 4]))
        )
        for k in range(num_stations)
    ]
    late = st.integers(period - 8, period - 1)  # wraps on the first leg
    for line in range(draw(st.integers(2, max_lines))):
        stops = draw(
            st.lists(
                st.sampled_from(stations), min_size=2, max_size=4, unique=True
            )
        )
        legs = draw(
            st.lists(
                st.integers(1, 12),
                min_size=len(stops) - 1,
                max_size=len(stops) - 1,
            )
        )
        departures = draw(
            st.lists(
                st.one_of(st.integers(0, period - 1), late),
                min_size=1,
                max_size=4,
            )
        )
        runs = [(dep, legs) for dep in departures]
        if draw(st.booleans()):
            runs.append((departures[0] + 1, [max(1, d - 2) for d in legs]))
        for n, (dep, durations) in enumerate(runs):
            times = np.cumsum([dep, *durations]).tolist()
            builder.add_trip(list(zip(stops, times)), name=f"l{line}-{n}")
    return builder.build(require_fifo=False)


@st.composite
def retimings(draw, timetable):
    """One to three of ``timetable``'s trains, each to depart 0–20
    minutes later and ride −6…6 minutes longer: the ``changes`` of
    :func:`tests.helpers.retimed`."""
    trains = draw(
        st.lists(
            st.integers(0, timetable.num_trains - 1),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return {
        train: draw(st.tuples(st.integers(0, 20), st.integers(-6, 6)))
        for train in trains
    }
