"""Hypothesis strategies shared by the oracle-equivalence suites."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.timetable.builder import TimetableBuilder
from repro.timetable.delays import Delay


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


@st.composite
def delay_batches(draw, timetable):
    """A delay batch for ``timetable`` and its slack: ``(delays,
    slack_per_leg)``.  Up to four delays of 0–30 minutes — often less
    than the slack — or of one to two periods (departures wrap either
    way), each now and then
    doubled at the same stop; slack 0–3.  Now and then a delay names
    a train past the last or a ``from_stop`` past its train's run,
    which :func:`~repro.timetable.delays.apply_delays` refuses."""
    legs = np.bincount(
        [c.train for c in timetable.connections], minlength=timetable.num_trains
    ).tolist()
    period = timetable.period
    now_and_then = st.integers(0, 9).map(lambda k: int(k == 0))
    delays = []
    for _ in range(draw(st.sampled_from((1, 2, 3, 4, 0)))):
        train = draw(st.integers(0, timetable.num_trains - 1 + draw(now_and_then)))
        run = legs[train] if train < len(legs) else 1
        stop = draw(st.integers(0, run - 1 + draw(now_and_then)))
        minutes = draw(
            st.one_of(
                st.integers(0, 4), st.integers(0, 30), st.integers(period, 2 * period)
            )
        )
        delays.append(Delay(train=train, minutes=minutes, from_stop=stop))
        if draw(st.booleans()):
            delays.append(
                Delay(train=train, minutes=draw(st.integers(0, 30)), from_stop=stop)
            )
    return delays, draw(st.integers(0, 3))
