"""Unit tests for timetable validation."""

import pytest

from repro.timetable.builder import TimetableBuilder
from repro.timetable.types import Connection, Station, Timetable, Train
from repro.timetable.validation import TimetableError, validate_timetable


def _base() -> Timetable:
    builder = TimetableBuilder(name="valid")
    a, b = builder.add_station("a"), builder.add_station("b")
    builder.add_trip([(a, 100), (b, 110)])
    return builder.build()


class TestValidateTimetable:
    def test_valid_passes(self):
        validate_timetable(_base())

    def test_bad_period(self):
        tt = _base()
        tt.period = 0
        with pytest.raises(TimetableError, match="period"):
            validate_timetable(tt)

    def test_non_dense_station_ids(self):
        tt = _base()
        tt.stations = [Station(5, "a"), Station(1, "b")]
        with pytest.raises(TimetableError, match="dense"):
            validate_timetable(tt)

    def test_non_dense_train_ids(self):
        tt = _base()
        tt.trains = [Train(3)]
        with pytest.raises(TimetableError, match="dense"):
            validate_timetable(tt)

    def test_unknown_dep_station(self):
        tt = _base()
        tt.connections.append(
            Connection(train=0, dep_station=9, arr_station=0, dep_time=0, arr_time=1)
        )
        with pytest.raises(TimetableError, match="unknown station"):
            validate_timetable(tt)

    def test_unknown_train(self):
        tt = _base()
        tt.connections.append(
            Connection(train=4, dep_station=0, arr_station=1, dep_time=0, arr_time=1)
        )
        with pytest.raises(TimetableError, match="unknown train"):
            validate_timetable(tt)

    def test_departure_outside_period(self):
        tt = _base()
        tt.connections.append(
            Connection(train=0, dep_station=1, arr_station=0, dep_time=2000, arr_time=2010)
        )
        with pytest.raises(TimetableError, match="outside"):
            validate_timetable(tt)

    def test_overlong_duration(self):
        tt = _base()
        tt.connections = [
            Connection(train=0, dep_station=0, arr_station=1, dep_time=0, arr_time=1500)
        ]
        with pytest.raises(TimetableError, match="duration"):
            validate_timetable(tt)

    def test_a_run_spanning_the_period_is_refused(self):
        """Departing s0 at 0 and s2 at 7 ≡ 0 (period 7): the graph would
        seed s0's connection at s2's route node — one-to-all searches
        from s0 reached s2 at time 0 — so the timetable is refused."""
        builder = TimetableBuilder(period=7, name="long run")
        s0, s1, s2, s3 = (builder.add_station(f"s{k}") for k in range(4))
        builder.add_trip([(s0, 0), (s1, 1), (s2, 7), (s3, 8)])
        with pytest.raises(TimetableError, match="departs twice at 0"):
            builder.build()

    def test_fifo_violation_detected(self):
        builder = TimetableBuilder(name="nonfifo")
        a, b = builder.add_station("a"), builder.add_station("b")
        builder.add_trip([(a, 100), (b, 160)], name="slow")
        builder.add_trip([(a, 110), (b, 140)], name="fast overtakes")
        with pytest.raises(TimetableError, match="FIFO"):
            builder.build()

    def test_fifo_violation_allowed_when_disabled(self):
        builder = TimetableBuilder(name="nonfifo")
        a, b = builder.add_station("a"), builder.add_station("b")
        builder.add_trip([(a, 100), (b, 160)])
        builder.add_trip([(a, 110), (b, 140)])
        tt = builder.build(require_fifo=False)
        assert tt.num_connections == 2


def test_generated_instances_are_valid(oahu_tiny, germany_tiny):
    validate_timetable(oahu_tiny)
    validate_timetable(germany_tiny)
