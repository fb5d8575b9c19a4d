"""Unit tests for the timetable data model."""

import pytest

from repro.timetable.types import (
    Connection,
    Route,
    Station,
    Timetable,
    Train,
)


class TestStation:
    def test_valid(self):
        station = Station(id=3, name="Main St", transfer_time=4)
        assert station.transfer_time == 4

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError, match="id"):
            Station(id=-1, name="x")

    def test_rejects_negative_transfer(self):
        with pytest.raises(ValueError, match="transfer"):
            Station(id=0, name="x", transfer_time=-1)


class TestTrain:
    def test_rejects_negative_id(self):
        with pytest.raises(ValueError, match="id"):
            Train(id=-2)


class TestConnection:
    def test_duration(self):
        c = Connection(train=0, dep_station=0, arr_station=1, dep_time=100, arr_time=130)
        assert c.duration == 30

    def test_rejects_arrival_before_departure(self):
        with pytest.raises(ValueError, match="precede"):
            Connection(train=0, dep_station=0, arr_station=1, dep_time=100, arr_time=90)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Connection(train=0, dep_station=2, arr_station=2, dep_time=0, arr_time=5)

    def test_rejects_negative_departure(self):
        with pytest.raises(ValueError, match="departure"):
            Connection(train=0, dep_station=0, arr_station=1, dep_time=-5, arr_time=5)

    def test_describe_mentions_stations_and_times(self):
        c = Connection(train=7, dep_station=0, arr_station=1, dep_time=480, arr_time=495)
        text = c.describe()
        assert "08:00" in text and "08:15" in text and "train 7" in text


class TestRoute:
    def test_num_legs(self):
        route = Route(id=0, stations=(0, 1, 2), trains=(0,))
        assert route.num_legs == 2

    def test_rejects_short_route(self):
        with pytest.raises(ValueError, match="at least 2"):
            Route(id=0, stations=(0,), trains=(0,))

    def test_rejects_trainless_route(self):
        with pytest.raises(ValueError, match="no trains"):
            Route(id=0, stations=(0, 1), trains=())


class TestTimetable:
    def test_summary_counts(self, toy):
        text = toy.summary()
        assert "4 stations" in text
        assert "connections" in text

    def test_transfer_time(self, toy):
        assert toy.transfer_time(0) == 2
        assert toy.transfer_time(1) == 3

    def test_outgoing_connections_sorted(self, toy):
        conns = toy.outgoing_connections(0)
        deps = [c.dep_time for c in conns]
        assert deps == sorted(deps)
        assert all(c.dep_station == 0 for c in conns)

    def test_outgoing_connections_unknown_station_empty(self, toy):
        # Station 3 (D) has no departures in the toy network.
        assert toy.outgoing_connections(3) == []

    def test_connections_per_station(self, toy):
        assert toy.connections_per_station() == pytest.approx(
            toy.num_connections / toy.num_stations
        )

    def test_empty_timetable_density(self):
        empty = Timetable(stations=[], trains=[], connections=[])
        assert empty.connections_per_station() == 0.0

    def test_delta_uses_period(self):
        tt = Timetable(stations=[], trains=[], connections=[], period=100)
        assert tt.delta(90, 10) == 20
