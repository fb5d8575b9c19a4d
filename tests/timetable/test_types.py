"""Unit tests for the timetable data model."""

import pytest

from repro.timetable.types import (
    Connection,
    Route,
    Station,
    Timetable,
    Train,
    TrainNames,
)

from tests.helpers import CORRUPT_CONNECTION_ROWS


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


def _columns_of(timetable):
    return tuple(column.copy() for column in timetable.connection_columns())


class TestTimetableFromColumns:
    """A timetable given as its five columns builds its rows on first
    read, once, and equals the timetable given the rows."""

    def test_equals_the_row_timetable(self, toy):
        names = TrainNames(toy.num_trains, lambda: [t.name for t in toy.trains])
        built = Timetable.from_columns(
            list(toy.stations), names, _columns_of(toy), toy.period, toy.name
        )
        assert built.num_trains == toy.num_trains
        assert built.num_connections == toy.num_connections
        assert built._connections is None and built._trains is None
        assert built == toy and toy == built
        assert built.connections is built.connections
        assert built.connections == toy.connections
        assert built.trains is built.trains
        assert built.trains == toy.trains

    def test_two_column_timetables_compare_by_connections(self, toy):
        one, two = (
            Timetable.from_columns(
                toy.stations, toy.trains, _columns_of(toy), toy.period, toy.name
            )
            for _ in range(2)
        )
        assert one == two
        columns = list(_columns_of(toy))
        columns[4] = columns[4] + 1
        later = Timetable.from_columns(
            toy.stations, toy.trains, tuple(columns), toy.period, toy.name
        )
        assert later != one

    def test_derived_timetables_read_the_names_once(self, toy):
        reads = []

        def read():
            reads.append(1)
            return [t.name for t in toy.trains]

        names = TrainNames(toy.num_trains, read)
        first = Timetable.from_columns(
            list(toy.stations), names, _columns_of(toy), toy.period, toy.name
        )
        second = first.with_connections(first.connection_columns(), "second")
        assert second.num_trains == toy.num_trains and not reads
        assert first.trains == second.trains == toy.trains
        assert reads == [1]

    def test_a_name_count_mismatch_is_refused(self, toy):
        names = TrainNames(toy.num_trains + 1, lambda: [t.name for t in toy.trains])
        built = Timetable.from_columns(
            list(toy.stations), names, _columns_of(toy), toy.period
        )
        with pytest.raises(ValueError, match="train names for"):
            built.trains

    @pytest.mark.parametrize(
        "corrupt, message",
        CORRUPT_CONNECTION_ROWS,
        ids=[corrupt.__name__[1:] for corrupt, _ in CORRUPT_CONNECTION_ROWS],
    )
    def test_a_row_connection_would_refuse_is_refused(self, toy, corrupt, message):
        columns = _columns_of(toy)
        corrupt(columns, toy.num_connections // 2)
        with pytest.raises(ValueError, match=message):
            Timetable.from_columns(toy.stations, toy.trains, columns)

    def test_setting_the_rows_drops_the_columns(self, toy):
        built = Timetable.from_columns(
            toy.stations, toy.trains, _columns_of(toy), toy.period
        )
        built.connections = built.connections[:1]
        assert built.num_connections == 1
        assert built.connection_columns()[0].size == 1
