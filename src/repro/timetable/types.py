"""Core timetable data types (paper §2).

A periodic timetable is ``(C, S, Z, Π, T)``:

* ``S`` — stations, each with a minimum transfer time ``T(S)``;
* ``Z`` — trains;
* ``C`` — elementary connections ``c = (Z, S_dep, S_arr, τ_dep, τ_arr)``;
* ``Π = {0..π−1}`` — discrete time points.

Stations, trains and connections are identified by dense integer ids so
the graph layer can use flat arrays.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from repro.timetable.periodic import DAY_MINUTES, delta, format_time


@dataclass(frozen=True, slots=True)
class Station:
    """A station ``S ∈ S`` with its minimum transfer time ``T(S)``.

    ``transfer_time`` is the number of minutes required to change
    between trains at this station.
    """

    id: int
    name: str
    transfer_time: int = 5

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"station id must be non-negative, got {self.id}")
        if self.transfer_time < 0:
            raise ValueError(
                f"transfer time must be non-negative, got {self.transfer_time}"
            )


@dataclass(frozen=True, slots=True)
class Train:
    """A train ``Z ∈ Z``.  Trains sharing a station sequence form a route."""

    id: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"train id must be non-negative, got {self.id}")


@dataclass(frozen=True, slots=True)
class Connection:
    """An elementary connection ``c = (Z, S_dep, S_arr, τ_dep, τ_arr)``.

    ``dep_time ∈ Π`` while ``arr_time ∈ N0`` may exceed the period
    (a train arriving after midnight).  ``arr_time ≥ dep_time`` always
    holds in the stored (absolute) form.
    """

    train: int
    dep_station: int
    arr_station: int
    dep_time: int
    arr_time: int

    def __post_init__(self) -> None:
        if self.dep_time < 0:
            raise ValueError(f"departure time must be ≥ 0, got {self.dep_time}")
        if self.arr_time < self.dep_time:
            raise ValueError(
                f"arrival {self.arr_time} precedes departure {self.dep_time}"
            )
        if self.dep_station == self.arr_station:
            raise ValueError(
                f"self-loop connection at station {self.dep_station}"
            )

    @property
    def duration(self) -> int:
        """Travel time ``Δ(τ_dep, τ_arr)`` of this connection."""
        return self.arr_time - self.dep_time

    def describe(self) -> str:
        """Human-readable one-liner used by examples and the CLI."""
        return (
            f"train {self.train}: station {self.dep_station} "
            f"{format_time(self.dep_time)} -> station {self.arr_station} "
            f"{format_time(self.arr_time)}"
        )


@dataclass(frozen=True, slots=True)
class Route:
    """A route: the equivalence class of trains sharing a station sequence.

    ``stations`` is the ordered station-id sequence; ``trains`` the ids of
    member trains.
    """

    id: int
    stations: tuple[int, ...]
    trains: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.stations) < 2:
            raise ValueError(
                f"route {self.id} must visit at least 2 stations, "
                f"got {len(self.stations)}"
            )
        if not self.trains:
            raise ValueError(f"route {self.id} has no trains")

    @property
    def num_legs(self) -> int:
        """Number of consecutive station pairs along the route."""
        return len(self.stations) - 1


#: Held while a timetable builds one of its row views, and so while
#: it reads its :class:`TrainNames`.
_VIEWS = threading.Lock()


class TrainNames:
    """The names of a timetable's ``count`` trains, read by ``read`` at
    the first call, once, and kept: how a timetable given as columns
    (:meth:`Timetable.from_columns`) holds its trains until one is
    read.  The timetables derived from it share it
    (:meth:`Timetable.with_connections`), so the names are read once
    for all of them.  Called only under :data:`_VIEWS`."""

    __slots__ = ("count", "_read", "_names")

    def __init__(self, count: int, read: Callable[[], list[str]]) -> None:
        self.count = count
        self._read: Callable[[], list[str]] | None = read
        self._names: list[str] | None = None

    def __call__(self) -> list[str]:
        if self._names is None:
            names = self._read()
            if len(names) != self.count:
                raise ValueError(f"{len(names)} train names for {self.count} trains")
            self._names, self._read = names, None
        return self._names


class Timetable:
    """A full periodic timetable ``(C, S, Z, Π, T)``.

    ``stations`` and ``trains`` are indexed by their dense ids;
    ``connections`` is unordered on construction (the graph builder sorts
    per edge).  ``period`` is the periodicity ``π``.

    A timetable is given either its rows — ``Timetable(stations,
    trains, connections)`` — or its five connection columns
    (:meth:`from_columns`; a loaded or a delayed timetable), which
    are then all it holds of its connections: :attr:`connections` and
    :attr:`trains` are built from the columns on first read, once,
    under a lock, for the callers that read rows (the builder's, the
    oracles, validation, GTFS/JSON export); the pack, the store and
    delays read the columns.  Two timetables are equal when their
    stations, trains, connections, period and name are.
    """

    __slots__ = (
        "stations",
        "period",
        "name",
        "_trains",
        "_train_names",
        "_connections",
        "_columns",
        "_conn_by_dep_station",
    )
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        stations: list[Station],
        trains: list[Train],
        connections: list[Connection],
        period: int = DAY_MINUTES,
        name: str = "unnamed",
    ) -> None:
        self.stations = stations
        self.period = period
        self.name = name
        self.trains = trains
        self.connections = connections

    @classmethod
    def from_columns(
        cls,
        stations: list[Station],
        trains: list[Train] | TrainNames,
        columns: tuple[np.ndarray, ...],
        period: int = DAY_MINUTES,
        name: str = "unnamed",
    ) -> "Timetable":
        """A timetable whose connections are ``columns``, the five of
        :meth:`connection_columns`, kept read-only, and whose trains
        are a list or, until one is read, their :class:`TrainNames`.
        The columns are checked in one vectorised pass: a row that
        :class:`Connection` would refuse raises its ``ValueError``."""
        _, dep_station, arr_station, dep, arr = columns
        bad = (dep < 0) | (arr < dep) | (dep_station == arr_station)
        if bad.any():
            i = int(np.argmax(bad))
            Connection(*(int(column[i]) for column in columns))
        for column in columns:
            column.flags.writeable = False
        timetable = cls.__new__(cls)
        timetable.stations = stations
        timetable.period = period
        timetable.name = name
        if isinstance(trains, TrainNames):
            timetable._trains, timetable._train_names = None, trains
        else:
            timetable.trains = trains
        timetable._connections = None
        timetable._columns = tuple(columns)
        timetable._conn_by_dep_station = None
        return timetable

    def with_connections(
        self, columns: tuple[np.ndarray, ...], name: str
    ) -> "Timetable":
        """A timetable with this one's stations, trains and period over
        the connection ``columns``: what
        :func:`~repro.timetable.delays.apply_delays` returns.  It shares
        this timetable's trains, or their names while none was read."""
        trains = self._train_names if self._trains is None else list(self._trains)
        return Timetable.from_columns(
            list(self.stations), trains, columns, self.period, name
        )

    @property
    def trains(self) -> list[Train]:
        trains = self._trains
        if trains is None:
            with _VIEWS:
                if self._trains is None:
                    built = [
                        Train(i, name)
                        for i, name in enumerate(self._train_names())
                    ]
                    self._trains = built
                trains = self._trains
        return trains

    @trains.setter
    def trains(self, trains: list[Train]) -> None:
        self._trains = trains
        self._train_names = None

    @property
    def connections(self) -> list[Connection]:
        connections = self._connections
        if connections is None:
            with _VIEWS:
                if self._connections is None:
                    built = [
                        Connection(*row)
                        for row in zip(*(c.tolist() for c in self._columns))
                    ]
                    self._connections = built
                connections = self._connections
        return connections

    @connections.setter
    def connections(self, connections: list[Connection]) -> None:
        self._connections = connections
        self._columns = None
        self._conn_by_dep_station = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.connections == other.connections
            and self.stations == other.stations
            and self.trains == other.trains
            and self.period == other.period
            and self.name == other.name
        )

    def __repr__(self) -> str:
        return (
            f"Timetable(stations={self.stations!r}, trains={self.trains!r}, "
            f"connections={self.connections!r}, period={self.period!r}, "
            f"name={self.name!r})"
        )

    @property
    def num_stations(self) -> int:
        return len(self.stations)

    @property
    def num_trains(self) -> int:
        if self._trains is None:
            return self._train_names.count
        return len(self._trains)

    @property
    def num_connections(self) -> int:
        if self._connections is None:
            return int(self._columns[0].size)
        return len(self._connections)

    def transfer_time(self, station: int) -> int:
        """Minimum transfer time ``T(S)`` at the given station."""
        return self.stations[station].transfer_time

    def delta(self, tau1: int, tau2: int) -> int:
        """Cyclic length ``Δ(τ1, τ2)`` under this timetable's period."""
        return delta(tau1, tau2, self.period)

    def connection_columns(self) -> tuple[np.ndarray, ...]:
        """The connections as five read-only int64 columns in list
        order — ``train``, ``dep_station``, ``arr_station``,
        ``dep_time``, ``arr_time`` —: what the pack
        (:func:`~repro.graph.td_arrays.pack_timetable`), the store and
        :func:`~repro.timetable.delays.apply_delays` read the
        connections through.

        The timetable keeps them.  A delayed or loaded timetable is
        built from its columns (:meth:`from_columns`); any other
        computes them on the first call,
        in one pass over the connection objects per field: reading an
        attribute allocates nothing, where a tuple per row would keep
        waking the garbage collector.  The connections must not change
        after that call."""
        if self._columns is None:
            columns = tuple(
                np.fromiter(
                    map(attrgetter(name), self.connections),
                    np.int64,
                    len(self.connections),
                )
                for name in (
                    "train", "dep_station", "arr_station", "dep_time", "arr_time"
                )
            )
            for column in columns:
                column.flags.writeable = False
            self._columns = columns
        return self._columns

    def outgoing_connections(self, station: int) -> list[Connection]:
        """``conn(S)``: all elementary connections departing ``station``,
        ordered non-decreasingly by departure time (paper §3.1).

        The per-station index is built lazily on first use and cached.
        """
        if self._conn_by_dep_station is None:
            index: dict[int, list[int]] = {}
            order = sorted(
                range(len(self.connections)),
                key=lambda k: (
                    self.connections[k].dep_time,
                    self.connections[k].arr_time,
                    k,
                ),
            )
            for k in order:
                index.setdefault(self.connections[k].dep_station, []).append(k)
            self._conn_by_dep_station = index
        ids = self._conn_by_dep_station.get(station, [])
        return [self.connections[k] for k in ids]

    def connections_per_station(self) -> float:
        """Density figure the paper uses to contrast bus vs rail networks."""
        if not self.stations:
            return 0.0
        return self.num_connections / len(self.stations)

    def summary(self) -> str:
        """Multi-line summary used by the CLI's ``info`` command."""
        return (
            f"timetable {self.name!r}: {self.num_stations} stations, "
            f"{self.num_trains} trains, {self.num_connections} connections, "
            f"period {self.period} min, "
            f"{self.connections_per_station():.1f} connections/station"
        )
