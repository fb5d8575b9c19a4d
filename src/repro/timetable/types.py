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

from dataclasses import dataclass, field
from operator import attrgetter

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


@dataclass(slots=True)
class Timetable:
    """A full periodic timetable ``(C, S, Z, Π, T)``.

    ``stations`` and ``trains`` are indexed by their dense ids;
    ``connections`` is unordered on construction (the graph builder sorts
    per edge).  ``period`` is the periodicity ``π``.
    """

    stations: list[Station]
    trains: list[Train]
    connections: list[Connection]
    period: int = DAY_MINUTES
    name: str = "unnamed"
    _conn_by_dep_station: dict[int, list[int]] | None = field(
        default=None, repr=False, compare=False
    )
    #: :meth:`connection_columns`, read-only: handed over by whoever
    #: built the connections from columns, else computed on first call.
    _columns: tuple[np.ndarray, ...] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_stations(self) -> int:
        return len(self.stations)

    @property
    def num_trains(self) -> int:
        return len(self.trains)

    @property
    def num_connections(self) -> int:
        return len(self.connections)

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
        handed its columns when it is built
        (:func:`~repro.timetable.delays.apply_delays`,
        ``repro.store``); any other computes them on the first call,
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
        return len(self.connections) / len(self.stations)

    def summary(self) -> str:
        """Multi-line summary used by the CLI's ``info`` command."""
        return (
            f"timetable {self.name!r}: {self.num_stations} stations, "
            f"{self.num_trains} trains, {self.num_connections} connections, "
            f"period {self.period} min, "
            f"{self.connections_per_station():.1f} connections/station"
        )
