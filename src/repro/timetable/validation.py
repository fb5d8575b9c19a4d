"""Timetable validation.

Checks the structural invariants the algorithms rely on: dense ids,
times inside the period for departures, chainable train runs, and the
FIFO property of every route edge (paper §2 notes all evaluated
networks are FIFO).
"""

from __future__ import annotations

from repro.timetable.routes import connections_by_route_leg, partition_routes
from repro.timetable.types import Timetable


class TimetableError(ValueError):
    """Raised when a timetable violates a structural invariant."""


def validate_timetable(timetable: Timetable, *, require_fifo: bool = True) -> None:
    """Validate a timetable, raising :class:`TimetableError` on violation.

    Checks:

    * station/train ids are dense and match list positions;
    * connection endpoints reference existing stations and trains;
    * departure times lie in ``Π``; durations are positive and < period;
    * no train departs twice at one time point of ``Π`` (a run spanning
      a period or more);
    * each train's connections form a simple chain in time;
    * (optionally) every route edge fulfils the FIFO property: a later
      departure on the same leg never arrives strictly earlier.
    """
    if timetable.period <= 0:
        raise TimetableError(f"period must be positive, got {timetable.period}")

    for idx, station in enumerate(timetable.stations):
        if station.id != idx:
            raise TimetableError(
                f"station at position {idx} has id {station.id}; ids must be dense"
            )
    for idx, train in enumerate(timetable.trains):
        if train.id != idx:
            raise TimetableError(
                f"train at position {idx} has id {train.id}; ids must be dense"
            )

    num_stations = timetable.num_stations
    num_trains = timetable.num_trains
    departures: set[tuple[int, int]] = set()
    for c in timetable.connections:
        if not (0 <= c.dep_station < num_stations):
            raise TimetableError(f"connection departs unknown station: {c}")
        if not (0 <= c.arr_station < num_stations):
            raise TimetableError(f"connection arrives at unknown station: {c}")
        if not (0 <= c.train < num_trains):
            raise TimetableError(f"connection references unknown train: {c}")
        if not (0 <= c.dep_time < timetable.period):
            raise TimetableError(
                f"departure time {c.dep_time} outside Π=[0,{timetable.period}): {c}"
            )
        if c.duration <= 0:
            raise TimetableError(f"non-positive duration: {c}")
        if c.duration >= timetable.period:
            raise TimetableError(
                f"duration {c.duration} ≥ period {timetable.period}: {c}"
            )
        if (c.train, c.dep_time) in departures:
            raise TimetableError(
                f"train {c.train} departs twice at {c.dep_time}: its run "
                f"spans the period {timetable.period}: {c}"
            )
        departures.add((c.train, c.dep_time))

    # Chainability (raises ValueError with a precise message on failure).
    try:
        routes = partition_routes(timetable)
        legs = connections_by_route_leg(timetable, routes)
    except ValueError as exc:
        raise TimetableError(str(exc)) from None

    if require_fifo:
        for (route_id, leg), conns in legs.items():
            for earlier, later in zip(conns, conns[1:]):
                if later.arr_time < earlier.arr_time:
                    raise TimetableError(
                        f"route {route_id} leg {leg} violates FIFO: "
                        f"{later} overtakes {earlier}"
                    )
