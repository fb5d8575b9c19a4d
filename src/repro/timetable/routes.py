"""Route partitioning (paper §2).

The set ``Z`` of trains is partitioned into *routes*: two trains are
equivalent iff they run through the same sequence of stations.  Route
nodes in the realistic time-dependent model correspond 1:1 to
(route, station) pairs produced here.

Ordering invariant: a train's elementary connections appear in **travel
order** in ``Timetable.connections`` (the builder and all loaders emit
them this way).  Departure times are periodic (``τ_dep ∈ Π``), so a
trip crossing midnight has a *smaller* normalized departure on its late
legs — travel order cannot be reconstructed by sorting on time points,
which is why the list order is authoritative.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.timetable.types import Connection, Route, Timetable


def _station_runs(
    timetable: Timetable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every train that has connections, in id order, and its station
    sequence, read off the connection columns in travel (list) order:
    ``(trains, indptr, stations)``, train ``trains[j]`` visiting
    ``stations[indptr[j] : indptr[j + 1]]``.

    Raises ``ValueError`` if a train's connections do not form a single
    station-chained run, naming the break that a walk of the trains in
    order of first appearance meets first.  (The run's times need no
    check: a periodic departure lifted onto the unwrapped clock after
    the previous arrival always moves forward.)
    """
    train, dep_station, arr_station, _, _ = timetable.connection_columns()
    # Stable: each train's connections stay in travel order.
    order = np.argsort(train, kind="stable")
    train, dep_station, arr_station = (
        train[order], dep_station[order], arr_station[order]
    )
    begins = np.ones(train.size, dtype=bool)
    begins[1:] = train[1:] != train[:-1]
    first = np.flatnonzero(begins)
    breaks = np.flatnonzero(~begins[1:] & (dep_station[1:] != arr_station[:-1])) + 1
    if breaks.size:
        # Where the walk meets it: by the train's first appearance in
        # the list, then along the run.
        appears = order[first[np.searchsorted(first, breaks, side="right") - 1]]
        k = int(breaks[np.lexsort((breaks, appears))[0]])
        raise ValueError(
            f"train {train[k]} departs station {dep_station[k]} but "
            f"its previous stop was {arr_station[k - 1]}"
        )
    stations = np.insert(arr_station, first, dep_station[first])
    indptr = np.append(first + np.arange(first.size), stations.size)
    return train[first], indptr, stations


def train_station_sequences(
    timetable: Timetable,
) -> dict[int, tuple[int, ...]]:
    """Each train's ordered station sequence, from its connections in
    travel (list) order, in train id order.

    Raises ``ValueError`` if a train's connections do not form a single
    station-chained run.
    """
    trains, indptr, stations = _station_runs(timetable)
    return {
        train: tuple(stations[lo:hi].tolist())
        for train, lo, hi in zip(
            trains.tolist(), indptr[:-1].tolist(), indptr[1:].tolist()
        )
    }


def partition_routes(timetable: Timetable) -> list[Route]:
    """Partition trains into routes by identical station sequences.

    Returns routes with dense ids ``0..r−1``, deterministically ordered by
    (sequence, first member train id) so repeated runs agree exactly.
    Trains are grouped on the connection columns with numpy, a
    sequence length at a time: nothing per connection or per train is
    built, only the routes.  (Grouping the tuples of
    :func:`train_station_sequences` in a dict measured 0.7–0.8 MB
    more at the peak of a loaded ``washington``/small store's first
    swap, in process and in ``serve``.)
    """
    trains, indptr, stations = _station_runs(timetable)
    lengths = np.diff(indptr)
    groups: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        # Members in id order; the lexsort is stable, so each group's
        # trains stay sorted.
        members = np.flatnonzero(lengths == length)
        rows = stations[indptr[members, None] + np.arange(length)]
        order = np.lexsort(rows.T[::-1])
        rows, members = rows[order], members[order]
        starts = np.flatnonzero(
            np.append(True, (rows[1:] != rows[:-1]).any(axis=1))
        ).tolist()
        for lo, hi in zip(starts, [*starts[1:], members.size]):
            groups.append(
                (tuple(rows[lo].tolist()), tuple(trains[members[lo:hi]].tolist()))
            )
    # Sequences are distinct, so they alone order the routes.
    groups.sort()
    return [
        Route(id=i, stations=seq, trains=members)
        for i, (seq, members) in enumerate(groups)
    ]


def connections_by_route_leg(
    timetable: Timetable, routes: list[Route]
) -> dict[tuple[int, int], list[Connection]]:
    """Group elementary connections onto route legs.

    Key ``(route_id, leg_index)`` identifies the edge between the
    ``leg_index``-th and ``leg_index+1``-th station of the route; the
    value lists that leg's elementary connections, sorted by departure
    time point.  A train's k-th connection (in travel order) lands on
    leg k of its route.
    """
    route_of_train: dict[int, Route] = {}
    for route in routes:
        for train_id in route.trains:
            route_of_train[train_id] = route

    legs: dict[tuple[int, int], list[Connection]] = defaultdict(list)
    progress: dict[int, int] = defaultdict(int)
    for c in timetable.connections:
        route = route_of_train.get(c.train)
        if route is None:
            raise ValueError(f"connection references unknown train {c.train}")
        leg = progress[c.train]
        if leg >= route.num_legs or route.stations[leg] != c.dep_station:
            raise ValueError(
                f"connection {c} does not match route {route.id} at leg {leg}"
            )
        legs[(route.id, leg)].append(c)
        progress[c.train] += 1

    for conns in legs.values():
        conns.sort(key=lambda c: (c.dep_time, c.arr_time))
    return dict(legs)
