"""Incremental patching of the packed time-dependent graph under delays.

Delays never change topology: a delayed train keeps its station
sequence (``repro.timetable.delays`` module docstring), so routes,
route nodes, constant boarding/alighting edges, and every CSR shape of
the packed arrays survive a delay batch unchanged.  What *can* move
are travel-time values:

* the travel-time function of every route leg a delayed train runs on
  (the leg's connection multiset changed);
* the ``conn(S)`` rows of stations a delayed connection departs from
  (row *content* and intra-row order, never row size).

:func:`patch_td_arrays` rebuilds exactly those from the routes and the
delayed timetable, with no object graph: route ``r``'s leg ``k`` is
node ``|S| + Σ_{r' < r} len(r'.stations) + k`` (the numbering of
:func:`~repro.graph.td_model.build_td_graph`), and a ``conn(S)``
entry's seed is the route node of its train's leg.  A leg's function
is built as a cold build builds it
(``TravelTimeFunction.from_connections``), so the patched pack is
equal, buffer by buffer and mirror by mirror, to
``pack_td_graph(build_td_graph(delayed))`` — the contract
``tests/graph/test_td_arrays.py`` and
``tests/streams/test_incremental_equivalence.py`` pin.  The distance
table is not patched: a replan scans the patched pack for every row
(:func:`repro.query.distance_table.build_distance_table`).
"""

from __future__ import annotations

import numpy as np

from repro.functions.piecewise import TravelTimeFunction
from repro.graph.td_arrays import TDGraphArrays, travel_time_rows
from repro.timetable.types import Connection, Route, Timetable


def _connections_by_train(
    timetable: Timetable, trains: set[int]
) -> dict[int, list[Connection]]:
    """The listed trains' connections in travel (list) order."""
    runs: dict[int, list[Connection]] = {t: [] for t in trains}
    for c in timetable.connections:
        if c.train in trains:
            runs[c.train].append(c)
    return runs


def patch_td_arrays(
    arrays: TDGraphArrays,
    routes: list[Route],
    timetable: Timetable,
    delayed: Timetable,
    touched_trains: set[int],
) -> tuple[TDGraphArrays, int]:
    """The pack of ``delayed``, patched from ``arrays``, the pack of
    ``timetable``; and the number of route legs whose travel-time
    function was rebuilt.

    ``routes`` are ``timetable``'s (and ``delayed``'s: delays keep
    them), ``touched_trains`` the trains the delay batch names.  Only
    the functions of legs whose connection multiset changed are
    rebuilt, and only the ``conn(S)`` rows of stations a re-timed
    connection departs from.

    Shares every topology buffer (CSR pointers, edge targets, node
    maps) with the old pack; copies only the value pools that can move
    (``ttf_dep``/``ttf_dur``/``ttf_fifo`` and the ``conn`` rows) and
    patches the changed slices in place.  The kernel-side adjacency
    mirror is patched per-node instead of being rebuilt from scratch
    (an O(E) Python rebuild would eat most of the incremental win on
    large graphs): only the changed functions get new
    :func:`~repro.graph.td_arrays.travel_time_rows`, in one call over
    their points.  The reverse min-cost mirror is deliberately *not*
    carried over: a re-timed edge may be cheaper than it ever was, and
    a lower bound that overestimates makes the goal-directed search
    wrong, not slow.  The new pack builds its own as it is constructed
    (numpy up to one list per node).
    """
    # The route node of each route's first stop; leg k's is k further.
    # And per route, each station's departing legs' nodes in travel
    # order (more than one where the route passes the station twice).
    first_node: list[int] = []
    boarding: list[dict[int, list[int]]] = []
    node = arrays.num_stations
    for route in routes:
        first_node.append(node)
        legs_at: dict[int, list[int]] = {}
        for leg, station in enumerate(route.stations[:-1]):
            legs_at.setdefault(station, []).append(node + leg)
        boarding.append(legs_at)
        node += len(route.stations)
    route_of_train = {
        train: route.id for route in routes for train in route.trains
    }
    delayed_routes = {
        route_of_train[t] for t in touched_trains if t in route_of_train
    }
    member_trains = {
        train for rid in delayed_routes for train in routes[rid].trains
    }
    old_runs = _connections_by_train(timetable, member_trains)
    new_runs = _connections_by_train(delayed, member_trains)

    # Each touched route's legs, by route node, from the delayed
    # timetable; a leg changed if one of its connections was re-timed.
    legs: dict[int, list[Connection]] = {}
    changed_nodes: set[int] = set()
    changed_stations: set[int] = set()
    for train in member_trains:
        base = first_node[route_of_train[train]]
        for leg, (old_c, new_c) in enumerate(
            zip(old_runs[train], new_runs[train])
        ):
            legs.setdefault(base + leg, []).append(new_c)
            if (
                new_c.dep_time != old_c.dep_time
                or new_c.arr_time != old_c.arr_time
            ):
                changed_nodes.add(base + leg)
                # conn(S) is ordered by (dep_time, arr_time): a ride
                # that only got longer or shorter can reorder its row.
                changed_stations.add(new_c.dep_station)

    ttf_dep = arrays.ttf_dep.copy()
    ttf_dur = arrays.ttf_dur.copy()
    ttf_fifo = arrays.ttf_fifo.copy()
    edge_indptr = arrays.edge_indptr
    ttf_indptr = arrays.ttf_indptr

    changed = []  # (node, slot, ttf id) per rebuilt leg
    for node in sorted(changed_nodes):
        lo = int(edge_indptr[node])
        # A route node's one route edge: its only edge with a function.
        slot = next(
            slot
            for slot, fid in enumerate(arrays.edge_ttf[lo : edge_indptr[node + 1]])
            if fid >= 0
        )
        fid = int(arrays.edge_ttf[lo + slot])
        ttf = TravelTimeFunction.from_connections(legs[node], delayed.period)
        lo, hi = int(ttf_indptr[fid]), int(ttf_indptr[fid + 1])
        if hi - lo != len(ttf):  # pragma: no cover — delays keep counts
            raise AssertionError(
                f"ttf {fid} changed size: {hi - lo} -> {len(ttf)}"
            )
        ttf_dep[lo:hi] = ttf.deps
        ttf_dur[lo:hi] = ttf.durs
        ttf_fifo[fid] = ttf.is_fifo()
        changed.append((node, slot, fid))

    # The changed functions' points as a pool of their own, one row each.
    fids = sorted({fid for _, _, fid in changed})
    spans = [np.arange(ttf_indptr[f], ttf_indptr[f + 1]) for f in fids]
    points = np.concatenate(spans) if spans else np.zeros(0, dtype=np.int64)
    rows = travel_time_rows(
        np.cumsum([0, *map(len, spans)]),
        ttf_dep[points],
        ttf_dur[points],
        arrays.period,
    )
    row_of = dict(zip(fids, rows))
    adjacency = list(arrays.kernel_adjacency())
    for node, slot, fid in changed:
        edges = list(adjacency[node])
        target, weight, _old = edges[slot]
        edges[slot] = (target, weight, row_of[fid])
        adjacency[node] = edges

    conn_dep = arrays.conn_dep.copy()
    conn_start = arrays.conn_start.copy()
    conn_indptr = arrays.conn_indptr
    # Collect the changed stations' conn(S) rows in one pass instead
    # of Timetable.outgoing_connections, whose lazy index sorts the
    # *whole* timetable — on a large city that single sort would cost
    # more than the entire patch.  A stable sort on (dep_time,
    # arr_time) reproduces the index's order exactly (its global sort
    # key is (dep_time, arr_time, position)); each entry's seed is the
    # route node of its train's leg — the k-th departure of a train
    # from a station its route passes twice leaves from the k-th leg.
    entries: dict[int, list[tuple[int, int, int]]] = {
        s: [] for s in changed_stations
    }
    visits: dict[tuple[int, int], int] = {}
    for c in delayed.connections:
        row = entries.get(c.dep_station)
        if row is None:
            continue
        starts = boarding[route_of_train[c.train]][c.dep_station]
        k = 0
        if len(starts) > 1:
            k = visits.get((c.train, c.dep_station), 0)
            visits[(c.train, c.dep_station)] = k + 1
        row.append((c.dep_time, c.arr_time, starts[k]))
    for station in sorted(changed_stations):
        row = entries[station]
        row.sort(key=lambda entry: entry[:2])
        lo, hi = int(conn_indptr[station]), int(conn_indptr[station + 1])
        if hi - lo != len(row):  # pragma: no cover — delays keep counts
            raise AssertionError(
                f"station {station} changed departure count: "
                f"{hi - lo} -> {len(row)}"
            )
        conn_dep[lo:hi] = [dep for dep, _, _ in row]
        conn_start[lo:hi] = [start for _, _, start in row]

    patched = TDGraphArrays(
        num_nodes=arrays.num_nodes,
        num_stations=arrays.num_stations,
        period=arrays.period,
        node_station=arrays.node_station,
        edge_indptr=arrays.edge_indptr,
        edge_target=arrays.edge_target,
        edge_weight=arrays.edge_weight,
        edge_ttf=arrays.edge_ttf,
        ttf_indptr=arrays.ttf_indptr,
        ttf_dep=ttf_dep,
        ttf_dur=ttf_dur,
        ttf_fifo=ttf_fifo,
        conn_indptr=arrays.conn_indptr,
        conn_dep=conn_dep,
        conn_start=conn_start,
        transfer_time=arrays.transfer_time,
        _adjacency_cache=adjacency,
    )
    return patched, len(changed)
