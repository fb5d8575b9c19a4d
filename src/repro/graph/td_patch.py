"""Incremental patching of the time-dependent graph under delays.

Delays never change topology: a delayed train keeps its station
sequence (``repro.timetable.delays`` module docstring), so routes,
route nodes, constant boarding/alighting edges, and every CSR shape of
the packed arrays survive a delay batch unchanged.  What *can* move
are travel-time values:

* the :class:`~repro.functions.piecewise.TravelTimeFunction` of every
  route leg a delayed train runs on (the leg's connection multiset
  changed);
* the ``conn(S)`` departure rows of stations a delayed connection
  departs from (row *content* and intra-row order, never row size);
* ``conn_start_node`` keys for the delayed trains (keyed by the new
  departure times).

:func:`patch_td_graph` rebuilds exactly those travel-time functions
using the same construction as :func:`~repro.graph.td_model.build_td_graph`
(leg connections sorted by ``(dep_time, arr_time)``, then
``TravelTimeFunction.from_connections``), so the patched graph is
value-identical to a cold build from the delayed timetable — the
bitwise-equivalence contract ``tests/streams/test_incremental_equivalence.py``
pins.  :func:`patch_td_arrays` applies the same delta to the packed
flat-array twin: every unchanged buffer is *shared* with the old pack,
changed pools are copied once and patched in place (point counts per
ttf never change — ``from_connections`` emits one point per
connection, and delays preserve each leg's connection count).

The :class:`GraphPatch` returned alongside is that delta, which
:func:`patch_td_arrays` reads.  The distance table is not patched: a
replan scans the patched pack for every row
(:func:`repro.query.distance_table.build_distance_table`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.functions.piecewise import TravelTimeFunction
from repro.graph.td_arrays import TDGraphArrays, travel_time_rows
from repro.graph.td_model import Edge, TDGraph
from repro.timetable.types import Connection, Timetable


@dataclass(slots=True)
class GraphPatch:
    """What one delay batch changed, as computed by :func:`patch_td_graph`.

    ``changed_edges`` lists ``(node, slot, new_ttf)`` for every route
    edge whose travel-time function moved (``slot`` indexes the node's
    adjacency list).  ``changed_stations`` are stations whose
    ``conn(S)`` row content changed (a re-timed connection departs
    there, or one of its rides got longer or shorter).
    """

    changed_edges: list[tuple[int, int, TravelTimeFunction]] = field(
        default_factory=list
    )
    changed_stations: set[int] = field(default_factory=set)
    #: Legs rebuilt (diagnostics: replan accounting / bench metrics).
    rebuilt_legs: int = 0


def _connections_by_train(
    timetable: Timetable, trains: set[int]
) -> dict[int, list[Connection]]:
    """The listed trains' connections in travel (list) order."""
    runs: dict[int, list[Connection]] = {t: [] for t in trains}
    for c in timetable.connections:
        if c.train in trains:
            runs[c.train].append(c)
    return runs


def patch_td_graph(
    graph: TDGraph,
    delayed: Timetable,
    touched_trains: set[int],
) -> tuple[TDGraph, GraphPatch]:
    """A new :class:`TDGraph` for ``delayed``, patched from ``graph``.

    ``touched_trains`` are the trains named by the delay batch;
    ``delayed`` must be ``apply_delays(graph.timetable, batch)`` for
    that batch.  Shares routes, node/station maps and every untouched
    adjacency row with ``graph``; rebuilds only the travel-time
    functions of legs whose connection multiset actually changed.
    Value-identical to ``build_td_graph(delayed)``.
    """
    old_timetable = graph.timetable
    route_of_train: dict[int, "object"] = {}
    for route in graph.routes:
        for train in route.trains:
            route_of_train[train] = route
    delayed_routes = {
        route_of_train[t].id for t in touched_trains if t in route_of_train
    }
    member_trains: set[int] = set()
    for route in graph.routes:
        if route.id in delayed_routes:
            member_trains.update(route.trains)

    old_runs = _connections_by_train(old_timetable, member_trains)
    new_runs = _connections_by_train(delayed, member_trains)

    patch = GraphPatch()

    # Leg connection lists of the touched routes, from the delayed
    # timetable, in the exact order build_td_graph uses.
    new_legs: dict[tuple[int, int], list[Connection]] = {}
    changed_legs: dict[int, set[int]] = {rid: set() for rid in delayed_routes}
    for train in member_trains:
        route = route_of_train[train]
        for leg, (old_c, new_c) in enumerate(
            zip(old_runs[train], new_runs[train])
        ):
            new_legs.setdefault((route.id, leg), []).append(new_c)
            if (
                new_c.dep_time != old_c.dep_time
                or new_c.arr_time != old_c.arr_time
            ):
                changed_legs[route.id].add(leg)
                # conn(S) is ordered by (dep_time, arr_time): a ride
                # that only got longer or shorter can reorder its row.
                patch.changed_stations.add(new_c.dep_station)
    for conns in new_legs.values():
        conns.sort(key=lambda c: (c.dep_time, c.arr_time))

    # Patch adjacency rows: only route nodes whose leg actually changed.
    adjacency = list(graph.adjacency)
    period = delayed.period
    for route in graph.routes:
        if route.id not in delayed_routes:
            continue
        for pos in sorted(changed_legs[route.id]):
            conns = new_legs.get((route.id, pos), [])
            if not conns:
                continue
            node = graph.route_node_ids[(route.id, pos)]
            ttf = TravelTimeFunction.from_connections(conns, period)
            edges = list(adjacency[node])
            for slot, edge in enumerate(edges):
                if edge.ttf is not None:
                    edges[slot] = Edge(edge.target, 0, ttf)
                    patch.changed_edges.append((node, slot, ttf))
                    patch.rebuilt_legs += 1
                    break
            else:  # pragma: no cover — structure guaranteed by build
                raise AssertionError(
                    f"route {route.id} leg {pos} has no route edge"
                )
            adjacency[node] = edges

    # Re-key conn_start_node for the touched trains only.  Iterating
    # legs in travel order reproduces build_td_graph's last-write-wins
    # on the (rare) wrap collision of two legs sharing a departure
    # time point after a delay.
    conn_start_node = dict(graph.conn_start_node)
    retouched = {t for t in touched_trains if t in route_of_train}
    for train in retouched:
        for c in old_runs[train]:
            conn_start_node.pop((train, c.dep_time), None)
    for train in retouched:
        route = route_of_train[train]
        for leg, c in enumerate(new_runs[train]):
            conn_start_node[(c.train, c.dep_time)] = graph.route_node_ids[
                (route.id, leg)
            ]

    patched = TDGraph(
        timetable=delayed,
        routes=graph.routes,
        adjacency=adjacency,
        node_station=graph.node_station,
        route_node_ids=graph.route_node_ids,
        conn_start_node=conn_start_node,
    )
    return patched, patch


def patch_td_arrays(
    arrays: TDGraphArrays,
    patched_graph: TDGraph,
    patch: GraphPatch,
) -> TDGraphArrays:
    """The packed twin of :func:`patch_td_graph`: a new
    :class:`TDGraphArrays` for the patched graph, elementwise-equal to
    ``pack_td_graph(patched_graph)``.

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
    delayed = patched_graph.timetable

    ttf_dep = arrays.ttf_dep.copy()
    ttf_dur = arrays.ttf_dur.copy()
    ttf_fifo = arrays.ttf_fifo.copy()
    edge_indptr = arrays.edge_indptr
    ttf_indptr = arrays.ttf_indptr

    changed = []  # (node, slot, ttf id) per changed edge
    for node, slot, ttf in patch.changed_edges:
        e = int(edge_indptr[node]) + slot
        fid = int(arrays.edge_ttf[e])
        if fid < 0:  # pragma: no cover — changed edges are route edges
            raise AssertionError(f"edge {e} has no travel-time function")
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
    # more than the entire patch.  Stable per-row sort on
    # (dep_time, arr_time) reproduces the index's order exactly (its
    # global sort key is (dep_time, arr_time, position)).
    rows: dict[int, list] = {s: [] for s in patch.changed_stations}
    for c in delayed.connections:
        row = rows.get(c.dep_station)
        if row is not None:
            row.append(c)
    for station in sorted(patch.changed_stations):
        conns = rows[station]
        conns.sort(key=lambda c: (c.dep_time, c.arr_time))
        lo, hi = int(conn_indptr[station]), int(conn_indptr[station + 1])
        if hi - lo != len(conns):  # pragma: no cover — delays keep counts
            raise AssertionError(
                f"station {station} changed departure count: "
                f"{hi - lo} -> {len(conns)}"
            )
        conn_dep[lo:hi] = [c.dep_time for c in conns]
        conn_start[lo:hi] = [
            patched_graph.source_route_node(c) for c in conns
        ]

    return TDGraphArrays(
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
