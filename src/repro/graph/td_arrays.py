"""Packed flat-array form of the time-dependent graph (HPC layout).

:class:`TDGraphArrays` is the struct-of-arrays twin of
:class:`~repro.graph.td_model.TDGraph`: the adjacency becomes CSR
``(edge_indptr, edge_target, edge_weight, edge_ttf)`` vectors, the
travel-time functions are packed into one shared ``(ttf_indptr,
ttf_dep, ttf_dur)`` pool, and ``conn(S)`` becomes a per-station CSR of
departure times and seed route nodes.  Everything is a dense int64
numpy array, so the whole graph pickles as a handful of buffers —
cheap to ship to worker processes — and indexes without touching a
single Python object.

The flat-array SPCS kernel (:mod:`repro.core.spcs_kernel`) additionally
wants Python-object mirrors of the hot arrays: CPython list and
``array`` indexing is several times faster than scalar numpy indexing,
which dominates an interpreter-bound inner loop.
:meth:`TDGraphArrays.kernel_adjacency` is that mirror, and in it a
travel-time function is no longer its points but one value per minute
of the period (:func:`travel_time_rows`), so that evaluating it is one
index; beside it sits a second one,
:meth:`TDGraphArrays.reverse_min_adjacency` — the same edges turned
around, each at its cheapest over the period — from which
:meth:`TDGraphArrays.lower_bounds_to` computes the per-target
potentials a goal-directed search keys its queue by
(``docs/KERNEL.md``, "Goal direction").  Both are built in the pack's
constructor from its own buffers, so no search fills one in; a delay
swap's pack reuses its parent's forward row of every function whose
points did not move, and computes the others.  Only a copy that came
through pickle, which drops the mirrors, builds its own on first use.

A served pack is built straight from a timetable's connection columns
and its routes (:func:`pack_timetable`), cold and after a delay alike;
:func:`pack_td_graph` packs an object graph, the readable construction
it is tested against.

Layout summary (``N`` nodes, ``E`` edges, ``F`` ttfs, ``P`` ttf points,
``S`` stations, ``C`` connections):

===================  ==========  ==============================================
array                shape       meaning
===================  ==========  ==============================================
``node_station``     ``N``       ``st(u)`` per node
``edge_indptr``      ``N + 1``   CSR row pointers into the edge arrays
``edge_target``      ``E``       head node per edge
``edge_weight``      ``E``       constant weight (transfer/alight edges)
``edge_ttf``         ``E``       ttf id per edge, ``-1`` for constant edges
``ttf_indptr``       ``F + 1``   row pointers into the point pool
``ttf_dep``          ``P``       departure time points, per ttf ascending
``ttf_dur``          ``P``       durations, parallel to ``ttf_dep``
``ttf_fifo``         ``F``       next-departure-is-optimal flag per ttf
                                 (the store's; no search reads it)
``conn_indptr``      ``S + 1``   row pointers into the connection arrays
``conn_dep``         ``C``       departure time per connection, ``conn(S)``
                                 order (matches ``outgoing_connections``)
``conn_start``       ``C``       seed route node per connection (SPCS init)
``transfer_time``    ``S``       minimum transfer time ``T(S)``
===================  ==========  ==============================================
"""

from __future__ import annotations

from array import array
from dataclasses import InitVar, dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.functions.piecewise import INF_TIME, narrow_row
from repro.graph.td_model import TDGraph
from repro.timetable.types import Route, Timetable

#: Row entries built per numpy pass: what bounds a build's transient
#: memory (a few int64 buffers this long), whatever the pool's size.
_ROW_BLOCK = 1 << 13


def travel_time_rows(
    ttf_indptr: np.ndarray, ttf_dep: np.ndarray, ttf_dur: np.ndarray, period: int
) -> list[array]:
    """Per travel-time function of the pool ``(ttf_indptr, ttf_dep,
    ttf_dur)``, its least wait plus ride from every minute of the
    period: ``row[τ] = ttf.arrival(τ) − τ`` for τ in ``[0, period)``,
    ``INF_TIME`` throughout for a function without points.  Each row is
    an ``array`` of the narrowest typecode that holds its values.

    :meth:`~repro.functions.piecewise.TravelTimeFunction.arrival` scans
    the points cyclically from the first departure at or after τ; the
    best it finds is the least arrival among the departures at or after
    τ today, or else the least arrival of all shifted one period on —
    a train of tomorrow never beats the same train today.  So a
    segmented suffix minimum of the arrivals ``dep + dur``, read at the
    first departure at or after each τ (a prefix count of departures),
    gives the rows, FIFO or not, a block of functions per pass.
    """
    num_ttfs = ttf_indptr.size - 1
    minutes = np.arange(period, dtype=np.int64)
    rows = []
    step = max(1, _ROW_BLOCK // period)
    for first in range(0, num_ttfs, step):
        last = min(first + step, num_ttfs)
        lo, hi = ttf_indptr[first], ttf_indptr[last]
        starts = ttf_indptr[first : last + 1] - lo
        counts = np.diff(starts)
        owner = np.repeat(np.arange(last - first, dtype=np.int64), counts)
        deps = ttf_dep[lo:hi]
        arrs = deps + ttf_dur[lo:hi]
        # Suffix minimum per function, in one pass over the reversed
        # block: offset by ``owner · span`` every later function's
        # arrivals lie above all of this one's, so no minimum carries
        # across a boundary.  The appended INF_TIME: no departure.
        span = int(arrs.max(initial=0)) + 1
        suffix = np.append(
            np.minimum.accumulate((arrs + owner * span)[::-1])[::-1]
            - owner * span,
            INF_TIME,
        )
        # The first departure at or after τ: the block's points that
        # depart before τ, counted on one time line, function after
        # function — unless that is the function's end.
        before = np.bincount(
            owner * period + deps, minlength=(last - first) * period
        )
        idx = (np.cumsum(before) - before).reshape(last - first, period)
        idx[idx >= starts[1:, None]] = arrs.size
        tomorrow = np.where(counts > 0, period + suffix[starts[:-1]], INF_TIME)
        best = np.minimum(suffix[idx], tomorrow[:, None])
        values = np.where(best < INF_TIME, best - minutes, INF_TIME)
        for value, top in zip(values, values.max(axis=1).tolist()):
            rows.append(narrow_row(value, top))
    return rows


@dataclass
class TDGraphArrays:
    """Flat-array representation of a :class:`TDGraph` (see module doc)."""

    num_nodes: int
    num_stations: int
    period: int
    node_station: np.ndarray
    edge_indptr: np.ndarray
    edge_target: np.ndarray
    edge_weight: np.ndarray
    edge_ttf: np.ndarray
    ttf_indptr: np.ndarray
    ttf_dep: np.ndarray
    ttf_dur: np.ndarray
    ttf_fifo: np.ndarray
    conn_indptr: np.ndarray
    conn_dep: np.ndarray
    conn_start: np.ndarray
    transfer_time: np.ndarray
    #: A pack over the same routes whose forward-mirror rows this one
    #: may reuse (a delay swap's parent); not kept.
    parent: InitVar["TDGraphArrays | None"] = None
    #: The kernel-side mirrors and the forward mirror's row per
    #: function; never pickled (workers rebuild their own).
    _adjacency_cache: list | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _reverse_cache: list | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _rows: list | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self, parent: "TDGraphArrays | None") -> None:
        # The one build step of both mirrors, whoever constructs the
        # pack (pack or store load).
        self.kernel_adjacency(parent)
        self.reverse_min_adjacency()

    @property
    def num_edges(self) -> int:
        return int(self.edge_target.size)

    @property
    def num_connections(self) -> int:
        return int(self.conn_dep.size)

    def is_station_node(self, u: int) -> bool:
        return 0 <= u < self.num_stations

    def outgoing_connection_count(self, station: int) -> int:
        """``|conn(S)|`` for a station."""
        return int(self.conn_indptr[station + 1] - self.conn_indptr[station])

    def source_connection_arrays(
        self, station: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(dep_times, seed_route_nodes)`` views of ``conn(station)``."""
        lo, hi = int(self.conn_indptr[station]), int(self.conn_indptr[station + 1])
        return self.conn_dep[lo:hi], self.conn_start[lo:hi]

    def kernel_adjacency(self, parent: "TDGraphArrays | None" = None) -> list:
        """Per-node adjacency as plain Python objects for the kernel.

        ``adjacency[u]`` is a list of ``(target, weight, row)`` triples
        where ``row`` is ``None`` for constant edges, else the function's
        :func:`travel_time_rows` entry, shared across edges referencing
        the same function: leaving at absolute time ``t``, the edge
        arrives at ``t + row[t % period]``.  Built with the pack.

        A row depends on its function's points alone, so given a
        ``parent`` pack with the same functions (``ttf_indptr``) and
        period, a function whose ``(ttf_dep, ttf_dur)`` points equal
        the parent's takes the parent's row object, and only the others
        are computed: a delay swap builds the rows of the functions its
        batch re-timed.  Rows are never edited.
        """
        if self._adjacency_cache is not None:
            return self._adjacency_cache

        rows = self._rows = self._travel_time_rows(parent)
        edge_indptr = self.edge_indptr.tolist()
        edge_target = self.edge_target.tolist()
        edge_weight = self.edge_weight.tolist()
        edge_ttf = self.edge_ttf.tolist()
        adjacency = []
        for u in range(self.num_nodes):
            lo, hi = edge_indptr[u], edge_indptr[u + 1]
            adjacency.append(
                [
                    (
                        edge_target[e],
                        edge_weight[e],
                        None if edge_ttf[e] < 0 else rows[edge_ttf[e]],
                    )
                    for e in range(lo, hi)
                ]
            )
        self._adjacency_cache = adjacency
        return adjacency

    def _travel_time_rows(self, parent: "TDGraphArrays | None") -> list:
        """:func:`travel_time_rows` of the pack's functions, the
        ``parent``'s row object wherever its points are equal (see
        :meth:`kernel_adjacency`)."""
        indptr = self.ttf_indptr
        if (
            parent is None
            or parent.period != self.period
            or not np.array_equal(parent.ttf_indptr, indptr)
        ):
            return travel_time_rows(
                indptr, self.ttf_dep, self.ttf_dur, self.period
            )
        counts = np.diff(indptr)
        moved = (self.ttf_dep != parent.ttf_dep) | (self.ttf_dur != parent.ttf_dur)
        owner = np.repeat(np.arange(counts.size), counts)
        # Flags, not ``np.unique``, which imports ``numpy.ma`` (≈ 0.9 MB).
        touched = np.zeros(counts.size, dtype=bool)
        touched[owner[moved]] = True
        changed = np.flatnonzero(touched)
        # The changed functions' points: a pool of their own.
        points = np.flatnonzero(touched[owner])
        fresh = travel_time_rows(
            np.concatenate([[0], np.cumsum(counts[changed])]),
            self.ttf_dep[points],
            self.ttf_dur[points],
            self.period,
        )
        rows = list(parent._rows)
        for f, row in zip(changed.tolist(), fresh):
            rows[f] = row
        return rows

    def reverse_min_adjacency(self) -> list:
        """The static lower-bound graph, reversed, for the kernel.

        ``reverse[v]`` lists ``(u, cost)`` for every edge ``u → v``,
        ``cost`` being the least the edge can ever cost: a constant
        edge's weight, a travel-time function's smallest duration
        (waiting costs at least nothing), ``INF_TIME`` for a function
        without points.  Built with the pack, never inherited.
        """
        if self._reverse_cache is not None:
            return self._reverse_cache

        cost = self.edge_weight
        if self.ttf_fifo.size:
            ttf_min = np.full(self.ttf_fifo.size, INF_TIME, dtype=np.int64)
            starts = self.ttf_indptr[:-1]
            nonempty = starts < self.ttf_indptr[1:]
            # Consecutive non-empty rows tile the pool, so their starts
            # are reduceat's segment boundaries.
            ttf_min[nonempty] = np.minimum.reduceat(
                self.ttf_dur, starts[nonempty]
            )
            cost = np.where(self.edge_ttf < 0, cost, ttf_min[self.edge_ttf])
        tails = np.repeat(
            np.arange(self.num_nodes), np.diff(self.edge_indptr)
        )
        by_head = np.argsort(self.edge_target, kind="stable")
        pairs = list(zip(tails[by_head].tolist(), cost[by_head].tolist()))
        ends = np.cumsum(
            np.bincount(self.edge_target, minlength=self.num_nodes)
        ).tolist()
        reverse = []
        lo = 0
        for hi in ends:
            reverse.append(pairs[lo:hi])
            lo = hi
        self._reverse_cache = reverse
        return reverse

    def lower_bounds_to(self, target: int) -> list[int]:
        """``π_T``: per node, the exact distance to ``target`` in the
        static lower-bound graph — no journey from that node, at any
        time of day, reaches ``target`` sooner; ``INF_TIME`` where none
        reaches it at all.  One reverse Dijkstra per call.

        The bounds are *consistent* (``π_T(u) ≤ cost(u, v) + π_T(v)``
        on every edge, being shortest distances), which is what lets a
        connection-setting search key its queue by arrival + ``π_T``.
        """
        reverse = self.reverse_min_adjacency()
        num_nodes = self.num_nodes
        bounds = [INF_TIME] * num_nodes
        bounds[target] = 0
        heap = [target]  # entries are ``distance * num_nodes + node``
        while heap:
            entry = heappop(heap)
            dist = entry // num_nodes
            node = entry % num_nodes
            if dist > bounds[node]:
                continue
            for tail, cost in reverse[node]:
                through = dist + cost
                if through < bounds[tail]:
                    bounds[tail] = through
                    heappush(heap, through * num_nodes + tail)
        return bounds

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_adjacency_cache"] = None
        state["_reverse_cache"] = None
        state["_rows"] = None
        return state

    def nbytes(self) -> int:
        """Total packed size in bytes (diagnostics / docs)."""
        return sum(
            getattr(self, name).nbytes
            for name in (
                "node_station",
                "edge_indptr",
                "edge_target",
                "edge_weight",
                "edge_ttf",
                "ttf_indptr",
                "ttf_dep",
                "ttf_dur",
                "ttf_fifo",
                "conn_indptr",
                "conn_dep",
                "conn_start",
                "transfer_time",
            )
        )


def pack_td_graph(graph: TDGraph) -> TDGraphArrays:
    """Pack a :class:`TDGraph` into its flat-array form, edge by edge:
    the readable construction :func:`pack_timetable` is tested against
    (no served path calls it).

    Edge order within a node follows ``graph.adjacency`` (the kernel and
    the object-graph SPCS relax in the same order); ``conn(S)`` order
    matches :meth:`Timetable.outgoing_connections`.
    """
    timetable = graph.timetable
    num_nodes = graph.num_nodes
    num_stations = graph.num_stations

    edge_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    targets: list[int] = []
    weights: list[int] = []
    ttf_ids: list[int] = []
    ttf_key_to_id: dict[int, int] = {}
    ttf_objs = []
    for u, edges in enumerate(graph.adjacency):
        for edge in edges:
            targets.append(edge.target)
            if edge.ttf is None:
                weights.append(edge.weight)
                ttf_ids.append(-1)
            else:
                weights.append(0)
                key = id(edge.ttf)
                fid = ttf_key_to_id.get(key)
                if fid is None:
                    fid = len(ttf_objs)
                    ttf_key_to_id[key] = fid
                    ttf_objs.append(edge.ttf)
                ttf_ids.append(fid)
        edge_indptr[u + 1] = len(targets)

    ttf_indptr = np.zeros(len(ttf_objs) + 1, dtype=np.int64)
    ttf_dep: list[int] = []
    ttf_dur: list[int] = []
    ttf_fifo = np.zeros(len(ttf_objs), dtype=bool)
    for f, ttf in enumerate(ttf_objs):
        ttf_dep.extend(ttf.deps)
        ttf_dur.extend(ttf.durs)
        ttf_indptr[f + 1] = len(ttf_dep)
        ttf_fifo[f] = ttf.is_fifo()

    conn_indptr = np.zeros(num_stations + 1, dtype=np.int64)
    conn_dep: list[int] = []
    conn_start: list[int] = []
    for station in range(num_stations):
        for c in timetable.outgoing_connections(station):
            conn_dep.append(c.dep_time)
            conn_start.append(graph.source_route_node(c))
        conn_indptr[station + 1] = len(conn_dep)

    return TDGraphArrays(
        num_nodes=num_nodes,
        num_stations=num_stations,
        period=timetable.period,
        node_station=np.asarray(graph.node_station, dtype=np.int64),
        edge_indptr=edge_indptr,
        edge_target=np.asarray(targets, dtype=np.int64),
        edge_weight=np.asarray(weights, dtype=np.int64),
        edge_ttf=np.asarray(ttf_ids, dtype=np.int64),
        ttf_indptr=ttf_indptr,
        ttf_dep=np.asarray(ttf_dep, dtype=np.int64),
        ttf_dur=np.asarray(ttf_dur, dtype=np.int64),
        ttf_fifo=ttf_fifo,
        conn_indptr=conn_indptr,
        conn_dep=np.asarray(conn_dep, dtype=np.int64),
        conn_start=np.asarray(conn_start, dtype=np.int64),
        transfer_time=np.asarray(
            [s.transfer_time for s in timetable.stations], dtype=np.int64
        ),
    )


def pack_timetable(
    timetable: Timetable,
    routes: list[Route],
    parent: TDGraphArrays | None = None,
) -> TDGraphArrays:
    """The pack of ``timetable``'s time-dependent graph over ``routes``,
    straight from its connection columns — the one constructor of a
    served pack, cold and after a delay alike.

    ``routes`` are ``partition_routes(timetable)``, or those of a
    timetable it is a delay of (delays keep every train's route); a
    delay swap passes its ``parent``'s pack too, whose forward-mirror
    rows the new pack takes wherever a function's points are unchanged
    (:meth:`TDGraphArrays.kernel_adjacency`).  The
    result is equal, buffer by buffer and mirror by mirror, to what
    :func:`pack_td_graph` makes of ``build_td_graph(timetable)``, the
    readable construction it is tested against; here each piece is a
    sort:

    * route ``r``'s stop ``k`` is node ``|S| + Σ_{r' < r} len(r'.stations)
      + k``; a station's boarding edges go to its departing route nodes
      in node order, and a route node has its alighting edge, then its
      route edge;
    * a connection runs leg ``k`` of its train's route, ``k`` its rank
      among its train's connections in list (travel) order; function
      ``f`` is the route edge of the ``f``-th departing route node, its
      points its connections sorted by (departure, duration);
    * ``conn(S)`` is sorted by (departure, arrival, list position), as
      :meth:`~repro.timetable.types.Timetable.outgoing_connections`
      orders it, each entry seeding the route node of its leg.

    Raises ``ValueError`` naming the first connection that does not
    continue its train's route, or a train of ``routes`` that stops
    short of its route's end.
    """
    num_stations = timetable.num_stations
    period = timetable.period
    sizes = np.asarray(
        [len(route.stations) for route in routes], dtype=np.int64
    )
    stops = np.asarray(
        [station for route in routes for station in route.stations],
        dtype=np.int64,
    )
    node_station = np.concatenate([np.arange(num_stations), stops])
    first = np.cumsum(sizes) - sizes  # each route's first stop in ``stops``
    departs = np.ones(stops.size, dtype=bool)
    departs[first + sizes - 1] = False
    arrives = np.ones(stops.size, dtype=bool)
    arrives[first] = False
    ride = np.cumsum(departs) - 1  # a departing route node's function

    # Edges: a station boards its departing route nodes; a route node
    # alights, then rides its leg.
    route_node = num_stations + np.arange(stops.size)
    board = route_node[departs][np.argsort(stops[departs], kind="stable")]
    steps = np.stack([arrives, departs], axis=1)

    def edges(boarding, alighting, riding):
        return np.concatenate(
            [boarding, np.stack([alighting, riding], axis=1)[steps]]
        )

    transfer_time = np.asarray(
        [s.transfer_time for s in timetable.stations], dtype=np.int64
    )
    out_degree = np.concatenate(
        [
            np.bincount(stops[departs], minlength=num_stations),
            steps.sum(axis=1),
        ]
    )
    zero = np.zeros_like(stops)
    return TDGraphArrays(
        num_nodes=int(node_station.size),
        num_stations=num_stations,
        period=period,
        node_station=node_station,
        edge_indptr=np.concatenate([[0], np.cumsum(out_degree)]),
        edge_target=edges(board, stops, route_node + 1),
        edge_weight=edges(transfer_time[node_station[board]], zero, zero),
        edge_ttf=edges(np.full(board.size, -1), zero - 1, ride),
        transfer_time=transfer_time,
        parent=parent,
        **_connection_buffers(timetable, routes, first, node_station, ride),
    )


def _connection_buffers(
    timetable: Timetable,
    routes: list[Route],
    first: np.ndarray,
    node_station: np.ndarray,
    ride: np.ndarray,
) -> dict[str, np.ndarray]:
    """The buffers :func:`pack_timetable` reads off the connection
    columns, by name: ``conn_*`` and ``ttf_*``.  Its own function, so
    that the sorts are freed before the pack builds its mirrors."""
    num_stations, period = timetable.num_stations, timetable.period
    train, dep_station, arr_station, dep, arr = timetable.connection_columns()
    node = _leg_nodes(
        timetable, routes, train, dep_station, arr_station, first, node_station
    )
    # One int64 key per sort (stations × period × arrivals, far below
    # 2**63 on any timetable), several times faster than a lexsort.
    conns = np.argsort(
        (dep_station * period + dep) * (arr.max(initial=0) + 1) + arr,
        kind="stable",
    )
    buffers = {
        "conn_indptr": np.concatenate(
            [[0], np.cumsum(np.bincount(dep_station, minlength=num_stations))]
        ),
        "conn_dep": dep[conns],
        "conn_start": node[conns],
    }
    del conns
    fid = ride[node - num_stations]
    del node
    dur = arr - dep
    return {**buffers, **_function_points(fid, dep, dur, period)}


def _leg_nodes(
    timetable: Timetable,
    routes: list[Route],
    train: np.ndarray,
    dep_station: np.ndarray,
    arr_station: np.ndarray,
    first: np.ndarray,
    node_station: np.ndarray,
) -> np.ndarray:
    """Per connection, given as its columns, the route node its leg
    departs from, once every connection is checked to continue its
    train's route (see :func:`pack_timetable`)."""
    member = np.asarray(
        [t for route in routes for t in route.trains], dtype=np.int64
    )
    num_trains = 1 + max(
        int(train.max(initial=-1)), int(member.max(initial=-1))
    )
    # -1 for a train no route runs; the appended entries give it no legs.
    route_of = np.full(num_trains, -1, dtype=np.int64)
    route_of[member] = np.repeat(
        np.arange(len(routes)), [len(route.trains) for route in routes]
    )
    legs = np.array([route.num_legs for route in routes] + [0])
    # A connection's leg: its place among the connections sorted by
    # train (stably, so in list order), less its train's first place.
    runs = np.bincount(train, minlength=num_trains)
    leg = np.empty_like(train)
    leg[np.argsort(train, kind="stable")] = np.arange(train.size)
    leg -= (np.cumsum(runs) - runs)[train]
    r = route_of[train]
    fits = leg < legs[r]
    node = np.append(first, 0)[r]
    node += leg
    node += timetable.num_stations
    node[~fits] = 0
    fits &= node_station[node] == dep_station
    ends = np.minimum(node + 1, node_station.size - 1)
    fits &= node_station[ends] == arr_station
    if not fits.all():
        i = int(np.argmin(fits))
        c = timetable.connections[i]
        if r[i] < 0:
            raise ValueError(f"connection {c} is of a train no route runs")
        raise ValueError(
            f"connection {c} does not continue route {routes[r[i]].id} "
            f"at leg {leg[i]}"
        )
    short = np.flatnonzero(runs < legs[route_of])
    if short.size:
        t = int(short[0])
        route = routes[route_of[t]]
        raise ValueError(
            f"train {t} runs {runs[t]} of the {route.num_legs} legs "
            f"of route {route.id}"
        )
    return node


def _function_points(
    fid: np.ndarray, dep: np.ndarray, dur: np.ndarray, period: int
) -> dict[str, np.ndarray]:
    """The ``ttf_*`` buffers by name, from a point ``(dep, dur)`` per
    connection of function ``fid`` (every function has one): each
    function's points sorted by (departure, duration), and FIFO where
    arrivals never fall within the function, nor does tomorrow's first
    arrival come before today's last."""
    # Equal keys are equal points, so the sort need not be stable.
    points = np.argsort((fid * period + dep) * (dur.max(initial=0) + 1) + dur)
    ttf_dep, ttf_dur, owner = dep[points], dur[points], fid[points]
    ttf_indptr = np.concatenate([[0], np.cumsum(np.bincount(fid))])
    arrival = ttf_dep + ttf_dur
    overtaken = np.zeros(ttf_indptr.size - 1, dtype=bool)
    falls = (arrival[1:] < arrival[:-1]) & (owner[1:] == owner[:-1])
    overtaken[owner[1:][falls]] = True
    overtaken |= (
        arrival[ttf_indptr[1:] - 1] > arrival[ttf_indptr[:-1]] + period
    )
    return {
        "ttf_indptr": ttf_indptr,
        "ttf_dep": ttf_dep,
        "ttf_dur": ttf_dur,
        "ttf_fifo": ~overtaken,
    }


def packed_arrays(graph: TDGraph) -> TDGraphArrays:
    """The pack of ``graph``: :func:`pack_timetable` of its timetable
    and routes on the first call, the same object ever after — it
    lives in the graph and dies with it (a graph a dataset builds is
    handed that dataset's pack, ``PreparedDataset.graph``).
    """
    if graph._arrays is None:
        graph._arrays = pack_timetable(graph.timetable, graph.routes)
    return graph._arrays
