"""The profile distance table ``D`` (paper §4).

``D : S_trans × S_trans × Π → N0`` returns, for each pair of transfer
stations, the arrival time at the second when departing the first at a
given time — *without* transfer times at either endpoint (the pruning
rules add those explicitly).  Stored as the reduced profiles' points,
one CSR pool over the ordered pairs (:class:`DistanceTable`).

The paper computes ``D`` by one parallel one-to-all profile search per
transfer station (§5.2).  Here every row comes out of **one backward
scan** over the points of the route edges' travel-time functions — the
profile variant of connection scanning (Dibbelt, Pajor, Strasser &
Wagner, ACM JEA 2018) — carrying, per point, one vector of earliest
arrivals at the station nodes of ``S_trans``.  The state is the graph's
(:mod:`repro.graph.td_model`): a rider at a route node may take any
later train of that route without paying ``T(S)``, changing routes pays
``T(S)`` through the station node, and the first boarding is free.  The
SPCS rows (:func:`repro.core.parallel.parallel_profile_search` per
source) are the scan's test oracle, to the byte; ``docs/KERNEL.md``,
"Preprocessing: one backward scan", states the recurrence.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.functions.algebra import Profile, minute_row
from repro.functions.piecewise import INF_TIME
from repro.graph.td_arrays import TDGraphArrays

#: The scan's "unreachable": an int32 that stays one after a few
#: periods are added to it, so the state never needs int64.
_INF32 = 1 << 30
#: Bytes of scan state — one int32 per slot and target column — held at
#: once; a table whose targets need more is scanned a block of columns
#: at a time (the columns are independent).
_STATE_BYTES = 1 << 24


@dataclass(slots=True, eq=False)
class DistanceTable:
    """Profile distance table over the transfer stations, as one CSR
    point pool.

    Pair ``k = a * n + b`` (``n`` transfer stations) owns points
    ``pair_indptr[k] : pair_indptr[k + 1]`` of ``point_dep`` /
    ``point_arr``: the reduced profile from ``transfer_stations[a]`` to
    ``transfer_stations[b]``, departures non-decreasing, the diagonal
    empty.  The points are held in the narrowest signed dtypes that
    hold them (:func:`narrowest_dtype`): a built table's are its scan's
    output, concatenated once; a loaded one's are the store's files,
    memory-mapped.

    Nothing per pair exists until it is read, and then only in the
    process that reads it: a search's per-minute row (:meth:`row`) per
    pair it evaluates; a table answer (:meth:`profile_between`) an
    int64 copy of its pair's points.
    """

    transfer_stations: np.ndarray
    index_of: dict[int, int]
    pair_indptr: np.ndarray
    point_dep: np.ndarray
    point_arr: np.ndarray
    period: int
    #: Wall-clock seconds the precomputation took (Table 2, Prepro Time).
    build_seconds: float
    #: Passes the scan made over the points (the most any block of
    #: columns needed): a statistic of the run like ``build_seconds``,
    #: not stored — a table loaded from a store reads 0.
    build_passes: int = 0
    #: Per pair, its :func:`~repro.functions.algebra.minute_row` once
    #: read; each is published in one store, so a search on another
    #: thread sees a whole row or none.
    _rows: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rows = [None] * (self.pair_indptr.size - 1)

    @property
    def num_transfer_stations(self) -> int:
        return int(self.transfer_stations.size)

    @property
    def num_points(self) -> int:
        return int(self.pair_indptr[-1])

    def contains(self, station: int) -> bool:
        return station in self.index_of

    def _pair(self, origin: int, dest: int) -> int:
        index_of = self.index_of
        return index_of[origin] * len(index_of) + index_of[dest]

    def row(self, origin: int, dest: int) -> array:
        """The per-minute row of ``D(origin, dest, ·)``
        (:meth:`Profile.row <repro.functions.algebra.Profile.row>`),
        built from the pair's slice on first use; empty when ``dest``
        is unreachable, or is ``origin``."""
        pair = self._pair(origin, dest)
        row = self._rows[pair]
        if row is None:
            lo, hi = self.pair_indptr[pair : pair + 2].tolist()
            row = minute_row(self.point_dep[lo:hi], self.point_arr[lo:hi], self.period)
            self._rows[pair] = row
        return row

    def earliest_arrival(self, origin: int, dest: int, tau: int) -> int:
        """``D(origin, dest, τ)`` — both must be transfer stations.

        ``D(a, a, τ) = τ``: you are already there.
        """
        if origin == dest:
            return tau
        row = self.row(origin, dest)
        if not row:
            return INF_TIME
        tau_mod = tau % self.period
        return tau - tau_mod + row[tau_mod]

    def profile_between(self, origin: int, dest: int) -> Profile:
        """The reduced profile ``origin → dest``, as a table answer
        hands it out: an int64 copy of the pair's slice of the points,
        the answer's own, unchecked (the points were checked when the
        table was built or loaded)."""
        pair = self._pair(origin, dest)
        lo, hi = self.pair_indptr[pair : pair + 2].tolist()
        return Profile.of_points(
            self.point_dep[lo:hi].astype(np.int64),
            self.point_arr[lo:hi].astype(np.int64),
            self.period,
        )

    def size_bytes(self) -> int:
        """Memory of the stored connection points counted as two int64
        per point, the figure reported as Table 2's *Space* column."""
        return 16 * self.num_points

    def size_mib(self) -> float:
        return self.size_bytes() / (1024.0 * 1024.0)


def narrowest_dtype(top: int) -> np.dtype:
    """The narrowest signed integer dtype that holds ``0 … top``."""
    return next(
        np.dtype(kind)
        for kind in (np.int16, np.int32, np.int64)
        if top <= np.iinfo(kind).max
    )


def build_distance_table(
    arrays: TDGraphArrays, transfer_stations: np.ndarray | list[int]
) -> DistanceTable:
    """Precompute ``D`` over ``transfer_stations`` by one backward scan
    of the pack ``arrays``: every row, each one this table's own.
    """
    t0 = time.perf_counter()
    stations = np.asarray(sorted(set(int(s) for s in transfer_stations)), dtype=np.int64)
    for s in stations:
        if not arrays.is_station_node(int(s)):
            raise ValueError(f"transfer station {s} is not a station node")
    pair_indptr, deps, arrs, passes = scan_rows(arrays, stations)
    return DistanceTable(
        transfer_stations=stations,
        index_of={int(s): i for i, s in enumerate(stations)},
        pair_indptr=pair_indptr,
        point_dep=deps.astype(narrowest_dtype(arrays.period - 1)),
        point_arr=arrs.astype(narrowest_dtype(int(arrs.max(initial=0)))),
        period=arrays.period,
        build_seconds=time.perf_counter() - t0,
        build_passes=passes,
    )


def _ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``lo[0] … lo[0] + counts[0] − 1``, then the next range, …"""
    return np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )


def _edge_tails(arrays: TDGraphArrays) -> np.ndarray:
    return np.repeat(
        np.arange(arrays.num_nodes, dtype=np.int64), np.diff(arrays.edge_indptr)
    )


def route_points(arrays: TDGraphArrays) -> tuple[np.ndarray, ...]:
    """Every point of every route edge's travel-time function as
    parallel vectors ``(tail, head, dep, arr)``: one ride from route
    node ``tail`` departing ``dep`` to route node ``head``, arriving
    ``arr = dep + dur`` (``dur ≥ 1``).  What the scan scans."""
    route = np.flatnonzero(arrays.edge_ttf >= 0)
    ttf = arrays.edge_ttf[route]
    lo = arrays.ttf_indptr[ttf]
    counts = arrays.ttf_indptr[ttf + 1] - lo
    index = _ranges(lo, counts)
    dep = arrays.ttf_dep[index]
    return (
        np.repeat(_edge_tails(arrays)[route], counts),
        np.repeat(arrays.edge_target[route], counts),
        dep,
        dep + arrays.ttf_dur[index],
    )


class _Suffix:
    """The suffix minima of one kind of owner — a route node (``R``) or
    a station (``B``) — over its points, one *slot* per distinct
    ``(owner, departure minute)``, sorted: slot ``j`` holds the least
    arrival vector over the owner's points departing at or after its
    minute, on any later day too.

    Reads are resolved once, before any pass, to rows of one state
    array: a slot of this pass (a read on the same day, which the scan
    has already written), a *carry* row — a slot of the previous pass
    shifted some periods on — or the ``INF`` row (an owner without
    points)."""

    def __init__(self, owner: np.ndarray, dep: np.ndarray, period: int) -> None:
        self.period = period
        self.keys = _distinct(owner * period + dep)[0]
        self.size = int(self.keys.size)

    def slot(self, owner: np.ndarray, dep: np.ndarray) -> np.ndarray:
        """The slots of ``(owner, dep)`` pairs that have one."""
        return np.searchsorted(self.keys, owner * self.period + dep)

    def resolve(self, owner: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(slot, days)`` of a read of ``owner``'s suffix at time
        ``t``: the first slot at or after ``t``'s minute on ``t``'s day,
        else the owner's first slot one day on; slot −1: no points."""
        days, minute = np.divmod(t, self.period)
        if not self.size:
            return np.full(t.shape, -1, dtype=np.int64), days
        base = owner * self.period
        last = self.size - 1
        pos = np.searchsorted(self.keys, base + minute)
        found = (pos <= last) & (self.keys[np.minimum(pos, last)] < base + self.period)
        first = np.searchsorted(self.keys, base)
        has = (first <= last) & (self.keys[np.minimum(first, last)] < base + self.period)
        slot = np.where(found, pos, np.where(has, first, -1))
        return slot, np.where(found, days, days + 1)

    def next_slots(self, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(slot, days)`` that each of ``slot``'s suffixes continues
        with: the owner's next slot, or after its last one its first, a
        day on."""
        owner = self.keys // self.period
        same = np.append(owner[1:] == owner[:-1], False)[slot]
        first = np.searchsorted(self.keys, owner[slot] * self.period)
        return np.where(same, slot + 1, first), (~same).astype(np.int64)

    def index(self, *reads: tuple[np.ndarray, np.ndarray]) -> list[np.ndarray]:
        """The state rows of every read a pass makes, numbering one
        carry row per distinct ``(slot, days > 0)`` among them."""
        slot = np.concatenate([s for s, _ in reads])
        days = np.concatenate([d for _, d in reads])
        cross = (slot >= 0) & (days > 0)
        width = int(days.max(initial=0)) + 1
        codes, carry = _distinct(slot[cross] * width + days[cross])
        self.carry_slot = codes // width
        self.carry_shift = ((codes % width) * self.period).astype(np.int32)
        self.inf_row = self.size + int(codes.size)
        rows = np.where(slot < 0, self.inf_row, slot)
        rows[cross] = self.size + carry
        return np.split(rows, np.cumsum([s.size for s, _ in reads])[:-1])

    def state(self, columns: int) -> np.ndarray:
        """This pass's slots, then the carry rows, then ``INF``."""
        return np.full((self.inf_row + 1, columns), _INF32, dtype=np.int32)

    def carry(self, state: np.ndarray) -> bool:
        """Refresh the carry rows from this pass's slots; False when
        they did not change (the next pass would repeat this one)."""
        fresh = state[self.carry_slot] + self.carry_shift[:, None]
        np.minimum(fresh, _INF32, out=fresh)
        held = state[self.size : self.inf_row]
        if np.array_equal(fresh, held):
            return False
        held[...] = fresh
        return True

    def read(self, state: np.ndarray, slot: np.ndarray, days: np.ndarray) -> np.ndarray:
        """A read against a finished scan: every slot final."""
        values = state[np.where(slot < 0, self.inf_row, slot)]
        values += (days * self.period).astype(np.int32)[:, None]
        return np.minimum(values, _INF32, out=values)


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` by a sort and flags:
    ``np.unique`` imports ``numpy.ma`` (≈ 0.9 MB) into the process."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(values.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _station_edges(arrays: TDGraphArrays) -> tuple[np.ndarray, np.ndarray]:
    """``(alights, boardable)`` over nodes: route nodes with an edge to
    their station node, and route nodes their station node boards."""
    const = np.flatnonzero(arrays.edge_ttf < 0)
    tail = _edge_tails(arrays)[const]
    head = arrays.edge_target[const]
    alights = np.zeros(arrays.num_nodes, dtype=bool)
    alights[tail[head < arrays.num_stations]] = True
    boardable = np.zeros(arrays.num_nodes, dtype=bool)
    boardable[head[tail < arrays.num_stations]] = True
    return alights, boardable


class _Scan:
    """Everything a pass reads, resolved from the pack before the first
    (see :func:`scan_rows`), one entry per point in scan order: latest
    minute first, and within a minute by route node."""

    def __init__(self, arrays: TDGraphArrays, stations: np.ndarray) -> None:
        period = arrays.period
        node_station = arrays.node_station
        transfer = arrays.transfer_time
        alights, boardable = _station_edges(arrays)
        tail, head, dep, arr = route_points(arrays)

        R = self.R = _Suffix(tail, dep, period)
        r_slot = R.slot(tail, dep)
        order = np.lexsort((r_slot, -dep))
        tail, head, dep, arr, r_slot = (x[order] for x in (tail, head, dep, arr, r_slot))
        board = boardable[tail]
        B = self.B = _Suffix(node_station[tail[board]], dep[board], period)

        # A point's reads: on at its head, or off there and on again.
        lands = alights[head]
        at = node_station[head]
        b_slot, b_days = B.resolve(at, arr + transfer[at])
        b_slot[~lands] = -1
        column_of = np.full(arrays.num_stations, -1, dtype=np.int64)
        column_of[stations] = np.arange(stations.size)
        self.target_col = np.where(lands, column_of[at], -1)
        self.arr = arr.astype(np.int32)

        # One R group per slot (ties at a route node reduce together),
        # the boardable ones regrouped by B slot within their minute.
        starts = np.flatnonzero(np.append(True, r_slot[1:] != r_slot[:-1]))
        self.group_slot = r_slot[starts]
        group_tail = tail[starts]
        g_board = np.flatnonzero(boardable[group_tail])
        g_bslot = B.slot(node_station[group_tail[g_board]], dep[starts][g_board])
        point_off = np.append(np.flatnonzero(np.append(True, dep[1:] != dep[:-1])), dep.size)
        group_off = np.searchsorted(starts, point_off)
        board_off = np.searchsorted(g_board, group_off)
        minute = np.repeat(np.arange(point_off.size - 1), np.diff(board_off))
        perm = np.lexsort((g_bslot, minute))
        self.b_perm = g_board[perm] - group_off[minute]
        b_sorted = g_bslot[perm]
        b_starts = np.flatnonzero(np.append(True, b_sorted[1:] != b_sorted[:-1]))
        self.b_group_slot = b_sorted[b_starts]
        bgroup_off = np.searchsorted(b_starts, board_off)
        self.rel_starts = starts - np.repeat(point_off[:-1], np.diff(group_off))
        self.rel_bstarts = b_starts - board_off[minute[b_starts]]

        # The seeds: every connection of every source, both reads.
        lo = arrays.conn_indptr[stations]
        counts = arrays.conn_indptr[stations + 1] - lo
        seeds = _ranges(lo, counts)
        self.seed_bounds = np.append(0, np.cumsum(counts)).tolist()
        seed_node = arrays.conn_start[seeds]
        self.seed_dep = arrays.conn_dep[seeds]
        seed_station = node_station[seed_node]
        self.seed_r = R.resolve(seed_node, self.seed_dep)
        self.seed_b = B.resolve(seed_station, self.seed_dep + transfer[seed_station])
        self.seed_b[0][~alights[seed_node]] = -1

        self.r_read, self.r_next = R.index(
            R.resolve(head, arr), R.next_slots(self.group_slot)
        )
        self.b_read, self.b_next = B.index(
            (b_slot, b_days), B.next_slots(self.b_group_slot)
        )
        self.point_off, self.group_off, self.board_off, self.bgroup_off = (
            x.tolist() for x in (point_off, group_off, board_off, bgroup_off)
        )

    def columns(self, c0: int, c1: int) -> tuple[np.ndarray, np.ndarray, int]:
        """The finished ``R`` and ``B`` states of target columns
        ``[c0, c1)``, and the passes they took."""
        R, B = self.R, self.B
        point_off, group_off = self.point_off, self.group_off
        board_off, bgroup_off = self.board_off, self.bgroup_off
        r_read, b_read, r_next, b_next = self.r_read, self.b_read, self.r_next, self.b_next
        rel_starts, rel_bstarts = self.rel_starts, self.rel_bstarts
        group_slot, b_perm, b_group_slot = self.group_slot, self.b_perm, self.b_group_slot
        hit = np.flatnonzero((self.target_col >= c0) & (self.target_col < c1))
        hit_off = np.searchsorted(hit, point_off).tolist()
        hit_col = self.target_col[hit] - c0
        hit_arr = self.arr[hit]
        SR = R.state(c1 - c0)
        SB = B.state(c1 - c0)
        passes = 0
        moved = True
        while moved:
            passes += 1
            for m in range(len(point_off) - 1):
                lo, hi = point_off[m], point_off[m + 1]
                vec = np.minimum(SR[r_read[lo:hi]], SB[b_read[lo:hi]])
                h0, h1 = hit_off[m], hit_off[m + 1]
                if h1 > h0:
                    rows, cols = hit[h0:h1] - lo, hit_col[h0:h1]
                    vec[rows, cols] = np.minimum(vec[rows, cols], hit_arr[h0:h1])
                g0, g1 = group_off[m], group_off[m + 1]
                if g1 - g0 < hi - lo:
                    vec = np.minimum.reduceat(vec, rel_starts[g0:g1], axis=0)
                np.minimum(vec, SR[r_next[g0:g1]], out=vec)
                SR[group_slot[g0:g1]] = vec
                p0, p1 = board_off[m], board_off[m + 1]
                if p1 > p0:
                    k0, k1 = bgroup_off[m], bgroup_off[m + 1]
                    bvec = vec[b_perm[p0:p1]]
                    if k1 - k0 < p1 - p0:
                        bvec = np.minimum.reduceat(bvec, rel_bstarts[k0:k1], axis=0)
                    np.minimum(bvec, SB[b_next[k0:k1]], out=bvec)
                    SB[b_group_slot[k0:k1]] = bvec
            moved = R.carry(SR)
            moved = B.carry(SB) or moved
        return SR, SB, passes

    def labels(self, SR: np.ndarray, SB: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Source ``k``'s seed labels — one row per connection of its
        ``conn(S)`` — and their departures."""
        lo, hi = self.seed_bounds[k], self.seed_bounds[k + 1]
        labels = np.minimum(
            self.R.read(SR, self.seed_r[0][lo:hi], self.seed_r[1][lo:hi]),
            self.B.read(SB, self.seed_b[0][lo:hi], self.seed_b[1][lo:hi]),
        )
        return labels, self.seed_dep[lo:hi]


def scan_rows(
    arrays: TDGraphArrays,
    stations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every row of ``D`` over the pack ``arrays`` (``stations`` the
    sorted ``S_trans``, sources and targets alike) as one CSR point pool
    ``(pair_indptr, deps, arrs)`` in :class:`DistanceTable`'s layout,
    and the most passes a block of columns needed.

    Points are scanned one departure minute at a time, latest first.  A
    point ``c`` from route node ``u`` to ``v``, arriving ``arr``, gets
    ``vec(c) = min(R_v(arr), B_st(v)(arr + T(st(v))))``, and ``arr`` in
    ``st(v)``'s own column when that is a target (alighting costs
    nothing); ``R_u`` and ``B_s`` are the suffix minima of ``vec`` over
    the points of route node ``u`` and over every point departing
    station ``s``.  ``dur ≥ 1``, so every read of this day hits a minute
    already final; a read on a later day takes the previous pass's
    value plus the periods between, and passes repeat until those
    values stop changing.  Connection ``i`` of ``conn(S)``, seed route
    node ``u_i`` departing ``d_i``, is then labelled ``min(R_u_i(d_i),
    B_S(d_i + T(S)))`` — the second term where ``u_i`` may alight — and
    each row is those labels reduced as the one-to-all search's are.
    """
    scan = _Scan(arrays, stations)
    num_targets = int(stations.size)
    block = max(1, _STATE_BYTES // (4 * (scan.R.inf_row + scan.B.inf_row + 2)))
    # Per source, its (counts, deps, arrs) per block of columns, in
    # column order: concatenated source by source, that is pair order.
    pieces: list[list[tuple[np.ndarray, ...]]] = [[] for _ in range(num_targets)]
    most_passes = 0
    for c0 in range(0, num_targets, block):
        c1 = min(c0 + block, num_targets)
        SR, SB, passes = scan.columns(c0, c1)
        most_passes = max(most_passes, passes)
        for a, row in enumerate(pieces):
            row.append(_reduced_columns(*scan.labels(SR, SB, a), a - c0))
    empty = np.zeros(0, dtype=np.int64)
    counts, deps, arrs = (
        np.concatenate([empty, *(piece[i] for row in pieces for piece in row)])
        for i in range(3)
    )
    pair_indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=pair_indptr[1:])
    return pair_indptr, deps, arrs, most_passes


def _reduced_columns(
    labels: np.ndarray, deps: np.ndarray, diagonal: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduced profile of every column of ``labels`` (one row per
    connection of ``conn(S)``, departing ``deps``) as ``(points per
    column, deps, arrs)``, column after column, reduced as
    :func:`~repro.functions.reduction.reduce_connection_points` reduces
    a one-to-all search's labels: a point survives where its arrival is
    finite and below every later connection's.  Column ``diagonal``,
    when there is one, is the source itself: left empty."""
    after = np.full_like(labels, _INF32)
    np.minimum.accumulate(labels[:0:-1], axis=0, out=after[-2::-1])
    kept = labels < after
    if 0 <= diagonal < labels.shape[1]:
        kept[:, diagonal] = False
    col, row = np.nonzero(kept.T)
    return (
        np.bincount(col, minlength=labels.shape[1]),
        deps[row],
        labels[row, col],
    )
