"""Shared test utilities: deterministic random networks and reference
implementations used by property-based tests."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.baselines.mc_time_query import mc_time_query
from repro.core.parallel import timed_subset_search
from repro.graph.td_arrays import pack_td_graph, pack_timetable
from repro.graph.td_model import build_td_graph
from repro.query.table_query import StationToStationEngine
from repro.service import TransitService
from repro.store.store import _ARRAY_FIELDS as PACK_BUFFERS
from repro.timetable.builder import TimetableBuilder
from repro.timetable.routes import partition_routes
from repro.timetable.types import Connection, Timetable


class ReferenceService(TransitService):
    """A :class:`TransitService` that searches with the reference
    kernel — the object-graph SPCS (§3) with its §4 settle hook, and
    the object-graph fixed-departure search — the oracle side of the
    parity suites.

    Only the three search points are its own: the journey engine, one
    subset of a profile (:meth:`_search_subset`) and the fixed-departure
    search (:meth:`_mc_search`).  Everything built on them — the
    partition and merge of a profile, legs, Pareto fronts, ``via``
    chaining, the result cache, search workers — is the facade's own
    code on both sides of every comparison, and :meth:`beside` shares a
    served service's very :class:`~repro.service.PreparedDataset`."""

    def __init__(self, timetable, config=None, *, prepared=None) -> None:
        super().__init__(timetable, config, prepared=prepared)
        cfg, prepared = self.config, self.prepared
        self._engine = StationToStationEngine(
            prepared.graph,
            prepared.table,
            num_threads=cfg.num_threads,
            kernel="python",
            station_graph=prepared.station_graph,
        )

    @classmethod
    def beside(cls, service: TransitService) -> "ReferenceService":
        """The oracle over ``service``'s own prepared artifacts."""
        return cls(service.timetable, service.config, prepared=service.prepared)

    def _search_subset(self, source, subset):
        return timed_subset_search(self.prepared.graph, None, source, subset)

    def _mc_search(self, source, departure, max_transfers):
        return mc_time_query(
            self.prepared.graph, source, departure, max_transfers=max_transfers
        )


#: The service that searches with each of
#: :data:`repro.core.parallel.KERNELS`, for suites parametrized over them.
SERVICE_OF_KERNEL = {"python": ReferenceService, "flat": TransitService}


def toy_timetable() -> Timetable:
    """A 4-station, 3-line network with hand-checkable answers.

    Lines: A→B→C every 30 min (15 min/leg, 08:00–11:30), C→D every
    40 min (20 min, 08:10–11:50), A→D direct hourly (70 min, 08:20–).
    Transfer times: A=2, B=3, C=1, D=2.
    """
    builder = TimetableBuilder(name="toy")
    a = builder.add_station("A", transfer_time=2)
    b = builder.add_station("B", transfer_time=3)
    c = builder.add_station("C", transfer_time=1)
    d = builder.add_station("D", transfer_time=2)
    for t0 in range(480, 720, 30):
        builder.add_trip([(a, t0), (b, t0 + 15), (c, t0 + 30)], name=f"abc-{t0}")
    for t0 in range(490, 720, 40):
        builder.add_trip([(c, t0), (d, t0 + 20)], name=f"cd-{t0}")
    for t0 in range(500, 720, 60):
        builder.add_trip([(a, t0), (d, t0 + 70)], name=f"ad-{t0}")
    return builder.build()


def random_line_timetable(
    seed: int,
    *,
    num_stations: int = 12,
    num_lines: int = 6,
    max_line_length: int = 5,
    min_headway: int = 25,
    max_headway: int = 90,
    service_span: tuple[int, int] = (360, 1380),
    period: int = 1440,
    max_transfer: int = 5,
) -> Timetable:
    """A random but always-valid line network, deterministic in ``seed``.

    Per-station-pair leg times keep merged routes FIFO; lines run in
    both directions so reachability is symmetric.  Used as the input
    distribution for the cross-implementation equivalence properties.

    ``period`` sets the timetable periodicity ``π`` (departures are
    normalized into it); a ``service_span`` that covers the whole
    period yields wrap-heavy *periodic* service, a narrow span an
    *aperiodic* window.  ``max_transfer`` scales the per-station
    minimum transfer times (transfer-cost density).
    """
    rng = random.Random(seed)
    builder = TimetableBuilder(period=period, name=f"random-{seed}")
    stations = [
        builder.add_station(f"s{k}", transfer_time=rng.randint(0, max_transfer))
        for k in range(num_stations)
    ]
    leg_time: dict[tuple[int, int], int] = {}

    def leg(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        if key not in leg_time:
            leg_time[key] = rng.randint(3, 25)
        return leg_time[key]

    for _ in range(num_lines):
        length = rng.randint(2, max_line_length)
        stops = rng.sample(stations, min(length, num_stations))
        if len(stops) < 2:
            continue
        headway = rng.randint(min_headway, max_headway)
        offset = rng.randint(0, headway)
        for seq in (stops, stops[::-1]):
            legs = [leg(seq[k], seq[k + 1]) for k in range(len(seq) - 1)]
            for dep in range(service_span[0] + offset, service_span[1], headway):
                t = dep % period
                trip = [(seq[0], t)]
                for duration in legs:
                    t += duration
                    trip.append((seq[len(trip)], t))
                builder.add_trip(trip)
    return builder.build()


def retimed(timetable: Timetable, changes: dict[int, tuple[int, int]]) -> Timetable:
    """``timetable`` with every connection of train ``t`` in ``changes``
    departing ``shift`` minutes later and riding ``stretch`` minutes
    longer (shorter if negative, never under a minute) — what a delay
    batch does to a timetable, plus the one thing
    :func:`~repro.timetable.delays.apply_delays` never does: change how
    long a ride takes."""
    connections = []
    for c in timetable.connections:
        if c.train in changes:
            shift, stretch = changes[c.train]
            dep = (c.dep_time + shift) % timetable.period
            c = Connection(
                train=c.train,
                dep_station=c.dep_station,
                arr_station=c.arr_station,
                dep_time=dep,
                arr_time=dep + max(1, c.duration + stretch),
            )
        connections.append(c)
    return Timetable(
        stations=list(timetable.stations),
        trains=list(timetable.trains),
        connections=connections,
        period=timetable.period,
        name=timetable.name,
    )


def swapped_pack(timetable: Timetable, delayed: Timetable) -> tuple:
    """``(swapped, oracle)``: the pack of ``delayed`` over the routes of
    ``timetable``, as a replan builds it, and the pack of the object
    graph of ``delayed``."""
    return (
        pack_timetable(delayed, partition_routes(timetable)),
        pack_td_graph(build_td_graph(delayed)),
    )


def _mirror(adjacency) -> list:
    """A kernel mirror with each row as its typecode and bytes."""
    return [
        [
            (target, weight, row if row is None else (row.typecode, row.tobytes()))
            for target, weight, row in edges
        ]
        for edges in adjacency
    ]


def assert_packs_equal(got, expected) -> None:
    """Byte-equal packs: the 13 buffers (dtype included) and both
    kernel mirrors, the forward one row typecode by row typecode."""
    for name in PACK_BUFFERS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert _mirror(got.kernel_adjacency()) == _mirror(expected.kernel_adjacency())
    assert got.reverse_min_adjacency() == expected.reverse_min_adjacency()


def brute_force_arrivals(
    graph, source: int, times: list[int]
) -> dict[int, list[int]]:
    """Ground-truth earliest arrivals: one full time-query per departure
    time.  Returns ``{station: [arrival per time]}``.  O(|times|)
    Dijkstra runs — only for small test networks.
    """
    from repro.baselines.time_query import time_query

    arrivals: dict[int, list[int]] = {
        station: [] for station in range(graph.num_stations)
    }
    for tau in times:
        result = time_query(graph, source, tau)
        for station in range(graph.num_stations):
            arrivals[station].append(result.arrival_at_station(station))
    return arrivals


def spcs_table_rows(graph, stations, *, num_threads: int = 1, kernel: str = "flat"):
    """The distance table's rows the paper's way (§5.2): one
    ``parallel_profile_search`` per transfer station, each row read off
    its reduced profiles; the diagonal is empty.  The oracle of
    :func:`repro.query.distance_table.build_distance_table`'s scan."""
    import numpy as np

    from repro.core.parallel import parallel_profile_search
    from repro.functions.algebra import Profile

    stations = sorted({int(s) for s in stations})
    empty = np.zeros(0, dtype=np.int64)
    rows = []
    for a, origin in enumerate(stations):
        result = parallel_profile_search(graph, origin, num_threads, kernel=kernel)
        rows.append(
            [
                Profile(empty, empty, graph.timetable.period)
                if b == a
                else result.profile(dest)
                for b, dest in enumerate(stations)
            ]
        )
    return rows


def assert_rows_bitwise_equal(expected, profiles):
    """``profiles`` (a table's rows) equal ``expected`` to the byte:
    same dtypes, same departure and arrival bytes, same period."""
    assert len(profiles) == len(expected)
    for a in range(len(expected)):
        assert len(profiles[a]) == len(expected[a]), a
        for b, want in enumerate(expected[a]):
            got = profiles[a][b]
            assert got.period == want.period, (a, b)
            assert got.deps.dtype == want.deps.dtype, (a, b)
            assert got.arrs.dtype == want.arrs.dtype, (a, b)
            assert got.deps.tobytes() == want.deps.tobytes(), (a, b)
            assert got.arrs.tobytes() == want.arrs.tobytes(), (a, b)


def ask_every_shape(service, source: int, via: int, target: int) -> list:
    """One request of each row of ``SHAPES`` against ``service``, built
    from the shape's own field list (so a seventh shape is asked too);
    journeys carry a departure, so legs are reconstructed as well."""
    from repro.service.shapes import BATCH, SHAPES, as_request

    values = {
        "source": source,
        "via": via,
        "target": target,
        "departure": 8 * 60,
        "num_threads": 2,
    }
    answers = []
    for shape in SHAPES:
        if shape is BATCH:
            request = as_request(BATCH, [(source, target), (via, target)])
        else:
            first, *rest = (values.get(f.name) for f in shape.fields)
            request = as_request(shape, first, *rest)
        answers.append(getattr(service, shape.name)(request))
    return answers


def child_alive(pid: int) -> bool:
    """``pid`` is a child of this process that has not been reaped —
    running, or a zombie.  (No ``waitpid``: probing must not reap a
    child behind its owner's back.)"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _proc_stat(pid: int | str) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command name — state, parent,
    … — or ``None`` once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()
    except OSError:
        return None


def process_state(pid: int) -> str | None:
    """``pid``'s one-letter state (``T``: stopped, ``Z``: a zombie
    nobody has reaped), ``None`` once it is gone."""
    fields = _proc_stat(pid)
    return fields and fields[0]


def children_of(parent: int) -> list[int]:
    """The processes whose parent is ``parent``, zombies included."""
    return sorted(
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit()
        and (fields := _proc_stat(entry))
        and int(fields[1]) == parent
    )


def run_in_own_group(script, *args, send=None, timeout=120.0):
    """Run ``script`` (``python -c``, ``repro`` importable) as the
    leader of a new process group and fail unless the whole group is
    gone ``timeout`` seconds later; whatever happens, nothing of it
    survives the call.

    With ``send`` — a signal number for the leader, or a callable
    taking the group id — the script must print ``ready`` first; the
    signal follows half a second later (so whatever the script started
    next is under way) and ``timeout`` runs from the signal.  Returns
    ``(returncode, stdout, stderr)``.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(src)
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        if send is not None:
            assert proc.stdout.readline().strip() == "ready", proc.stderr.read()
            time.sleep(0.5)
            if callable(send):
                send(proc.pid)
            else:
                os.kill(proc.pid, send)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            pytest.fail(f"still running after {timeout} s")
        # The group id is the leader's pid; nothing may still carry it.
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        return proc.returncode, stdout, stderr
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
