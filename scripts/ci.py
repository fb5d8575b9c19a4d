#!/usr/bin/env python3
"""The CI steps that drive a sub-command or a store, as functions.

Usage:  PYTHONPATH=src python scripts/ci.py JOB

Each job runs ``python -m repro.cli`` as a child process, exactly as a
shell step would, keeps its files in a temporary directory and exits
non-zero on the first failed assertion.  ``.github/workflows/ci.yml``
calls one job per step; every job also runs locally as is.

``transcripts`` asserts nothing about the answers: it prints the
invocation matrix (:func:`transcripts`) with run-dependent figures
masked, so that two checkouts can be compared with ``diff`` —
``PYTHONPATH=<checkout>/src python scripts/ci.py transcripts``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
#: Children import the package the caller's PYTHONPATH names, else this
#: checkout's.
ENV = {**os.environ, "PYTHONPATH": os.environ.get("PYTHONPATH", str(REPO / "src"))}
sys.path[:0] = [*ENV["PYTHONPATH"].split(os.pathsep), str(REPO)]

OAHU = ("--instance", "oahu", "--scale", "tiny")


def cli(
    *argv: str, check: bool = True, prefix: tuple[str, ...] = ()
) -> subprocess.CompletedProcess:
    """Run one ``repro-transit`` command to completion (``prefix``:
    a launcher such as ``taskset -c 0`` to run it under)."""
    proc = subprocess.run(
        [*prefix, sys.executable, "-m", "repro.cli", *argv],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if check and proc.returncode != 0:
        raise SystemExit(
            f"repro-transit {' '.join(argv)} exited {proc.returncode}:\n"
            f"{proc.stdout}{proc.stderr}"
        )
    return proc


def process_tree(root: int) -> list[int]:
    """``root`` and its live descendants (zombies are not alive)."""
    parent_of = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                state, ppid = (
                    (entry / "stat").read_text().rpartition(")")[2].split()[:2]
                )
            except OSError:  # gone between the listing and the read
                continue
            if state != "Z":
                parent_of[int(entry.name)] = int(ppid)
    tree = [root] if root in parent_of else []
    for pid in tree:
        tree.extend(child for child, ppid in parent_of.items() if ppid == pid)
    return tree


@contextlib.contextmanager
def serving(command: str, tmp: Path, *argv: str):
    """A background ``serve`` / ``serve-fleet`` on an ephemeral port:
    yields its URL and process id once the port file appears; on exit
    sends SIGTERM, asserts a clean drain (exit 0) that leaves no
    descendant of the server alive, and prints the server's log.  After
    a failure it sends SIGTERM too, and SIGKILL only if the server does
    not drain: a killed serve-fleet would orphan its workers."""
    port_file = tmp / f"{command}.port"
    log = open(tmp / f"{command}.log", "w+")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", command, *argv,
            "--port", "0", "--port-file", str(port_file),
        ],
        env=ENV,
        stdout=log,
        stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists() or not port_file.read_text().strip():
            assert proc.poll() is None, f"{command} exited {proc.returncode}"
            assert time.monotonic() < deadline, f"{command} published no port"
            time.sleep(0.1)
        yield f"http://127.0.0.1:{int(port_file.read_text())}", proc.pid
        descendants = process_tree(proc.pid)[1:]
        proc.send_signal(signal.SIGTERM)
        status = proc.wait(timeout=60)
        log.seek(0)
        text = log.read()
        print(text, end="")
        assert "drained" in text, f"{command} log shows no drain"
        assert status == 0, f"{command} exited {status} after SIGTERM"
        orphans = [p for p in descendants if process_tree(p)]
        assert not orphans, f"{command} left {orphans} of {descendants} behind"
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        log.close()


def batch_workers(tmp: Path) -> None:
    """A batch over two search workers against one on the calling
    thread: same workload, same work, same classifications, and the
    summary counts the workers it forked — one per usable core at
    most."""
    plain, pooled = (
        json.loads(
            cli(
                "batch", *OAHU, "--n-queries", "8", "--seed", "1", "--json",
                *workers,
            ).stdout
        )
        for workers in ((), ("--workers", "2"))
    )
    assert plain["workers"] == 0, plain
    assert pooled["workers"] == min(2, len(os.sched_getaffinity(0))), pooled
    for key in ("num_queries", "settled_connections", "classifications"):
        assert plain[key] == pooled[key], (key, plain[key], pooled[key])
    print(
        f"{plain['queries_per_second']} queries/s on the calling thread, "
        f"{pooled['queries_per_second']} queries/s on "
        f"{pooled['workers']} search worker(s)"
    )


def foreign_clients(tmp: Path) -> None:
    """Ask a live ``serve`` through clients that share no code with it:
    stdlib ``http.client`` (head and body leave in separate segments,
    which the SDK never does) must get the journey the SDK gets, and an
    HTTP/1.0 probe on a raw socket must get its 200 *and* its EOF —
    within a second, not at the probe's own timeout."""
    import http.client
    import socket

    from repro.client import HttpBackend

    store = str(tmp / "oahu")
    cli("prepare", *OAHU, "--store", store, "--transfer-fraction", "0.25")
    with serving("serve", tmp, "--store", store) as (url, _):
        port = int(url.rpartition(":")[2])
        with HttpBackend(url, timeout=30) as sdk:
            mine = sdk.journey(3, 8, departure=480)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request(
            "POST",
            f"/v1/{sdk.dataset}/journey",
            body=json.dumps({"source": 3, "target": 8, "departure": 480}),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        theirs = json.loads(response.read())
        conn.close()
        assert response.status == 200, (response.status, theirs)
        assert theirs["profile"] == [list(p) for p in mine.profile.points]
        assert theirs["arrival"] == mine.arrival
        assert [tuple(leg.values()) for leg in theirs["legs"]] == [
            (leg.from_station, leg.to_station, leg.departure, leg.arrival)
            for leg in mine.legs
        ]
        print(
            f"http.client and the SDK agree: arrival {mine.arrival}, "
            f"{len(mine.profile)} connection points, {len(mine.legs)} leg(s)"
        )

        t0 = time.perf_counter()
        with socket.create_connection(("127.0.0.1", port), timeout=1.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            answer = b""
            while chunk := sock.recv(4096):  # a hang raises TimeoutError
                answer += chunk
        elapsed = time.perf_counter() - t0
        assert answer.startswith(b"HTTP/1.1 200 OK\r\n"), answer[:80]
        assert b"\r\nConnection: close\r\n" in answer, answer
        assert json.loads(answer.partition(b"\r\n\r\n")[2])["status"] == "ok"
        assert elapsed < 1.0, elapsed
        print(f"HTTP/1.0 probe: 200 and EOF in {elapsed * 1000:.1f} ms")


def global_queries(tmp: Path) -> None:
    """The served flat loop (Theorem 4 inside the kernel, no Theorem 3)
    against the hook-driven reference kernel with both table rules:
    a query the reference calls global prints, at the CLI boundary, the
    connections the reference engine finds in process on the same
    instance and table, over one connection subset and over four (the
    served journey is one search).  The CLI labels it ``(local)``: the
    served engine computes no via stations.  0 → 2 has a non-transfer
    target (Theorem 3 on the reference side only), 5 → 4 a
    transfer-station target (Theorem 4 on both); 0 → 2 without a table
    is a local query, where goal direction is the only thing the flat
    kernel adds to the stopping criterion — it must settle no more
    than the reference's one search.  Then the flat loop's work on
    100 seeded global queries each on ``washington``/small and
    ``germany``/medium, picked by their via stations and summed, as
    recorded."""
    import numpy as np

    from repro.query.table_query import StationToStationEngine
    from repro.query.via import compute_via_stations
    from repro.service import ServiceConfig
    from repro.service.prepare import prepare_dataset
    from repro.synthetic.instances import make_instance
    from repro.timetable.periodic import format_time

    oahu = make_instance("oahu", "tiny")
    for label, source, target, kind, fraction in (
        ("table-0-2", 0, 2, "global", 0.2),
        ("table-5-4", 5, 4, "global", 0.2),
        ("plain-0-2", 0, 2, "local", 0.0),
    ):
        flags = ("--transfer-fraction", str(fraction)) if fraction else ()
        config = ServiceConfig(
            use_distance_table=bool(fraction), transfer_fraction=fraction
        )
        prepared = prepare_dataset(oahu, config)
        out = cli(
            "query", *OAHU, *flags, "--source", str(source),
            "--target", str(target),
        ).stdout
        assert f"{source} → {target} (local)" in out, (label, out)
        printed = [line for line in out.splitlines() if "depart" in line]
        assert printed, f"{label}: no connections printed"
        for cores in (1, 4):
            reference = StationToStationEngine(
                prepared.graph, prepared.table, num_threads=cores,
                kernel="python", station_graph=prepared.station_graph,
            ).query(source, target)
            assert reference.classification == kind, (label, reference)
            expected = [
                f"  depart {format_time(dep)}  arrive "
                f"{format_time(dep + dur)}  ({dur} min)"
                for dep, dur in reference.profile.connection_points()
            ]
            assert printed == expected, f"{label}: the reference on {cores} core(s) differs"
            print(
                f"{label}: {len(printed)} profile lines identical to the "
                f"reference kernel's on {cores} core(s) ({kind})"
            )
            if not fraction and cores == 1:
                flat = int(re.search(r"(\d+) settled", out).group(1))
                python = reference.settled_connections
                assert flat <= python, f"{label}: {flat} > {python}"
                print(f"{label}: flat settled {flat} <= python {python} on 1 core")

    # The work of targeted searches at scale: which settles happen, and
    # what each does with the table, moves these sums long before it
    # moves an answer.  The pairs are those the loop ran Theorem 3 on
    # while it had that rule; ``with_theorem_3`` is what it settled then.
    import random

    config = ServiceConfig(use_distance_table=True, transfer_fraction=0.5)
    for instance, scale, recorded, with_theorem_3 in (
        ("washington", "small", (957_456, 0, 4_666, 0), 817_500),
        ("germany", "medium", (234_619, 0, 1_424, 0), 199_846),
    ):
        prepared = prepare_dataset(make_instance(instance, scale), config)
        table = prepared.table
        engine = StationToStationEngine(
            None, table, num_threads=1, table_pruning=False, kernel="flat",
            arrays=prepared.arrays, station_graph=prepared.station_graph,
        )
        transfer_mask = np.zeros(prepared.arrays.num_stations, dtype=bool)
        transfer_mask[table.transfer_stations] = True
        rng = random.Random(f"global-queries:{instance}")
        stations = range(prepared.arrays.num_stations)
        work, queries = [0, 0, 0, 0], 0
        while queries < 100:
            source, target = rng.sample(stations, 2)
            if table.contains(source) and table.contains(target):
                continue
            via_info = compute_via_stations(
                prepared.station_graph, target, transfer_mask
            )
            if via_info.classify(source) != "global":
                continue
            result = engine.query(source, target)
            assert result.classification == "local", result
            work = [
                total + count
                for total, count in zip(work, (
                    result.settled_connections, result.table_prunes,
                    result.connection_stops, result.mu_updates,
                ))
            ]
            queries += 1
        print(
            f"{instance}/{scale}: 100 global queries settle {work[0]} "
            f"(with Theorem 3: {with_theorem_3}), prune {work[1]}, stop "
            f"{work[2]}, lower µ {work[3]} times"
        )
        assert tuple(work) == recorded, (instance, work)


def serve_fleet(tmp: Path) -> None:
    """serve-fleet at the CLI boundary: the gateway publishes its
    ephemeral port via --port-file, answers 32 concurrent SDK journeys
    on its event loop — the process runs that one thread: the loop
    drives the supervisor, and there is no BLAS pool, it imports no
    numpy — and SIGTERM drains the whole process tree to exit 0."""
    from repro.client import connect

    store = str(tmp / "oahu")
    cli("prepare", *OAHU, "--store", store, "--transfer-fraction", "0.25")
    with serving(
        "serve-fleet", tmp, "--store", store, "--workers", "2"
    ) as (url, pid):
        started = _threads(pid)

        def journey(i: int) -> None:
            with connect(url) as backend:
                answers[i] = backend.journey(i % 12, (i + 5) % 12)

        answers: list = [None] * 32
        clients = [
            threading.Thread(target=journey, args=(i,)) for i in range(32)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
        assert all(answers), "a journey through the gateway failed"
        threads = _threads(pid)
        assert threads == started, f"{started} threads became {threads}"
        assert threads == 1, f"serve-fleet runs {threads} threads"
        print(
            f"gateway at {url} answered 32 concurrent journeys; the "
            f"process runs {threads} threads"
        )


#: A ``python -c`` prelude: the child writes the names of its modules
#: to the file its first argument names, when it exits or — a
#: ``serve`` — once it has published its port, before the port file
#: appears.  The child's own arguments follow.
_MODULES_DUMP = """
import atexit, json, sys

dump = sys.argv.pop(1)


def write_modules():
    with open(dump, "w") as handle:
        json.dump(sorted(sys.modules), handle)


atexit.register(write_modules)
"""


def cold_start(tmp: Path) -> None:
    """What a process pays before it serves: ``e2ebench``'s prepare
    process builds the ``table_hit`` store (washington/small, table
    on) as every set-up of that workload does, and ``serve`` is spawned
    on it five times with its flags as shipped.  Prints the prepare
    process's module count, and per spawn the time from spawn to the
    port file, the ``repro`` modules loaded and ``VmHWM`` at that
    moment; then asserts that ``serve`` loaded none of the modules it
    never runs (``tests/test_imports.py``).  Run with a parent
    checkout's ``PYTHONPATH`` for the other side of a comparison: the
    numbers print before the assertion."""
    import statistics

    from tests.test_imports import not_served

    def repro_modules(path: Path) -> list[str]:
        names = json.loads(path.read_text())
        return [name for name in names if name.split(".")[0] == "repro"]

    import repro

    store, dump = tmp / "table_hit", tmp / "modules.json"
    # The prepare step of the checkout whose `src` is imported: it puts
    # its own `src` first on the path.
    prepare = Path(repro.__file__).parents[2] / "e2ebench" / "prepare.py"
    subprocess.run(
        [
            sys.executable, "-c",
            _MODULES_DUMP + "import runpy\n"
            "sys.argv[0] = sys.argv[1]\n"
            "del sys.argv[1]\n"
            "runpy.run_path(sys.argv[0], run_name='__main__')\n",
            str(dump), str(prepare),
            "--workload", "table_hit", "--store", str(store),
        ],
        env=ENV, capture_output=True, text=True, check=True,
    )
    print(f"prepare process: {len(repro_modules(dump))} repro modules")

    serve = _MODULES_DUMP + (
        "import repro.cli.serve as serve_cli\n"
        "publish = serve_cli._write_port_file\n"
        "def published(path, port):\n"
        "    write_modules()\n"
        "    publish(path, port)\n"
        "serve_cli._write_port_file = published\n"
        "from repro.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    port_file = tmp / "serve.port"
    spawns, loaded = [], []
    for _ in range(5):
        port_file.unlink(missing_ok=True)
        dump.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [
                sys.executable, "-c", serve, str(dump), "serve",
                "--store", str(store), "--port", "0",
                "--port-file", str(port_file),
            ],
            env=ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            while not port_file.exists():
                assert proc.poll() is None, f"serve exited {proc.returncode}"
                assert time.perf_counter() - t0 < 60, "serve published no port"
                time.sleep(0.002)
            ready_ms = (time.perf_counter() - t0) * 1000
            hwm = _proc_mb(proc.pid, "status", "VmHWM")
            loaded = repro_modules(dump)
        finally:
            proc.send_signal(signal.SIGTERM)
            log, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, f"serve exited {proc.returncode}: {log}"
        spawns.append(ready_ms)
        print(
            f"serve: port file after {ready_ms:.0f} ms, "
            f"{len(loaded)} repro modules, VmHWM {hwm:.1f} MB"
        )
    print(f"serve: median {statistics.median(spawns):.0f} ms to the port file")
    assert not_served(loaded) == [], not_served(loaded)


def swap_seeds(tmp: Path) -> None:
    """Generation routing's seeded invariant
    (``tests/fleet/test_generation_routing.py``, three seeds in
    tier-1) over 200 seeds: three in-process servers behind a gateway,
    seeded replan holds, closed-loop clients, every answer checked."""
    from repro.synthetic.instances import make_instance
    from tests.fleet.test_generation_routing import run_seed

    timetable = make_instance("oahu", "tiny")
    answers = sum(run_seed(seed, timetable) for seed in range(200))
    print(f"200 seeds, {answers} answers, none from an older generation")


def warm_start(tmp: Path) -> None:
    """No served path builds the object graph: the graph builder
    (``build_td_graph``) and the graph packer (``pack_td_graph``) are
    poisoned throughout, and a cold prepare builds its pack from the
    timetable and its routes.  A loaded service must never rebuild:
    loading with every builder poisoned — the pack's constructor
    (``pack_timetable``) included — and answering all six query shapes
    proves the store carried everything.  Nor does it hydrate: the
    store's timetable builder (``_hydrate_timetable``), which only a
    swap, a save or an oracle asks for, is poisoned too.  A loaded
    table-on service with search workers answers journeys from outside
    ``S_trans`` while the table's row builder, its table answer
    (``profile_between``) and the record's string decoder are poisoned
    in this process: the rows are built in the workers, and the load
    decoded only the record sections serving reads.  Then a delay
    swap of the loaded service, asked for as a client asks (no
    ``mode=``), builds no connection or train row (``Connection`` and
    ``Train`` poisoned at construction), and it and a
    save of the swapped one build the timetable, the pack and the
    table, and nothing else.  A second swap, off the
    swapped generation, reads no connection object (the per-field pass
    of ``Timetable.connection_columns`` poisoned) and packs what a cold
    pack of the twice-delayed timetable holds, byte for byte."""
    import repro.graph.td_arrays as arrays_mod
    import repro.graph.td_model as td_model_mod
    import repro.query.transfer_selection as selection_mod
    import repro.service.prepare as prepare_mod
    import repro.store.store as store_mod
    from repro import ServiceConfig, TransitService
    from repro.synthetic.instances import make_instance

    store = str(tmp / "store")
    cli("prepare", *OAHU, "--store", store, "--transfer-fraction", "0.2")

    def forbid(name):
        def _raise(*args, **kwargs):
            raise AssertionError(f"warm start called {name}")

        return _raise

    for mod, attr in (
        (td_model_mod, "build_td_graph"),
        (arrays_mod, "pack_td_graph"),
    ):
        setattr(mod, attr, forbid(attr))
    cold = TransitService(
        make_instance("oahu", scale="tiny"),
        ServiceConfig(use_distance_table=True, transfer_fraction=0.2),
    )
    assert cold.prepared.hydrated == {"timetable"}, cold.prepared.hydrated
    print("a cold prepare built no graph: it packed the timetable")

    swap_builders = {
        (prepare_mod, "pack_timetable"): prepare_mod.pack_timetable,
        (prepare_mod, "build_distance_table"): prepare_mod.build_distance_table,
        (store_mod, "_hydrate_timetable"): store_mod._hydrate_timetable,
    }
    for mod, attr in (
        (prepare_mod, "build_station_graph"),
        (selection_mod, "select_transfer_stations"),
        *swap_builders,
    ):
        setattr(mod, attr, forbid(attr))

    service = TransitService.load(store)
    assert service.prepare_stats.loaded_from_store
    service.profile(0)
    service.journey(0, 5)
    service.batch([(0, 5), (1, 6)])
    service.multicriteria(0, 5, departure=8 * 60)
    service.via(0, 3, 5, departure=8 * 60)
    service.min_transfers(0, 5, departure=8 * 60)
    assert service.prepared.hydrated == frozenset(), service.prepared.hydrated
    print(
        "all six query shapes answered with every builder poisoned: "
        "nothing was hydrated"
    )

    # What a load leaves unread: a service whose searches run in its
    # workers builds no table row and no lookup profile in this process,
    # and decodes no record section past the serving ones, however many
    # journeys from outside S_trans it answers.
    import repro.query.distance_table as table_mod
    import repro.store.codec as codec_mod

    decoded: list[str] = []
    real_get = codec_mod.HeldRecord.get

    def logged_get(self, name, **kwargs):
        decoded.append(name)
        return real_get(self, name, **kwargs)

    codec_mod.HeldRecord.get = logged_get
    served = TransitService.load(store)
    table = served.table
    stations = range(served.prepared.counts.stations)
    outside = [s for s in stations if not table.contains(s)]
    pairs = [(s, t) for s in outside for t in stations if s != t]
    expected = [cold.journey(s, t).profile for s, t in pairs]
    served.start_workers(2)
    builders = {
        (table_mod, "minute_row"): table_mod.minute_row,
        (table_mod.DistanceTable, "profile_between"): (
            table_mod.DistanceTable.profile_between
        ),
        (codec_mod, "decode_strings"): codec_mod.decode_strings,
    }
    for mod, attr in builders:
        setattr(mod, attr, forbid(attr))
    for (s, t), profile in zip(pairs, expected):
        assert served.journey(s, t).profile == profile, (s, t)
    served.stop_workers()
    for (mod, attr), builder in builders.items():
        setattr(mod, attr, builder)
    codec_mod.HeldRecord.get = real_get
    assert not any(table._rows)
    serving = {"meta", "timetable_name", "transfer_stations"}
    assert set(decoded) - serving == {
        "sg_indptr", "sg_targets", "sg_weights", "sg_rev_indptr", "sg_rev_targets",
    }, decoded
    print(
        f"{len(pairs)} journeys from {len(outside)} stations outside S_trans, "
        "searched in 2 workers: this process built no table row or lookup "
        "profile and decoded only the record's serving sections"
    )

    import repro.timetable.types as types_mod
    from repro.timetable.delays import Delay

    for (mod, attr), builder in swap_builders.items():
        setattr(mod, attr, builder)
    row_views = {
        (row, "__post_init__"): row.__post_init__
        for row in (types_mod.Connection, types_mod.Train)
    }
    for row, attr in row_views:
        setattr(row, attr, forbid(f"a {row.__name__} row"))
    first = [Delay(train=0, minutes=25), Delay(train=7, minutes=10, from_stop=1)]
    swapped = service.apply_delays(first)
    for (row, attr), check in row_views.items():
        setattr(row, attr, check)
    print(
        "a swap of the loaded service built no connection or train row: "
        "its timetable is the record's columns"
    )
    swapped.save(tmp / "swapped")
    swapped.journey(0, 5)
    for prepared in (service.prepared, swapped.prepared):
        assert prepared.hydrated == {"timetable"}, prepared.hydrated
    print(
        "a default swap of the loaded service and a save of the "
        "swapped one built no graph: the swap packed the delayed timetable"
    )

    from repro.timetable.routes import partition_routes
    from tests.helpers import PACK_BUFFERS, apply_delays_by_connection

    second = [Delay(train=3, minutes=12), Delay(train=7, minutes=5)]
    twice = apply_delays_by_connection(
        apply_delays_by_connection(make_instance("oahu", scale="tiny"), first),
        second,
    )
    expected = arrays_mod.pack_timetable(twice, partition_routes(twice))
    types_mod.attrgetter = forbid("the per-field pass over the connections")
    swapped_twice = swapped.apply_delays(second)
    packed = swapped_twice.prepared.arrays
    for name in PACK_BUFFERS:
        got, want = getattr(packed, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    print(
        "a second swap read no connection object: its "
        f"{len(PACK_BUFFERS)} buffers equal a cold pack of the twice-delayed "
        "timetable, byte for byte"
    )


def table_build(tmp: Path) -> None:
    """The distance table is one backward scan over the route edges'
    points (docs/KERNEL.md, "Preprocessing: one backward scan"), and it
    is the paper's table to the byte: ``repro prepare`` stores
    washington/small's, and that table — and germany/medium's, built in
    process — equals the SPCS rows (one one-to-all search per transfer
    station, §5.2).  The scan's deterministic work, points × passes, is
    as recorded."""
    import numpy as np

    from repro import TransitService
    from repro.graph.td_model import build_td_graph
    from repro.query.distance_table import route_points
    from repro.service import ServiceConfig
    from repro.synthetic.instances import make_instance
    from tests.helpers import (
        assert_rows_bitwise_equal,
        assert_tables_bitwise_equal,
        spcs_table_rows,
        table_profiles,
    )

    store = str(tmp / "washington")
    out = cli(
        "prepare", "--instance", "washington", "--scale", "small",
        "--transfer-fraction", "0.5", "--store", store,
    ).stdout
    ms = float(re.search(r"table ([\d.]+) ms", out).group(1))
    stored = TransitService.load(store).table
    config = ServiceConfig(use_distance_table=True, transfer_fraction=0.5)
    for instance, scale, points, passes in (
        ("washington", "small", 29_283, 2),
        ("germany", "medium", 7_769, 2),
    ):
        service = TransitService(make_instance(instance, scale=scale), config)
        table = service.table
        work = (route_points(service.prepared.arrays)[0].size, table.build_passes)
        assert work == (points, passes), (instance, work)
        t0 = time.perf_counter()
        expected = spcs_table_rows(
            build_td_graph(service.timetable), table.transfer_stations
        )
        oracle_s = time.perf_counter() - t0
        assert_rows_bitwise_equal(expected, table_profiles(table))
        if instance == "washington":
            assert_tables_bitwise_equal(table, stored)
        print(
            f"{instance}/{scale}: {table.num_transfer_stations} rows from "
            f"{points} points x {passes} passes in "
            f"{table.build_seconds * 1000:.0f} ms; SPCS rows in "
            f"{oracle_s * 1000:.0f} ms; bitwise equal"
        )
    print(f"repro prepare, washington/small: table {ms:.0f} ms; stored table equal")


def table1_kernels(tmp: Path) -> None:
    """Table 1's p = 1 cells at tiny scale on oahu, once per SPCS
    kernel, through the runner the bench and ``repro table1`` call:
    the flat kernel's one-to-all search beats the reference's by more
    than 1.5x.  Locally it is ≈ 3.5–4x; the margin absorbs one-sample
    noise on a shared runner without letting "no faster than the
    reference" through."""
    from repro.analysis import run_table1

    def time_of(kernel: str) -> float:
        result = run_table1(
            "oahu", scale="tiny", cores=(1,), include_lc=False, kernel=kernel
        )
        return result.cells[0].time_mean * 1000

    py, flat = time_of("python"), time_of("flat")
    print(f"CS[python] {py:.1f} ms vs CS[flat] {flat:.1f} ms -> {py / flat:.2f}x")
    assert flat * 1.5 < py, (
        f"flat kernel regressed: {flat:.1f} ms vs reference {py:.1f} ms"
    )


def _tree_cpu_seconds(pids: list[int]) -> float:
    """Scheduler run time of every thread of ``pids`` (``schedstat``,
    as ``e2ebench/harness.py`` reads it for the server alone)."""
    return sum(
        int((task / "schedstat").read_text().split()[0])
        for pid in pids
        for task in Path(f"/proc/{pid}/task").iterdir()
    ) / 1e9


def _threads(pid: int) -> int:
    """The threads of ``pid``: its entries in ``/proc/<pid>/task``."""
    return len(list(Path(f"/proc/{pid}/task").iterdir()))


def _proc_mb(pid: int, file: str, field: str) -> float:
    """A kB field of ``/proc/<pid>/<file>`` (``status``: ``VmRSS``,
    ``VmHWM``; ``smaps_rollup``: ``Pss``), in MB."""
    for line in Path(f"/proc/{pid}/{file}").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024
    raise KeyError(field)


def served_pool(tmp: Path) -> None:
    """The served path on the cores, and what it costs in whole.

    ``serve`` over washington/small (table on, result cache off — the
    ``cold_search`` store of ``e2ebench``), everything else as shipped.
    First that workload's own 264-pair script from two clients, with
    the accounting ``e2ebench/harness.py`` cannot do — it reads
    ``schedstat`` and ``VmHWM`` of the ``serve`` process alone, and the
    searches now run in its children: CPU per operation and memory over
    the server's process *tree*, beside the parent-only values — and
    then every answer it timed, stats included, must equal the
    in-process ``LocalBackend``'s for the same pair.  Then
    the paper's scalability figure through HTTP: one client, one-to-all
    profiles from 12 seeded sources, three rounds, split over p = 1 and
    p = 2 connection subsets — answers equal to in-process ones, p = 2
    faster than p = 1 by more than 1.3x where there are two cores to
    run them on (the numbers are printed either way, the assertion
    comes last).  Last a delay swap with the table on: its table is
    scanned on the thread that replans it (``asyncio.to_thread``), so
    nothing but the new generation's search workers forks, the answers
    after it are those of an
    in-process service that applied the same batch, whose table equals
    a cold service's on the delayed timetable to the byte, and the swap
    time is printed for comparison across commits."""
    import random
    import statistics
    import threading

    from e2ebench.workloads import WORKLOADS, build_script, perform
    from repro import ServiceConfig, TransitService
    from repro.client import LocalBackend, connect
    from repro.service.model import ProfileRequest
    from repro.synthetic.instances import make_instance
    from repro.timetable.delays import Delay
    from tests.helpers import assert_tables_bitwise_equal, scrubbed

    cores = len(os.sched_getaffinity(0))
    store = tmp / "washington"
    TransitService(
        make_instance("washington", scale="small"),
        ServiceConfig(**WORKLOADS["cold_search"].config),
    ).save(store)
    service = TransitService.load(store)
    script = build_script(WORKLOADS["cold_search"], 0, 10, service)
    local = LocalBackend(store)
    with serving("serve", tmp, "--store", str(store)) as (base, server):
        url = f"{base}/washington"
        tree = process_tree(server)

        def client(ops: list, answers: list) -> None:
            with connect(url) as backend:
                for op in ops:
                    answers.append((op, perform(backend, op)))

        client(script.warmup, [])
        cpu0 = _tree_cpu_seconds(tree), _tree_cpu_seconds(tree[:1])
        answered: list = [[], []]
        t0 = time.perf_counter()
        threads = [
            threading.Thread(
                target=client, args=(script.timed[k::2], answered[k])
            )
            for k in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        ops = len(script.timed)
        assert process_tree(server) == tree, "the process tree changed"
        print(
            f"cold_search script: {ops} ops from 2 clients in {wall:.2f} s "
            f"({ops / wall:.1f}/s), server tree of {len(tree)} process(es)"
        )
        print(
            f"  CPU per op: tree "
            f"{(_tree_cpu_seconds(tree) - cpu0[0]) * 1000 / ops:.2f} ms, "
            f"serve process alone "
            f"{(_tree_cpu_seconds(tree[:1]) - cpu0[1]) * 1000 / ops:.2f} ms"
        )
        rss = [_proc_mb(pid, "status", "VmRSS") for pid in tree]
        pss = [_proc_mb(pid, "smaps_rollup", "Pss") for pid in tree]
        print(
            f"  memory: tree Pss {sum(pss):.1f} MB "
            f"(Rss {' + '.join(f'{mb:.1f}' for mb in rss)} MB), "
            f"serve process alone Pss {pss[0]:.1f} MB, "
            f"VmHWM {_proc_mb(server, 'status', 'VmHWM'):.1f} MB"
        )
        thread_counts = [_threads(pid) for pid in tree]
        print(
            "  Pss and threads per process: "
            + ", ".join(
                f"{'serve' if k == 0 else f'worker {k}'} {mb:.1f} MB "
                f"{count} thread(s)"
                for k, (mb, count) in enumerate(zip(pss, thread_counts))
            )
        )
        # The loop waits for the workers itself: no thread per search.
        assert thread_counts[0] == 1, f"serve runs {thread_counts[0]} threads"
        timed = answered[0] + answered[1]
        assert len(timed) == ops, f"{len(timed)} of {ops} ops answered"
        for op, answers in timed:
            assert scrubbed(answers) == scrubbed(perform(local, op)), op
        print(f"  all {ops} timed answers equal the in-process ones")

        sources = random.Random("served-pool").sample(
            range(service.timetable.num_stations), 12
        )
        target = [s for s in range(3) if s not in sources][:1]
        times: dict[int, list[float]] = {1: [], 2: []}
        with connect(url) as backend:
            for _ in range(3):
                for source in sources:
                    for p in (1, 2):
                        request = ProfileRequest(source, num_threads=p)
                        t0 = time.perf_counter()
                        answer = backend.profile(request, targets=target)
                        times[p].append(time.perf_counter() - t0)
                        expected = local.profile(request, targets=target)
                        assert answer.profiles == expected.profiles, (source, p)
                        assert (
                            answer.stats.settled_connections
                            == expected.stats.settled_connections
                        ), (source, p)

        delays = [Delay(train=train, minutes=20) for train in (0, 1, 2)]
        before, seen, swapped = set(process_tree(server)), set(), threading.Event()

        def watch() -> None:
            while not swapped.is_set():
                seen.update(process_tree(server))
                time.sleep(0.01)

        watcher = threading.Thread(target=watch)
        watcher.start()
        hwm = _proc_mb(server, "status", "VmHWM")
        with connect(url) as backend:
            update = backend.apply_delays(delays)
            swapped.set()
            watcher.join()
            transient = seen - before - set(process_tree(server))
            local.apply_delays(delays)
            stats = local.service.prepare_stats
            for source in sources:
                request = ProfileRequest(source, num_threads=1)
                answer = backend.profile(request, targets=target)
                expected = local.profile(request, targets=target)
                assert answer.profiles == expected.profiles, source
                journey = backend.journey(source, target[0])
                assert journey.profile == local.journey(source, target[0]).profile
        replanned = local.service
        cold = TransitService(replanned.timetable, replanned.config).table
        assert_tables_bitwise_equal(cold, replanned.table)
        print(
            f"delay swap, table on: {stats.num_transfer_stations} transfer "
            f"stations, "
            f"swap {update.swap_seconds * 1000:.0f} ms "
            f"(table {stats.table_seconds * 1000:.0f} ms in process), "
            f"{len(transient)} short-lived process(es) inside serve; "
            f"answers after it equal the in-process service's, "
            f"its table a cold build's; serve VmHWM {hwm:.1f} MB before "
            f"the swap, {_proc_mb(server, 'status', 'VmHWM'):.1f} MB after"
        )
        assert not transient, f"the swap forked row workers: {transient}"
    one, two = (statistics.median(times[p]) * 1000 for p in (1, 2))
    print(
        f"served profile, 12 sources x 3, one client, {cores} core(s): "
        f"p=1 {one:.1f} ms, p=2 {two:.1f} ms, speed-up {one / two:.2f}x"
    )
    if cores >= 2:
        assert one / two > 1.3, f"p=2 is only {one / two:.2f}x p=1"


#: ``batch --json`` keys that are wall-clock measurements.
_TIMED_KEYS = ("total_seconds", "queries_per_second", "prepare_seconds")


def _mask(text: str, tmp: Path, url: str) -> str:
    text = text.replace(url, "$URL").replace(str(tmp), "$TMP")
    text = re.sub(r"[\d.]+ (ms|queries/s)", r"# \1", text)
    text = re.sub(r"built in [\d.]+ s", "built in # s", text)
    lines = []
    for line in text.splitlines():
        if line.startswith("{"):
            summary = json.loads(line)
            summary.update(
                (key, "#") for key in _TIMED_KEYS if summary[key] is not None
            )
            line = json.dumps(summary, sort_keys=True)
        lines.append(line)
    return "\n".join(lines)


def _show(*argv: str) -> None:
    """One transcript entry: the command, its exit status, its stdout
    and — when it failed — the last line of its stderr."""
    proc = cli(*argv, check=False)
    print(f"$ repro-transit {' '.join(argv)}\nexit {proc.returncode}")
    print(proc.stdout, end="")
    if proc.returncode != 0:
        print(f"stderr: {proc.stderr.splitlines()[-1]}")
    print()


def transcripts(tmp: Path) -> None:
    """The invocation matrix: the dataset commands, the six query
    commands over ``--instance`` / ``--from-store`` / ``--remote``
    (text, and ``batch --json``), and the invalid values and
    combinations that must end in ``error: …`` rather than a traceback
    or a silently ignored flag."""
    store, feed = str(tmp / "store"), str(tmp / "feed")
    table = ("--transfer-fraction", "0.25")
    pair = ("--source", "2", "--target", "5", "--departure", "480")
    queries = {
        "profile": ("--source", "0", "--target", "3"),
        "query": ("--source", "0", "--target", "5"),
        "batch": ("--n-queries", "4", "--seed", "1"),
        "multicriteria": pair,
        "via": (*pair, "--via", "7"),
        "min-transfers": pair,
    }
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _show("generate", *OAHU, "--output", feed)
        _show("info", *OAHU)
        _show("info", "--gtfs", feed)
        _show("prepare", *OAHU, "--store", store, *table)
        _show("info", "--from-store", store)
        with serving("serve", tmp, "--store", store) as (url, _):
            remote = ("--remote", f"{url}/store")
            for command, flags in queries.items():
                local = OAHU if command == "profile" else (*OAHU, *table)
                for source in (local, ("--from-store", store), remote):
                    _show(command, *source, *flags)
                    if command == "batch":
                        _show(command, *source, *flags, "--json")
        _show("query", *OAHU, *queries["query"], "--cores", "2")
        _show("profile", *OAHU, "--source", "0", "--cores", "0")
        _show("profile", "--from-store", store, "--source", "0", "--cores", "0")
        _show("batch", *OAHU, "--workers", "0")
        for command in ("query", "multicriteria", "via", "min-transfers"):
            _show(command, *OAHU, *queries[command], "--transfer-fraction", "2")
        _show("prepare", *OAHU, "--store", str(tmp / "bad"), "--cores", "0")
        _show("table1", *OAHU, "--queries", "0")
        _show("table2", *OAHU, "--queries", "0")
        _show("query", "--from-store", store, *queries["query"], "--transfer-fraction", "0.5")
        _show("info", "--from-store", store, "--scale", "tiny")
        _show("query", "--from-store", str(tmp / "nope"), *queries["query"])
    print(_mask(out.getvalue(), tmp, url))


JOBS = {
    "batch-workers": batch_workers,
    "cold-start": cold_start,
    "foreign-clients": foreign_clients,
    "global-queries": global_queries,
    "serve-fleet": serve_fleet,
    "served-pool": served_pool,
    "swap-seeds": swap_seeds,
    "table-build": table_build,
    "table1-kernels": table1_kernels,
    "transcripts": transcripts,
    "warm-start": warm_start,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("job", choices=sorted(JOBS))
    job = JOBS[parser.parse_args().job]
    with tempfile.TemporaryDirectory(prefix="repro-ci-") as tmp:
        job(Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
