"""Command-line interface (``repro-transit``).

Subcommands::

    generate   emit a named synthetic instance as a GTFS-like feed
    info       summarize a timetable (or a store manifest, without
               hydrating: ``info --from-store DIR``)
    prepare    build every prepared artifact and persist it to a store
    profile    one-to-all profile query from a station
    query      station-to-station profile query
    batch      run a batched random query workload (throughput check)
    multicriteria  Pareto front of (transfers, arrival) trade-offs
               for one station pair at a departure time
    via        earliest arrival through a required via station
    min-transfers  fewest-transfers journey within a transfer budget
    serve      async multi-dataset HTTP query server over stores
    serve-fleet  sharded multi-process serve fleet behind a routing
               gateway (N worker processes, one address; docs/FLEET.md)
    delay-stream  generate a seeded GTFS-RT-style delay stream for the
               replay harness (docs/STREAMS.md)
    replay     replay a delay stream against a live serve/serve-fleet
               target with interleaved closed-loop query traffic
    table1     regenerate Table 1 rows for an instance
    table2     regenerate Table 2 rows for an instance
    bench      benchmark ops: index pending result records into the
               repo-root ``BENCH_*.json`` trajectories and gate new
               runs against the last known-good entry

``profile``, ``query`` and ``batch`` accept ``--kernel {python,flat}``:
``python`` is the reference object-graph SPCS, ``flat`` the packed
flat-array kernel (identical results, several times faster).  All
query commands — those three plus ``multicriteria``, ``via`` and
``min-transfers`` — run against a :class:`~repro.client.TransitBackend`: an
in-process :class:`~repro.client.LocalBackend` by default, or — with
``--remote http://host:port[/dataset]`` — an
:class:`~repro.client.HttpBackend` against a running ``repro-transit
serve`` fleet, with byte-identical output either way (the client SDK's
parity guarantee, ``docs/CLIENT.md``).  ``batch --json`` emits a
one-line JSON throughput summary for scriptable perf tracking.

Timetables are read from a GTFS-like directory (``--gtfs DIR``),
generated on the fly (``--instance NAME [--scale SCALE]``), or — for
the query commands — warm-started from an artifact store written by
``prepare --store DIR`` (``--from-store DIR``).  A warm start skips
every build (graph, packing, station graph, distance table) and runs
under the configuration the store was prepared with; the
preparation-shaping ``--kernel`` and ``--transfer-fraction`` are
therefore rejected next to ``--from-store`` (re-run ``prepare`` to
change them), while the runtime-only ``--cores`` / ``--backend`` /
``--workers`` still apply when given explicitly.  ``--remote`` is
stricter for the same reason: the *server's* preparation and execution
configuration governs, so every dataset- or execution-shaping flag is
rejected next to it (``--cores`` stays legal for ``profile``, where it
is a per-request field of the wire protocol).

Long-running commands handle SIGINT/SIGTERM gracefully: ``serve``
stops accepting, drains in-flight requests and exits 0; an
interrupted ``prepare --store`` aborts cleanly and never leaves a
partial manifest (the store simply refuses to load until re-prepared).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import threading
from contextlib import contextmanager

from repro.analysis import render_table1, render_table2, run_table1, run_table2
from repro.client import BackendError, LocalBackend, TransitBackend, connect
from repro.core import KERNELS
from repro.graph import build_td_graph
from repro.query import BATCH_BACKENDS
from repro.service import (
    BatchRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
)
from repro.service.model import DEFAULT_MAX_TRANSFERS
from repro.store import StoreError, describe_store
from repro.synthetic.workloads import random_station_pairs
from repro.synthetic import INSTANCE_NAMES, STREAM_SHAPES, make_instance
from repro.timetable.gtfs import load_gtfs, save_gtfs
from repro.timetable.periodic import format_time
from repro.timetable.types import Timetable


def _add_input_arguments(
    parser: argparse.ArgumentParser,
    *,
    allow_store: bool = False,
    allow_remote: bool = False,
) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--instance", choices=INSTANCE_NAMES, help="synthetic instance name"
    )
    group.add_argument("--gtfs", help="GTFS-like feed directory")
    if allow_store:
        group.add_argument(
            "--from-store",
            metavar="DIR",
            help="warm-start from an artifact store written by "
            "`prepare --store` (skips every build; the stored config "
            "governs, see module help)",
        )
    if allow_remote:
        group.add_argument(
            "--remote",
            metavar="URL",
            help="query a running `repro-transit serve` instance at "
            "http://host:port[/dataset] instead of preparing locally "
            "(the server's configuration governs, see module help)",
        )
    # Store-capable commands default the instance-shaping flags to
    # None so an explicit value next to --from-store can be rejected
    # instead of silently ignored; _load resolves the defaults.
    parser.add_argument(
        "--scale",
        default=None if allow_store else "small",
        choices=("tiny", "small", "medium"),
        help="synthetic instance scale (default: small; not valid "
        "with --from-store)" if allow_store
        else "synthetic instance scale (default: small)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None if allow_store else 0,
        help="seed for synthetic-instance generation (and, for batch, "
        "the random query workload; default: 0)",
    )


def _load(args: argparse.Namespace) -> Timetable:
    if args.gtfs:
        return load_gtfs(args.gtfs)
    scale = args.scale if args.scale is not None else "small"
    seed = args.seed if args.seed is not None else 0
    return make_instance(args.instance, scale, seed)


class _Interrupted(Exception):
    """SIGINT/SIGTERM arrived inside a :func:`_graceful_signals` block."""

    def __init__(self, signum: int) -> None:
        super().__init__(signal.Signals(signum).name)
        self.signum = signum


@contextmanager
def _graceful_signals():
    """Convert SIGINT/SIGTERM into :class:`_Interrupted` so commands
    unwind through ``finally`` blocks (no half-written state) instead
    of dying at an arbitrary bytecode.

    A no-op off the main thread (signal handlers can only be installed
    there — e.g. pytest-run commands stay untouched elsewhere).
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise _Interrupted(signum)

    previous = {
        sig: signal.signal(sig, _handler)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _cmd_generate(args: argparse.Namespace) -> int:
    timetable = make_instance(args.instance, args.scale, args.seed)
    save_gtfs(timetable, args.output)
    print(f"wrote {timetable.summary()} to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    store = getattr(args, "from_store", None)
    if store:
        return _info_from_store(args, store)
    timetable = _load(args)
    graph = build_td_graph(timetable)
    print(timetable.summary())
    print(
        f"time-dependent graph: {graph.num_nodes} nodes "
        f"({graph.num_stations} station, {graph.num_route_nodes} route), "
        f"{graph.num_edges} edges, {len(graph.routes)} routes"
    )
    return 0


def _info_from_store(args: argparse.Namespace, store: str) -> int:
    """Describe a store from its manifest alone — no packed buffer is
    opened, no artifact hydrated, so this is instant on any size."""
    for flag, value in (("--scale", args.scale), ("--seed", args.seed)):
        if value is not None:
            raise SystemExit(
                f"error: {flag} cannot be combined with --from-store "
                f"(the manifest describes what was prepared)"
            )
    try:
        info = describe_store(store)
    except StoreError as exc:
        raise SystemExit(f"error: {exc}") from None
    counts = info["counts"]
    config = info["config"]
    sizes = info["sizes_bytes"]
    print(
        f"artifact store {store} "
        f"(format v{info['format_version']}, "
        f"config {info['config_hash'][:12]}…)"
    )
    print(
        f"  timetable {info['timetable_name']}: "
        f"{counts['stations']} stations, {counts['trains']} trains, "
        f"{counts['connections']} connections"
    )
    print(
        f"  graph: {counts['nodes']} nodes, {counts['edges']} edges, "
        f"{counts['routes']} routes"
    )
    table_note = (
        f"distance table over {counts['transfer_stations']} "
        f"transfer stations"
        if info["artifacts"]["table"]
        else "no distance table"
    )
    print(f"  artifacts: {table_note}")
    print(
        f"  config: kernel={config['kernel']} "
        f"num_threads={config['num_threads']} "
        f"backend={config['backend']} workers={config['workers']} "
        f"use_distance_table={config['use_distance_table']} "
        f"transfer_fraction={config['transfer_fraction']}"
    )
    detail = ", ".join(
        f"{name} {size / 1024:.1f} KiB" for name, size in sorted(sizes.items())
    )
    print(f"  on disk: {info['total_bytes'] / 1024:.1f} KiB ({detail})")
    print(f"  warm-start with: --from-store {store}")
    return 0


def _make_service(
    args: argparse.Namespace,
    timetable: Timetable,
    *,
    quiet: bool = False,
    cores: int = 4,
    **overrides,
) -> TransitService:
    """One prepared service per CLI invocation (the facade owns the
    graph build, packing and the optional distance table).

    ``quiet`` suppresses the human-readable distance-table line —
    required by ``batch --json``, whose stdout must be exactly one
    JSON document.
    """
    fraction = getattr(args, "transfer_fraction", None) or 0.0
    kernel = getattr(args, "kernel", None) or "flat"
    config = ServiceConfig(
        kernel=kernel,
        num_threads=cores,
        use_distance_table=fraction > 0,
        transfer_fraction=fraction if fraction > 0 else 0.05,
        **overrides,
    )
    service = TransitService(timetable, config)
    table = service.table
    if table is not None and not quiet:
        print(
            f"distance table over {table.num_transfer_stations} transfer "
            f"stations ({table.size_mib():.2f} MiB, "
            f"built in {table.build_seconds:.1f} s)"
        )
    return service


def _service_from_args(
    args: argparse.Namespace,
    *,
    quiet: bool = False,
    default_cores: int = 4,
    backend: str | None = None,
    workers: int | None = None,
    seed_is_runtime: bool = False,
) -> TransitService:
    """The query commands' service: warm from ``--from-store`` when
    given, otherwise a fresh prepare.

    A warm start runs under the stored config; only the runtime-only
    flags the user passed explicitly (``--cores``, ``--backend``,
    ``--workers`` default to ``None`` on store-capable commands)
    override it.  Flags that shape the prepared dataset (``--kernel``,
    ``--transfer-fraction``, ``--scale``, and ``--seed`` except where
    it seeds the query workload, ``seed_is_runtime``) are rejected
    next to ``--from-store`` — silently ignoring them would misreport
    what was measured.  A fresh prepare resolves every flag to the
    documented defaults.
    """
    store = getattr(args, "from_store", None)
    cores = getattr(args, "cores", None)
    if store:
        rejected = [
            ("--kernel", getattr(args, "kernel", None)),
            ("--transfer-fraction", getattr(args, "transfer_fraction", None)),
            ("--scale", getattr(args, "scale", None)),
        ]
        if not seed_is_runtime:
            rejected.append(("--seed", getattr(args, "seed", None)))
        for flag, value in rejected:
            if value is not None:
                raise SystemExit(
                    f"error: {flag} cannot be combined with --from-store "
                    f"(it shapes the prepared dataset; the store governs — "
                    f"re-run `prepare` to change it)"
                )
        try:
            service = TransitService.load(store)
        except StoreError as exc:
            raise SystemExit(f"error: {exc}") from None
        runtime = {
            key: value
            for key, value in (
                ("num_threads", cores),
                ("backend", backend),
                ("workers", workers),
            )
            if value is not None
        }
        if runtime:
            service = service.with_runtime_overrides(**runtime)
        if not quiet:
            stats = service.prepare_stats
            print(
                f"warm start from {store}: {stats.num_stations} stations, "
                f"{stats.num_connections} connections loaded in "
                f"{stats.total_seconds * 1000:.1f} ms (no builds)"
            )
        return service
    timetable = _load(args)
    return _make_service(
        args,
        timetable,
        quiet=quiet,
        cores=cores if cores is not None else default_cores,
        **{
            key: value
            for key, value in (("backend", backend), ("workers", workers))
            if value is not None
        },
    )


def _backend_from_args(
    args: argparse.Namespace,
    *,
    quiet: bool = False,
    default_cores: int = 4,
    backend: str | None = None,
    workers: int | None = None,
    seed_is_runtime: bool = False,
    remote_allows_cores: bool = False,
) -> TransitBackend:
    """The query commands' :class:`TransitBackend`: an
    :class:`HttpBackend` for ``--remote``, else a
    :class:`LocalBackend` over :func:`_service_from_args`.

    ``--remote`` runs under the *server's* preparation and execution
    configuration, so — mirroring the ``--from-store`` rule — every
    flag that shapes the dataset or its execution is rejected instead
    of silently ignored.  ``--cores`` survives only where the wire
    protocol carries it per request (``profile``,
    ``remote_allows_cores``).
    """
    remote = getattr(args, "remote", None)
    if not remote:
        service = _service_from_args(
            args,
            quiet=quiet,
            default_cores=default_cores,
            backend=backend,
            workers=workers,
            seed_is_runtime=seed_is_runtime,
        )
        store = getattr(args, "from_store", None)
        name = args.instance or (store and str(store)) or args.gtfs
        return LocalBackend(service, name=name)
    rejected = [
        ("--kernel", getattr(args, "kernel", None)),
        ("--transfer-fraction", getattr(args, "transfer_fraction", None)),
        ("--scale", getattr(args, "scale", None)),
        ("--backend", backend),
        ("--workers", workers),
    ]
    if not seed_is_runtime:
        rejected.append(("--seed", getattr(args, "seed", None)))
    if not remote_allows_cores:
        rejected.append(("--cores", getattr(args, "cores", None)))
    for flag, value in rejected:
        if value is not None:
            raise SystemExit(
                f"error: {flag} cannot be combined with --remote "
                f"(the server's configuration governs; set it on "
                f"`repro-transit serve` instead)"
            )
    try:
        return connect(remote)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _cmd_profile(args: argparse.Namespace) -> int:
    backend = _backend_from_args(args, remote_allows_cores=True)
    request = ProfileRequest(args.source, num_threads=args.cores)
    # --target trims what travels (and what prints): the search is
    # one-to-all regardless, exactly like the wire protocol's targets.
    targets = None if args.target is None else [args.target]
    result = backend.profile(request, targets=targets)
    stats = result.stats
    print(
        f"one-to-all from station {args.source} on {stats.num_threads} "
        f"cores: {stats.settled_connections} settled connections, "
        f"simulated time {stats.simulated_seconds * 1000:.1f} ms"
    )
    for target, profile in result.profiles.items():
        if target == args.source:
            continue
        points = ", ".join(
            f"{format_time(dep)}→{format_time(dep + dur)}"
            for dep, dur in profile.connection_points()[: args.max_points]
        )
        suffix = " ..." if len(profile) > args.max_points else ""
        print(f"  to {target:4d} ({len(profile):3d} points): {points}{suffix}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    backend = _backend_from_args(args)
    result = backend.journey(args.source, args.target)
    stats = result.stats
    print(
        f"{args.source} → {args.target} ({stats.classification}): "
        f"{stats.settled_connections} settled connections, "
        f"simulated time {stats.simulated_seconds * 1000:.1f} ms"
    )
    if result.profile.is_empty():
        print("  no connections found (target unreachable)")
    for dep, dur in result.profile.connection_points():
        print(f"  depart {format_time(dep)}  arrive {format_time(dep + dur)}  ({dur} min)")
    return 0


def _print_legs(legs, indent: str = "  ") -> None:
    for leg in legs:
        print(
            f"{indent}{leg.from_station:4d} → {leg.to_station:4d}  "
            f"depart {format_time(leg.departure)}  "
            f"arrive {format_time(leg.arrival)}"
        )


def _cmd_multicriteria(args: argparse.Namespace) -> int:
    backend = _backend_from_args(args)
    result = backend.multicriteria(
        args.source,
        args.target,
        departure=args.departure,
        max_transfers=args.max_transfers,
    )
    stats = result.stats
    print(
        f"{args.source} → {args.target} departing "
        f"{format_time(args.departure)} (≤{args.max_transfers} transfers): "
        f"{len(result.options)} Pareto option(s), "
        f"{stats.settled_connections} settled connections"
    )
    if not result.reachable:
        print("  unreachable within the transfer budget")
        return 0
    for option in result.options:
        print(
            f"  {option.transfers} transfer(s): "
            f"arrive {format_time(option.arrival)}"
        )
    if result.legs:
        print("  fastest itinerary:")
        _print_legs(result.legs, indent="    ")
    return 0


def _cmd_via(args: argparse.Namespace) -> int:
    backend = _backend_from_args(args)
    result = backend.via(
        args.source, args.via, args.target, departure=args.departure
    )
    stats = result.stats
    print(
        f"{args.source} → {args.via} → {args.target} departing "
        f"{format_time(args.departure)}: "
        f"{stats.settled_connections} settled connections"
    )
    if not result.reachable:
        print("  unreachable through the via station")
        return 0
    print(
        f"  at via {format_time(result.via_arrival)}, "
        f"arrive {format_time(result.arrival)}"
    )
    if result.legs:
        _print_legs(result.legs)
    return 0


def _cmd_min_transfers(args: argparse.Namespace) -> int:
    backend = _backend_from_args(args)
    result = backend.min_transfers(
        args.source,
        args.target,
        departure=args.departure,
        max_transfers=args.max_transfers,
    )
    stats = result.stats
    print(
        f"{args.source} → {args.target} departing "
        f"{format_time(args.departure)} (≤{args.max_transfers} transfers): "
        f"{stats.settled_connections} settled connections"
    )
    if not result.reachable:
        print("  unreachable within the transfer budget")
        return 0
    print(
        f"  {result.transfers} transfer(s), "
        f"arrive {format_time(result.arrival)}"
    )
    if result.legs:
        _print_legs(result.legs)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    # --seed also seeds the random query workload here, so it stays
    # legal (and meaningful) next to --from-store and --remote.
    seed = args.seed if args.seed is not None else 0
    args.seed = seed
    backend = _backend_from_args(
        args,
        quiet=args.json,
        default_cores=1,
        backend=args.backend,
        workers=args.workers,
        seed_is_runtime=True,
    )
    # Same seed + same station count ⇒ same workload on every
    # transport (info() is free locally, one GET remotely).
    pairs = random_station_pairs(
        backend.info().stations, args.n_queries, seed=seed
    )
    batch = backend.batch(BatchRequest.from_pairs(pairs))
    stats = batch.stats
    settled = sum(r.stats.settled_connections for r in batch.journeys)
    if args.json:
        classifications: dict[str, int] = {}
        for r in batch.journeys:
            key = r.stats.classification or "unknown"
            classifications[key] = classifications.get(key, 0) + 1
        # queries_per_second is inf for an instantaneous (e.g. empty)
        # batch; json.dumps would emit the non-RFC-8259 token Infinity.
        qps = stats.queries_per_second
        # Preparation accounting exists only where preparation ran:
        # a remote backend reports the serving side's dataset, whose
        # prepare cost was paid by the server.
        prepare = (
            backend.service.prepare_stats
            if isinstance(backend, LocalBackend)
            else None
        )
        summary = {
            "num_queries": stats.num_queries,
            "kernel": stats.kernel,
            "backend": stats.backend,
            "workers": stats.num_workers,
            "seed": args.seed,
            "transport": "local" if prepare is not None else "http",
            "total_seconds": round(stats.total_seconds, 6),
            "queries_per_second": round(qps, 2) if math.isfinite(qps) else 0.0,
            "setup_seconds": round(stats.setup_seconds, 6),
            "prepare_seconds": (
                None if prepare is None else round(prepare.total_seconds, 6)
            ),
            "transfer_stations": (
                None if prepare is None else prepare.num_transfer_stations
            ),
            "table_mib": (
                None if prepare is None else round(prepare.table_mib, 4)
            ),
            "settled_connections": settled,
            "mean_simulated_seconds": round(
                sum(r.stats.simulated_seconds for r in batch.journeys)
                / max(len(batch.journeys), 1),
                6,
            ),
            "classifications": classifications,
        }
        print(json.dumps(summary, sort_keys=True))
        return 0
    print(
        f"{stats.num_queries} queries on kernel={stats.kernel} "
        f"backend={stats.backend} workers={stats.num_workers}: "
        f"{stats.total_seconds * 1000:.1f} ms total "
        f"({stats.queries_per_second:.1f} queries/s, "
        f"setup {stats.setup_seconds * 1000:.1f} ms, "
        f"{settled} settled connections)"
    )
    for (s, t), result in zip(pairs, batch.journeys):
        best = (
            "unreachable"
            if result.profile.is_empty()
            else f"{len(result.profile)} profile points"
        )
        print(f"  {s:4d} → {t:4d} ({result.stats.classification}): {best}")
    return 0


def _cmd_prepare(args: argparse.Namespace) -> int:
    try:
        with _graceful_signals():
            timetable = _load(args)
            service = _make_service(args, timetable, cores=args.cores)
            service.save(args.store)
    except _Interrupted as exc:
        # save_dataset unlinks the old manifest first and renames the
        # new one into place last, so however far the save got, the
        # store either loads a complete generation or refuses to load.
        print(
            f"interrupted ({exc}); no manifest written — "
            f"{args.store} will refuse to load until prepare is re-run",
            file=sys.stderr,
        )
        return 130
    info = describe_store(args.store)
    stats = service.prepare_stats
    print(
        f"prepared {timetable.summary()}\n"
        f"  graph {stats.graph_seconds * 1000:.1f} ms, "
        f"pack {stats.pack_seconds * 1000:.1f} ms, "
        f"station graph {stats.station_graph_seconds * 1000:.1f} ms, "
        f"table {stats.table_seconds * 1000:.1f} ms "
        f"on {stats.table_workers} process"
        f"{'' if stats.table_workers == 1 else 'es'} "
        f"(total {stats.total_seconds * 1000:.1f} ms)\n"
        f"store written to {args.store}: "
        f"{info['total_bytes'] / 1024:.1f} KiB "
        f"(format v{info['format_version']}, "
        f"config {info['config_hash'][:12]}…)\n"
        f"warm-start with: --from-store {args.store}"
    )
    return 0


def _write_port_file(path: str, port: int) -> None:
    """Publish the bound port atomically: a reader either finds no
    file yet or a complete, valid port — never a partial write.  This
    is what lets the fleet supervisor discover ``--port 0`` ephemeral
    ports without parsing logs (and without port-collision races:
    the kernel picked a free port at bind time)."""
    import os
    import tempfile

    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(target), prefix=".port-"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(f"{port}\n")
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cmd_serve(args: argparse.Namespace) -> int:
    """Long-lived multi-dataset HTTP server over artifact stores.

    Warm-loads every ``--store`` (the directory basename names the
    dataset), then serves until SIGINT/SIGTERM, which triggers a
    graceful drain (stop accepting, finish in-flight requests) and a
    clean exit 0.
    """
    # Imported here: the server pulls in asyncio machinery that no
    # other subcommand needs.
    import asyncio

    from repro.server import DatasetRegistry, TransitServer

    try:
        registry = DatasetRegistry.from_stores(args.store)
    except (StoreError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None

    async def _run() -> None:
        server = TransitServer(
            registry,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_inflight=args.max_inflight,
            drain_grace=args.drain_grace_ms / 1000.0,
        )
        await server.start()
        if args.port_file:
            _write_port_file(args.port_file, server.port)
        for entry in registry.entries():
            stats = entry.service.prepare_stats
            print(
                f"  dataset {entry.name}: {stats.num_stations} stations, "
                f"{stats.num_connections} connections "
                f"(warm-loaded from {entry.source})"
            )
        print(
            f"listening on http://{server.host}:{server.port} "
            f"(workers={args.workers}, max_inflight={args.max_inflight})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("signal received — draining in-flight requests", flush=True)
        await server.shutdown()
        snapshot = server.metrics.snapshot()
        total = sum(snapshot["requests_total"].values())
        print(f"drained; served {total} request(s)", flush=True)

    asyncio.run(_run())
    return 0


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    """N worker processes over the same stores, one routing gateway.

    The supervisor spawns the workers (ephemeral ports, port-file
    discovery, crash restarts with capped backoff); the gateway
    health-checks and load-balances them, fails queries over on
    worker death, and coordinates fleet-wide delay swaps.  SIGINT/
    SIGTERM drains the gateway, then stops the workers; exit 0.
    """
    import asyncio

    from repro.fleet import FleetGateway, WorkerSupervisor

    supervisor = WorkerSupervisor(
        args.store,
        args.workers,
        host=args.host,
        runtime_dir=args.runtime_dir,
        worker_threads=args.worker_threads,
        max_inflight=args.worker_max_inflight,
        drain_grace=args.worker_drain_grace_ms / 1000.0,
    )
    print(
        f"spawning {args.workers} worker(s) over "
        f"{len(args.store)} store(s)...",
        flush=True,
    )
    try:
        supervisor.start()
    except RuntimeError as exc:
        raise SystemExit(f"error: {exc}") from None

    async def _run() -> None:
        gateway = FleetGateway(
            supervisor.endpoints,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            health_interval=args.health_interval_ms / 1000.0,
            eject_after=args.eject_after,
        )
        await gateway.start()
        if args.port_file:
            _write_port_file(args.port_file, gateway.port)
        await gateway.wait_ready(workers=args.workers)
        for name, url in sorted(supervisor.endpoints().items()):
            print(f"  worker {name}: {url}")
        print(
            f"gateway listening on http://{gateway.host}:{gateway.port} "
            f"(workers={args.workers}, runtime={supervisor.runtime_dir})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("signal received — draining gateway", flush=True)
        await gateway.shutdown()
        snapshot = gateway.metrics.snapshot()
        total = sum(snapshot["requests_total"].values())
        print(
            f"gateway drained; routed {total} request(s), "
            f"{snapshot['failovers_total']} failover(s), "
            f"{supervisor.restarts_total} worker restart(s)",
            flush=True,
        )

    try:
        asyncio.run(_run())
    finally:
        supervisor.stop()
    print("fleet stopped", flush=True)
    return 0


def _cmd_delay_stream(args: argparse.Namespace) -> int:
    # Imported lazily like serve: the streams package is only needed
    # by the two stream subcommands.
    from repro.streams import StreamFormatError
    from repro.synthetic.delays import generate_delay_stream

    timetable = _load(args)
    shapes = None
    if args.shape:
        shapes = tuple(args.shape)
    try:
        stream = generate_delay_stream(
            timetable,
            seed=args.stream_seed,
            num_events=args.events,
            duration_s=args.duration,
            **({"shapes": shapes} if shapes else {}),
            max_trains_per_event=args.max_trains,
            name=args.name,
        )
    except (StreamFormatError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    stream.save(args.output)
    print(
        f"wrote {stream.name}: {stream.num_events} event(s) over "
        f"{stream.duration_s:.1f} s (seed {stream.seed}, "
        f"{stream.num_trains} trains) to {args.output}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Replay a delay stream against a live target (docs/STREAMS.md).

    Exit 0 when the operational contract holds (zero failed requests,
    every event committed, swap-pause bound met), 1 otherwise; the
    report JSON goes to stdout either way.
    """
    from repro.streams import (
        DelayStream,
        ReplayConfig,
        ReplayError,
        StreamFormatError,
        replay_stream,
    )

    try:
        stream = DelayStream.load(args.stream)
    except (OSError, StreamFormatError) as exc:
        raise SystemExit(f"error: cannot load stream {args.stream}: {exc}") from None
    try:
        config = ReplayConfig(
            query_threads=args.query_threads,
            queries_seed=args.queries_seed,
            departure=args.departure,
            speed=args.speed,
            replan=args.replan,
            max_swap_seconds=args.max_swap_seconds,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None

    def backends() -> TransitBackend:
        return connect(args.remote)

    try:
        report = replay_stream(stream, backends, config)
    except (ReplayError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    print(json.dumps(report.to_json(), sort_keys=True))
    if not report.ok:
        try:
            report.check()
        except ReplayError as exc:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    result = run_table1(
        args.instance,
        scale=args.scale,
        num_queries=args.queries,
        seed=args.seed,
    )
    print(render_table1([result]))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    rows = run_table2(
        args.instance,
        scale=args.scale,
        num_queries=args.queries,
        seed=args.seed,
    )
    print(render_table2(rows))
    return 0


def _parse_band_overrides(pairs: list[str]) -> dict[str, float | None]:
    """``metric=0.3`` widens/narrows one metric's band; ``metric=skip``
    disables its gate entirely."""
    overrides: dict[str, float | None] = {}
    for pair in pairs:
        metric, sep, value = pair.partition("=")
        if not sep or not metric:
            raise SystemExit(
                f"error: --override expects METRIC=BAND or METRIC=skip, "
                f"got {pair!r}"
            )
        if value.lower() in ("skip", "none"):
            overrides[metric] = None
            continue
        try:
            band = float(value)
        except ValueError:
            raise SystemExit(
                f"error: --override {metric}: band must be a number or "
                f"'skip', got {value!r}"
            ) from None
        if band < 0:
            raise SystemExit(
                f"error: --override {metric}: band must be non-negative"
            )
        overrides[metric] = band
    return overrides


def _cmd_bench_index(args: argparse.Namespace) -> int:
    from repro.benchops import index_records

    summary = index_records(
        args.records, args.root, consume=not args.keep
    )
    for benchmark, trajectory in summary.indexed:
        print(f"indexed {benchmark} -> {trajectory}")
    for path, reason in summary.rejected:
        print(f"rejected {path}: {reason}", file=sys.stderr)
    if not summary.indexed and not summary.rejected:
        print(f"no pending records under {args.records}")
    return 1 if summary.rejected else 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    import json as _json

    from repro.benchops import (
        BenchOpsError,
        compare_latest,
        load_trajectory,
        trajectory_names,
        trajectory_path,
        validate_record,
    )

    overrides = _parse_band_overrides(args.override)
    candidate = None
    if args.candidate:
        try:
            candidate = validate_record(
                _json.loads(open(args.candidate).read())
            )
        except (OSError, ValueError, BenchOpsError) as exc:
            raise SystemExit(
                f"error: cannot load candidate {args.candidate}: {exc}"
            ) from None
    names = args.name or (
        [candidate.benchmark] if candidate else trajectory_names(args.root)
    )
    if not names:
        raise SystemExit(
            f"error: no BENCH_*.json trajectories under {args.root} "
            f"(run some benchmarks and `bench index` first)"
        )
    failed = False
    for name in names:
        path = trajectory_path(args.root, name)
        try:
            history = load_trajectory(path)
            report = compare_latest(
                history,
                candidate=candidate if candidate and candidate.benchmark == name else None,
                band=args.band,
                overrides=overrides,
            )
        except BenchOpsError as exc:
            raise SystemExit(f"error: {exc}") from None
        if report is None:
            print(
                f"[{name}] no comparable baseline (first run at this "
                f"scale/config) — nothing to gate"
            )
            continue
        verdict = "OK" if report.ok else "REGRESSED"
        print(f"[{name}] {verdict} (band ±{args.band * 100:g}%)")
        for line in report.describe().splitlines():
            print(f"  {line}")
        failed = failed or not report.ok
    return 1 if failed else 0


def _cmd_bench_show(args: argparse.Namespace) -> int:
    from repro.benchops import load_trajectory, trajectory_names, trajectory_path

    names = trajectory_names(args.root)
    if not names:
        print(f"no BENCH_*.json trajectories under {args.root}")
        return 0
    for name in names:
        history = load_trajectory(trajectory_path(args.root, name))
        latest = history[-1]
        sha = (latest.git_sha or "unknown")[:12]
        print(
            f"{name}: {len(history)} entries "
            f"(latest: scale={latest.scale}, git {sha}, "
            f"{len(latest.metrics)} metrics)"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily like the bench commands: `repro lint --help`
    # must not pay for the analysis package.
    import json as json_module
    from pathlib import Path

    from repro.analysis.lint import (
        BaselineError,
        Project,
        default_config,
        describe_rules,
        load_baseline,
        run_lint,
        split_by_baseline,
        write_baseline,
    )
    from repro.analysis.lint.baseline import DEFAULT_BASELINE_NAME

    if args.list_rules:
        for name, description in describe_rules():
            print(f"{name}: {description}")
        return 0

    project = Project(args.root)
    try:
        report = run_lint(project, default_config(), args.rule or None)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    baseline_path = (
        Path(args.baseline)
        if args.baseline
        else project.root / DEFAULT_BASELINE_NAME
    )
    if args.write_baseline:
        write_baseline(report.findings, baseline_path)
        print(
            f"wrote {len(report.findings)} finding(s) to {baseline_path}"
        )
        return 0
    accepted: set[str] = set()
    if baseline_path.is_file():
        try:
            accepted = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.baseline:
        print(f"error: baseline {baseline_path} not found", file=sys.stderr)
        return 2
    new, baselined, stale = split_by_baseline(report.findings, accepted)

    if args.format == "json":
        print(
            json_module.dumps(
                {
                    "rules": report.rules_run,
                    "findings": [f.to_json() for f in new],
                    "baselined": len(baselined),
                    "suppressed": len(report.suppressed),
                    "stale_baseline_entries": sorted(stale),
                },
                indent=2,
            )
        )
    else:
        for finding in new:
            print(finding.render())
        for fingerprint in sorted(stale):
            print(
                f"stale baseline entry (no longer fires — remove it): "
                f"{fingerprint}"
            )
        summary = (
            f"{len(new)} finding(s), {len(baselined)} baselined, "
            f"{len(report.suppressed)} suppressed, "
            f"{len(stale)} stale baseline entr(y/ies) "
            f"[rules: {', '.join(report.rules_run)}]"
        )
        print(summary)
    return 1 if new or stale else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-transit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="emit a synthetic GTFS-like feed")
    p_gen.add_argument("--instance", choices=INSTANCE_NAMES, required=True)
    p_gen.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", required=True, help="output directory")
    p_gen.set_defaults(func=_cmd_generate)

    p_info = sub.add_parser(
        "info",
        help="summarize a timetable (or a store manifest via "
        "--from-store, without hydrating any artifact)",
    )
    _add_input_arguments(p_info, allow_store=True)
    p_info.set_defaults(func=_cmd_info)

    p_prepare = sub.add_parser(
        "prepare",
        help="build every prepared artifact and persist it to a store",
    )
    _add_input_arguments(p_prepare)
    p_prepare.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="artifact-store directory to write (created if missing)",
    )
    p_prepare.add_argument(
        "--cores", type=int, default=4,
        help="connection partitions per search (§3.2), stored as the "
        "service's num_threads; how many processes build the table is "
        "decided by the build, from the CPUs it may use",
    )
    p_prepare.add_argument("--kernel", choices=KERNELS, default="flat")
    p_prepare.add_argument(
        "--transfer-fraction",
        type=float,
        default=0.0,
        help="fraction of stations to use as transfer stations (0 = no table)",
    )
    p_prepare.set_defaults(func=_cmd_prepare)

    p_profile = sub.add_parser("profile", help="one-to-all profile query")
    _add_input_arguments(p_profile, allow_store=True, allow_remote=True)
    p_profile.add_argument("--source", type=int, required=True)
    p_profile.add_argument("--target", type=int, default=None)
    p_profile.add_argument(
        "--cores", type=int, default=None, help="per-query cores (default: 4)"
    )
    p_profile.add_argument("--max-points", type=int, default=6)
    p_profile.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="search kernel (default: flat; not valid with --from-store)",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_query = sub.add_parser("query", help="station-to-station query")
    _add_input_arguments(p_query, allow_store=True, allow_remote=True)
    p_query.add_argument("--source", type=int, required=True)
    p_query.add_argument("--target", type=int, required=True)
    p_query.add_argument(
        "--cores", type=int, default=None, help="per-query cores (default: 4)"
    )
    p_query.add_argument(
        "--transfer-fraction",
        type=float,
        default=None,
        help="fraction of stations to use as transfer stations "
        "(default: 0 = no table; not valid with --from-store)",
    )
    p_query.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="search kernel (default: flat; not valid with --from-store)",
    )
    p_query.set_defaults(func=_cmd_query)

    def _add_shape_flags(p: argparse.ArgumentParser) -> None:
        """The flags the new request-shape commands share with
        ``query``: dataset-shaping ones stay ``None``-defaulted so
        ``--from-store``/``--remote`` can reject explicit values."""
        p.add_argument("--source", type=int, required=True)
        p.add_argument("--target", type=int, required=True)
        p.add_argument(
            "--departure",
            type=int,
            required=True,
            help="departure time in minutes after midnight",
        )
        p.add_argument(
            "--kernel", choices=KERNELS, default=None,
            help="search kernel (default: flat; not valid with "
            "--from-store)",
        )
        p.add_argument(
            "--transfer-fraction",
            type=float,
            default=None,
            help="fraction of stations to use as transfer stations "
            "(default: 0 = no table; not valid with --from-store)",
        )

    p_mc = sub.add_parser(
        "multicriteria",
        help="Pareto front of (transfers, arrival) trade-offs for one "
        "station pair at a departure time",
    )
    _add_input_arguments(p_mc, allow_store=True, allow_remote=True)
    _add_shape_flags(p_mc)
    p_mc.add_argument(
        "--max-transfers", type=int, default=DEFAULT_MAX_TRANSFERS,
        help="transfer budget bounding the front (default: %(default)s)",
    )
    p_mc.set_defaults(func=_cmd_multicriteria)

    p_via = sub.add_parser(
        "via",
        help="earliest arrival through a required via station",
    )
    _add_input_arguments(p_via, allow_store=True, allow_remote=True)
    _add_shape_flags(p_via)
    p_via.add_argument(
        "--via", type=int, required=True, dest="via",
        help="station the journey must pass through",
    )
    p_via.set_defaults(func=_cmd_via)

    p_mt = sub.add_parser(
        "min-transfers",
        help="fewest-transfers journey within a transfer budget",
    )
    _add_input_arguments(p_mt, allow_store=True, allow_remote=True)
    _add_shape_flags(p_mt)
    p_mt.add_argument(
        "--max-transfers", type=int, default=DEFAULT_MAX_TRANSFERS,
        help="transfer budget (default: %(default)s)",
    )
    p_mt.set_defaults(func=_cmd_min_transfers)

    p_batch = sub.add_parser(
        "batch", help="batched random query workload (throughput check)"
    )
    _add_input_arguments(p_batch, allow_store=True, allow_remote=True)
    p_batch.add_argument(
        "--n-queries", type=int, default=20, help="random (source, target) pairs"
    )
    p_batch.add_argument(
        "--cores", type=int, default=None, help="per-query cores (default: 1)"
    )
    p_batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool workers distributing queries (default: 4)",
    )
    p_batch.add_argument("--backend", choices=BATCH_BACKENDS, default=None)
    p_batch.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="search kernel (default: flat; not valid with --from-store)",
    )
    p_batch.add_argument(
        "--transfer-fraction",
        type=float,
        default=None,
        help="fraction of stations to use as transfer stations "
        "(default: 0 = no table; not valid with --from-store)",
    )
    p_batch.add_argument(
        "--json",
        action="store_true",
        help="print a one-line JSON throughput summary instead of text",
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="async multi-dataset HTTP query server over artifact stores",
    )
    p_serve.add_argument(
        "--store",
        action="append",
        required=True,
        metavar="DIR",
        help="artifact store to serve (repeatable; the directory "
        "basename names the dataset)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listening port (0 = ephemeral, printed on startup)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="query worker threads (default: 4)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission bound: further query requests get a fast 503 "
        "(default: 64)",
    )
    p_serve.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the bound port to PATH atomically after binding "
        "(machine-readable discovery for --port 0; the fleet "
        "supervisor relies on this)",
    )
    p_serve.add_argument(
        "--drain-grace-ms",
        type=float,
        default=0.0,
        help="on shutdown, report 'draining' on /healthz for this long "
        "while still serving, before rejecting anything — gives load "
        "balancers time to stop routing (default: 0)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_fleet = sub.add_parser(
        "serve-fleet",
        help="sharded multi-process serve fleet behind a routing "
        "gateway (see docs/FLEET.md)",
    )
    p_fleet.add_argument(
        "--store",
        action="append",
        required=True,
        metavar="DIR",
        help="artifact store every worker serves (repeatable; the "
        "directory basename names the dataset)",
    )
    p_fleet.add_argument("--host", default="127.0.0.1")
    p_fleet.add_argument(
        "--port",
        type=int,
        default=8321,
        help="gateway listening port (0 = ephemeral; default: 8321)",
    )
    p_fleet.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the gateway's bound port to PATH atomically",
    )
    p_fleet.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker *processes* to spawn (default: 2)",
    )
    p_fleet.add_argument(
        "--worker-threads",
        type=int,
        default=4,
        help="query threads per worker process (default: 4)",
    )
    p_fleet.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="gateway admission bound (default: 256)",
    )
    p_fleet.add_argument(
        "--worker-max-inflight",
        type=int,
        default=64,
        help="per-worker admission bound (default: 64)",
    )
    p_fleet.add_argument(
        "--health-interval-ms",
        type=float,
        default=250.0,
        help="gateway health-check interval in ms (default: 250)",
    )
    p_fleet.add_argument(
        "--eject-after",
        type=int,
        default=2,
        help="consecutive failed health checks before ejecting a "
        "worker (default: 2; any failed forward ejects immediately)",
    )
    p_fleet.add_argument(
        "--worker-drain-grace-ms",
        type=float,
        default=200.0,
        help="workers' readiness grace on shutdown (default: 200)",
    )
    p_fleet.add_argument(
        "--runtime-dir",
        metavar="DIR",
        default=None,
        help="directory for worker port files and logs (default: a "
        "fresh temp directory)",
    )
    p_fleet.set_defaults(func=_cmd_serve_fleet)

    p_stream = sub.add_parser(
        "delay-stream",
        help="generate a seeded GTFS-RT-style delay stream "
        "(docs/STREAMS.md)",
    )
    _add_input_arguments(p_stream)
    p_stream.add_argument(
        "--output", required=True, metavar="FILE",
        help="stream JSON file to write",
    )
    p_stream.add_argument(
        "--stream-seed", type=int, default=0,
        help="seed for the event sequence (independent of --seed, "
        "which shapes the synthetic instance; default: 0)",
    )
    p_stream.add_argument(
        "--events", type=int, default=20,
        help="number of delay batches (default: 20)",
    )
    p_stream.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
        help="replay-time window the events spread over (default: 10)",
    )
    p_stream.add_argument(
        "--shape", action="append", metavar="NAME",
        choices=STREAM_SHAPES,
        help=f"restrict disruption shapes (repeatable; "
        f"default: all of {', '.join(STREAM_SHAPES)})",
    )
    p_stream.add_argument(
        "--max-trains", type=int, default=5,
        help="batch-size cap per event, except line closures "
        "(default: 5)",
    )
    p_stream.add_argument(
        "--name", default=None,
        help="stream name (default: derived from the timetable)",
    )
    p_stream.set_defaults(func=_cmd_delay_stream)

    p_replay = sub.add_parser(
        "replay",
        help="replay a delay stream against a live serve/serve-fleet "
        "target with closed-loop query traffic (docs/STREAMS.md)",
    )
    p_replay.add_argument(
        "--stream", required=True, metavar="FILE",
        help="stream JSON written by `delay-stream`",
    )
    p_replay.add_argument(
        "--remote", required=True, metavar="URL",
        help="live target: http://host:port[/dataset] of a "
        "`serve` worker or a `serve-fleet` gateway",
    )
    p_replay.add_argument(
        "--query-threads", type=int, default=2,
        help="closed-loop query worker threads (default: 2)",
    )
    p_replay.add_argument(
        "--queries-seed", type=int, default=0,
        help="seed for the random query mix (default: 0)",
    )
    p_replay.add_argument(
        "--departure", type=int, default=480,
        help="journey departure time in minutes (default: 480)",
    )
    p_replay.add_argument(
        "--speed", type=float, default=1.0,
        help="stream clock multiplier (2.0 replays twice as fast; "
        "default: 1)",
    )
    p_replay.add_argument(
        "--replan", choices=("full", "incremental"), default="full",
        help="replan mode forwarded on every delay post (default: full)",
    )
    p_replay.add_argument(
        "--max-swap-seconds", type=float, default=None,
        help="fail (exit 1) if any swap acknowledgement exceeds this "
        "(default: unchecked)",
    )
    p_replay.set_defaults(func=_cmd_replay)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark ops: index result records into BENCH_*.json "
        "trajectories and gate runs against the last known-good entry",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_bindex = bench_sub.add_parser(
        "index",
        help="validate pending record files and append them to the "
        "per-benchmark trajectories",
    )
    p_bindex.add_argument(
        "--records",
        default="benchmarks/records",
        metavar="DIR",
        help="pending-record directory written by a bench session "
        "(default: benchmarks/records)",
    )
    p_bindex.add_argument(
        "--root",
        default=".",
        metavar="DIR",
        help="directory holding the BENCH_*.json trajectories "
        "(default: the current directory — the repo root)",
    )
    p_bindex.add_argument(
        "--keep",
        action="store_true",
        help="leave consumed record files in place (default: delete "
        "them so re-indexing is idempotent)",
    )
    p_bindex.set_defaults(func=_cmd_bench_index)

    p_bcompare = bench_sub.add_parser(
        "compare",
        help="gate the newest trajectory entry (or --candidate FILE) "
        "against the last known-good entry; exit 1 on regression",
    )
    p_bcompare.add_argument(
        "--root", default=".", metavar="DIR",
        help="trajectory directory (default: current directory)",
    )
    p_bcompare.add_argument(
        "--name",
        action="append",
        metavar="BENCHMARK",
        help="benchmark trajectory to gate (repeatable; default: all)",
    )
    p_bcompare.add_argument(
        "--candidate",
        metavar="FILE",
        help="gate a not-yet-indexed record file instead of the "
        "trajectory's newest entry",
    )
    p_bcompare.add_argument(
        "--band",
        type=float,
        default=0.15,
        help="symmetric relative noise band; movement in the bad "
        "direction strictly beyond it fails (default: 0.15)",
    )
    p_bcompare.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="METRIC=BAND",
        help="per-metric band override (METRIC=0.5 widens, METRIC=skip "
        "disables; repeatable)",
    )
    p_bcompare.set_defaults(func=_cmd_bench_compare)

    p_bshow = bench_sub.add_parser(
        "show", help="summarize every trajectory under --root"
    )
    p_bshow.add_argument(
        "--root", default=".", metavar="DIR",
        help="trajectory directory (default: current directory)",
    )
    p_bshow.set_defaults(func=_cmd_bench_show)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo-aware static analysis suite (docs/ANALYSIS.md)",
    )
    p_lint.add_argument(
        "--root", default=".", metavar="DIR",
        help="repository root to analyse (default: current directory)",
    )
    p_lint.add_argument(
        "--rule", action="append", metavar="NAME",
        help="run only this rule (repeatable; default: all registered)",
    )
    p_lint.add_argument(
        "--baseline", metavar="FILE",
        help="baseline file of accepted fingerprints "
        "(default: <root>/lint-baseline.json when present)",
    )
    p_lint.add_argument(
        "--write-baseline", action="store_true",
        help="accept every current finding into the baseline and exit 0",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="finding output format (default: text)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    for name, fn in (("table1", _cmd_table1), ("table2", _cmd_table2)):
        p_tab = sub.add_parser(name, help=f"regenerate {name} for an instance")
        p_tab.add_argument("--instance", choices=INSTANCE_NAMES, required=True)
        p_tab.add_argument(
            "--scale", default="small", choices=("tiny", "small", "medium")
        )
        p_tab.add_argument("--queries", type=int, default=5)
        p_tab.add_argument("--seed", type=int, default=0)
        p_tab.set_defaults(func=fn)

    return parser


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports broadly; the CLI module
    # must stay importable as `repro.cli` without that cost up front.
    from repro import __version__

    return __version__


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BackendError as exc:
        # Typed client/transport failures (connection refused, retry
        # budget exhausted, server-side rejection) are user errors or
        # operational conditions, not tracebacks.
        raise SystemExit(f"error: {exc}") from None
    except BrokenPipeError:
        # The reader went away (``repro query … | head``): end quietly.
        # Python flushes stdout once more at exit, so point it at
        # devnull first (the ``signal`` module's note on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
