"""``serve`` and ``serve-fleet``: a long-lived server over artifact
stores, alone or as N worker processes behind a routing gateway.  Both
run :func:`_serve_until_signal`."""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import tempfile
from typing import Any, Awaitable, Callable

from repro.cli.datasets import positive_int
from repro.core.fanout import pool_size
from repro.server import DatasetRegistry, TransitServer
from repro.store import StoreError


def _write_port_file(path: str, port: int) -> None:
    """Publish the bound port atomically: a reader either finds no
    file yet or a complete, valid port — never a partial write.  This
    is what lets the fleet supervisor discover ``--port 0`` ephemeral
    ports without parsing logs (and without port-collision races:
    the kernel picked a free port at bind time)."""
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


def _serve_until_signal(
    make_server: Callable[[], Any],
    port_file: str | None,
    *,
    banner: Callable[[Any], str],
    draining: str,
    drained: Callable[[int, dict], str],
    ready: Callable[[Any], Awaitable[None]] | None = None,
) -> None:
    """Start, publish the port, announce, wait for SIGINT/SIGTERM, then
    drain (stop accepting, finish in-flight requests) and report.  The
    server is built inside the loop it will run on."""
    async def run() -> None:
        server = make_server()
        await server.start()
        if port_file:
            _write_port_file(port_file, server.port)
        if ready is not None:
            await ready(server)
        print(banner(server), flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print(f"signal received — draining {draining}", flush=True)
        await server.shutdown()
        snapshot = server.metrics.snapshot()
        total = sum(snapshot["requests_total"].values())
        print(drained(total, snapshot), flush=True)

    asyncio.run(run())


def _cmd_serve(args: argparse.Namespace) -> int:
    """Warm-load every ``--store`` (the directory basename names the
    dataset) and serve until signalled; exit 0 after the drain."""
    try:
        registry = DatasetRegistry.from_stores(args.store)
    except (StoreError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None

    def banner(server: TransitServer) -> str:
        lines = [
            f"  dataset {entry.name}: "
            f"{entry.service.prepare_stats.num_stations} stations, "
            f"{entry.service.prepare_stats.num_connections} connections "
            f"(warm-loaded from {entry.source})"
            for entry in registry.entries()
        ]
        lines.append(
            f"listening on http://{server.host}:{server.port} "
            f"(workers={pool_size(args.workers)}, "
            f"max_inflight={args.max_inflight})"
        )
        return "\n".join(lines)

    _serve_until_signal(
        lambda: TransitServer(
            registry,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_inflight=args.max_inflight,
            drain_grace=args.drain_grace_ms / 1000.0,
        ),
        args.port_file,
        banner=banner,
        draining="in-flight requests",
        drained=lambda total, _: f"drained; served {total} request(s)",
    )
    return 0


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    """N worker processes over the same stores, one routing gateway.

    The supervisor spawns the workers (ephemeral ports, port-file
    discovery, crash restarts with capped backoff); the gateway
    health-checks and load-balances them, fails queries over on
    worker death, and posts each delay batch to every worker, routing
    only to those at the newest generation.  SIGINT/
    SIGTERM drains the gateway, then stops the workers; exit 0.
    """
    # Imported here: `import repro` brings in every other package the
    # commands use, the fleet only when a fleet is started.
    from repro.fleet import FleetGateway, WorkerSupervisor

    supervisor = WorkerSupervisor(
        args.store,
        args.workers,
        host=args.host,
        runtime_dir=args.runtime_dir,
        search_workers=args.search_workers,
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

    def banner(gateway: FleetGateway) -> str:
        lines = [
            f"  worker {name}: {url}"
            for name, url in sorted(supervisor.endpoints().items())
        ]
        lines.append(
            f"gateway listening on http://{gateway.host}:{gateway.port} "
            f"(workers={args.workers}, runtime={supervisor.runtime_dir})"
        )
        return "\n".join(lines)

    try:
        _serve_until_signal(
            lambda: FleetGateway(
                supervisor.endpoints,
                host=args.host,
                port=args.port,
                max_inflight=args.max_inflight,
                health_interval=args.health_interval_ms / 1000.0,
                eject_after=args.eject_after,
            ),
            args.port_file,
            ready=lambda gateway: gateway.wait_ready(workers=args.workers),
            banner=banner,
            draining="gateway",
            drained=lambda total, snapshot: (
                f"gateway drained; routed {total} request(s), "
                f"{snapshot['failovers_total']} failover(s), "
                f"{supervisor.restarts_total} worker restart(s)"
            ),
        )
    finally:
        supervisor.stop()
    print("fleet stopped", flush=True)
    return 0


def _grace_ms(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value:g}")
    return value


def _add_listen_flags(parser: argparse.ArgumentParser) -> None:
    """What ``serve`` and ``serve-fleet`` both take; the fleet moves
    the defaults it needs to (``set_defaults``)."""
    parser.add_argument(
        "--store",
        action="append",
        required=True,
        metavar="DIR",
        help="artifact store to serve (repeatable; the directory "
        "basename names the dataset)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listening port (0 = ephemeral, printed on startup; "
        "default: %(default)s)",
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the bound port to PATH atomically after binding "
        "(machine-readable discovery for --port 0; the fleet "
        "supervisor relies on this)",
    )
    parser.add_argument(
        "--max-inflight",
        type=positive_int,
        default=64,
        help="admission bound: further query requests get a fast 503 "
        "(default: %(default)s)",
    )


def add_parsers(sub: argparse._SubParsersAction) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="async multi-dataset HTTP query server over artifact stores",
    )
    _add_listen_flags(p_serve)
    p_serve.add_argument(
        "--workers",
        type=positive_int,
        default=4,
        help="searches that may run at once, per dataset: one search "
        "process each, at most one per usable core, to which the event "
        "loop hands the searches (default: 4)",
    )
    p_serve.add_argument(
        "--drain-grace-ms",
        type=_grace_ms,
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
    _add_listen_flags(p_fleet)
    p_fleet.add_argument(
        "--workers",
        type=positive_int,
        default=2,
        help="`serve` worker processes to spawn (default: 2)",
    )
    p_fleet.add_argument(
        "--search-workers",
        type=positive_int,
        default=4,
        help="search processes per worker: each worker's `serve "
        "--workers` (default: 4)",
    )
    p_fleet.add_argument(
        "--worker-max-inflight",
        type=positive_int,
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
        type=_grace_ms,
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
    # The gateway admits for the whole fleet.
    p_fleet.set_defaults(func=_cmd_serve_fleet, max_inflight=256)
