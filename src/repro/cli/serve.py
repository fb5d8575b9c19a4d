"""``serve`` and ``serve-fleet``: a long-lived server over artifact
stores, alone or as N worker processes behind a routing gateway.  Both
run :func:`_serve_until_signal`."""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import tempfile
from typing import TYPE_CHECKING, Any, Awaitable, Callable

from repro.cli.datasets import Command, positive_int

if TYPE_CHECKING:
    from repro.fleet import FleetGateway
    from repro.server import TransitServer


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
    """Catch SIGINT/SIGTERM, start, publish the port, announce, wait
    for a signal, then drain (stop accepting, finish in-flight
    requests) and report.  The handlers come first and the server is
    built after them, inside the loop it will run on: a signal from
    then on — one sent the moment the port file appears, or while
    ``make_server`` spawns what the server fronts — is a drain and exit
    0, never the default action's death.  Waiting for ``ready`` stops
    at a signal too."""
    async def run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        server = make_server()
        await server.start()
        if port_file:
            _write_port_file(port_file, server.port)
        if ready is not None:
            readiness = asyncio.ensure_future(ready(server))
            stopping = asyncio.ensure_future(stop.wait())
            await asyncio.wait(
                (readiness, stopping), return_when=asyncio.FIRST_COMPLETED
            )
            stopping.cancel()
            if not stop.is_set():
                readiness.result()  # raises what made it fail
            readiness.cancel()
        print(banner(server), flush=True)
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
    from repro.core.fanout import pool_size
    from repro.server import DatasetRegistry, TransitServer
    from repro.store import StoreError

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
    discovery, crash restarts with capped backoff, driven by the
    gateway's health sweep on its loop); the gateway health-checks and
    load-balances them, fails queries over on worker death, and posts
    each delay batch to every worker, routing only to those at the
    newest generation.  SIGINT/SIGTERM — from the moment the workers
    are spawned — drains the gateway, then stops the workers; exit 0.
    """
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

    def make_gateway() -> FleetGateway:
        # Spawned here, with the signals caught and inside the ``try``
        # whose ``finally`` stops them.
        print(
            f"spawning {args.workers} worker(s) over "
            f"{len(args.store)} store(s)...",
            flush=True,
        )
        try:
            supervisor.start()
        except RuntimeError as exc:
            raise SystemExit(f"error: {exc}") from None
        return FleetGateway(
            supervisor.endpoints,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            health_interval=args.health_interval_ms / 1000.0,
            eject_after=args.eject_after,
        )

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
            make_gateway,
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


def _declare_serve(p_serve: argparse.ArgumentParser) -> None:
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


def _declare_serve_fleet(p_fleet: argparse.ArgumentParser) -> None:
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


COMMANDS = {
    "serve": Command(
        "async multi-dataset HTTP query server over artifact stores",
        _declare_serve,
    ),
    "serve-fleet": Command(
        "sharded multi-process serve fleet behind a routing "
        "gateway (see docs/FLEET.md)",
        _declare_serve_fleet,
    ),
}
