"""Command-line interface (``repro-transit``).

The query commands — one per request shape of
``repro.service.shapes``, derived from that table — run against a
:class:`~repro.client.TransitBackend`: an in-process
:class:`~repro.client.LocalBackend` by default, or — with
``--remote http://host:port[/dataset]`` — an
:class:`~repro.client.HttpBackend` against a running ``repro-transit
serve`` fleet, with byte-identical output either way (the client SDK's
parity guarantee, ``docs/CLIENT.md``).  Every search runs the
packed flat-array kernel; the reference object-graph SPCS it is
checked against is reached from the tests and the ``table1`` /
``table2`` experiments, never from a query command.  ``batch --json``
emits a one-line JSON throughput summary for scriptable perf
tracking.

Timetables are read from a GTFS-like directory (``--gtfs DIR``),
generated on the fly (``--instance NAME [--scale SCALE]``), or — for
the query commands — warm-started from an artifact store written by
``prepare --store DIR`` (``--from-store DIR``).  A warm start skips
every build (graph, packing, station graph, distance table) and runs
under the configuration the store was prepared with; a remote query
runs under the server's.  Flags that would contradict either are
rejected, not silently ignored — the end of this help says which.

Long-running commands handle SIGINT/SIGTERM gracefully: ``serve``
stops accepting, drains in-flight requests and exits 0; an
interrupted ``prepare --store`` aborts cleanly and never leaves a
partial manifest (the store simply refuses to load until re-prepared).
"""

from __future__ import annotations

import argparse
import os
import sys
import textwrap

from repro import __version__
from repro.cli import bench, datasets, lint, queries, serve, streams, tables
from repro.cli.datasets import FLAGS, rejected_beside
from repro.client import BackendError
from repro.service.shapes import SHAPES


def _epilog() -> str:
    """What ``--from-store`` and ``--remote`` refuse, read off the flag
    table and the query commands' request flags."""
    store = rejected_beside("--from-store")
    remote = rejected_beside("--remote")
    runtime = [flag for flag in remote if flag not in store]
    request = [
        f"{queries.command_name(shape)} {flag}"
        for shape in SHAPES
        for flag in sorted(queries.request_flags(shape) & FLAGS.keys())
    ]
    return textwrap.fill(
        f"Beside --from-store, {', '.join(store)} are rejected (they "
        f"shape the prepared dataset; re-run `prepare` to change them) "
        f"and {', '.join(runtime)} stay (they set how the command runs, "
        f"not what was prepared).  Beside "
        f"--remote all of {', '.join(remote)} are rejected (set them on "
        f"`repro-transit serve`).  A flag that is part of the request "
        f"itself passes either way: {', '.join(request)}.",
        width=72,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-transit",
        description=__doc__,
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for family in (datasets, queries, serve, streams, tables, bench, lint):
        family.add_parsers(sub)
    return parser


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
