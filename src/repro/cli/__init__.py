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
from repro.cli import bench, datasets, queries, serve, tables
from repro.cli.datasets import FLAGS, rejected_beside
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro-transit`` parser.  Every command is listed with its
    help; only ``command``'s arguments are declared (every command's
    when ``None``): a process declares, and imports, what the command
    it runs reads — ``serve`` loads no instance generator for the
    ``--instance`` choices of the others."""
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
    for family in (datasets, queries, serve, tables, bench):
        for name, entry in family.COMMANDS.items():
            declared = sub.add_parser(name, help=entry.help)
            if command in (None, name):
                entry.declare(declared)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser takes no option with a value: its first
    # other argument names the command.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader went away (``repro query … | head``): end quietly.
        # Python flushes stdout once more at exit, so point it at
        # devnull first (the ``signal`` module's note on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except Exception as exc:
        # Typed client/transport failures (connection refused, retry
        # budget exhausted, server-side rejection) are user errors or
        # operational conditions, not tracebacks.  Imported here: a
        # command that does not talk to a backend never loads the client.
        from repro.client.errors import BackendError

        if not isinstance(exc, BackendError):
            raise
        raise SystemExit(f"error: {exc}") from None
