"""Where a command's dataset comes from: the input flags, the table of
flags that shape a dataset or its execution (:data:`FLAGS`), the one
place a :class:`~repro.service.ServiceConfig` is built from them — and
``generate``, ``info`` and ``prepare``, which make or describe a
dataset rather than query one."""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Collection, NamedTuple

from repro.service.config import RUNTIME_FIELDS

if TYPE_CHECKING:
    from repro.client import TransitBackend
    from repro.service import TransitService
    from repro.timetable.types import Timetable


class Command(NamedTuple):
    """A sub-command of a family module's :data:`COMMANDS`: its help
    line, and what declares its arguments on its parser — run only
    where the command may be the one run (:func:`repro.cli.build_parser`),
    so the imports a declaration needs stay out of the other commands."""

    help: str
    declare: Callable[[argparse.ArgumentParser], None]


class Flag(NamedTuple):
    #: The :class:`ServiceConfig` field the flag sets, ``"dataset"``
    #: when it shapes the generated instance instead, or ``"process"``
    #: when it sizes the command's own process (its search workers).
    target: str
    #: ``type=`` / ``choices=`` for ``add_argument``.
    kind: dict[str, Any]
    help: str
    #: The default where the flag is declared plainly (``prepare``,
    #: ``generate``, the tables); the query commands declare ``None``
    #: and resolve it only where nothing else governs.
    default: Any = None


def positive_int(text: str) -> int:
    """``type=`` of a flag that counts something there must be one of:
    refused by the parser, before anything is loaded or built."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


#: The flag table.  Both rejection rules (:func:`rejected_beside`) and
#: the config (:func:`_config_fields`) are read off ``target``.
FLAGS = {
    "--scale": Flag(
        "dataset",
        {"choices": ("tiny", "small", "medium")},
        "synthetic instance scale (default: small)",
        "small",
    ),
    "--seed": Flag(
        "dataset",
        {"type": int},
        "seed for synthetic-instance generation (and, for batch, the "
        "random query workload; default: 0)",
        0,
    ),
    "--transfer-fraction": Flag(
        "transfer_fraction",
        {"type": float},
        "fraction of stations to use as transfer stations "
        "(default: 0 = no table)",
        0.0,
    ),
    "--cores": Flag(
        "num_threads",
        {"type": int},
        "subsets of conn(S) a profile search is split into (§3.2): on "
        "profile the request's num_threads, on prepare the stored "
        "default of profiles that name none; a journey is always one "
        "search (default: 4)",
        4,
    ),
    "--workers": Flag(
        "process",
        {"type": positive_int},
        "search worker processes that run the batch's items, at most one "
        "per usable core, as `serve --workers` (default: none, the items "
        "run one after another)",
    ),
}

#: What a store leaves to the command: the runtime config fields, and
#: the size of its own process.
_NOT_STORED = RUNTIME_FIELDS | {"process"}


def dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def add_flags(
    parser: argparse.ArgumentParser,
    flags: Collection[str],
    *,
    explicit: bool = False,
) -> None:
    """Declare rows of :data:`FLAGS`.  ``explicit`` defaults them to
    ``None``, so that a value given beside ``--from-store`` /
    ``--remote`` can be rejected instead of silently ignored."""
    for flag in flags:
        row = FLAGS[flag]
        bound = explicit and row.target not in _NOT_STORED
        parser.add_argument(
            flag,
            **row.kind,
            default=None if explicit else row.default,
            help=row.help + ("; not valid with --from-store" if bound else ""),
        )


def add_input_flags(
    parser: argparse.ArgumentParser,
    *,
    gtfs: bool = True,
    store: bool = False,
    remote: bool = False,
) -> None:
    """Where the timetable comes from: ``--instance`` (with ``--scale``
    and ``--seed``) alone, or exactly one of it, ``--gtfs`` and, where
    allowed, ``--from-store`` / ``--remote``."""
    from repro.synthetic.instances import INSTANCE_NAMES

    group = parser.add_mutually_exclusive_group(required=True) if gtfs else None
    (group or parser).add_argument(
        "--instance",
        choices=INSTANCE_NAMES,
        required=not gtfs,
        help="synthetic instance name",
    )
    add_flags(parser, ("--scale", "--seed"), explicit=store)
    if gtfs:
        group.add_argument("--gtfs", help="GTFS-like feed directory")
    if store:
        group.add_argument(
            "--from-store",
            metavar="DIR",
            help="warm-start from an artifact store written by "
            "`prepare --store` (skips every build; the stored config "
            "governs, see the top-level help)",
        )
    if remote:
        group.add_argument(
            "--remote",
            metavar="URL",
            help="query a running `repro-transit serve` instance at "
            "http://host:port[/dataset] instead of preparing locally "
            "(the server's configuration governs, see the top-level help)",
        )


def load_timetable(args: argparse.Namespace) -> Timetable:
    from repro.synthetic.instances import make_instance
    from repro.timetable.gtfs import load_gtfs

    if args.gtfs:
        return load_gtfs(args.gtfs)
    scale = args.scale if args.scale is not None else FLAGS["--scale"].default
    seed = args.seed if args.seed is not None else FLAGS["--seed"].default
    return make_instance(args.instance, scale, seed)


#: The two inputs that bring their own configuration, and why a flag
#: cannot stand beside each.
_GOVERNS = {
    "--from-store": "it shapes the prepared dataset; the store governs — "
    "re-run `prepare` to change it",
    "--remote": "the server's configuration governs; set it on "
    "`repro-transit serve` instead",
}


def rejected_beside(source: str) -> list[str]:
    """The :data:`FLAGS` that ``--from-store`` / ``--remote`` refuse: a
    store fixes everything that is not a runtime field or the command's
    own process, a server everything."""
    return [
        flag
        for flag, row in FLAGS.items()
        if source == "--remote" or row.target not in _NOT_STORED
    ]


def reject_beside(
    args: argparse.Namespace, source: str, request: Collection[str] = ()
) -> None:
    """Exit on a flag given next to ``source`` that it refuses, instead
    of silently ignoring it.  The command's ``request`` flags travel
    with the request, so they stay legal."""
    for flag in rejected_beside(source):
        if flag not in request and getattr(args, dest(flag), None) is not None:
            raise SystemExit(
                f"error: {flag} cannot be combined with {source} "
                f"({_GOVERNS[source]})"
            )


def _config_fields(args: argparse.Namespace) -> dict[str, Any]:
    """The :class:`ServiceConfig` fields the given flags set."""
    return {
        row.target: value
        for flag, row in FLAGS.items()
        if row.target not in ("dataset", "process")
        and (value := getattr(args, dest(flag), None)) is not None
    }


def _checked(build, **fields):
    """:class:`ServiceConfig` validates eagerly; a value it refuses is
    the user's, so it ends in ``error: …``, not a traceback."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def fresh_service(
    args: argparse.Namespace, *, quiet: bool = False
) -> TransitService:
    """One prepared service per invocation (the facade owns the graph
    build, packing and the optional distance table).  ``quiet`` drops
    the distance-table line: ``batch --json`` prints one JSON document
    and nothing else."""
    from repro.service import ServiceConfig, TransitService

    fields = _config_fields(args)
    fraction = fields.pop("transfer_fraction", 0.0)
    if fraction > 0:
        fields.update(use_distance_table=True, transfer_fraction=fraction)
    # A profile's default partition count, as `prepare` stores it.
    fields.setdefault("num_threads", FLAGS["--cores"].default)
    config = _checked(ServiceConfig, **fields)
    service = TransitService(load_timetable(args), config)
    table = service.table
    if table is not None and not quiet:
        print(
            f"distance table over {table.num_transfer_stations} transfer "
            f"stations ({table.size_mib():.2f} MiB, "
            f"built in {table.build_seconds:.1f} s)"
        )
    return service


def open_backend(
    args: argparse.Namespace,
    *,
    request: Collection[str],
    quiet: bool,
) -> TransitBackend:
    """The query commands' backend: an ``HttpBackend`` for
    ``--remote``, else a :class:`LocalBackend` over a warm
    ``--from-store`` service or a fresh prepare.  A server or a store
    runs under its own configuration, so flags that would change it are
    refused; the runtime flags that remain beside a store override the
    stored values."""
    from repro.client import LocalBackend, connect
    from repro.service import TransitService
    from repro.store import StoreError

    if args.remote:
        reject_beside(args, "--remote", request)
        try:
            return connect(args.remote)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
    store = args.from_store
    if not store:
        service = fresh_service(args, quiet=quiet)
        return LocalBackend(service, name=args.instance or args.gtfs)
    reject_beside(args, "--from-store", request)
    try:
        service = TransitService.load(store)
    except StoreError as exc:
        raise SystemExit(f"error: {exc}") from None
    runtime = _config_fields(args)
    if runtime:
        service = _checked(service.with_runtime_overrides, **runtime)
    if not quiet:
        stats = service.prepare_stats
        print(
            f"warm start from {store}: {stats.num_stations} stations, "
            f"{stats.num_connections} connections loaded in "
            f"{stats.total_seconds * 1000:.1f} ms (no builds)"
        )
    return LocalBackend(service, name=str(store))


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
    from repro.synthetic.instances import make_instance
    from repro.timetable.gtfs import save_gtfs

    timetable = make_instance(args.instance, args.scale, args.seed)
    save_gtfs(timetable, args.output)
    print(f"wrote {timetable.summary()} to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    if args.from_store:
        return _info_from_store(args, args.from_store)
    from repro.graph.td_model import build_td_graph

    timetable = load_timetable(args)
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
    from repro.store import StoreError, describe_store

    reject_beside(args, "--from-store")
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
        f"  config: num_threads={config['num_threads']} "
        f"use_distance_table={config['use_distance_table']} "
        f"transfer_fraction={config['transfer_fraction']}"
    )
    detail = ", ".join(
        f"{name} {size / 1024:.1f} KiB" for name, size in sorted(sizes.items())
    )
    print(f"  on disk: {info['total_bytes'] / 1024:.1f} KiB ({detail})")
    print(f"  warm-start with: --from-store {store}")
    return 0


def _cmd_prepare(args: argparse.Namespace) -> int:
    from repro.store import describe_store

    try:
        with _graceful_signals():
            service = fresh_service(args)
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
        f"prepared {service.timetable.summary()}\n"
        f"  graph {stats.graph_seconds * 1000:.1f} ms, "
        f"pack {stats.pack_seconds * 1000:.1f} ms, "
        f"station graph {stats.station_graph_seconds * 1000:.1f} ms, "
        f"table {stats.table_seconds * 1000:.1f} ms "
        f"(total {stats.total_seconds * 1000:.1f} ms)\n"
        f"store written to {args.store}: "
        f"{info['total_bytes'] / 1024:.1f} KiB "
        f"(format v{info['format_version']}, "
        f"config {info['config_hash'][:12]}…)\n"
        f"warm-start with: --from-store {args.store}"
    )
    return 0


def _declare_generate(parser: argparse.ArgumentParser) -> None:
    add_input_flags(parser, gtfs=False)
    parser.add_argument("--output", required=True, help="output directory")
    parser.set_defaults(func=_cmd_generate)


def _declare_info(parser: argparse.ArgumentParser) -> None:
    add_input_flags(parser, store=True)
    parser.set_defaults(func=_cmd_info)


def _declare_prepare(parser: argparse.ArgumentParser) -> None:
    add_input_flags(parser)
    parser.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="artifact-store directory to write (created if missing)",
    )
    add_flags(parser, ("--cores", "--transfer-fraction"))
    parser.set_defaults(func=_cmd_prepare)


COMMANDS = {
    "generate": Command("emit a synthetic GTFS-like feed", _declare_generate),
    "info": Command(
        "summarize a timetable (or a store manifest via "
        "--from-store, without hydrating any artifact)",
        _declare_info,
    ),
    "prepare": Command(
        "build every prepared artifact and persist it to a store",
        _declare_prepare,
    ),
}
