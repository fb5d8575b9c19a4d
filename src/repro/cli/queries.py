"""The six query commands — ``profile``, ``query``, ``batch``,
``multicriteria``, ``via``, ``min-transfers`` — as one loop over
:data:`repro.service.shapes.SHAPES`.

A command's request flags are its shape's fields (name, type,
required, default); one runner builds the typed request, opens the
backend and calls the method the shape names.  What is written per
shape is a row of :data:`QUERIES`: which configuration flags the
command takes, and its printer.  Where the command line departs from
the shape table it says so here — :data:`COMMAND_NAMES`,
:data:`FIELD_FLAGS`, :data:`UNEXPOSED` — and the two irregular shapes
keep what no request field stands for: ``profile`` its wire-only
``--target``, ``batch`` the random workload it draws.
"""

from __future__ import annotations

import argparse
import json
import math
from typing import Any, Callable, NamedTuple

from repro.cli.datasets import (
    FLAGS,
    add_flags,
    add_input_flags,
    dest,
    open_backend,
)
from repro.client import LocalBackend, TransitBackend
from repro.core.fanout import pool_size
from repro.service.shapes import (
    BATCH,
    PROFILE,
    SHAPES,
    RequestField,
    Shape,
    as_request,
)
from repro.synthetic.workloads import random_station_pairs
from repro.timetable.periodic import format_time

#: Sub-commands not named after their shape's route.
COMMAND_NAMES = {"journey": "query"}
#: Request fields not spelled ``--<field-name>``: ``num_threads`` is
#: the ``--cores`` of the flag table, locally the service's own.
FIELD_FLAGS = {"num_threads": "--cores"}
#: Request fields with no flag: ``query`` prints the whole profile and
#: never asks for one departure.
UNEXPOSED = {("journey", "departure")}

_FIELD_HELP = {
    "departure": "departure time in minutes after midnight",
    "via": "station the journey must pass through",
    "max_transfers": "transfer budget (default: %(default)s)",
}


def command_name(shape: Shape) -> str:
    return COMMAND_NAMES.get(shape.name, shape.route)


def _field_flag(field: RequestField) -> str:
    return FIELD_FLAGS.get(field.name, "--" + field.name.replace("_", "-"))


def request_flags(shape: Shape) -> set[str]:
    """The flags that make up the command's request — legal beside
    ``--from-store`` and ``--remote`` whatever the flag table says.
    For ``batch`` that includes ``--seed``, which draws its workload."""
    flags = {_field_flag(field) for field in shape.fields}
    return flags | {"--seed"} if shape is BATCH else flags


def _run(args: argparse.Namespace) -> int:
    shape: Shape = args.shape
    backend = open_backend(
        args,
        request=request_flags(shape),
        # A batch spreads whole queries over its workers instead.
        cores=1 if shape is BATCH else FLAGS["--cores"].default,
        quiet=getattr(args, "json", False),
    )
    if shape is BATCH:
        # Same seed + same station count ⇒ same workload on every
        # transport (info() is free locally, one GET remotely).
        raw = [
            random_station_pairs(
                backend.info().stations, args.n_queries, seed=args.seed or 0
            )
        ]
    else:
        raw = [
            getattr(args, dest(_field_flag(field)), None)
            for field in shape.fields
        ]
    # --target trims what travels (and what prints): the search is
    # one-to-all regardless, exactly like the wire protocol's targets.
    wire_only = (
        {"targets": None if args.target is None else [args.target]}
        if shape is PROFILE
        else {}
    )
    # --workers is refused beside --remote: given, the service is local.
    workers = getattr(args, "workers", None)
    if workers is not None:
        backend.service.start_workers(pool_size(workers))
    try:
        answer = getattr(backend, shape.name)(as_request(shape, *raw), **wire_only)
        QUERIES[shape.name].printer(args, answer, backend)
    finally:
        if workers is not None:
            backend.service.stop_workers()
    return 0


def _search_workers(backend: TransitBackend) -> int:
    """The search workers the command forked: none for a remote
    backend, whose server's are its own."""
    if isinstance(backend, LocalBackend):
        return backend.service.worker_stats[0]
    return 0


def _print_legs(legs, indent: str = "  ") -> None:
    for leg in legs:
        print(
            f"{indent}{leg.from_station:4d} → {leg.to_station:4d}  "
            f"depart {format_time(leg.departure)}  "
            f"arrive {format_time(leg.arrival)}"
        )


def _print_profile(args, result, backend) -> None:
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


def _print_journey(args, result, backend) -> None:
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


def _print_multicriteria(args, result, backend) -> None:
    print(
        f"{args.source} → {args.target} departing "
        f"{format_time(args.departure)} (≤{args.max_transfers} transfers): "
        f"{len(result.options)} Pareto option(s), "
        f"{result.stats.settled_connections} settled connections"
    )
    if not result.reachable:
        print("  unreachable within the transfer budget")
        return
    for option in result.options:
        print(
            f"  {option.transfers} transfer(s): "
            f"arrive {format_time(option.arrival)}"
        )
    if result.legs:
        print("  fastest itinerary:")
        _print_legs(result.legs, indent="    ")


def _print_via(args, result, backend) -> None:
    print(
        f"{args.source} → {args.via} → {args.target} departing "
        f"{format_time(args.departure)}: "
        f"{result.stats.settled_connections} settled connections"
    )
    if not result.reachable:
        print("  unreachable through the via station")
        return
    print(
        f"  at via {format_time(result.via_arrival)}, "
        f"arrive {format_time(result.arrival)}"
    )
    _print_legs(result.legs)


def _print_min_transfers(args, result, backend) -> None:
    print(
        f"{args.source} → {args.target} departing "
        f"{format_time(args.departure)} (≤{args.max_transfers} transfers): "
        f"{result.stats.settled_connections} settled connections"
    )
    if not result.reachable:
        print("  unreachable within the transfer budget")
        return
    print(
        f"  {result.transfers} transfer(s), "
        f"arrive {format_time(result.arrival)}"
    )
    _print_legs(result.legs)


def _print_batch(args, batch, backend) -> None:
    stats = batch.stats
    settled = sum(r.stats.settled_connections for r in batch.journeys)
    if args.json:
        print(json.dumps(_batch_summary(args, batch, backend, settled), sort_keys=True))
        return
    print(
        f"{stats.num_queries} queries on kernel={stats.kernel} "
        f"workers={_search_workers(backend)}: "
        f"{stats.total_seconds * 1000:.1f} ms total "
        f"({stats.queries_per_second:.1f} queries/s, "
        f"{settled} settled connections)"
    )
    for result in batch.journeys:
        best = (
            "unreachable"
            if result.profile.is_empty()
            else f"{len(result.profile)} profile points"
        )
        print(
            f"  {result.source:4d} → {result.target:4d} "
            f"({result.stats.classification}): {best}"
        )


def _batch_summary(args, batch, backend, settled: int) -> dict:
    stats = batch.stats
    classifications: dict[str, int] = {}
    for r in batch.journeys:
        key = r.stats.classification or "unknown"
        classifications[key] = classifications.get(key, 0) + 1
    # queries_per_second is inf for an instantaneous (e.g. empty)
    # batch; json.dumps would emit the non-RFC-8259 token Infinity.
    qps = stats.queries_per_second
    # Preparation accounting exists only where preparation ran: a
    # remote backend reports the serving side's dataset, whose prepare
    # cost was paid by the server.
    prepare = (
        backend.service.prepare_stats
        if isinstance(backend, LocalBackend)
        else None
    )
    return {
        "num_queries": stats.num_queries,
        "kernel": stats.kernel,
        "workers": _search_workers(backend),
        "seed": args.seed or 0,
        "transport": "local" if prepare is not None else "http",
        "total_seconds": round(stats.total_seconds, 6),
        "queries_per_second": round(qps, 2) if math.isfinite(qps) else 0.0,
        "prepare_seconds": (
            None if prepare is None else round(prepare.total_seconds, 6)
        ),
        "transfer_stations": (
            None if prepare is None else prepare.num_transfer_stations
        ),
        "table_mib": None if prepare is None else round(prepare.table_mib, 4),
        "settled_connections": settled,
        "mean_simulated_seconds": round(
            sum(r.stats.simulated_seconds for r in batch.journeys)
            / max(len(batch.journeys), 1),
            6,
        ),
        "classifications": classifications,
    }


class Query(NamedTuple):
    help: str
    #: The rows of :data:`~repro.cli.datasets.FLAGS` the command takes.
    config: tuple[str, ...]
    printer: Callable[[argparse.Namespace, Any, TransitBackend], None]


_TABLE_FLAGS = ("--transfer-fraction",)

#: Keyed by shape name; a shape without a row fails the parser build.
QUERIES = {
    "profile": Query(
        "one-to-all profile query", ("--cores",), _print_profile
    ),
    "journey": Query(
        "station-to-station query", ("--cores", *_TABLE_FLAGS), _print_journey
    ),
    "batch": Query(
        "batched random query workload (throughput check)",
        ("--cores", "--workers", *_TABLE_FLAGS),
        _print_batch,
    ),
    "multicriteria": Query(
        "Pareto front of (transfers, arrival) trade-offs for one "
        "station pair at a departure time",
        _TABLE_FLAGS,
        _print_multicriteria,
    ),
    "via": Query(
        "earliest arrival through a required via station",
        _TABLE_FLAGS,
        _print_via,
    ),
    "min_transfers": Query(
        "fewest-transfers journey within a transfer budget",
        _TABLE_FLAGS,
        _print_min_transfers,
    ),
}


def add_parsers(sub: argparse._SubParsersAction) -> None:
    for shape in SHAPES:
        query = QUERIES[shape.name]
        parser = sub.add_parser(command_name(shape), help=query.help)
        add_input_flags(parser, store=True, remote=True)
        add_flags(parser, query.config, explicit=True)
        for field in shape.fields:
            if (
                _field_flag(field) in query.config
                or (shape.name, field.name) in UNEXPOSED
            ):
                continue
            parser.add_argument(
                _field_flag(field),
                type=int,
                required=field.required,
                default=field.default,
                help=_FIELD_HELP.get(field.name),
            )
        if shape is PROFILE:
            parser.add_argument("--target", type=int, default=None)
            parser.add_argument("--max-points", type=int, default=6)
        if shape is BATCH:
            parser.add_argument(
                "--n-queries",
                type=int,
                default=20,
                help="random (source, target) pairs",
            )
            parser.add_argument(
                "--json",
                action="store_true",
                help="print a one-line JSON throughput summary instead of text",
            )
        parser.set_defaults(func=_run, shape=shape)
