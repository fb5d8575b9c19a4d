"""``bench``: index pending result records into the repo-root
``BENCH_*.json`` trajectories and summarize them (docs/BENCHMARKS.md)."""

from __future__ import annotations

import argparse
import sys

from repro.cli.datasets import Command


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


def _declare_bench(p_bench: argparse.ArgumentParser) -> None:
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
        "--keep",
        action="store_true",
        help="leave consumed record files in place (default: delete "
        "them so re-indexing is idempotent)",
    )
    p_bindex.set_defaults(func=_cmd_bench_index)

    p_bshow = bench_sub.add_parser(
        "show", help="summarize every trajectory under --root"
    )
    p_bshow.set_defaults(func=_cmd_bench_show)

    for parser in (p_bindex, p_bshow):
        parser.add_argument(
            "--root",
            default=".",
            metavar="DIR",
            help="directory holding the BENCH_*.json trajectories "
            "(default: the current directory — the repo root)",
        )


COMMANDS = {
    "bench": Command(
        "benchmark ops: index result records into BENCH_*.json "
        "trajectories and summarize them",
        _declare_bench,
    ),
}
