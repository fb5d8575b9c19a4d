"""``bench``: index pending result records into the repo-root
``BENCH_*.json`` trajectories and gate new runs against the last
known-good entry (docs/BENCHMARKS.md)."""

from __future__ import annotations

import argparse
import json
import sys


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
                json.loads(open(args.candidate).read())
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


def add_parsers(sub: argparse._SubParsersAction) -> None:
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
    p_bshow.set_defaults(func=_cmd_bench_show)

    for parser in (p_bindex, p_bcompare, p_bshow):
        parser.add_argument(
            "--root",
            default=".",
            metavar="DIR",
            help="directory holding the BENCH_*.json trajectories "
            "(default: the current directory — the repo root)",
        )
