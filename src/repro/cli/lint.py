"""``lint``: the repo-aware static analysis suite (docs/ANALYSIS.md)."""

from __future__ import annotations

import argparse
import json
import sys
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


def _cmd_lint(args: argparse.Namespace) -> int:
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
            json.dumps(
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


def add_parsers(sub: argparse._SubParsersAction) -> None:
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
