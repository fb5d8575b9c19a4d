"""``table1`` and ``table2``: regenerate the paper's tables for one
synthetic instance."""

from __future__ import annotations

import argparse

from repro.analysis import render_table1, render_table2, run_table1, run_table2
from repro.cli.datasets import add_input_flags, positive_int


def _cmd_table(args: argparse.Namespace) -> int:
    result = args.run(
        args.instance, scale=args.scale, num_queries=args.queries, seed=args.seed
    )
    print(args.render(result))
    return 0


def add_parsers(sub: argparse._SubParsersAction) -> None:
    for name, run, render in (
        ("table1", run_table1, lambda result: render_table1([result])),
        ("table2", run_table2, render_table2),
    ):
        p_tab = sub.add_parser(name, help=f"regenerate {name} for an instance")
        add_input_flags(p_tab, gtfs=False)
        # Each row is a mean over the queries; none would divide by zero.
        p_tab.add_argument("--queries", type=positive_int, default=5)
        p_tab.set_defaults(func=_cmd_table, run=run, render=render)
