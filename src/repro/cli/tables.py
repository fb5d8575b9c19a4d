"""``table1`` and ``table2``: regenerate the paper's tables for one
synthetic instance."""

from __future__ import annotations

import argparse

from repro.cli.datasets import Command, add_input_flags, positive_int


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.analysis import render_table1, render_table2, run_table1, run_table2

    run, render = {
        "table1": (run_table1, lambda result: render_table1([result])),
        "table2": (run_table2, render_table2),
    }[args.command]
    result = run(
        args.instance, scale=args.scale, num_queries=args.queries, seed=args.seed
    )
    print(render(result))
    return 0


def _declare_table(parser: argparse.ArgumentParser) -> None:
    add_input_flags(parser, gtfs=False)
    # Each row is a mean over the queries; none would divide by zero.
    parser.add_argument("--queries", type=positive_int, default=5)
    parser.set_defaults(func=_cmd_table)


COMMANDS = {
    name: Command(f"regenerate {name} for an instance", _declare_table)
    for name in ("table1", "table2")
}
