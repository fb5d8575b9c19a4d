#!/usr/bin/env python3
"""Parallel scaling study (paper §3.2 / §5.1).

Runs the one-to-all profile search on 1..8 simulated cores for a dense
bus network and a sparse rail network through the Table 1 runner,
printing the speed-up curve beside the work each core count costs —
the paper's key parallel effect (self-pruning cannot cross threads, and
rail suffers more because each thread owns few connections).

Run:  python examples/parallel_scaling.py
"""

from repro.analysis import render_table1, run_table1


def main() -> None:
    results = [
        run_table1(
            instance,
            scale="tiny",
            num_queries=3,
            cores=tuple(range(1, 9)),
            include_lc=False,
        )
        for instance in ("losangeles", "europe")
    ]
    print(render_table1(results))
    print(
        "\nReading the output: 'overhead' is total settled work relative to "
        "one core — it rises with p because self-pruning cannot act across "
        "threads; the rail network (europe) grows faster, which is exactly "
        "the scalability anomaly the paper reports in §5.1.  'work bnd' is "
        "the speed-up the busiest core allows, 'max/mean' how unevenly the "
        "partition loads the cores."
    )


if __name__ == "__main__":
    main()
