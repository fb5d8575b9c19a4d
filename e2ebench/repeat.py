"""``python -m e2ebench repeat --sets 2 --runs 5``: is the instrument
steady enough to judge a change with?

Runs ``sets`` interleaved sets of ``runs`` runs of the *same* code on
every workload (run ``r`` of every set before run ``r + 1`` of any, each
run with a seed of its own) and fails unless, for every workload x
end-to-end metric,

* the set medians differ by less than half the metric's bound,
* every run lies within the bound of its set's median, and
* the spread the benchmark contract uses — interquartile distance of
  all runs as a share of their median — is below the bound

(``setup_s`` is exempt from the spread rule, as in the contract).  The
report carries the machine fingerprint and every single value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from e2ebench import BENCH_DIR

from repro.benchops.machine import current_git_sha, machine_fingerprint

from e2ebench.harness import nproc
from e2ebench.run import spec


def _one_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(done.stdout.splitlines()[-1])
    if result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(sets: list[list[float]], bound: float, *, gate_spread: bool) -> dict:
    medians = [statistics.median(values) for values in sets]
    between = (max(medians) - min(medians)) / min(medians)
    within = max(
        abs(value - median) / median
        for values, median in zip(sets, medians)
        for value in values
    )
    everything = [value for values in sets for value in values]
    iqr = spread(everything) if len(everything) >= 2 else 0.0
    return {
        "set_medians": medians,
        "between_sets": between,
        "worst_run_vs_set_median": within,
        "spread_iqr_over_median": iqr,
        "ok": between < bound / 2
        and within < bound
        and (iqr < bound or not gate_spread),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    declared = spec()
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    values: dict = {
        w: {m["name"]: [[] for _ in range(args.sets)] for m in declared["end_to_end"]}
        for w in workloads
    }
    for run in range(args.runs):
        for set_index in range(args.sets):
            seed = set_index * args.runs + run
            for workload in workloads:
                metrics = _one_run(workload, seed, declared["run_seconds"])
                for name, value in metrics.items():
                    values[workload][name][set_index].append(value)
                print(
                    f"set {set_index} run {run} {workload}: "
                    + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                    flush=True,
                )

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    report: dict = {
        "git_sha": current_git_sha(str(BENCH_DIR)),
        "machine": {**machine_fingerprint(), "nproc": nproc()},
        "sets": args.sets,
        "runs": args.runs,
        "run_seconds": declared["run_seconds"],
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        report["workloads"][workload] = {}
        for name, sets in values[workload].items():
            verdict = judge(sets, bounds[name], gate_spread=name != "setup_s")
            verdict["bound"] = bounds[name]
            verdict["values"] = sets
            report["workloads"][workload][name] = verdict
            ok = ok and verdict["ok"]
            print(
                f"{workload:13s} {name:21s} between sets "
                f"{verdict['between_sets']:6.2%}  worst run "
                f"{verdict['worst_run_vs_set_median']:6.2%}  spread "
                f"{verdict['spread_iqr_over_median']:6.2%}  bound "
                f"{bounds[name]:.0%}  {'ok' if verdict['ok'] else 'FAIL'}"
            )
    report["ok"] = ok
    output = args.output or (BENCH_DIR / "out" / "repeat.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
