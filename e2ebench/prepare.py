"""Set-up, first half: build one workload's dataset and save its store.

Run as its own process (``python e2ebench/prepare.py``) by every
set-up, so that each of them pays interpreter start-up and the import
of ``repro`` the way a deployment does — "from scratch" means from a
cold interpreter.  Prints one JSON object: the prepare-phase numbers
the per-layer metrics quote.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make `e2ebench` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import e2ebench  # noqa: F401 — puts the program under test on sys.path

from repro.service.config import ServiceConfig
from repro.service.facade import TransitService
from repro.synthetic.instances import make_instance

from e2ebench.workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--store", required=True, type=Path)
    parser.add_argument(
        "--scale", default=None, help="override the workload's dataset scale"
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    timetable = make_instance(workload.instance, args.scale or workload.scale)
    service = TransitService(timetable, ServiceConfig(**workload.config))
    t0 = time.perf_counter()
    service.save(args.store)
    save_s = time.perf_counter() - t0
    store_bytes = sum(
        f.stat().st_size for f in args.store.rglob("*") if f.is_file()
    )
    json.dump(
        {
            "prepare": asdict(service.prepare_stats),
            "save_s": save_s,
            "store_bytes": store_bytes,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
