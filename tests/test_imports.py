"""A process imports what it runs.

Every package resolves its re-exports on first use (``repro._lazy``),
the CLI declares only the command it runs, and the modules a served
process never runs — the instance generators, the object graph, the
build-only transfer selection, the whole-day multi-criteria reference,
the client, the fleet — stay out of ``serve``.  What a search worker runs is imported before the pool
forks: a module first imported in a worker would be compiled there,
once per worker.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.service import ServiceConfig, TransitService
from tests.helpers import run_in_own_group

#: What ``serve`` never imports: packages (with everything under them)
#: and single modules.
NOT_SERVED_PACKAGES = (
    "repro.synthetic",
    "repro.analysis",
    "repro.fleet",
    "repro.client",
    "repro.benchops",
    "repro.baselines",
)
NOT_SERVED_MODULES = (
    "repro.core.mc_reference",
    "repro.timetable.builder",
    "repro.timetable.validation",
    "repro.timetable.gtfs",
    "repro.timetable.io",
    "repro.graph.td_model",
    "repro.query.min_transfers",
    "repro.query.contraction",
    "repro.query.transfer_selection",
)

#: A table-on store with a swap that rescans the table.
CONFIG = ServiceConfig(use_distance_table=True, transfer_fraction=0.25)


def not_served(modules) -> list[str]:
    """The modules of ``modules`` that a ``serve`` must not import."""
    return sorted(
        name
        for name in modules
        if name in NOT_SERVED_MODULES
        or any(
            name == package or name.startswith(package + ".")
            for package in NOT_SERVED_PACKAGES
        )
    )


def _python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter over this checkout's ``src``;
    it prints one JSON document, returned."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_repro_loads_no_subpackage():
    loaded = _python(
        "import json, sys, repro\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('repro', 'numpy'))))"
    )
    assert loaded == ["repro", "repro._lazy"]


def test_the_fleet_gateway_imports_no_numpy():
    """The gateway parses requests and delay batches, and forwards:
    nothing of it reads an array."""
    loaded = _python(
        "import json, sys\n"
        "from repro.fleet import FleetGateway, WorkerSupervisor\n"
        "from repro.cli import build_parser\n"
        "build_parser('serve-fleet')\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert not [m for m in loaded if m.split(".")[0] == "numpy"]


_SERVE = """
import atexit
import json
import sys

import repro.cli.serve as serve_cli
from repro.cli import main

store, port_file, dump = sys.argv[1:4]
atexit.register(
    lambda: json.dump({"exit": sorted(sys.modules), **ready}, open(dump, "w"))
)
ready = {}
publish = serve_cli._write_port_file


def published(path, port):
    publish(path, port)
    ready["ready"] = sorted(sys.modules)
    print("ready", flush=True)


serve_cli._write_port_file = published
sys.exit(main([
    "serve", "--store", store, "--port", "0", "--port-file", port_file,
    "--workers", "2",
]))
"""


def test_serve_imports_only_what_it_runs(tmp_path, oahu_tiny):
    """``serve`` started through ``repro.cli.main`` answers all six
    shapes and a table-on swap over HTTP, then drains on SIGTERM.  It
    imported none of the modules it does not run, and none of
    ``repro`` after it published its port (the swap's thread brings in
    the standard library's executor)."""
    from repro.client import HttpBackend
    from repro.timetable.delays import Delay
    from tests.server.test_search_workers import CALLS

    store = tmp_path / "oahu"
    TransitService(oahu_tiny, CONFIG).save(store)
    port_file, dump = tmp_path / "serve.port", tmp_path / "modules.json"
    answers: list = []

    def drive(pid: int) -> None:
        port = int(port_file.read_text())
        with HttpBackend(f"http://127.0.0.1:{port}/oahu") as backend:
            answers.extend(call(backend) for call in CALLS)
            backend.apply_delays([Delay(train=3, minutes=12)])
            answers.extend(call(backend) for call in CALLS)
        os.kill(pid, signal.SIGTERM)

    returncode, stdout, stderr = run_in_own_group(
        _SERVE, store, port_file, dump, send=drive
    )
    assert returncode == 0, stderr
    assert "drained" in stdout
    assert len(answers) == 2 * 8
    modules = json.loads(dump.read_text())
    assert not_served(modules["exit"]) == []
    late = set(modules["exit"]) - set(modules["ready"])
    assert sorted(m for m in late if m.split(".")[0] == "repro") == []


def test_answering_and_swapping_imports_nothing(tmp_path, oahu_tiny):
    """The invariant behind the pool: once a loaded service and the
    modules ``serve`` imports are in, answering every shape and a swap
    — the jobs a search worker runs, here on the calling thread —
    imports no module at all."""
    store = tmp_path / "oahu"
    TransitService(oahu_tiny, CONFIG).save(store)
    added = _python(
        f"""
import json, sys

import repro.cli.serve
from repro.cli import build_parser
from repro.server import DatasetRegistry, TransitServer
from repro.service import TransitService
from repro.timetable.delays import Delay

build_parser("serve")
service = TransitService.load({str(store)!r})
before = set(sys.modules)


def every_shape(service):
    service.profile(3)
    service.journey(0, 5)
    service.journey(2, 9, departure=480)
    service.batch([(0, 5), (7, 2), (4, 11)])
    service.multicriteria(2, 5, departure=480)
    service.via(2, 5, 7, departure=480)
    service.min_transfers(2, 5, departure=480)


every_shape(service)
every_shape(service.apply_delays([Delay(train=3, minutes=12)]))
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    )
    assert added == []
