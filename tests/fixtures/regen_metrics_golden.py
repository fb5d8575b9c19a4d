"""Regenerate the golden ``/metrics`` shapes.

Usage (from the repo root)::

    PYTHONPATH=src python tests/fixtures/regen_metrics_golden.py

Writes ``metrics_golden.json`` next to this script: the key paths, in
document order, and the JSON type of each value (values masked) of

* ``server`` — a live ``TransitServer``'s ``/metrics`` over
  ``oahu``/tiny after one query, one ``503 overloaded``, one request
  sent as a retry (``X-Retry-Attempt: 1``) and one delay swap;
* ``gateway`` / ``fleet`` — the ``gateway`` section and the ``fleet``
  aggregate of a ``FleetGateway``'s ``/metrics``, in front of one such
  server, after one query, one retried query and one fleet swap;
* ``replay`` — ``ReplayMetrics.snapshot`` after one query, one failed
  query, one delay post and one failed post.

Every object is one entry (type ``object``) followed by its members, so
an empty map and the order of keys are pinned too.
``tests/test_metrics_catalog.py`` replays the same traffic and
compares.  Regenerate only when a change is *meant* to alter what
``/metrics`` reports.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import urllib.request
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent
REPO_ROOT = FIXTURE_DIR.parents[1]
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet import FleetGateway  # noqa: E402
from repro.server import DatasetRegistry  # noqa: E402
from repro.service import ServiceConfig, TransitService  # noqa: E402
from repro.streams import ReplayMetrics  # noqa: E402
from repro.synthetic.instances import make_instance  # noqa: E402

from tests.server.harness import (  # noqa: E402
    GatedService,
    ServerHarness,
    wait_until,
)

FIXTURE = FIXTURE_DIR / "metrics_golden.json"
CONFIG = ServiceConfig(num_threads=2)

JOURNEY = {"source": 0, "target": 5}
DELAYS = {"delays": [{"train": 3, "minutes": 7}]}
RETRY = {"X-Retry-Attempt": "1"}

_TYPES = {
    type(None): "null",
    bool: "bool",
    int: "int",
    float: "float",
    str: "str",
    list: "list",
    dict: "object",
}


def shape(document: dict) -> list[list]:
    """``[key path, JSON type]`` of every value of ``document``, in
    document order; an object precedes its members."""
    entries: list[list] = []

    def walk(path: list[str], value: object) -> None:
        entries.append([path, _TYPES[type(value)]])
        if isinstance(value, dict):
            for key, member in value.items():
                walk([*path, key], member)

    for key, value in document.items():
        walk([key], value)
    return entries


def _request(port: int, method: str, path: str, body=None, headers=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=None if body is None else json.dumps(body).encode("utf-8"),
        headers=headers or {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _server_metrics(timetable) -> dict:
    gated = GatedService(TransitService(timetable, CONFIG), shape="profile")
    harness = ServerHarness(
        DatasetRegistry.from_services({"oahu": gated}), max_inflight=1
    )
    port = harness.port
    profile = {"source": 1}
    held = threading.Thread(
        target=lambda: _request(port, "POST", "/v1/oahu/profile", profile)
    )
    try:
        assert _request(port, "POST", "/v1/oahu/journey", JOURNEY)[0] == 200
        held.start()
        wait_until(lambda: gated.entered, what="the held profile")
        status, _ = _request(port, "POST", "/v1/oahu/journey", JOURNEY)
        assert status == 503, status
        gated.release()
        held.join(timeout=30)
        status, _ = _request(port, "POST", "/v1/oahu/journey", JOURNEY, RETRY)
        assert status == 200, status
        path = "/v1/datasets/oahu/delays"
        assert _request(port, "POST", path, DELAYS)[0] == 200
        status, metrics = _request(port, "GET", "/metrics")
        assert status == 200, status
        return metrics
    finally:
        gated.release()
        harness.close()


def _gateway_metrics(timetable) -> dict:
    worker = ServerHarness(
        DatasetRegistry.from_services(
            {"oahu": TransitService(timetable, CONFIG)}
        )
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def run(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout=60)

    gateway = FleetGateway(
        {"w0": f"http://127.0.0.1:{worker.port}"}, health_interval=0.1
    )
    try:
        run(gateway.start())
        run(gateway.wait_ready(workers=1))
        port = gateway.port
        assert _request(port, "POST", "/v1/oahu/journey", JOURNEY)[0] == 200
        status, _ = _request(port, "POST", "/v1/oahu/journey", JOURNEY, RETRY)
        assert status == 200, status
        path = "/v1/datasets/oahu/delays"
        assert _request(port, "POST", path, DELAYS)[0] == 200
        status, metrics = _request(port, "GET", "/metrics")
        assert status == 200, status
        return metrics
    finally:
        run(gateway.shutdown())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
        worker.close()


def _replay_metrics() -> dict:
    metrics = ReplayMetrics()
    metrics.observe_query(0.01)
    metrics.observe_query_failure("TransportError")
    metrics.observe_delay_post(0.02, 1)
    metrics.observe_delay_failure("ServerError")
    return metrics.snapshot(1.5)


def record() -> dict:
    """Every recorded document shape, in fixture order (module doc)."""
    timetable = make_instance("oahu", scale="tiny")
    gateway = _gateway_metrics(timetable)
    return {
        "server": shape(_server_metrics(timetable)),
        "gateway": shape(gateway["gateway"]),
        "fleet": shape(gateway["fleet"]),
        "replay": shape(_replay_metrics()),
    }


def dumps(recorded: dict) -> str:
    """One entry per line, so a diff names the key that moved."""
    blocks = []
    for name, entries in recorded.items():
        lines = ",\n".join(f"  {json.dumps(entry)}" for entry in entries)
        blocks.append(f" {json.dumps(name)}: [\n{lines}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    recorded = record()
    FIXTURE.write_text(dumps(recorded))
    print(f"wrote {FIXTURE.name}: {sum(map(len, recorded.values()))} entries")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
