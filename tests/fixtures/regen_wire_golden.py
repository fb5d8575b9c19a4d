"""Regenerate the golden wire bytes.

Usage (from the repo root)::

    PYTHONPATH=src python tests/fixtures/regen_wire_golden.py

Writes ``wire_golden.json`` next to this script: the exact JSON text of
what crosses the wire between the SDK and a live ``TransitServer`` over
``oahu``/tiny with a distance table (transfer fraction 0.25) —

* every shape's request as :mod:`repro.client.wire` renders it, and the
  server's answer to it (``profile`` with and without ``targets``, a
  mixed ``batch``);
* the ``/v1/datasets`` document;
* the delay request and its ``apply`` reply, and the dataset and a
  journey at generation 2;
* one error of each status the server answers with (400, 404, 405,
  413, 500, 501, 503).

Each exchange is one raw-socket request whose body is the bytes the
SDK sends (``orjson``, compact); the response body is recorded byte for
byte, except that the wall-clock fields (``total_seconds``,
``simulated_seconds``, ``swap_seconds``) read ``"*"``.
``tests/server/test_wire_golden.py`` replays the same
exchanges and compares.  Regenerate only when a change is *meant* to
alter the wire bytes — that is a protocol change, and says so.
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import sys
import threading
from pathlib import Path

import orjson

FIXTURE_DIR = Path(__file__).resolve().parent
REPO_ROOT = FIXTURE_DIR.parents[1]
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.client import wire  # noqa: E402
from repro.server import DatasetRegistry  # noqa: E402
from repro.server.protocol import PROTOCOL_VERSION  # noqa: E402
from repro.service import ServiceConfig, TransitService  # noqa: E402
from repro.service.model import (  # noqa: E402
    BatchRequest,
    JourneyRequest,
    MinTransfersRequest,
    MulticriteriaRequest,
    ProfileRequest,
    ViaRequest,
)
from repro.service.shapes import (  # noqa: E402
    BATCH,
    JOURNEY,
    MIN_TRANSFERS,
    MULTICRITERIA,
    PROFILE,
    VIA,
)
from repro.synthetic.instances import make_instance  # noqa: E402
from repro.timetable.delays import Delay  # noqa: E402

from tests.server.harness import ServerHarness  # noqa: E402

FIXTURE = FIXTURE_DIR / "wire_golden.json"
CONFIG = ServiceConfig(
    num_threads=2, use_distance_table=True, transfer_fraction=0.25
)
_WALL_CLOCK = re.compile(
    r'("(?:total|simulated|swap)_seconds": ?)-?[0-9][0-9.e+-]*'
)

#: ``(name, shape, typed request, wire-only fields)`` of every recorded
#: query, asked in this order of one fresh server.
QUERIES = (
    ("journey", JOURNEY, JourneyRequest(0, 5), {}),
    ("journey_departure", JOURNEY, JourneyRequest(2, 9, 480), {}),
    ("journey_same_station", JOURNEY, JourneyRequest(1, 1, 30), {}),
    ("profile", PROFILE, ProfileRequest(3), {}),
    ("profile_targets", PROFILE, ProfileRequest(3, 2), {"targets": [0, 7]}),
    (
        "batch",
        BATCH,
        BatchRequest(
            journeys=(JourneyRequest(0, 5), JourneyRequest(1, 6, 540)),
            profiles=(ProfileRequest(2),),
        ),
        {},
    ),
    ("multicriteria", MULTICRITERIA, MulticriteriaRequest(2, 9, 480), {}),
    ("via", VIA, ViaRequest(0, 4, 9, 420), {}),
    ("min_transfers", MIN_TRANSFERS, MinTransfersRequest(2, 9, 480, 3), {}),
)

DELAYS = (Delay(train=3, minutes=7), Delay(train=5, minutes=2, from_stop=1))


def masked(text: str) -> str:
    return _WALL_CLOCK.sub(r'\1"*"', text)


def exchange(
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
    headers: tuple[bytes, ...] = (),
) -> tuple[int, str]:
    """One request on its own connection; ``(status, body text)``."""
    lines = [
        f"{method} {path} HTTP/1.1".encode(),
        b"Host: golden",
        b"Connection: close",
        *headers,
    ]
    if body is not None:
        lines.append(b"Content-Length: %d" % len(body))
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(b"\r\n".join(lines) + b"\r\n\r\n" + (body or b""))
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), payload.decode("utf-8")


def _post(port: int, path: str, body: dict) -> tuple[int, str]:
    data = orjson.dumps({"v": PROTOCOL_VERSION, **body})
    return exchange(port, "POST", path, data)


def _entry(request: dict | None, status: int, response: str) -> dict:
    return {
        "request": (
            None if request is None else orjson.dumps(request).decode()
        ),
        "status": status,
        "response": masked(response),
    }


class _Faulty:
    """A service whose ``via`` raises and whose ``profile`` is held
    until :attr:`gate` is set: the 500 and the 503 of the record."""

    def __init__(self, service) -> None:
        self._service = service
        self.gate = threading.Event()
        self.entered = threading.Event()

    def lookup(self, shape, request):
        if shape.name in ("via", "profile"):
            return None
        return self._service.lookup(shape, request)

    async def submit(self, shape, request):
        if shape.name == "via":
            raise RuntimeError("a search that fails")
        if shape.name == "profile":
            self.entered.set()
            await asyncio.to_thread(self.gate.wait, 30)
        return await self._service.submit(shape, request)

    def __getattr__(self, name: str):
        return getattr(self._service, name)


def _queries_and_swaps(timetable) -> dict:
    record: dict = {}
    registry = DatasetRegistry.from_services(
        {"oahu": TransitService(timetable, CONFIG)}
    )
    harness = ServerHarness(registry)
    port = harness.port
    try:
        for name, shape, request, wire_only in QUERIES:
            body = wire.render(shape, request, **wire_only)
            status, text = _post(port, f"/v1/oahu/{shape.route}", body)
            record[name] = _entry(body, status, text)
        record["datasets"] = _entry(None, *exchange(port, "GET", "/v1/datasets"))

        path = "/v1/datasets/oahu/delays"
        apply = wire.delays_body(DELAYS, slack_per_leg=1, replan="incremental")
        record["delays_apply"] = _entry(apply, *_post(port, path, apply))
        status, text = _post(port, path, wire.delays_body(DELAYS[:1]))
        if status != 200:
            raise RuntimeError(f"the second apply answered {status}: {text}")
        record["datasets_after_swaps"] = _entry(
            None, *exchange(port, "GET", "/v1/datasets")
        )
        record["journey_after_swaps"] = _entry(
            None, *_post(port, "/v1/oahu/journey", {"source": 2, "target": 9})
        )

        errors = (
            ("error_400_unknown_field", "/v1/oahu/journey",
             {"source": 0, "target": 1, "bogus": 1}),
            ("error_400_out_of_range", "/v1/oahu/multicriteria",
             {"source": 0, "target": 1, "departure": 0, "max_transfers": 99}),
            ("error_400_domain", path,
             {"delays": [{"train": 3, "minutes": 1, "from_stop": 999}]}),
            ("error_404_dataset", "/v1/nowhere/journey",
             {"source": 0, "target": 1}),
        )
        for name, where, body in errors:
            record[name] = _entry(body, *_post(port, where, body))
        record["error_404_route"] = _entry(
            None, *exchange(port, "GET", "/v1/oahu/teleport")
        )
        record["error_405_method"] = _entry(
            None, *exchange(port, "GET", "/v1/oahu/journey")
        )
        record["error_413_too_large"] = _entry(
            None,
            *exchange(
                port, "POST", "/v1/oahu/journey", None,
                (b"Content-Length: %d" % (64 * 1024 * 1024),),
            ),
        )
        record["error_501_chunked"] = _entry(
            None,
            *exchange(
                port, "POST", "/v1/oahu/journey", None,
                (b"Transfer-Encoding: chunked",),
            ),
        )
    finally:
        harness.close()
    return record


def _failures(timetable) -> dict:
    record: dict = {}
    faulty = _Faulty(TransitService(timetable, CONFIG))
    registry = DatasetRegistry.from_services({"oahu": faulty})
    harness = ServerHarness(registry, max_inflight=1)
    port = harness.port
    thread = threading.Thread(
        target=lambda: _post(port, "/v1/oahu/profile", {"source": 1})
    )
    try:
        via = wire.render(VIA, ViaRequest(0, 4, 9, 420))
        record["error_500_internal"] = _entry(
            via, *_post(port, "/v1/oahu/via", via)
        )
        thread.start()
        if not faulty.entered.wait(timeout=30):
            raise RuntimeError("the held profile never reached the service")
        journey = wire.render(JOURNEY, JourneyRequest(0, 5))
        record["error_503_overloaded"] = _entry(
            journey, *_post(port, "/v1/oahu/journey", journey)
        )
    finally:
        faulty.gate.set()
        if thread.is_alive():
            thread.join(timeout=30)
        harness.close()
    return record


def record() -> dict:
    """Every recorded exchange, in fixture order (see module doc)."""
    timetable = make_instance("oahu", scale="tiny")
    return {**_queries_and_swaps(timetable), **_failures(timetable)}


def main() -> int:
    recorded = record()
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {FIXTURE.name}: {len(recorded)} exchanges")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
