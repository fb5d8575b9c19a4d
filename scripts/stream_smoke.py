#!/usr/bin/env python3
"""CI stream smoke: a live delay stream against a real worker fleet.

Usage:  stream_smoke.py [num_workers] [num_events]   (default 2, 24)

Builds a tiny store, spawns a worker fleet under a `WorkerSupervisor`
behind a `FleetGateway`, generates a seeded delay stream
(docs/STREAMS.md), saves/loads it through the JSON interchange format,
and replays it with the production harness
(`repro.streams.replay_stream`) — closed-loop query workers running
alongside the delay poster, every batch posted by the gateway to each
worker, which routes only to workers at the newest generation.  The
bars:

1. **zero failed client requests** — queries and delay posts — across
   20+ streamed commits (`ReplayReport.check()`);
2. **generation accounting**: the fleet generation and every worker's
   generation equal the number of committed batches;
3. the gateway counted every swap in `/metrics`, and a query through
   it carries `X-Generation` equal to the number of committed batches.

Exits 0 only if every bar holds.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import shutil
import sys
import tempfile
import threading
from pathlib import Path

from repro.client import HttpBackend
from repro.fleet import FleetGateway, WorkerSupervisor
from repro.service import ServiceConfig, TransitService
from repro.streams import DelayStream, ReplayConfig, replay_stream
from repro.synthetic.delays import generate_delay_stream
from repro.synthetic.instances import make_instance

CONFIG = ServiceConfig(
    num_threads=2, use_distance_table=True, transfer_fraction=0.25
)
MIN_COMMITS = 20


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def main() -> int:
    num_workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    num_events = int(sys.argv[2]) if len(sys.argv) > 2 else 24
    assert num_events >= MIN_COMMITS, (
        f"the smoke must stream at least {MIN_COMMITS} commits"
    )
    tmp = Path(tempfile.mkdtemp(prefix="stream-smoke-"))
    timetable = make_instance("oahu", "tiny")
    store = tmp / "oahu"
    TransitService(timetable, CONFIG).save(store)
    print(f"store prepared at {store}")

    # Through the interchange format on purpose: the replayed stream
    # is what a committed scenario file would carry.
    stream_path = tmp / "stream.json"
    generate_delay_stream(
        timetable,
        seed=42,
        num_events=num_events,
        duration_s=2.0,
        name="ci-smoke",
    ).save(stream_path)
    stream = DelayStream.load(stream_path)
    print(f"stream {stream.name!r}: {stream.num_events} events")

    supervisor = WorkerSupervisor(
        [store],
        num_workers,
        runtime_dir=tmp / "rt",
        drain_grace=0.0,
        restart_backoff=0.1,
        stable_after=2.0,
        poll_interval=0.05,
    )
    loop = asyncio.new_event_loop()
    threading.Thread(target=loop.run_forever, daemon=True).start()

    def run(coro, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout)

    supervisor.start()
    gateway = FleetGateway(supervisor.endpoints, port=0, health_interval=0.1)
    try:
        run(gateway.start())
        run(gateway.wait_ready(workers=num_workers), 120)
        port = gateway.port
        print(f"gateway :{port} ready, {num_workers} workers healthy")

        report = replay_stream(
            stream,
            lambda: HttpBackend(f"http://127.0.0.1:{port}", timeout=120),
            ReplayConfig(
                query_threads=2,
                speed=4.0,
                max_swap_seconds=120.0,
            ),
        ).check()  # bar 1: zero failed requests, every event committed
        m = report.metrics
        print(
            f"replayed {m['delay_posts_total']} commits, "
            f"{m['queries_total']} queries alongside, 0 failed "
            f"(swap ack max {m['swap_seconds_max'] * 1000:.0f} ms)"
        )

        # Bar 2: fleet + every worker at generation == committed batches.
        health = get_json(port, "/healthz")
        assert health["generations"] == {"oahu": stream.num_events}, health
        assert all(
            w["generations"] == {"oahu": stream.num_events}
            for w in health["workers"].values()
        ), health["workers"]
        assert m["last_generation"] == stream.num_events

        # Bar 3: every swap was counted, and a query names the
        # generation that answered it.
        metrics = get_json(port, "/metrics")["gateway"]
        assert metrics["swaps_total"] == {"oahu": stream.num_events}, metrics
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/oahu/journey",
                json.dumps({"source": 0, "target": 5}),
            )
            response = conn.getresponse()
            response.read()
            generation = response.getheader("X-Generation")
        finally:
            conn.close()
        assert response.status == 200, response.status
        assert generation == str(stream.num_events), generation
        print(
            f"generation {stream.num_events} on all {num_workers} workers, "
            f"every swap counted, a query answered from X-Generation "
            f"{generation}"
        )
        print("stream smoke: all bars hold")
        return 0
    finally:
        try:
            run(gateway.shutdown(), 30)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            supervisor.stop()
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
