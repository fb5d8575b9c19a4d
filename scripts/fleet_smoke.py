#!/usr/bin/env python3
"""CI fleet smoke: the whole `repro.fleet` story in one process tree.

Usage:  fleet_smoke.py [num_workers]   (default 3)

Builds a tiny store, spawns a real worker fleet under a
`WorkerSupervisor`, fronts it with a `FleetGateway`, and then walks
the subsystem's contracts end to end over real TCP (docs/FLEET.md):

1. readiness: gateway `/healthz` reports every worker healthy;
2. routing: all six query shapes answer through the gateway and
   agree with each other (including the query zoo — multicriteria,
   via, min-transfers);
3. failover: SIGKILL a worker under closed-loop traffic — **zero**
   failed client requests, ejection + readmission in `/metrics`;
4. fleet swap: `apply_delays` against the gateway bumps every worker
   to generation 1, and answers move;
5. catch-up: SIGKILL another worker *after* the swap — the respawned
   process (which warm-loaded the undelayed store) is replayed the
   delay log before readmission and reports generation 1.

Exits 0 only if every bar holds.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import shutil
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.client import connect
from repro.fleet import FleetGateway, WorkerSupervisor
from repro.service import ServiceConfig, TransitService
from repro.synthetic.instances import make_instance
from repro.timetable.delays import Delay

CONFIG = ServiceConfig(
    num_threads=2, use_distance_table=True, transfer_fraction=0.25
)


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def main() -> int:
    num_workers = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    tmp = Path(tempfile.mkdtemp(prefix="fleet-smoke-"))
    store = tmp / "oahu"
    TransitService(make_instance("oahu", "tiny"), CONFIG).save(store)
    print(f"store prepared at {store}")

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

    def wait_worker(name: str, want_healthy: bool, timeout: float = 90.0):
        async def _wait() -> None:
            deadline = asyncio.get_running_loop().time() + timeout
            while True:
                st = gateway._workers.get(name)
                healthy = st is not None and st.state == "healthy"
                if healthy == want_healthy:
                    return
                if asyncio.get_running_loop().time() > deadline:
                    raise TimeoutError(
                        f"{name}: healthy={healthy}, wanted {want_healthy}"
                    )
                await asyncio.sleep(0.02)

        run(_wait(), timeout + 10)

    supervisor.start()
    gateway = FleetGateway(supervisor.endpoints, port=0, health_interval=0.1)
    try:
        run(gateway.start())
        run(gateway.wait_ready(workers=num_workers), 120)
        port = gateway.port

        # 1. Readiness.
        health = get_json(port, "/healthz")
        assert health["role"] == "gateway" and health["ready"] is True
        assert len(health["workers"]) == num_workers
        assert all(
            w["state"] == "healthy" for w in health["workers"].values()
        )
        print(f"gateway :{port} ready, {num_workers} workers healthy")

        # 2. All query shapes, agreeing with each other.
        backend = connect(f"http://127.0.0.1:{port}")
        journey = backend.journey(2, 5)
        profile = backend.profile(2, targets=[5])
        batch = backend.batch([(2, 5)])
        assert profile.profiles[5] == journey.profile
        assert batch.journeys[0].profile == journey.profile
        mc = backend.multicriteria(2, 5, departure=480)
        assert mc.best_arrival == journey.profile.earliest_arrival(480)
        mt = backend.min_transfers(2, 5, departure=480)
        assert (mt.transfers, mt.arrival) == (
            mc.options[0].transfers,
            mc.options[0].arrival,
        )
        via = backend.via(2, 5, 7, departure=480)
        assert via.via_arrival == journey.profile.earliest_arrival(480)
        print(
            f"query shapes agree ({len(journey.profile)} connections, "
            f"zoo front of {len(mc.options)})"
        )

        # 3. Failover: SIGKILL w0 under closed-loop traffic.
        failures: list[int] = []
        counted = [0]
        stop = threading.Event()

        def hammer(slot: int) -> None:
            client = connect(f"http://127.0.0.1:{port}")
            try:
                i = 0
                while not stop.is_set():
                    client.journey((slot + i) % 12, (slot + i + 5) % 12)
                    counted[0] += 1
                    i += 1
            except Exception:
                failures.append(slot)
                raise
            finally:
                client.close()

        threads = [
            threading.Thread(target=hammer, args=(s,), daemon=True)
            for s in range(6)
        ]
        for t in threads:
            t.start()
        time.sleep(0.4)
        supervisor.kill("w0", signal.SIGKILL)
        wait_worker("w0", want_healthy=False, timeout=30)
        wait_worker("w0", want_healthy=True, timeout=90)
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not failures, f"clients {failures} saw errors across the kill"
        metrics = get_json(port, "/metrics")["gateway"]
        assert metrics["ejections_total"].get("w0", 0) >= 1
        assert metrics["readmissions_total"].get("w0", 0) >= 1
        print(
            f"failover: {counted[0]} requests, 0 failed across SIGKILL "
            f"(failovers={metrics['failovers_total']}, "
            f"restarts={supervisor.restarts_total})"
        )

        # 4. Fleet swap through the plain SDK call.
        update = backend.apply_delays([Delay(train=0, minutes=45)])
        assert update.generation == 1, update
        delayed = backend.journey(2, 5)
        assert delayed.profile != journey.profile, "swap moved nothing"
        delayed_mc = backend.multicriteria(2, 5, departure=480)
        assert delayed_mc.best_arrival == delayed.profile.earliest_arrival(
            480
        ), "post-swap multicriteria does not track the delayed profile"
        health = get_json(port, "/healthz")
        assert health["generations"] == {"oahu": 1}
        assert all(
            w["generations"] == {"oahu": 1}
            for w in health["workers"].values()
        ), health["workers"]
        print(
            f"fleet swap: generation 1 on all {num_workers} workers "
            f"in {update.swap_seconds * 1000:.0f} ms"
        )

        # 5. Catch-up: a post-swap crash rejoins at the fleet generation.
        supervisor.kill("w1", signal.SIGKILL)
        wait_worker("w1", want_healthy=False, timeout=30)
        wait_worker("w1", want_healthy=True, timeout=90)
        w1_port = int(supervisor.endpoints()["w1"].rsplit(":", 1)[1])
        w1_health = get_json(w1_port, "/healthz")
        assert w1_health["generations"] == {"oahu": 1}, w1_health
        metrics = get_json(port, "/metrics")["gateway"]
        assert metrics["catch_up_batches_total"] >= 1
        via_w1 = connect(f"http://127.0.0.1:{w1_port}")
        try:
            assert via_w1.journey(2, 5).profile == delayed.profile
        finally:
            via_w1.close()
        print(
            f"catch-up: respawned w1 replayed "
            f"{metrics['catch_up_batches_total']} batch(es), "
            f"answers from generation 1"
        )

        backend.close()
        print("fleet smoke: all bars hold")
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
