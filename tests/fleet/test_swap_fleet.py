"""Fleet-wide delay swaps: a delay post against the gateway is applied
to every worker, each answer routed by generation.  Under interleaved
query traffic, every client answer must match either the pre-swap or
the post-swap oracle — never a mixture — and once the post returns
every worker process must agree with the post-swap oracle, including a
worker that crashes and rejoins via delay-log catch-up."""

from __future__ import annotations

import json
import threading
import time

from repro.client import LocalBackend, connect
from repro.fleet import FleetGateway, WorkerState
from repro.timetable.delays import Delay

from tests.helpers import scrubbed
from tests.fleet.harness import http_json

#: Station pairs probed before/during/after the swap.
PAIRS = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
DELAYS = [Delay(train=0, minutes=10), Delay(train=1, minutes=7)]
DELAY_BODY = {
    "delays": [
        {"train": 0, "minutes": 10},
        {"train": 1, "minutes": 7},
    ]
}


def canon(answer):
    """A comparable rendering of a client answer: wall clock zeroed
    (``scrubbed``) and per-call ``stats`` dropped entirely (cache hits
    differ between a warm oracle and a cold worker)."""

    def strip(obj):
        if isinstance(obj, dict):
            return {
                key: strip(value)
                for key, value in obj.items()
                if key != "stats"
            }
        if isinstance(obj, list):
            return [strip(item) for item in obj]
        return obj

    return strip(scrubbed(answer))


def _profiles(backend) -> dict:
    return {
        (s, t): canon(backend.profile(s, targets=[t])) for s, t in PAIRS
    }


class TestFleetSwap:
    def test_fleet_swap_is_atomic_for_clients(
        self, make_fleet, twin_service
    ):
        fleet = make_fleet(3)

        # Oracles: the same store, before and after the delays.
        pre_backend = LocalBackend(twin_service, name="oahu")
        post_service = twin_service.apply_delays(DELAYS)
        post_backend = LocalBackend(post_service, name="oahu")
        pre = _profiles(pre_backend)
        post = _profiles(post_backend)
        # The delays must actually move at least one probed answer,
        # or "pre or post" would be vacuous.
        assert any(pre[p] != post[p] for p in PAIRS)

        # Closed-loop query traffic across the swap window: every
        # answer must be *exactly* pre or *exactly* post.
        mixed: list = []
        lock = threading.Lock()
        stop = threading.Event()

        def _client(slot: int) -> None:
            backend = connect(f"http://127.0.0.1:{fleet.port}")
            try:
                i = 0
                while not stop.is_set():
                    pair = PAIRS[(slot + i) % len(PAIRS)]
                    got = canon(backend.profile(pair[0], targets=[pair[1]]))
                    if got != pre[pair] and got != post[pair]:
                        with lock:
                            mixed.append((pair, got))
                    i += 1
            finally:
                backend.close()

        threads = [
            threading.Thread(target=_client, args=(slot,), daemon=True)
            for slot in range(4)
        ]
        for t in threads:
            t.start()
        try:
            time.sleep(0.3)
            status, update = fleet.request(
                "POST", "/v1/datasets/oahu/delays", DELAY_BODY,
                timeout=180,
            )
            assert status == 200, update
            assert update["generation"] == 1
            assert sorted(update["fleet"]["workers_committed"]) == [
                "w0", "w1", "w2",
            ]
            assert update["fleet"]["workers_failed"] == []
            time.sleep(0.3)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60)
        assert not mixed, f"answers matching neither oracle: {mixed[:3]}"

        # Post-commit: the gateway answers from the delayed timetable...
        gateway_backend = connect(f"http://127.0.0.1:{fleet.port}")
        try:
            assert _profiles(gateway_backend) == post
        finally:
            gateway_backend.close()

        # ...and all three workers agree with the post oracle — and
        # with each other byte-for-byte once per-call stats are
        # stripped (the payloads are otherwise deterministic).
        raw_by_worker: dict[str, list] = {}
        for name, port in sorted(fleet.worker_ports().items()):
            worker_backend = connect(f"http://127.0.0.1:{port}")
            try:
                assert _profiles(worker_backend) == post, name
            finally:
                worker_backend.close()
            payloads = []
            for s, t in PAIRS:
                _, raw = http_json(
                    port, "POST", "/v1/oahu/profile",
                    {"source": s, "targets": [t]},
                )
                payload = json.loads(raw)
                payload.pop("stats")
                payloads.append(payload)
            raw_by_worker[name] = payloads
        first = next(iter(raw_by_worker.values()))
        assert all(p == first for p in raw_by_worker.values())

        # Swap bookkeeping is visible fleet-wide.
        _, health = fleet.request("GET", "/healthz")
        assert health["generations"] == {"oahu": 1}
        _, metrics = fleet.request("GET", "/metrics")
        assert metrics["gateway"]["swaps_total"] == {"oahu": 1}

    def test_crashed_worker_catches_up_to_fleet_generation(
        self, make_fleet, twin_service
    ):
        """A worker that dies after a commit rejoins at the fleet's
        generation: the gateway replays the committed delay log before
        routing to it again."""
        fleet = make_fleet(2)
        post_service = twin_service.apply_delays(DELAYS)
        post_backend = LocalBackend(post_service, name="oahu")
        post = _profiles(post_backend)

        status, update = fleet.request(
            "POST", "/v1/datasets/oahu/delays", DELAY_BODY, timeout=180
        )
        assert status == 200 and update["generation"] == 1

        fleet.supervisor.kill("w1")
        fleet.wait_worker_down("w1", timeout=30)
        fleet.wait_worker_healthy("w1", timeout=120)

        # The respawned process warm-started from the *undelayed*
        # store; only the gateway's catch-up replay can explain it
        # answering from the delayed timetable.
        port = fleet.worker_ports()["w1"]
        worker_backend = connect(f"http://127.0.0.1:{port}")
        try:
            assert _profiles(worker_backend) == post
        finally:
            worker_backend.close()

        _, metrics = fleet.request("GET", "/metrics")
        assert metrics["gateway"]["catch_up_batches_total"] >= 1
        _, health = fleet.request("GET", "/healthz")
        assert health["generations"] == {"oahu": 1}
        assert all(
            w["generations"] == {"oahu": 1}
            for w in health["workers"].values()
        )

        # A second swap through the SDK advances the whole fleet.
        gateway_backend = connect(f"http://127.0.0.1:{fleet.port}")
        try:
            second = gateway_backend.apply_delays(
                [Delay(train=2, minutes=5)]
            )
        finally:
            gateway_backend.close()
        assert second.generation == 2
        _, health = fleet.request("GET", "/healthz")
        assert health["generations"] == {"oahu": 2}

    def test_a_stale_probe_cannot_lower_a_worker_generation(self):
        """A probe answered while a catch-up replay (or a commit) ran
        reports the generation before it; noted after the catch-up, it
        must not put the worker back — the gateway's ``/healthz`` would
        show a caught-up worker at the old generation until the next
        probe."""
        url = "http://127.0.0.1:9"
        gateway = FleetGateway({"w1": url})
        st = WorkerState("w1", url)
        try:
            st.state = "healthy"
            st.generations = {"oahu": 1}
            stale = {"status": "ok", "datasets": ["oahu"]}
            gateway._note_probe(st, {**stale, "generations": {"oahu": 0}})
            assert st.generations == {"oahu": 1}
            assert st.state == "healthy"
        finally:
            st.close()
