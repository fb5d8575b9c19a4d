"""End-to-end server tests over real TCP.

The acceptance bars of the serving subsystem:

* **Parity** — every query shape answered over HTTP is bitwise-
  identical to a direct :class:`TransitService` call (timings aside:
  wall-clock fields are scrubbed before comparison, everything else —
  profiles, arrivals, legs, counters — must match exactly).
* **Hot swap** — a delay swap posted under concurrent traffic
  completes with zero failed in-flight requests, and post-swap answers
  match a cold service built on the delayed timetable.
* **Concurrency** — concurrent journeys run side by side on the
  worker pool, one job each, without changing any answer.
* **Overload** — past ``max_inflight`` the server answers a fast 503
  instead of queueing; **drain** — shutdown finishes in-flight work.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.server import DatasetRegistry
from repro.client import wire
from repro.server.protocol import (
    encode_batch,
    encode_journey,
    encode_profile,
    open_request,
)
from repro.service import BatchRequest, JourneyRequest, ProfileRequest
from repro.service.model import (
    MinTransfersRequest,
    MulticriteriaRequest,
    ViaRequest,
)
from repro.service.shapes import (
    BATCH,
    JOURNEY,
    MIN_TRANSFERS,
    MULTICRITERIA,
    PROFILE,
    VIA,
)
from repro.timetable.delays import Delay

from tests.helpers import scrubbed_payload
from tests.server.harness import GatedService, ServerHarness, wait_until


NUM_STATIONS = 12  # oahu tiny
#: One request of each served shape, all riding 2 → 5 (train 0's
#: route, which :attr:`TestHotSwap.DELAYS` delays).
SHAPE_QUERIES = (
    (JOURNEY, JourneyRequest(2, 5)),
    (PROFILE, ProfileRequest(2)),
    (
        BATCH,
        BatchRequest(
            journeys=(JourneyRequest(2, 5),), profiles=(ProfileRequest(2),)
        ),
    ),
    (MULTICRITERIA, MulticriteriaRequest(2, 5, 480)),
    (VIA, ViaRequest(2, 4, 5, 420)),
    (MIN_TRANSFERS, MinTransfersRequest(2, 5, 480, 3)),
)


async def _call_soon(fn):
    """Run a sync callable on the server's event loop."""
    return fn()


class TestParity:
    def test_journey_matches_direct_call(self, harness, make_service):
        direct = make_service()
        for source, target, departure in ((0, 5, None), (2, 9, 480)):
            body = {"source": source, "target": target}
            if departure is not None:
                body["departure"] = departure
            status, payload = harness.request(
                "POST", "/v1/oahu/journey", body
            )
            assert status == 200
            expected = encode_journey(
                direct.journey(JourneyRequest(source, target, departure))
            )
            assert scrubbed_payload(payload) == scrubbed_payload(expected)

    def test_profile_matches_direct_call(self, harness, make_service):
        direct = make_service()
        status, payload = harness.request(
            "POST", "/v1/oahu/profile", {"source": 3}
        )
        assert status == 200
        expected = encode_profile(
            direct.profile(ProfileRequest(3)), num_stations=NUM_STATIONS
        )
        assert scrubbed_payload(payload) == scrubbed_payload(expected)
        # The targets restriction trims the wire payload, not the search.
        status, restricted = harness.request(
            "POST", "/v1/oahu/profile", {"source": 3, "targets": [0, 7]}
        )
        assert status == 200
        assert set(restricted["profiles"]) == {"0", "7"}
        assert restricted["profiles"]["7"] == payload["profiles"]["7"]

    def test_batch_matches_direct_call(self, harness, make_service):
        direct = make_service()
        body = {
            "journeys": [
                {"source": 0, "target": 5},
                {"source": 1, "target": 6, "departure": 540},
            ],
            "profiles": [{"source": 2}],
        }
        status, payload = harness.request("POST", "/v1/oahu/batch", body)
        assert status == 200
        expected = encode_batch(
            direct.batch(
                BatchRequest(
                    journeys=(
                        JourneyRequest(0, 5),
                        JourneyRequest(1, 6, 540),
                    ),
                    profiles=(ProfileRequest(2),),
                )
            ),
            num_stations=NUM_STATIONS,
        )
        assert scrubbed_payload(payload) == scrubbed_payload(expected)

    def test_repeated_request_is_served_from_cache(self, harness):
        first = harness.request("POST", "/v1/oahu/profile", {"source": 4})[1]
        second = harness.request("POST", "/v1/oahu/profile", {"source": 4})[1]
        assert not first["stats"]["cache_hit"]
        assert second["stats"]["cache_hit"]
        assert second["profiles"] == first["profiles"]
        metrics = harness.request("GET", "/metrics")[1]
        assert metrics["datasets"]["oahu"]["result_cache"]["hits"] >= 1


def send_concurrently(harness, bodies, path="/v1/oahu/journey"):
    """Send each of ``bodies`` on its own thread.  Returns the threads
    and the (filling) ``index → (status, payload)`` map."""
    results: dict[int, tuple[int, dict]] = {}

    def client(i: int, body: dict) -> None:
        results[i] = harness.request("POST", path, body)

    threads = [
        threading.Thread(target=client, args=(i, body))
        for i, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    return threads, results


class TestConcurrentJourneys:
    def test_concurrent_journeys_overlap_without_changing_answers(
        self, make_service
    ):
        workers = 4
        gated = GatedService(make_service())
        registry = DatasetRegistry.from_services({"oahu": gated})
        harness = ServerHarness(registry, workers=workers, max_inflight=32)
        try:
            direct = make_service()
            pairs = [(s, (s + 6) % NUM_STATIONS) for s in range(9)]
            threads, results = send_concurrently(
                harness, [{"source": s, "target": t} for s, t in pairs]
            )
            # Each request is composed the moment it is admitted: all
            # of them are inside the service at once, none waits for a
            # thread or behind another.
            wait_until(
                lambda: len(gated.entered) == len(pairs),
                what="every journey inside the service",
            )
            gated.release()
            for t in threads:
                t.join(timeout=60)
            assert len(results) == len(pairs)
            for i, (source, target) in enumerate(pairs):
                status, payload = results[i]
                assert status == 200
                expected = encode_journey(direct.journey(source, target))
                assert scrubbed_payload(payload) == scrubbed_payload(expected)
            assert sorted(gated.entered, key=lambda r: r.source) == [
                JourneyRequest(s, t) for s, t in pairs
            ]

            # Concurrent execution shares the per-journey result cache:
            # repeating one of the requests is a hit.
            source, target = pairs[1]
            repeat = harness.request(
                "POST",
                "/v1/oahu/journey",
                {"source": source, "target": target},
            )[1]
            assert repeat["stats"]["cache_hit"]
        finally:
            gated.release()
            harness.close()


class TestNoHeadOfLineBlocking:
    def test_a_cheap_journey_is_answered_during_a_held_profile(
        self, make_service
    ):
        """A long request in flight on a dataset delays no other
        request for it: with a profile search held inside the service,
        journeys — first-time and cached — are answered meanwhile."""
        gated = GatedService(make_service(), "profile")
        registry = DatasetRegistry.from_services({"oahu": gated})
        harness = ServerHarness(registry, workers=2)
        try:
            threads, results = send_concurrently(
                harness, [{"source": 4}], path="/v1/oahu/profile"
            )
            wait_until(lambda: gated.entered, what="a running profile")
            body = {"source": 0, "target": 5}
            first = harness.request("POST", "/v1/oahu/journey", body)
            again = harness.request("POST", "/v1/oahu/journey", body)
            assert (first[0], again[0]) == (200, 200)
            assert again[1]["stats"]["cache_hit"]
            assert not results, "the held profile must still be in flight"
            gated.release()
            for t in threads:
                t.join(timeout=60)
            assert results[0][0] == 200
        finally:
            gated.release()
            harness.close()


    def test_lookups_are_answered_with_every_worker_busy(self, make_service):
        """What takes no search takes no worker: with the only worker
        held inside a profile search, a journey between two transfer
        stations and a repeated one are answered, as the facade
        answers them."""
        service = make_service()
        a, b = (int(s) for s in service.table.transfer_stations[:2])
        outside = next(
            s for s in range(NUM_STATIONS)
            if not service.table.contains(s)
        )
        searched = service.journey(outside, a)  # in the result cache
        gated = GatedService(service, "profile")
        registry = DatasetRegistry.from_services({"oahu": gated})
        harness = ServerHarness(registry, workers=1)
        try:
            threads, results = send_concurrently(
                harness, [{"source": 4}], path="/v1/oahu/profile"
            )
            wait_until(lambda: gated.entered, what="a running profile")
            table = harness.request(
                "POST", "/v1/oahu/journey", {"source": a, "target": b}
            )
            cached = harness.request(
                "POST", "/v1/oahu/journey", {"source": outside, "target": a}
            )
            assert not results, "the held profile must still be in flight"
            twin = make_service()
            assert table[0] == 200
            assert table[1]["stats"]["classification"] == "table"
            assert scrubbed_payload(table[1]) == scrubbed_payload(
                encode_journey(twin.journey(a, b))
            )
            assert cached[0] == 200 and cached[1]["stats"]["cache_hit"]
            assert (
                cached[1]["profile"] == encode_journey(searched)["profile"]
            )
            gated.release()
            for t in threads:
                t.join(timeout=60)
            assert results[0][0] == 200
        finally:
            gated.release()
            harness.close()


class TestHotSwap:
    DELAYS = {"delays": [{"train": 0, "minutes": 45}], "slack_per_leg": 0}

    def test_swap_under_traffic_fails_no_inflight_request(
        self, make_service
    ):
        registry = DatasetRegistry.from_services({"oahu": make_service()})
        harness = ServerHarness(registry, max_inflight=64)
        try:
            stop = threading.Event()
            statuses: list[int] = []
            lock = threading.Lock()

            def hammer() -> None:
                while not stop.is_set():
                    status, _ = harness.request(
                        "POST",
                        "/v1/oahu/journey",
                        {"source": 0, "target": 5},
                    )
                    with lock:
                        statuses.append(status)

            threads = [
                threading.Thread(target=hammer) for _ in range(4)
            ]
            for t in threads:
                t.start()
            time.sleep(0.05)
            swap_status, swap = harness.request(
                "POST", "/v1/datasets/oahu/delays", self.DELAYS
            )
            time.sleep(0.05)
            stop.set()
            for t in threads:
                t.join(timeout=60)

            assert swap_status == 200
            assert swap["generation"] == 1
            assert statuses, "no traffic ran during the swap"
            assert set(statuses) == {200}, (
                f"in-flight requests failed during hot swap: "
                f"{[s for s in statuses if s != 200]}"
            )
        finally:
            harness.close()

    def test_post_swap_answers_match_cold_delayed_service(
        self, harness, make_service
    ):
        # 2 → 5 rides train 0's route: the 45-minute delay must move
        # this profile (verified against a cold delayed service below).
        before = harness.request(
            "POST", "/v1/oahu/journey", {"source": 2, "target": 5}
        )[1]
        status, swap = harness.request(
            "POST", "/v1/datasets/oahu/delays", self.DELAYS
        )
        assert status == 200 and swap["generation"] == 1
        after = harness.request(
            "POST", "/v1/oahu/journey", {"source": 2, "target": 5}
        )[1]
        cold = make_service().apply_delays(
            [Delay(train=0, minutes=45)]
        )
        expected = encode_journey(cold.journey(2, 5))
        assert scrubbed_payload(after) == scrubbed_payload(expected)
        assert after["profile"] != before["profile"], (
            "delaying train 0 by 45 minutes must change the 2→5 profile"
        )
        # /v1/datasets and /metrics reflect the swap.
        listed = harness.request("GET", "/v1/datasets")[1]["datasets"]
        assert listed[0]["generation"] == 1
        metrics = harness.request("GET", "/metrics")[1]
        assert metrics["swaps_total"] == {"oahu": 1}

    @pytest.mark.parametrize(
        "shape, query",
        SHAPE_QUERIES,
        ids=[shape.name for shape, _ in SHAPE_QUERIES],
    )
    def test_answers_name_the_generation_that_computed_them(
        self, harness, make_service, shape, query
    ):
        """Every shape's answer carries ``X-Generation`` (the fleet
        gateway routes by it): the generation of the service the
        request pinned, for a search and for a cached answer alike."""
        path = f"/v1/oahu/{shape.route}"
        body = wire.render(shape, query)
        for _ in range(2):  # a search, then the result cache
            status, headers, _ = harness.request_full("POST", path, body)
            assert status == 200 and headers["x-generation"] == "0"
        status, swap = harness.request(
            "POST", "/v1/datasets/oahu/delays", self.DELAYS
        )
        assert status == 200 and swap["generation"] == 1
        status, headers, payload = harness.request_full("POST", path, body)
        assert status == 200 and headers["x-generation"] == "1"
        cold = make_service().apply_delays([Delay(train=0, minutes=45)])
        typed, encode = open_request(shape, body, NUM_STATIONS)
        expected = encode(getattr(cold, shape.name)(typed))
        assert scrubbed_payload(payload) == scrubbed_payload(expected)
        # A refused query was answered by no generation.
        status, headers, _ = harness.request_full(
            "POST", path, {**body, "source": NUM_STATIONS}
        )
        assert status == 400 and "x-generation" not in headers

    @pytest.mark.parametrize("mode", ["prepare", "commit", "abort"])
    def test_a_two_phase_mode_is_refused_and_swaps_nothing(
        self, harness, mode
    ):
        """A delay swap is one ``apply``: the former two-phase modes
        are refused as any unknown mode is, and leave the dataset at
        its generation, result cache and all."""
        before = harness.request_full(
            "POST", "/v1/oahu/journey", {"source": 2, "target": 5}
        )
        status, payload = harness.request(
            "POST",
            "/v1/datasets/oahu/delays",
            {**self.DELAYS, "mode": mode},
        )
        assert status == 400
        assert (payload["error"]["code"], payload["error"]["field"]) == (
            "invalid_request", "mode",
        )
        listed = harness.request("GET", "/v1/datasets")[1]["datasets"]
        assert listed[0]["generation"] == 0
        after = harness.request_full(
            "POST", "/v1/oahu/journey", {"source": 2, "target": 5}
        )
        assert after[1]["x-generation"] == "0"
        # The same generation answers, from the result cache it kept.
        assert after[2].pop("stats")["cache_hit"] is True
        before[2].pop("stats")
        assert after[2] == before[2]
        assert harness.request("GET", "/metrics")[1]["swaps_total"] == {}

    def test_swap_validation_errors_are_client_errors(self, harness):
        status, payload = harness.request(
            "POST",
            "/v1/datasets/oahu/delays",
            {"delays": [{"train": 0, "minutes": 10, "from_stop": 9999}]},
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        status, payload = harness.request(
            "POST",
            "/v1/datasets/oahu/delays",
            {"delays": [{"train": 10**6, "minutes": 10}]},
        )
        assert status == 400
        assert payload["error"]["code"] == "out_of_range"
        # Neither attempt swapped anything.
        listed = harness.request("GET", "/v1/datasets")[1]["datasets"]
        assert listed[0]["generation"] == 0


class TestOverloadAndDrain:
    def test_overload_gets_fast_503(self, make_service):
        # One admission slot, held by a journey blocked inside the
        # service: the first request is guaranteed still in flight
        # when the second arrives.
        gated = GatedService(make_service())
        registry = DatasetRegistry.from_services({"oahu": gated})
        harness = ServerHarness(registry, max_inflight=1)
        try:
            first: list[tuple[int, dict]] = []

            def slow_request() -> None:
                first.append(
                    harness.request(
                        "POST",
                        "/v1/oahu/journey",
                        {"source": 0, "target": 5},
                    )
                )

            t = threading.Thread(target=slow_request)
            t.start()
            wait_until(lambda: gated.entered, what="a running journey")
            t0 = time.perf_counter()
            status, headers, payload = harness.request_full(
                "POST", "/v1/oahu/journey", {"source": 1, "target": 6}
            )
            rejected_in = time.perf_counter() - t0
            gated.release()
            t.join(timeout=60)

            assert status == 503
            assert payload["error"]["code"] == "overloaded"
            assert payload["error"]["retriable"] is True
            # The rejection carries the backoff hint clients honor
            # (default retry_after=1.0 renders as integral seconds).
            assert headers.get("retry-after") == "1"
            assert rejected_in < 0.4, (
                f"503 took {rejected_in * 1000:.0f} ms — overload "
                f"rejection must not wait for the request in flight"
            )
            assert first and first[0][0] == 200, (
                "the admitted request must still complete"
            )
            metrics = harness.request("GET", "/metrics")[1]
            assert metrics["rejected_total"] >= 1
        finally:
            gated.release()
            harness.close()

    def test_shutdown_drains_inflight_requests(self, make_service):
        """Graceful drain answers every admitted request: those
        running on the pool *and* those still waiting for a worker."""
        gated = GatedService(make_service())
        registry = DatasetRegistry.from_services({"oahu": gated})
        harness = ServerHarness(registry, workers=2)
        pairs = [(s, s + 5) for s in range(6)]
        try:
            threads, results = send_concurrently(
                harness, [{"source": s, "target": t} for s, t in pairs]
            )
            wait_until(
                lambda: harness.request("GET", "/metrics")[1]["inflight"]
                == len(pairs),
                what="every request admitted",
            )
            closer = threading.Thread(target=harness.close)
            closer.start()
            wait_until(lambda: harness.server._draining, what="hard drain")
            gated.release()
        finally:
            gated.release()
        closer.join(timeout=60)
        assert not closer.is_alive(), "shutdown hung on admitted requests"
        for t in threads:
            t.join(timeout=60)
        assert sorted(results) == list(range(len(pairs)))
        assert {status for status, _ in results.values()} == {200}

    def test_begin_drain_flips_readiness_before_rejecting(
        self, make_service
    ):
        """Readiness vs liveness (``docs/SERVER.md``): ``begin_drain``
        makes ``/healthz`` report "draining" while queries still get
        full answers — the window in which load balancers stop routing
        *before* any client ever sees a 503.  Only the hard drain
        (``shutdown``) starts rejecting."""
        registry = DatasetRegistry.from_services({"oahu": make_service()})
        harness = ServerHarness(registry, drain_grace=0.2)
        try:
            asyncio.run_coroutine_threadsafe(
                _call_soon(harness.server.begin_drain), harness.loop
            ).result(timeout=10)
            health = harness.request("GET", "/healthz")[1]
            assert health["status"] == "draining"
            assert health["ready"] is False
            # Not-ready ≠ not-serving: queries still succeed.
            status, payload = harness.request(
                "POST", "/v1/oahu/journey", {"source": 0, "target": 5}
            )
            assert status == 200 and payload["kind"] == "journey"
        finally:
            harness.close()

    def test_draining_server_rejects_new_queries(self, make_service):
        registry = DatasetRegistry.from_services({"oahu": make_service()})
        harness = ServerHarness(registry)
        harness.server._draining = True
        try:
            status, headers, payload = harness.request_full(
                "POST", "/v1/oahu/journey", {"source": 0, "target": 5}
            )
            assert status == 503
            assert payload["error"]["code"] == "draining"
            # Draining rejections advertise the same backoff hint.
            assert headers.get("retry-after") == "1"
            # Delay swaps obey the same gate: no new replans mid-drain.
            status, payload = harness.request(
                "POST",
                "/v1/datasets/oahu/delays",
                {"delays": [{"train": 0, "minutes": 5}]},
            )
            assert status == 503
            assert payload["error"]["code"] == "draining"
            health = harness.request("GET", "/healthz")
            assert health[0] == 200 and health[1]["status"] == "draining"
        finally:
            harness.server._draining = False
            harness.close()

    def test_shutdown_is_not_stalled_by_idle_keepalive_connections(
        self, make_service
    ):
        """An idle keep-alive client parks its handler in a read that
        would never return; shutdown must close it and complete anyway
        (harness.close() enforces a 30 s deadline)."""
        import http.client

        registry = DatasetRegistry.from_services({"oahu": make_service()})
        harness = ServerHarness(registry)
        conn = http.client.HTTPConnection("127.0.0.1", harness.port)
        try:
            conn.request(
                "POST",
                "/v1/oahu/journey",
                body='{"source": 0, "target": 5}',
            )
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            # The connection is now idle (keep-alive, no new request).
            t0 = time.perf_counter()
            harness.close()
            assert time.perf_counter() - t0 < 10.0
        finally:
            conn.close()

    def test_oversized_body_gets_413(self, make_service):
        registry = DatasetRegistry.from_services({"oahu": make_service()})
        harness = ServerHarness(registry)
        try:
            import http.client

            from repro.server import MAX_BODY_BYTES

            conn = http.client.HTTPConnection("127.0.0.1", harness.port)
            # Declare an over-cap body; the server must answer 413
            # without reading it off the socket.
            conn.putrequest("POST", "/v1/oahu/journey")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            conn.send(b"x" * 1024)  # a taste, not the whole body
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            assert response.status == 413
            assert payload["error"]["code"] == "payload_too_large"
        finally:
            harness.close()


class TestHttpErrors:
    def test_malformed_json_is_400(self, harness):
        status, payload = harness.request(
            "POST", "/v1/oahu/journey", "{not json"
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_json"

    @pytest.mark.parametrize(
        "body, code",
        [
            pytest.param(
                b'{"source": NaN, "target": 1}', "invalid_json", id="nan"
            ),
            pytest.param(
                b'{"source": 123456789012345678901234567890, "target": 1}',
                "invalid_type",
                id="30-digit-int",
            ),
            pytest.param(
                b'{"v": 123456789012345678901234567890, "source": 0, '
                b'"target": 1}',
                "invalid_request",
                id="30-digit-version",
            ),
            pytest.param(
                b'{"source": 1e999, "target": 1}', "invalid_json", id="1e999"
            ),
            pytest.param(
                b'{"source": "\\ud800", "target": 1}',
                "invalid_json",
                id="lone-surrogate",
            ),
            pytest.param(
                b'{"\\ud800": 1, "source": 0, "target": 1}',
                "invalid_json",
                id="lone-surrogate-key",
            ),
            pytest.param(
                b'{"source": 0, "target": 1, "x": "\xff\xfe"}',
                "invalid_json",
                id="not-utf8",
            ),
            pytest.param(
                b'{"source": 0, "target": 1} x', "invalid_json", id="trailing"
            ),
        ],
    )
    def test_bodies_json_parsers_disagree_on_are_typed_400s(
        self, harness, body, code
    ):
        """JSON parsers differ at these edges (non-finite numbers,
        integers past 64 bits, lone surrogates, bad UTF-8, trailing
        text): each is refused with a named code, never a 500 or a
        hang."""
        status, payload = harness.request(
            "POST", "/v1/oahu/journey", body, timeout=10
        )
        assert status == 400
        assert payload["error"]["code"] == code

    def test_unknown_dataset_is_404(self, harness):
        status, payload = harness.request(
            "POST", "/v1/nowhere/journey", {"source": 0, "target": 1}
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown_dataset"
        assert "oahu" in payload["error"]["message"]

    def test_unknown_route_is_404(self, harness):
        status, payload = harness.request("GET", "/v2/oahu/journey")
        assert status == 404
        assert payload["error"]["code"] == "unknown_route"

    def test_wrong_method_is_405(self, harness):
        status, payload = harness.request("POST", "/healthz", {})
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    def test_wrong_protocol_version_is_rejected(self, harness):
        status, payload = harness.request(
            "POST", "/v1/oahu/journey", {"v": 99, "source": 0, "target": 1}
        )
        assert status == 400
        assert payload["error"]["code"] == "unsupported_version"

    def test_listing_and_health(self, harness):
        status, health = harness.request("GET", "/healthz")
        assert status == 200
        assert health == {
            "v": 2,
            "status": "ok",
            "ready": True,
            "datasets": ["oahu"],
            "generations": {"oahu": 0},
        }
        listed = harness.request("GET", "/v1/datasets")[1]["datasets"]
        assert listed[0]["name"] == "oahu"
        assert listed[0]["stations"] == NUM_STATIONS
        assert listed[0]["has_distance_table"] is True

    def test_metrics_counts_traffic(self, harness):
        harness.request("POST", "/v1/oahu/journey", {"source": 0, "target": 5})
        metrics = harness.request("GET", "/metrics")[1]
        label = "POST /v1/{name}/journey"
        assert metrics["requests_total"][label] == 1
        assert metrics["responses_total"][label]["200"] == 1
        assert metrics["latency"][label]["count"] == 1

    def test_metrics_keep_the_key_the_benchmark_indexes(self, harness):
        """``e2ebench/run.py`` reads ``micro_batching.mean_batch_size``
        unconditionally; nothing is grouped, so it is ``null``."""
        metrics = harness.request("GET", "/metrics")[1]
        assert metrics["micro_batching"] == {"mean_batch_size": None}

    def test_metrics_count_observed_client_retries(self, harness):
        """Requests that declare themselves retries (X-Retry-Attempt,
        as sent by repro.client's 503 backoff) feed the
        retries_observed_total counter; first attempts don't."""
        body = {"source": 0, "target": 5}
        harness.request_full("POST", "/v1/oahu/journey", body)
        assert (
            harness.request("GET", "/metrics")[1]["retries_observed_total"]
            == 0
        )
        harness.request_full(
            "POST",
            "/v1/oahu/journey",
            body,
            headers={"X-Retry-Attempt": "1"},
        )
        harness.request_full(
            "POST",
            "/v1/oahu/journey",
            body,
            headers={"X-Retry-Attempt": "2"},
        )
        # Malformed attempt counts are ignored, not 500s.
        status, _, _ = harness.request_full(
            "POST",
            "/v1/oahu/journey",
            body,
            headers={"X-Retry-Attempt": "not-a-number"},
        )
        assert status == 200
        metrics = harness.request("GET", "/metrics")[1]
        assert metrics["retries_observed_total"] == 2
