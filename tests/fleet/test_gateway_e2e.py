"""Gateway end-to-end: routing, passthrough identity, load spreading,
fleet metrics, and protocol-error parity — against real worker
processes."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.client import LocalBackend, connect
from repro.service.shapes import SHAPES
from tests.helpers import scrubbed
from tests.fleet.harness import FleetHarness, http_json


@pytest.fixture(scope="module")
def fleet(fleet_store, tmp_path_factory):
    f = FleetHarness(
        [fleet_store], 2, runtime_dir=tmp_path_factory.mktemp("gw-e2e")
    )
    yield f
    f.close()


class TestGatewayBasics:
    def test_healthz(self, fleet):
        status, health = fleet.request("GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok" and health["ready"] is True
        assert health["role"] == "gateway"
        assert health["datasets"] == ["oahu"]
        workers = health["workers"]
        assert sorted(workers) == ["w0", "w1"]
        assert all(w["state"] == "healthy" for w in workers.values())

    def test_all_three_query_shapes(self, fleet):
        status, journey = fleet.request(
            "POST", "/v1/oahu/journey",
            {"source": 0, "target": 5, "departure": 480},
        )
        assert status == 200 and journey["kind"] == "journey"
        status, profile = fleet.request(
            "POST", "/v1/oahu/profile", {"source": 1}
        )
        assert status == 200 and profile["kind"] == "profile"
        status, batch = fleet.request(
            "POST", "/v1/oahu/batch",
            {"journeys": [{"source": 2, "target": 7}]},
        )
        assert status == 200 and len(batch["journeys"]) == 1

    def test_datasets_listing_proxied(self, fleet):
        status, listing = fleet.request("GET", "/v1/datasets")
        assert status == 200
        assert [d["name"] for d in listing["datasets"]] == ["oahu"]

    def test_round_robin_spreads_load(self, fleet):
        for i in range(8):
            status, _ = fleet.request(
                "POST", "/v1/oahu/journey",
                {"source": i, "target": (i + 5) % 12},
            )
            assert status == 200
        _, metrics = fleet.request("GET", "/metrics")
        forwards = metrics["gateway"]["forwards_total"]
        assert forwards.get("w0", 0) > 0 and forwards.get("w1", 0) > 0

    def test_metrics_sections_and_fleet_aggregate(self, fleet):
        status, metrics = fleet.request("GET", "/metrics")
        assert status == 200
        assert set(metrics) >= {"v", "gateway", "workers", "fleet"}
        fleet_section = metrics["fleet"]
        assert fleet_section["workers_reporting"] == 2
        workers = metrics["workers"]
        total = sum(
            (snap or {}).get("requests_total", {}).get(
                "POST /v1/{name}/journey", 0
            )
            for snap in workers.values()
        )
        assert (
            fleet_section["requests_total"]["POST /v1/{name}/journey"]
            == total
        )


class TestProtocolParity:
    def test_unknown_dataset_is_the_workers_404(self, fleet):
        status, payload = fleet.request(
            "POST", "/v1/nope/journey", {"source": 0, "target": 1}
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown_dataset"

    def test_validation_errors_pass_through(self, fleet):
        status, payload = fleet.request(
            "POST", "/v1/oahu/journey", {"source": 10**9, "target": 1}
        )
        assert status == 400
        assert payload["error"]["code"] == "out_of_range"

    def test_gateway_owns_unknown_routes_and_methods(self, fleet):
        status, payload = fleet.request("GET", "/v1/oahu/journey")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        status, payload = fleet.request("POST", "/nope", {})
        assert status == 404
        assert payload["error"]["code"] == "unknown_route"

    def test_malformed_requests_answer_like_a_worker(self, fleet):
        """Every error the gateway answers itself is the bytes a worker
        answers: a wrong method on each route, an empty, invalid or
        non-object delay body — non-finite numbers, a lone surrogate,
        bad UTF-8 and trailing text among them —, an unknown route."""
        delays = "/v1/datasets/oahu/delays"
        table = [
            ("POST", "/healthz", None),
            ("POST", "/metrics", None),
            ("POST", "/v1/datasets", None),
            ("GET", delays, None),
            *(("GET", f"/v1/oahu/{shape.route}", None) for shape in SHAPES),
            ("POST", delays, b""),
            ("POST", delays, b"{"),
            ("POST", delays, b"[1]"),
            ("POST", delays, b'{"delays": [], "slack_per_leg": NaN}'),
            ("POST", delays, b'{"delays": [], "slack_per_leg": 1e999}'),
            ("POST", delays, b'{"\\ud800": 1}'),
            ("POST", delays, b'{"delays": "\xff"}'),
            ("POST", delays, b'{"delays": []} x'),
            ("GET", "/nope", None),
            ("POST", "/v1/oahu/teleport", b"{}"),
        ]
        worker = fleet.worker_ports()["w0"]
        for method, path, body in table:
            assert _raw(fleet.port, method, path, body) == _raw(
                worker, method, path, body
            ), (method, path, body)

    def test_delay_body_validation_at_gateway(self, fleet):
        status, payload = fleet.request(
            "POST", "/v1/datasets/oahu/delays", None
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        # A mode other than apply gets the workers' own 400.
        status, payload = fleet.request(
            "POST", "/v1/datasets/oahu/delays",
            {"mode": "commit", "token": 1},
        )
        assert status == 400
        assert payload == json.loads(http_json(
            fleet.worker_ports()["w0"], "POST", "/v1/datasets/oahu/delays",
            {"mode": "commit", "token": 1},
        )[1])

    def test_sdk_answers_match_local_backend(self, fleet, twin_service):
        """The client SDK over the gateway behaves exactly like an
        in-process service from the same store (wall-clock scrubbed;
        fresh station pairs so every cache involved is cold)."""
        remote = connect(f"http://127.0.0.1:{fleet.port}")
        local = LocalBackend(twin_service, name="oahu")
        try:
            for call in (
                lambda b: b.journey(6, 1, departure=300),
                lambda b: b.profile(7, targets=[2, 3]),
                lambda b: b.batch([(8, 0), (9, 2)]),
            ):
                assert scrubbed(call(remote)) == scrubbed(call(local))
            # info(): identical modulo provenance — workers report the
            # store path, the in-process twin reports "memory".
            remote_info = scrubbed(remote.info())
            local_info = scrubbed(local.info())
            remote_info.pop("source"), local_info.pop("source")
            assert remote_info == local_info
        finally:
            remote.close()
            local.close()


class TestBitwisePassthrough:
    def test_gateway_bytes_equal_worker_bytes(
        self, fleet_store, tmp_path_factory
    ):
        """The acceptance bar: the gateway answer *is* the worker's
        answer — provable to the byte with a single worker once its
        result cache is warm (a cached journey/profile re-encodes
        identically, timings included).  Batch answers carry per-run
        wall clock at the top level, so the batch shape is compared
        with clock fields scrubbed — same passthrough code path."""
        fleet = FleetHarness(
            [fleet_store],
            1,
            runtime_dir=tmp_path_factory.mktemp("gw-bitwise"),
        )

        def _scrub_clock(obj):
            if isinstance(obj, dict):
                return {
                    key: 0.0
                    if key.endswith("_seconds")
                    else _scrub_clock(value)
                    for key, value in obj.items()
                }
            if isinstance(obj, list):
                return [_scrub_clock(item) for item in obj]
            return obj

        try:
            worker_port = fleet.worker_ports()["w0"]
            for path, body in (
                ("/v1/oahu/journey", {"source": 3, "target": 9}),
                ("/v1/oahu/profile", {"source": 4, "targets": [8, 9]}),
            ):
                # Warm the worker's result cache so re-answers are
                # deterministic to the byte.
                status, _ = http_json(worker_port, "POST", path, body)
                assert status == 200
                _, direct = http_json(worker_port, "POST", path, body)
                _, via_gateway = http_json(fleet.port, "POST", path, body)
                assert via_gateway == direct, path
                assert json.loads(via_gateway)["stats"]["cache_hit"] is True
            batch = {"journeys": [{"source": 5, "target": 11}]}
            status, _ = http_json(
                worker_port, "POST", "/v1/oahu/batch", batch
            )
            assert status == 200
            _, direct = http_json(worker_port, "POST", "/v1/oahu/batch", batch)
            _, via_gateway = http_json(fleet.port, "POST", "/v1/oahu/batch", batch)
            assert _scrub_clock(json.loads(via_gateway)) == _scrub_clock(
                json.loads(direct)
            )
        finally:
            fleet.close()


def _raw(port: int, method: str, path: str, body: bytes | None):
    """``(status, raw body)`` of one request on a fresh connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()
