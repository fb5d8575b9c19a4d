"""The searches of a served dataset run in its generation's search
workers — processes forked from the generation
(``TransitService.start_workers``, ``repro.core.fanout.ForkPool``) —
and nothing about the answers, the cache accounting, the swap protocol
or the drain can tell.

The transport-parity suite (``tests/client/test_transport_parity.py``)
and the rest of this directory already run through the workers, since
``TransitServer.start`` forks them for every dataset; what is pinned
here is that they do, and what only workers can get wrong: who retires
them, what a dead one costs, and what ``/metrics`` still counts.
"""

from __future__ import annotations

import json
import os
import signal
import threading

import numpy as np
import pytest

from repro.client import HttpBackend, LocalBackend, RetryPolicy
from repro.core.fanout import usable_cores
from repro.server import DatasetRegistry
from repro.server.protocol import encode_batch, encode_journey, encode_profile
from repro.service import (
    BatchRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
)
from repro.timetable.delays import Delay

from tests.helpers import child_alive, scrubbed, scrubbed_payload
from tests.server.harness import GatedService, ServerHarness, wait_until

DELAYS = {"delays": [{"train": 0, "minutes": 45}], "slack_per_leg": 0}


def worker_pids(service) -> list[int]:
    return [child.pid for child in service._workers._children]


def search_workers(harness) -> dict:
    return harness.request("GET", "/metrics")[1]["search_workers"]


def test_start_forks_workers_for_threads_that_have_a_core(make_service):
    """``workers`` stays "searches that may run at once"; the processes
    number what of that the cores can run, per dataset."""
    services = {"a": make_service(), "b": make_service()}
    assert services["a"].worker_stats == (0, 0)  # not by the constructor
    harness = ServerHarness(DatasetRegistry.from_services(services), workers=3)
    try:
        each = min(3, usable_cores())
        assert search_workers(harness) == {
            "processes": 2 * each, "replaced_total": 0,
        }
        pids = [pid for s in services.values() for pid in worker_pids(s)]
        assert len(set(pids)) == 2 * each and all(map(child_alive, pids))
    finally:
        harness.close()
    # Stopped after the drain, and reaped.
    assert not any(map(child_alive, pids))
    assert all(s.worker_stats == (0, 0) for s in services.values())


#: One call per shape (journeys with and without legs, profiles merged
#: from two partitions and from one), as the parity suite makes them.
CALLS = (
    lambda b: b.profile(3),
    lambda b: b.profile(ProfileRequest(4, num_threads=1), targets=[0, 7]),
    lambda b: b.journey(0, 5),
    lambda b: b.journey(2, 9, departure=480),
    lambda b: b.batch([(0, 5), (7, 2), (4, 11)]),
    lambda b: b.multicriteria(2, 5, departure=480),
    lambda b: b.via(2, 5, 7, departure=480),
    lambda b: b.min_transfers(2, 5, departure=480),
)


@pytest.mark.parametrize("with_table", (True, False), ids=["table", "plain"])
def test_every_search_of_every_shape_runs_in_a_worker(
    oahu_tiny, monkeypatch, with_table
):
    """Once the server is up, every search — the SPCS kernel and the
    fixed-departure search every dated answer and its legs come from —
    is poisoned *in this process*: the workers, forked before, still
    have them.  All six shapes are answered, and as an in-process
    backend answered them before the poison."""
    config = ServiceConfig(
        num_threads=2, use_distance_table=with_table, transfer_fraction=0.25
    )
    local = LocalBackend(TransitService(oahu_tiny, config), name="oahu")
    expected = [scrubbed(call(local)) for call in CALLS]
    served = TransitService(oahu_tiny, config)
    harness = ServerHarness(DatasetRegistry.from_services({"oahu": served}))
    try:

        def poisoned(*args, **kwargs):
            raise AssertionError("a search ran in the server process")

        monkeypatch.setattr("repro.core.spcs_kernel.spcs_kernel_search", poisoned)
        monkeypatch.setattr("repro.service.facade.mc_time_search", poisoned)
        with pytest.raises(AssertionError, match="in the server process"):
            TransitService(oahu_tiny, config).journey(0, 5)  # it is live
        with HttpBackend(
            f"http://127.0.0.1:{harness.port}", dataset="oahu"
        ) as remote:
            assert [scrubbed(call(remote)) for call in CALLS] == expected
            # Asked again, they come from the parent's result cache.
            assert all(call(remote).stats.cache_hit for call in CALLS[:4])
        assert search_workers(harness)["processes"] >= 1
        assert served.cache_stats.misses == len(CALLS)
    finally:
        harness.close()


def test_a_profile_crosses_the_pipe_as_station_rows(oahu_tiny):
    """Each subset's search sends back its station rows only, so a
    profile from the search workers — asked alone or as a batch item —
    is the in-process answer label for label and byte for byte on the
    wire, and what the result cache keeps is ``num_stations ×
    |conn(S)|``."""
    config = ServiceConfig(num_threads=2)
    local = TransitService(oahu_tiny, config)
    served = TransitService(oahu_tiny, config)
    served.start_workers(2)
    n = oahu_tiny.num_stations
    try:
        for source in (0, 3, 8):
            request = ProfileRequest(source, num_threads=2)
            want = local.profile(request)
            got = served.profile(request)
            (item,) = served.batch(BatchRequest(profiles=(request,))).profiles
            shape = (n, want.raw.merged.conn_deps.size)
            for result in (want, got, item, served._result_cache.peek(request)):
                assert result.raw.merged.labels.shape == shape
                assert np.array_equal(
                    result.raw.merged.labels, want.raw.merged.labels
                )
                assert result.stats.settled_connections == (
                    want.stats.settled_connections
                )
                assert json.dumps(
                    encode_profile(result, num_stations=n)["profiles"]
                ) == json.dumps(encode_profile(want, num_stations=n)["profiles"])
    finally:
        served.stop_workers()


def test_result_cache_counts_one_hit_or_miss_per_request(harness):
    """The searches left the process, the accounting did not: every
    answered query is one hit or one miss of its dataset's cache —
    what a worker looks up in its own cache on the way (the shared
    multi-criteria search) is not the server's."""
    script = [
        ("profile", {"source": 3}),
        ("journey", {"source": 0, "target": 5}),
        ("journey", {"source": 0, "target": 5}),
        ("journey", {"source": 2, "target": 9, "departure": 480}),
        ("batch", {"journeys": [{"source": 0, "target": 5}]}),
        ("multicriteria", {"source": 2, "target": 5, "departure": 480}),
        ("min-transfers", {"source": 2, "target": 5, "departure": 480}),
        ("via", {"source": 2, "via": 5, "target": 7, "departure": 480}),
        ("via", {"source": 2, "via": 5, "target": 7, "departure": 480}),
        ("profile", {"source": 3}),
    ]
    for route, body in script:
        assert harness.request("POST", f"/v1/oahu/{route}", body)[0] == 200
    cache = harness.request("GET", "/metrics")[1]["datasets"]["oahu"][
        "result_cache"
    ]
    assert (cache["hits"], cache["misses"]) == (3, 7)
    assert cache["hits"] + cache["misses"] == len(script)


def test_hot_pairs_hit_eleven_times_in_twelve(harness):
    """The ``delay_replay`` shape of traffic: twelve rounds over the
    same pairs after a swap.  The first round searches (in a worker),
    the other eleven are cache hits given on the loop."""
    assert harness.request("POST", "/v1/datasets/oahu/delays", DELAYS)[0] == 200
    pairs = [(s, (s + 5) % 12) for s in range(6)]
    flags = [
        harness.request(
            "POST", "/v1/oahu/journey", {"source": s, "target": t}
        )[1]["stats"]["cache_hit"]
        for _ in range(12)
        for s, t in pairs
    ]
    assert flags == [False] * 6 + [True] * 66
    cache = harness.request("GET", "/metrics")[1]["datasets"]["oahu"][
        "result_cache"
    ]
    assert (cache["hits"], cache["misses"]) == (66, 6)


def test_what_takes_no_search_takes_no_worker(make_service):
    """With every worker stopped, a journey between two transfer
    stations and a repeated one are still answered — on the loop, by
    ``lookup``, as before there were workers."""
    service = make_service()
    a, b = (int(s) for s in service.table.transfer_stations[:2])
    outside = next(s for s in range(12) if not service.table.contains(s))
    harness = ServerHarness(DatasetRegistry.from_services({"oahu": service}))
    searched = {"source": outside, "target": a}
    try:
        assert harness.request("POST", "/v1/oahu/journey", searched)[0] == 200
        for pid in worker_pids(service):
            os.kill(pid, signal.SIGSTOP)
        table = harness.request(
            "POST", "/v1/oahu/journey", {"source": a, "target": b}, timeout=10
        )
        cached = harness.request(
            "POST", "/v1/oahu/journey", searched, timeout=10
        )
        assert table[0] == 200
        assert table[1]["stats"]["classification"] == "table"
        assert cached[0] == 200 and cached[1]["stats"]["cache_hit"]
    finally:
        for pid in worker_pids(service):
            os.kill(pid, signal.SIGCONT)
        harness.close()


class TestRetirement:
    def test_a_swap_retires_the_old_generations_workers(self, make_service):
        service = make_service()
        registry = DatasetRegistry.from_services({"oahu": service})
        harness = ServerHarness(registry)
        try:
            old = worker_pids(service)
            assert old and all(map(child_alive, old))
            del service  # the registry's reference is the last one
            assert harness.request(
                "POST", "/v1/datasets/oahu/delays", DELAYS
            )[0] == 200
            # Nothing was in flight: gone with the swap that dropped it.
            wait_until(
                lambda: not any(map(child_alive, old)),
                what="the old generation's workers to exit",
            )
            new = worker_pids(registry.get("oahu").service)
            assert len(new) == len(old) and not set(new) & set(old)
            assert search_workers(harness) == {
                "processes": len(new), "replaced_total": 0,
            }
            answer = harness.request(
                "POST", "/v1/oahu/journey", {"source": 2, "target": 5}
            )
            assert answer[0] == 200 and all(map(child_alive, new))
        finally:
            harness.close()
        assert not any(map(child_alive, new))

    def test_a_request_admitted_before_a_swap_is_answered_by_its_generation(
        self, make_service
    ):
        """Held at the gate while the swap lands; released, it searches
        in the workers of the generation it was admitted under — kept
        alive by nothing but this request — and they go when it has
        its answer."""
        service = make_service()
        gated = GatedService(service)
        registry = DatasetRegistry.from_services({"oahu": gated})
        harness = ServerHarness(registry)
        try:
            old = worker_pids(service)
            results: list = []
            held = threading.Thread(
                target=lambda: results.append(
                    harness.request(
                        "POST", "/v1/oahu/journey", {"source": 2, "target": 5}
                    )
                )
            )
            held.start()
            wait_until(lambda: gated.entered, what="the held journey")
            assert harness.request(
                "POST", "/v1/datasets/oahu/delays", DELAYS
            )[0] == 200
            after = harness.request(
                "POST", "/v1/oahu/journey", {"source": 2, "target": 5}
            )[1]
            assert all(map(child_alive, old))  # the held request's
            gated.release()
            held.join(timeout=30)
            (status, before), = results
            assert status == 200
            twin = make_service()
            assert scrubbed_payload(before) == scrubbed_payload(
                encode_journey(twin.journey(2, 5))
            )
            delayed = twin.apply_delays([Delay(train=0, minutes=45)])
            assert scrubbed_payload(after) == scrubbed_payload(
                encode_journey(delayed.journey(2, 5))
            )
            assert before["profile"] != after["profile"]
            service = gated = None  # this test's were the last references
            wait_until(
                lambda: not any(map(child_alive, old)),
                what="the old generation's workers to exit",
            )
        finally:
            if gated is not None:
                gated.release()
            harness.close()


class TestWorkerLoss:
    @pytest.mark.parametrize(
        ("route", "body", "direct"),
        [
            (
                "journey",
                {"source": 0, "target": 5},
                lambda s: encode_journey(s.journey(0, 5)),
            ),
            (
                "batch",
                {"journeys": [{"source": 0, "target": 5}, {"source": 7, "target": 2}]},
                lambda s: encode_batch(s.batch([(0, 5), (7, 2)]), num_stations=12),
            ),
        ],
        ids=["journey", "batch"],
    )
    def test_a_dead_worker_costs_one_retriable_503(
        self, make_service, route, body, direct
    ):
        """The one worker is stopped, so the journey sent next — or the
        first item of the batch — is in it when it is killed.  That
        request — no other — is answered 503 ``worker_lost`` with a
        retry hint; the retry meets the replacement, forked from the
        live generation."""
        service = make_service()
        harness = ServerHarness(
            DatasetRegistry.from_services({"oahu": service}), workers=1
        )
        try:
            (victim,) = worker_pids(service)
            os.kill(victim, signal.SIGSTOP)
            results: list = []
            lost = threading.Thread(
                target=lambda: results.append(
                    harness.request_full("POST", f"/v1/oahu/{route}", body)
                )
            )
            lost.start()
            wait_until(
                lambda: harness.server.metrics.inflight, what=f"the {route}"
            )
            os.kill(victim, signal.SIGKILL)
            lost.join(timeout=30)
            (status, headers, payload), = results
            assert status == 503
            assert payload["error"]["code"] == "worker_lost"
            assert payload["error"]["retriable"] is True
            assert float(headers["retry-after"]) >= 0
            assert str(victim) in payload["error"]["message"]

            # Searched again, not cached: the in-process answer says
            # cache_hit false wherever the shape has the flag.
            retry = harness.request("POST", f"/v1/oahu/{route}", body)
            assert retry[0] == 200
            assert scrubbed_payload(retry[1]) == scrubbed_payload(
                direct(make_service())
            )
            (replacement,) = worker_pids(service)
            assert replacement != victim and child_alive(replacement)
            assert search_workers(harness) == {
                "processes": 1, "replaced_total": 1,
            }
        finally:
            harness.close()

    def test_the_sdk_retries_it_away(self, make_service):
        service = make_service()
        harness = ServerHarness(
            DatasetRegistry.from_services({"oahu": service}),
            workers=1,
            retry_after=0.01,
        )
        try:
            (victim,) = worker_pids(service)
            os.kill(victim, signal.SIGKILL)
            with HttpBackend(
                f"http://127.0.0.1:{harness.port}",
                dataset="oahu",
                retry=RetryPolicy(retries=2, backoff=0.01),
            ) as backend:
                assert backend.journey(0, 5).profile
            assert search_workers(harness)["replaced_total"] == 1
        finally:
            harness.close()
