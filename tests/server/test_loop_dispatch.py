"""A search request goes from the event loop to a search worker with no
thread in between (``TransitService.submit`` over
``repro.core.fanout.ForkPool.submit``): nothing is scheduled on a
clock, a held request holds up no other, what takes no search is
answered on the spot, a failure stays with its request, an answered
generation can go — and ``serve`` starts no thread for any of it."""

from __future__ import annotations

import asyncio
import gc
import os
import signal
import threading
import weakref

import pytest

from repro.core.fanout import ForkPool
from repro.server import DatasetRegistry, TransitServer
from repro.server.protocol import encode_journey, encode_multicriteria
from repro.service.shapes import (
    JOURNEY,
    MULTICRITERIA,
    PROFILE,
    SHAPES,
    as_request,
)

from tests.helpers import child_alive, scrubbed_payload
from tests.server.harness import ServerHarness, wait_until

#: One request of each shape, as ``as_request`` arguments.
ARGS = {
    "profile": (3,),
    "journey": (0, 5),
    "batch": ([(0, 5), (7, 2)],),
    "multicriteria": (2, 5, 480),
    "via": (2, 5, 7, 480),
    "min_transfers": (2, 5, 480),
}


def on_a_loop(scenario, *args):
    """Run ``scenario(*args)`` on a fresh event loop, within 30 s."""
    return asyncio.run(asyncio.wait_for(scenario(*args), timeout=30))


@pytest.fixture()
def served(make_service):
    """A service with two search workers, as ``serve`` starts it."""
    service = make_service()
    service.start_workers(2)
    yield service
    service.stop_workers()


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.name)
def test_submit_schedules_no_timer(shape, served, monkeypatch):
    async def scenario():
        loop = asyncio.get_running_loop()
        timers = []
        for name in ("call_later", "call_at"):
            monkeypatch.setattr(loop, name, lambda *a, **k: timers.append(a))
        request = as_request(shape, *ARGS[shape.name])
        return await served.submit(shape, request), timers

    answer, timers = on_a_loop(scenario)
    assert timers == []
    assert answer.stats is not None


def test_a_held_request_blocks_no_other(served, make_service):
    """A journey is held inside a stopped worker; a second journey and
    a request of another shape are answered by the other one
    meanwhile, and the held journey when its worker goes on."""
    pool = served._workers
    stopped = pool._idle[0]  # the child the next job is handed
    twin = make_service()

    async def scenario():
        os.kill(stopped.pid, signal.SIGSTOP)
        try:
            held = asyncio.ensure_future(
                served.submit(JOURNEY, as_request(JOURNEY, 0, 5))
            )
            await asyncio.sleep(0.05)
            others = await asyncio.gather(
                served.submit(JOURNEY, as_request(JOURNEY, 1, 6)),
                served.submit(MULTICRITERIA, as_request(MULTICRITERIA, 2, 5, 480)),
            )
            assert not held.done()
        finally:
            os.kill(stopped.pid, signal.SIGCONT)
        return others, await held

    (journey, front), held = on_a_loop(scenario)
    assert scrubbed_payload(encode_journey(journey)) == scrubbed_payload(
        encode_journey(twin.journey(1, 6))
    )
    assert scrubbed_payload(encode_multicriteria(front)) == scrubbed_payload(
        encode_multicriteria(twin.multicriteria(2, 5, departure=480))
    )
    assert scrubbed_payload(encode_journey(held)) == scrubbed_payload(
        encode_journey(twin.journey(0, 5))
    )


def test_a_lookup_needs_no_worker_and_no_hand_off(make_service, monkeypatch):
    """With every worker stopped, and neither a submitted job nor a
    thread allowed, a journey between two transfer stations and a
    repeated one are answered by ``lookup`` on the loop."""
    service = make_service()
    a, b = (int(s) for s in service.table.transfer_stations[:2])
    outside = next(s for s in range(12) if not service.table.contains(s))
    searched = {"source": outside, "target": a}
    harness = ServerHarness(DatasetRegistry.from_services({"oahu": service}))
    pids = [child.pid for child in service._workers._children]
    try:
        assert harness.request("POST", "/v1/oahu/journey", searched)[0] == 200

        def handed_off(*args, **kwargs):
            raise AssertionError("a lookup was handed off")

        monkeypatch.setattr(ForkPool, "submit", handed_off)
        monkeypatch.setattr(asyncio, "to_thread", handed_off)
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        table = harness.request(
            "POST", "/v1/oahu/journey", {"source": a, "target": b}, timeout=10
        )
        cached = harness.request("POST", "/v1/oahu/journey", searched, timeout=10)
        assert table[0] == 200 and table[1]["stats"]["classification"] == "table"
        assert cached[0] == 200 and cached[1]["stats"]["cache_hit"]
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGCONT)
        harness.close()


def test_a_failure_touches_only_its_own_request(served, make_service):
    """A multicriteria request whose target is no station fails in its
    worker; the requests submitted beside it are answered, and no
    worker is lost over it."""
    twin = make_service()
    not_a_station = twin.prepared.counts.stations

    async def scenario():
        return await asyncio.gather(
            served.submit(JOURNEY, as_request(JOURNEY, 0, 5)),
            served.submit(
                MULTICRITERIA,
                as_request(MULTICRITERIA, 2, not_a_station, 480),
            ),
            served.submit(JOURNEY, as_request(JOURNEY, 7, 2)),
            return_exceptions=True,
        )

    first, failed, last = on_a_loop(scenario)
    assert isinstance(failed, ValueError)
    assert "not a station" in str(failed)
    assert first.profile == twin.journey(0, 5).profile
    assert last.profile == twin.journey(7, 2).profile
    assert served.worker_stats == (2, 0)


def test_an_answered_service_is_collectable(make_service):
    """After a hot swap the old generation is referenced only by its
    in-flight requests: once they are answered nothing of the dispatch
    holds it, and its workers go with it."""
    service = make_service()
    service.start_workers(2)
    pids = [child.pid for child in service._workers._children]
    ref = weakref.ref(service)

    async def scenario(service):
        return await asyncio.gather(
            service.submit(JOURNEY, as_request(JOURNEY, 0, 5)),
            service.submit(PROFILE, as_request(PROFILE, 3)),
        )

    on_a_loop(scenario, service)
    del service
    gc.collect()
    assert ref() is None
    wait_until(
        lambda: not any(map(child_alive, pids)), what="the workers to exit"
    )


def test_a_server_needs_a_worker(make_service):
    registry = DatasetRegistry.from_services({"oahu": make_service()})
    with pytest.raises(ValueError, match="at least one worker"):
        TransitServer(registry, workers=0)


def test_searches_start_no_thread_in_serve(make_service):
    """Sixty requests of every shape that each need a search leave the
    serving process with the threads it had: the loop waits for the
    workers itself."""
    service = make_service()
    harness = ServerHarness(DatasetRegistry.from_services({"oahu": service}))
    try:
        assert harness.request(
            "POST", "/v1/oahu/journey", {"source": 0, "target": 5}
        )[0] == 200
        before = set(threading.enumerate())
        misses = service.cache_stats.misses
        bodies = [
            ("journey", {"source": s, "target": (s + k) % 12})
            for s in range(12)
            for k in (1, 4, 7)
        ] + [
            ("profile", {"source": s, "num_threads": 2}) for s in range(8)
        ] + [
            (route, {"source": s, "target": (s + 3) % 12, "departure": 480})
            for route in ("multicriteria", "min-transfers")
            for s in range(6)
        ] + [
            ("batch", {"journeys": [{"source": s, "target": (s + 2) % 12}]})
            for s in range(4)
        ]
        for route, body in bodies:
            assert harness.request("POST", f"/v1/oahu/{route}", body)[0] == 200
        started = set(threading.enumerate()) - before
        assert not started, f"serving started {sorted(t.name for t in started)}"
        assert service.cache_stats.misses - misses >= 40
    finally:
        harness.close()
