"""Generation routing: the fleet is linearizable in generation.

A delay post to the gateway is a plain ``apply`` sent to every worker
at once; each query answer names its generation (``X-Generation``),
and the gateway routes a dataset only to workers known at its routing
generation, which never goes down.  The property pinned here: once any
client has received an answer from generation k + 1, no request sent
after that is answered from generation k.

The seeded test runs three in-process servers behind a gateway, each
holding its replan for a seeded delay before it returns, under
closed-loop raw-HTTP clients, and checks every answer against the
in-process oracle of the generation its header names.
``scripts/ci.py swap-seeds`` runs :func:`run_seed` over 200 seeds.
"""

from __future__ import annotations

import asyncio
import bisect
import http.client
import json
import random
import threading
import time
from contextlib import contextmanager

import pytest

from repro.client import LocalBackend
from repro.client.results import decode_answer
from repro.fleet import FleetGateway, WorkerState
from repro.server import DatasetRegistry
from repro.service import ServiceConfig, TransitService
from repro.service.shapes import PROFILE
from repro.timetable.delays import Delay

from tests.helpers import scrubbed
from tests.server.harness import ServerHarness

DELAYS_PATH = "/v1/datasets/oahu/delays"
#: Station pairs the clients ask, as one-target profiles.
PAIRS = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
SWAPS = 3
#: No distance table: a replan is then a few milliseconds, and the
#: seeded holds decide how long a swap's window is.
CONFIG = ServiceConfig(num_threads=1)
#: The longest seeded hold of one worker's replan, in seconds.
MAX_HOLD = 0.1
#: A client's pause between an answer and its next request, in
#: seconds: the servers, the gateway and the clients share one GIL.
THINK = 0.003


class _HeldRegistry(DatasetRegistry):
    """A registry whose replans wait ``hold()`` before they return,
    inside the dataset's swap lock: the worker keeps serving the old
    generation until then."""

    def __init__(self, hold) -> None:
        super().__init__()
        self.hold = hold

    async def apply_delays(self, name, delays, *, run=None, **kwargs):
        async def held(build):
            new = await run(build)
            await self.hold()
            return new

        return await super().apply_delays(name, delays, run=held, **kwargs)


class _Fleet:
    """Three in-process servers over one service, behind a gateway on
    a loop thread of its own."""

    def __init__(self, service: TransitService, holds) -> None:
        self.workers: dict[str, ServerHarness] = {}
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="gateway-loop", daemon=True
        )
        self._thread.start()
        try:
            for i, hold in enumerate(holds):
                registry = _HeldRegistry(hold)
                registry.add("oahu", service)
                self.workers[f"w{i}"] = ServerHarness(registry, workers=1)
            self.gateway = FleetGateway(
                {
                    name: f"http://127.0.0.1:{harness.port}"
                    for name, harness in self.workers.items()
                },
                health_interval=0.05,
            )
            self.run(self.gateway.start())
            self.run(self.gateway.wait_ready(workers=len(holds)))
        except BaseException:
            self.close()
            raise

    @property
    def port(self) -> int:
        return self.gateway.port

    def run(self, coro, timeout: float = 30.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout
        )

    def committed(self) -> tuple[int, int]:
        """``(len(delay log), routing generation)`` of ``oahu``, read
        on the gateway's loop."""

        async def read() -> tuple[int, int]:
            async with self.gateway._swap_lock:
                log = self.gateway._delay_log.get("oahu", [])
                return len(log), self.gateway._routing.get("oahu", 0)

        return self.run(read())

    def close(self) -> None:
        if hasattr(self, "gateway"):
            self.run(self.gateway.shutdown())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        self.loop.close()
        for harness in self.workers.values():
            if not harness.server._draining:
                harness.close()


def _exchange(conn, method: str, path: str, body: dict | None):
    """``(status, headers, body bytes)`` of one request on ``conn``."""
    data = None if body is None else json.dumps(body)
    conn.request(method, path, body=data)
    response = conn.getresponse()
    raw = response.read()
    headers = {name.lower(): value for name, value in response.getheaders()}
    return response.status, headers, raw


def _post(port: int, path: str, body: dict, timeout: float = 60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        return _exchange(conn, "POST", path, body)
    finally:
        conn.close()


def _canon(answer):
    """An answer without wall clock or per-call ``stats``."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "stats"}
        if isinstance(obj, list):
            return [strip(item) for item in obj]
        return obj

    return strip(scrubbed(answer))


class _Oracle:
    """The in-process answers of each generation: generation g is the
    base service under the first g batches."""

    def __init__(self, service: TransitService) -> None:
        self._services = [service]
        self._answers: dict = {}

    def add(self, delays: list[Delay]) -> None:
        self._services.append(self._services[-1].apply_delays(delays))

    def answer(self, generation: int, pair: tuple[int, int]):
        key = (generation, pair)
        if key not in self._answers:
            backend = LocalBackend(self._services[generation], name="oahu")
            self._answers[key] = _canon(
                backend.profile(pair[0], targets=[pair[1]])
            )
        return self._answers[key]


def _client(port: int, slot: int, stop: threading.Event, record: list) -> None:
    """Ask profiles in a closed loop; record ``(sent, received, status,
    generation, pair, body)`` per request."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        i = 0
        while not stop.is_set():
            pair = PAIRS[(slot + i) % len(PAIRS)]
            sent = time.perf_counter()
            status, headers, raw = _exchange(
                conn,
                "POST",
                "/v1/oahu/profile",
                {"source": pair[0], "targets": [pair[1]]},
            )
            received = time.perf_counter()
            generation = headers.get("x-generation")
            record.append(
                (
                    sent,
                    received,
                    status,
                    None if generation is None else int(generation),
                    pair,
                    raw,
                )
            )
            i += 1
            time.sleep(THINK)
    finally:
        conn.close()


def run_seed(seed: int, timetable) -> int:
    """One seeded run over ``timetable``: ``SWAPS`` swaps posted to the
    gateway while two clients ask it; asserts (i)–(iv) of
    :func:`test_no_answer_goes_back_a_generation` and returns the
    number of answers checked."""
    rng = random.Random(seed)

    def seeded_hold():
        holds = [rng.uniform(0.0, MAX_HOLD) for _ in range(SWAPS)]

        async def hold() -> None:
            await asyncio.sleep(holds.pop(0) if holds else 0.0)

        return hold

    batches = [
        [
            Delay(train=rng.randrange(10), minutes=rng.randint(3, 15))
            for _ in range(rng.randint(1, 2))
        ]
        for _ in range(SWAPS)
    ]
    oracle = _Oracle(TransitService(timetable, CONFIG))
    fleet = _Fleet(
        TransitService(timetable, CONFIG), [seeded_hold() for _ in range(3)]
    )
    stop = threading.Event()
    records: list[list] = [[], []]
    clients = [
        threading.Thread(
            target=_client, args=(fleet.port, slot, stop, records[slot])
        )
        for slot in range(len(records))
    ]
    try:
        for thread in clients:
            thread.start()
        _wait(lambda: all(records), "every client's first answer")
        for generation, batch in enumerate(batches, start=1):
            time.sleep(rng.uniform(0.0, 0.05))
            status, _, raw = _post(
                fleet.port,
                DELAYS_PATH,
                {
                    "delays": [
                        {"train": d.train, "minutes": d.minutes} for d in batch
                    ]
                },
            )
            assert status == 200, raw
            assert json.loads(raw)["generation"] == generation
            oracle.add(batch)
            # (iv) the log and the routing generation agree.
            assert fleet.committed() == (generation, generation)
        _wait(
            lambda: all(record[-1][3] == SWAPS for record in records),
            "every client's answer from the last generation",
        )
    finally:
        stop.set()
        for thread in clients:
            thread.join(timeout=60)
        fleet.close()

    answers = [row for record in records for row in record]
    refused = [(row[2], row[5][:200]) for row in answers if row[2] != 200]
    assert not refused, refused
    # (i) each client's generations never decrease.
    for record in records:
        generations = [row[3] for row in record]
        assert generations == sorted(generations), generations
    # (ii) no answer from a generation older than one already received
    # when its request was sent.
    by_receipt = sorted((row[1], row[3]) for row in answers)
    receipts = [received for received, _ in by_receipt]
    newest_so_far = []
    for _, gen in by_receipt:
        newest_so_far.append(max([gen, *newest_so_far[-1:]]))
    for sent, _, _, gen, _, _ in answers:
        seen = bisect.bisect_left(receipts, sent)
        if seen:
            assert gen >= newest_so_far[seen - 1], (
                f"seed {seed}: a request sent after a generation "
                f"{newest_so_far[seen - 1]} answer was answered from {gen}"
            )
    # (iii) each answer is its generation's oracle answer: the first
    # of each (generation, pair) decoded, the rest equal to it but for
    # their stats.
    checked: dict = {}
    for _, _, _, gen, pair, raw in answers:
        payload = json.loads(raw)
        payload.pop("stats")
        if (gen, pair) not in checked:
            got = _canon(decode_answer(PROFILE, json.loads(raw)))
            assert got == oracle.answer(gen, pair), (seed, gen, pair)
            checked[gen, pair] = payload
        assert payload == checked[gen, pair], (seed, gen, pair)
    assert {row[3] for row in answers} >= {0, SWAPS}
    return len(answers)


def _wait(condition, what: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


@pytest.mark.parametrize("seed", range(3))
def test_no_answer_goes_back_a_generation(seed, oahu_tiny):
    """Under seeded replan holds and closed-loop clients: (i) each
    client's generations never decrease; (ii) no generation-k answer
    comes back for a request sent after a k + 1 answer was received;
    (iii) each answer is the in-process oracle's for the generation in
    its header; (iv) after each swap the delay log is as long as the
    routing generation."""
    assert run_seed(seed, oahu_tiny) > 0


@pytest.fixture()
def service(oahu_tiny):
    """A fresh generation 0: the servers fork its search workers and
    stop them when they close."""
    return TransitService(oahu_tiny, CONFIG)


def test_first_worker_dying_mid_swap_leaves_503s_not_old_answers(service):
    """(v) The first worker to swap is shut down while the others'
    replans are held: until they finish, every answer is from the new
    generation or a retriable 503 — never from the old one."""
    release = threading.Event()

    async def held() -> None:
        while not release.is_set():
            await asyncio.sleep(0.005)

    fleet = _Fleet(service, [_no_hold, held, held])
    swap: list = []
    poster = threading.Thread(
        target=lambda: swap.append(
            _post(
                fleet.port,
                DELAYS_PATH,
                {"delays": [{"train": 0, "minutes": 10}]},
            )
        )
    )
    conn = http.client.HTTPConnection("127.0.0.1", fleet.port, timeout=30)

    def ask():
        return _exchange(
            conn, "POST", "/v1/oahu/profile", {"source": 0, "targets": [5]}
        )

    try:
        poster.start()
        deadline = time.monotonic() + 30
        while True:
            status, headers, raw = ask()
            assert status == 200, raw
            if headers["x-generation"] == "1":
                break
            assert time.monotonic() < deadline, "w0 never answered from 1"
        fleet.workers["w0"].close()
        answers = []
        for _ in range(20):
            status, headers, raw = ask()
            answers.append((status, headers.get("x-generation"), raw))
        for status, generation, raw in answers:
            if status == 200:
                assert generation == "1", answers
            else:
                assert status == 503, answers
                assert json.loads(raw)["error"]["retriable"] is True
        assert any(status == 503 for status, _, _ in answers)
        release.set()
        poster.join(timeout=30)
        (status, _, raw), = swap
        assert status == 200, raw
        committed = json.loads(raw)["fleet"]["workers_committed"]
        assert committed == ["w0", "w1", "w2"]
        status, headers, _ = ask()
        assert (status, headers["x-generation"]) == (200, "1")
    finally:
        conn.close()
        release.set()
        poster.join(timeout=30)
        fleet.close()


def test_client_modes_and_generations(service):
    """The gateway refuses a client's ``generations`` (catch-up only)
    itself, and a client's ``prepare`` / ``commit`` / ``abort`` gets
    the workers' own 400 — the bytes a worker answers."""
    fleet = _Fleet(service, [_no_hold, _no_hold, _no_hold])
    try:
        status, _, raw = _post(
            fleet.port,
            DELAYS_PATH,
            {"delays": [{"train": 0, "minutes": 1}], "generations": 2},
        )
        assert status == 400
        assert json.loads(raw)["error"]["field"] == "generations"
        worker = fleet.workers["w0"].port
        for mode in ("prepare", "commit", "abort"):
            body = {"delays": [{"train": 0, "minutes": 1}], "mode": mode}
            status, _, raw = _post(fleet.port, DELAYS_PATH, body)
            assert (status, raw) == _post(worker, DELAYS_PATH, body)[::2]
            assert json.loads(raw)["error"]["field"] == "mode"
        assert fleet.committed() == (0, 0)
    finally:
        fleet.close()


async def _no_hold() -> None:
    pass


def _probe(generation: int) -> dict:
    """A worker's ``/healthz`` answer, at ``generation`` of ``oahu``."""
    return {
        "status": "ok",
        "datasets": ["oahu"],
        "generations": {"oahu": generation},
    }


@contextmanager
def _stub_gateway(log: list[bytes]):
    """A gateway over one worker that is never contacted, its
    ``oahu`` log committed to ``len(log)``."""
    url = "http://127.0.0.1:9"
    gateway = FleetGateway({"w1": url})
    st = WorkerState("w1", url)
    gateway._workers["w1"] = st
    gateway._delay_log["oahu"] = list(log)
    gateway._routing = {"oahu": len(log)}
    try:
        yield gateway, st
    finally:
        st.close()


def test_catch_up_takes_the_worker_generation_from_its_reply():
    """A probe noted while a catch-up post is on the wire has already
    raised the worker to the new generation: adding the posted batch
    on top counted it twice."""
    batch = json.dumps({"delays": [{"train": 0, "minutes": 3}]}).encode()
    with _stub_gateway([batch]) as (gateway, st):
        st.datasets = {"oahu"}
        st.state = "catching-up"

        async def forward(worker, method, path, body, **kwargs):
            gateway._note_probe(worker, _probe(1))
            reply = {"dataset": "oahu", "mode": "apply", "generation": 1}
            return 200, {}, json.dumps(reply).encode()

        gateway._forward = forward
        asyncio.run(gateway._admit_worker(st))
        assert st.generations == {"oahu": 1}
        assert st.state == "healthy"


def test_a_worker_mutated_out_of_band_is_ejected():
    """A probe above the routing generation is a timetable the fleet
    never committed: the worker leaves the rotation."""
    with _stub_gateway([]) as (gateway, st):
        st.state = "healthy"
        gateway._note_probe(st, _probe(1))
        assert st.state == "down"
        assert "out of band" in st.last_error
        assert gateway._routing == {"oahu": 0}


def test_a_swap_in_flight_allows_its_own_generation():
    """While a swap from k fans out, k + 1 is the swap's own evidence:
    it raises the routing generation and ejects nobody."""
    with _stub_gateway([]) as (gateway, st):
        st.state = "healthy"
        gateway._swapping = ("oahu", 1)
        gateway._note_probe(st, _probe(1))
        assert st.state == "healthy"
        assert gateway._routing == {"oahu": 1}
        assert st.generations == {"oahu": 1}
