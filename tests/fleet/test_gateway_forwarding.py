"""How the gateway forwards: on its event loop, with the fault mapping
it always had, and without blaming a worker for a client's bytes.

* Sixteen clients through a gateway over two in-process servers: every
  answer is the worker's to the byte, and the gateway starts no thread.
* Fake workers that stall, close mid-body, answer what is not HTTP or
  stop listening are ejected, and the query fails over once; one that
  closes idle keep-alive connections is not; an apply never takes an
  idle connection.
* Raw requests whose target or header cannot be put on the wire get a
  worker's status and error code, and eject no worker.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import socket
import threading

import pytest

from repro.fleet import FleetGateway, WorkerState
from repro.server import DatasetRegistry
from repro.service import ServiceConfig, TransitService

from tests.server.harness import ServerHarness

JOURNEY = json.dumps({"source": 0, "target": 5}).encode()


class _Loop:
    """An event loop on a thread of its own; :meth:`run` waits for a
    coroutine on it."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="gateway-loop", daemon=True
        )
        self._thread.start()

    def run(self, coro, timeout: float = 30.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout
        )

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        self.loop.close()


def _post(port: int, path: str, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _raw(port: int, request: bytes) -> tuple[int, str | None]:
    """``(status, error code)`` of one raw request sent as is."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        answer = b""
        while chunk := sock.recv(65536):
            answer += chunk
    head, _, body = answer.partition(b"\r\n\r\n")
    payload = json.loads(body)
    return int(head.split()[1]), payload.get("error", {}).get("code")


def _gateway_state(port: int) -> tuple[dict, dict, int]:
    """``(worker states, ejections_total, failovers_total)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/healthz")
        health = json.loads(conn.getresponse().read())
        conn.request("GET", "/metrics")
        counters = json.loads(conn.getresponse().read())["gateway"]
    finally:
        conn.close()
    states = {name: w["state"] for name, w in health["workers"].items()}
    return states, counters["ejections_total"], counters["failovers_total"]


# -- two in-process servers behind a gateway ----------------------------


@pytest.fixture(scope="module")
def fleet(oahu_tiny):
    """Two servers over one service (one result cache: a cached answer
    is the same bytes from either) behind a gateway."""
    service = TransitService(oahu_tiny, ServiceConfig(num_threads=1))
    workers = []
    loop = _Loop()
    gateway = None
    try:
        for _ in range(2):
            registry = DatasetRegistry()
            registry.add("oahu", service)
            workers.append(ServerHarness(registry, workers=1))
        gateway = FleetGateway(
            {f"w{i}": f"http://127.0.0.1:{w.port}" for i, w in enumerate(workers)}
        )
        loop.run(gateway.start())
        loop.run(gateway.wait_ready(workers=2))
        yield gateway, workers
    finally:
        if gateway is not None:
            loop.run(gateway.shutdown())
        loop.close()
        for harness in workers:
            harness.close()


def test_forwards_run_on_the_loop_and_answer_the_workers_bytes(fleet):
    gateway, workers = fleet
    queries = [
        ("/v1/oahu/journey", {"source": s, "target": (s + 5) % 12})
        for s in range(8)
    ]
    direct = {}
    for path, body in queries:
        data = json.dumps(body).encode()
        assert _post(workers[0].port, path, data)[0] == 200  # cached now
        direct[data] = _post(workers[0].port, path, data)
    before = {t.ident for t in threading.enumerate()}
    answers: list = []

    def client(cid: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            for i in range(4):
                path, body = queries[(cid + i) % len(queries)]
                data = json.dumps(body).encode()
                conn.request("POST", path, body=data)
                response = conn.getresponse()
                answers.append((data, (response.status, response.read())))
        finally:
            conn.close()

    clients = [threading.Thread(target=client, args=(c,)) for c in range(16)]
    for t in clients:
        t.start()
    for t in clients:
        t.join(timeout=60)
    assert len(answers) == 64
    for data, answer in answers:
        assert answer == direct[data]
    grown = [
        t.name for t in threading.enumerate() if t.ident not in before
    ]
    assert grown == []


ROWS = {
    "retry header that is not a number": (
        b"POST /v1/oahu/journey HTTP/1.1\r\nX-Retry-Attempt: 1\nX-Injected: 1"
        b"\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
        % (len(JOURNEY), JOURNEY)
    ),
    "latin-1 byte in a query's dataset": (
        b"POST /v1/oah\xe9/journey HTTP/1.1\r\nContent-Length: %d\r\n"
        b"Connection: close\r\n\r\n%s" % (len(JOURNEY), JOURNEY)
    ),
    "latin-1 byte in a delay post's dataset": (
        b"POST /v1/datasets/oah\xe9/delays HTTP/1.1\r\nContent-Length: 40\r\n"
        b'Connection: close\r\n\r\n{"delays": [{"train": 0, "minutes": 1}]}'
    ),
    "control byte in the datasets query string": (
        b"GET /v1/datasets?\x01 HTTP/1.1\r\nConnection: close\r\n\r\n"
    ),
}


@pytest.mark.parametrize("request_bytes", ROWS.values(), ids=ROWS.keys())
def test_an_unsendable_request_is_answered_like_a_worker(fleet, request_bytes):
    """Bytes the gateway may not put on the wire are the client's
    fault: its answer is a worker's, and no worker is ejected."""
    gateway, workers = fleet
    _, ejections, failovers = _gateway_state(gateway.port)
    assert _raw(gateway.port, request_bytes) == _raw(
        workers[0].port, request_bytes
    )
    states, ejections_after, failovers_after = _gateway_state(gateway.port)
    assert states == {"w0": "healthy", "w1": "healthy"}
    assert (ejections_after, failovers_after) == (ejections, failovers)


# -- fake workers --------------------------------------------------------

HEALTH = json.dumps(
    {"status": "ok", "datasets": ["oahu"], "generations": {"oahu": 0}}
).encode()


class _FakeWorker:
    """A worker that answers ``/healthz`` like a server, a delay post
    with generation 1, and a query as ``mode`` says: ``ok``, ``stall``,
    ``mid_body``, ``garbage`` or ``close_idle`` (answer, then close the
    connection).  ``requests`` lists ``(connection number, path)``."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.requests: list[tuple[int, str]] = []
        self._numbers = itertools.count()
        self._writers: set = set()
        self._released = asyncio.Event()

    async def start(self) -> str:
        self._server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0
        )
        return f"http://127.0.0.1:{self._server.sockets[0].getsockname()[1]}"

    async def stop_listening(self) -> None:
        """Refuse new connections and close the open ones."""
        self._server.close()
        for writer in list(self._writers):
            writer.close()
        await self._server.wait_closed()

    async def close(self) -> None:
        self._released.set()
        await self.stop_listening()

    async def _serve(self, reader, writer) -> None:
        number = next(self._numbers)
        self._writers.add(writer)
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                lines = head.decode("latin-1").split("\r\n")
                path = lines[0].split()[1]
                length = next(
                    (
                        int(line.split(":")[1])
                        for line in lines
                        if line.lower().startswith("content-length:")
                    ),
                    0,
                )
                await reader.readexactly(length)
                self.requests.append((number, path))
                if path == "/healthz":
                    writer.write(_answer(HEALTH))
                elif path.endswith("/delays"):
                    reply = {"generation": 1, "swap_seconds": 0.0}
                    writer.write(_answer(json.dumps(reply).encode()))
                elif self.mode == "stall":
                    await self._released.wait()
                    return
                elif self.mode == "mid_body":
                    writer.write(_answer(b"x" * 100)[:-90])
                    return
                elif self.mode == "garbage":
                    writer.write(b"SSH-2.0-not-http\r\n\r\n")
                    return
                else:
                    writer.write(_answer(b'{"ok": true}'))
                if self.mode == "close_idle":
                    return
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()


def _answer(body: bytes) -> bytes:
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n%s"
        % (len(body), body)
    )


@pytest.fixture()
def fakes():
    """``make(*modes)``: fake workers ``w0, w1, …`` behind a gateway
    that probes them once (at start), with a 0.5 s worker timeout."""
    loop = _Loop()
    made: list[_FakeWorker] = []
    gateways: list[FleetGateway] = []

    def make(*modes: str):
        workers = [_FakeWorker(mode) for mode in modes]
        made.extend(workers)
        urls = {f"w{i}": loop.run(w.start()) for i, w in enumerate(workers)}
        gateway = FleetGateway(urls, health_interval=60, worker_timeout=0.5)
        gateways.append(gateway)
        loop.run(gateway.start())
        loop.run(gateway.wait_ready(workers=len(modes)))
        return loop, gateway, workers

    yield make
    for gateway in gateways:
        loop.run(gateway.shutdown())
    for worker in made:
        loop.run(worker.close())
    loop.close()


@pytest.mark.parametrize(
    "fault", ["stall", "mid_body", "garbage", "refused"]
)
def test_a_failing_worker_is_ejected_and_the_query_fails_over(fakes, fault):
    loop, gateway, (bad, good) = fakes(
        "ok" if fault == "refused" else fault, "ok"
    )
    if fault == "refused":
        loop.run(bad.stop_listening())
    assert _post(gateway.port, "/v1/oahu/journey", JOURNEY) == (
        200,
        b'{"ok": true}',
    )
    states, ejections, failovers = _gateway_state(gateway.port)
    assert states == {"w0": "down", "w1": "healthy"}
    assert (ejections, failovers) == ({"w0": 1}, 1)
    assert [path for _, path in good.requests].count("/v1/oahu/journey") == 1


def test_an_idle_connection_the_worker_closed_is_sent_again(fakes):
    _, gateway, (worker,) = fakes("close_idle")
    for _ in range(2):
        assert _post(gateway.port, "/v1/oahu/journey", JOURNEY)[0] == 200
    states, ejections, failovers = _gateway_state(gateway.port)
    assert states == {"w0": "healthy"}
    assert (ejections, failovers) == ({}, 0)
    assert [path for _, path in worker.requests].count("/v1/oahu/journey") == 2


def test_an_apply_never_takes_an_idle_connection(fakes):
    _, gateway, (worker,) = fakes("ok")
    assert _post(gateway.port, "/v1/oahu/journey", JOURNEY)[0] == 200
    used = {number for number, _ in worker.requests}
    body = json.dumps({"delays": [{"train": 0, "minutes": 1}]}).encode()
    assert _post(gateway.port, "/v1/datasets/oahu/delays", body)[0] == 200
    (number,) = [n for n, path in worker.requests if path.endswith("/delays")]
    assert number not in used


def test_a_worker_url_is_plain_http():
    """Workers are ``serve`` processes: the gateway speaks no TLS."""
    with pytest.raises(ValueError, match="http://host:port"):
        WorkerState("w0", "https://127.0.0.1:8321")
