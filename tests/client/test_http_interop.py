"""The SDK's own HTTP/1.1 against an independent implementation.

Since :class:`HttpBackend` frames requests and responses itself, the
fleet's two ends are both ours — they could agree with each other and
with nobody else.  Here the SDK talks to stdlib ``http.server``
(request parsing, status lines and header folding are the standard
library's, not this repository's) in every response framing HTTP/1.x
allows, and the count-based guards pin what the rewrite was for: one
``sendall`` per request, codecs that make no Python-level call per
profile point, and nothing but plain ``int`` on the wire.
"""

from __future__ import annotations

import http.server
import json
import socket
import sys
import threading

import numpy as np
import pytest

from repro.client import HttpBackend, RetryPolicy, TransportError
from repro.client import http as client_http
from repro.client.results import decode_journey
from repro.functions.algebra import Profile
from repro.server.protocol import encode_batch, encode_journey, encode_profile
from repro.service import BatchRequest, JourneyRequest, ProfileRequest

from tests.client.test_http_faults import journey_payload

BODY = json.dumps(journey_payload()).encode()


class Handler(http.server.BaseHTTPRequestHandler):
    """Answers every POST with the same journey, framed as the
    server's ``mode`` says."""

    def log_message(self, *args) -> None:  # keep pytest output clean
        pass

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        self.server.seen.append(
            (self.client_address, self.path, self.rfile.read(length))
        )
        getattr(self, f"answer_{self.server.mode}")()

    def _head(self, *headers: tuple[str, str]) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()

    def answer_content_length(self) -> None:
        self._head(("Content-Length", str(len(BODY))))
        self.wfile.write(BODY)

    def answer_connection_close(self) -> None:
        self._head(("Content-Length", str(len(BODY))), ("Connection", "close"))
        self.wfile.write(BODY)

    def answer_http10_close_delimited(self) -> None:
        # The status line says HTTP/1.0 and the handler hangs up after
        # the answer because the test set the class's protocol_version.
        self._head()  # no length: the close ends the body
        self.wfile.write(BODY)

    def answer_chunked(self) -> None:
        self._head(("Transfer-Encoding", "chunked"))
        for start in range(0, len(BODY), 37):
            piece = BODY[start : start + 37]
            self.wfile.write(b"%x;ext=1\r\n%s\r\n" % (len(piece), piece))
        self.wfile.write(b"0\r\nX-Trailer: t\r\n\r\n")

    def answer_interim(self) -> None:
        self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.wfile.write(b"HTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n")
        self.answer_content_length()

    def answer_endless_head(self) -> None:
        self.send_response(200)
        self.server.sent = 0
        line = b"X-Filler: " + b"x" * 1000 + b"\r\n"
        try:
            while self.server.sent < 64 * 1024 * 1024:
                self.wfile.write(line)
                self.wfile.flush()
                self.server.sent += len(line)
        except OSError:
            pass  # the client hung up
        self.close_connection = True
        self.server.finished.set()


@pytest.fixture()
def stdlib_server():
    handler = type("PerTestHandler", (Handler,), {"protocol_version": "HTTP/1.1"})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    server.mode = "content_length"
    server.seen = []
    server.finished = threading.Event()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def backend_for(server, **kwargs) -> HttpBackend:
    kwargs.setdefault("retry", RetryPolicy(retries=0))
    kwargs.setdefault("timeout", 5.0)
    return HttpBackend(
        f"http://127.0.0.1:{server.server_address[1]}", dataset="oahu", **kwargs
    )


class TestAgainstStdlibHttpServer:
    def test_keep_alive_reuses_one_connection(self, stdlib_server):
        with backend_for(stdlib_server, pool_size=1) as backend:
            for _ in range(3):
                assert backend.journey(0, 5).profile.points == ((480, 14),)
            assert backend.stats.reconnects == 0
            assert len(backend._pool._idle) == 1
        peers = {peer for peer, _, _ in stdlib_server.seen}
        assert len(stdlib_server.seen) == 3 and len(peers) == 1
        # The standard library parsed our request line, headers, body.
        _, path, body = stdlib_server.seen[0]
        assert path == "/v1/oahu/journey"
        assert json.loads(body) == {"v": 2, "source": 0, "target": 5}

    @pytest.mark.parametrize(
        "mode", ["connection_close", "http10_close_delimited"]
    )
    def test_closing_answers_are_read_and_not_pooled(self, stdlib_server, mode):
        stdlib_server.mode = mode
        if mode.startswith("http10"):
            stdlib_server.RequestHandlerClass.protocol_version = "HTTP/1.0"
        with backend_for(stdlib_server, pool_size=1) as backend:
            for _ in range(2):
                assert backend.journey(0, 5).profile.points == ((480, 14),)
                assert backend._pool._idle == []
            assert backend.stats.reconnects == 0
        assert len({peer for peer, _, _ in stdlib_server.seen}) == 2

    @pytest.mark.parametrize("mode", ["chunked", "interim"])
    def test_chunked_and_interim_answers_keep_the_connection(
        self, stdlib_server, mode
    ):
        stdlib_server.mode = mode
        with backend_for(stdlib_server, pool_size=1) as backend:
            for _ in range(2):
                assert backend.journey(0, 5).profile.points == ((480, 14),)
            assert backend.stats.responses_by_status == {200: 2}
        assert len({peer for peer, _, _ in stdlib_server.seen}) == 1

    def test_endless_head_is_refused_at_the_cap(self, stdlib_server):
        stdlib_server.mode = "endless_head"
        with backend_for(stdlib_server) as backend:
            with pytest.raises(TransportError) as excinfo:
                backend.journey(0, 5)
            assert excinfo.value.code == "transport"
            assert backend._pool._idle == []
        # The client stopped reading at the cap; the server's writes ran
        # into a closed socket long before its own 64 MB limit.
        assert stdlib_server.finished.wait(timeout=30)
        assert stdlib_server.sent < 16 * 1024 * 1024
        conn = client_http._Connection(
            "127.0.0.1", stdlib_server.server_address[1], timeout=5.0
        )
        try:
            with pytest.raises(client_http._HttpError):
                conn.exchange("POST", "/v1/oahu/journey", b"{}")
            assert len(conn._buf) <= 2 * client_http.MAX_HEAD_BYTES
        finally:
            conn.close()

    def test_unsendable_targets_and_headers_are_typed(self, stdlib_server):
        """What ``http.client`` refused to put on the wire still is —
        a target as a ``TransportError``, a header as the connection's
        refusal — and without a byte sent."""
        url = f"http://127.0.0.1:{stdlib_server.server_address[1]}"
        for dataset in ("two words", "x\r\nX-Injected: 1"):
            with HttpBackend(url, dataset=dataset, timeout=5.0) as backend:
                with pytest.raises(TransportError) as excinfo:
                    backend.journey(0, 5)
                assert excinfo.value.code == "transport"
        conn = client_http._Connection(
            "127.0.0.1", stdlib_server.server_address[1], timeout=5.0
        )
        try:
            with pytest.raises(ValueError, match="unsendable"):
                conn.exchange(
                    "GET", "/healthz", headers={"X-A": "1\r\nX-Injected: 1"}
                )
        finally:
            conn.close()
        assert stdlib_server.seen == []


def test_https_urls_get_a_tls_handshake_and_a_typed_failure():
    """No certificate to serve with here; what can be pinned is that an
    ``https`` URL starts TLS (the plain-text peer sees a ClientHello,
    not a request line) and that the failed handshake is a typed
    ``TransportError``, not a raw ``ssl.SSLError``."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    received: list[bytes] = []

    def answer_in_plain_text() -> None:
        peer, _ = listener.accept()
        with peer:
            received.append(peer.recv(4096))
            peer.sendall(b"HTTP/1.1 400 Bad Request\r\n\r\n")

    thread = threading.Thread(target=answer_in_plain_text, daemon=True)
    thread.start()
    try:
        backend = HttpBackend(
            f"https://127.0.0.1:{listener.getsockname()[1]}",
            dataset="oahu",
            timeout=5.0,
        )
        with pytest.raises(TransportError) as excinfo:
            backend.journey(0, 5)
        assert excinfo.value.code == "transport"
    finally:
        thread.join(timeout=5)
        listener.close()
    assert received and received[0][:1] == b"\x16"  # TLS handshake record


# ---------------------------------------------------------------------------
# Count-based work guards (no timings)
# ---------------------------------------------------------------------------


def test_one_journey_is_one_sendall(harness, http_backend, monkeypatch):
    """Head and body leave in one segment, so the server wakes once
    per request (``http.client`` sent them in two)."""
    http_backend.journey(0, 5)  # connect, resolve nothing: dataset named
    sent: list[str] = []

    def counted(name):
        original = getattr(socket.socket, name)

        def method(self, data, *args):
            # The server's loop lives in this process too: count only
            # the sockets whose peer is the server.
            if (
                self.family == socket.AF_INET
                and self.getpeername()[1] == harness.port
            ):
                sent.append(name)
            return original(self, data, *args)

        return method

    for name in ("sendall", "send"):
        monkeypatch.setattr(socket.socket, name, counted(name))
    http_backend.journey(1, 6)
    monkeypatch.undo()
    assert sent == ["sendall"]
    assert http_backend.stats.requests == 2 and http_backend.stats.reconnects == 0


def python_calls(fn) -> int:
    """Python-level calls ``fn()`` makes into ``repro`` (generator
    resumptions count: each is a frame entered; a collector callback
    some plugin registered does not)."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "call" and "/repro/" in frame.f_code.co_filename:
            count += 1

    sys.setprofile(tracer)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def profile_of(points: int) -> Profile:
    deps = np.arange(points, dtype=np.int64) * 2
    return Profile(deps, deps + 30)


def test_codecs_make_no_python_call_per_profile_point(make_service):
    result = make_service().journey(0, 5)
    counts = []
    for points in (5, 500):
        result.profile = profile_of(points)
        payload = encode_journey(result)
        assert len(payload["profile"]) == points
        wire = json.loads(json.dumps(payload))
        assert decode_journey(wire).profile.points == tuple(
            (2 * i, 30) for i in range(points)
        )
        counts.append(
            (
                python_calls(lambda: encode_journey(result)),
                python_calls(lambda: decode_journey(wire)),
            )
        )
    assert counts[0] == counts[1]


def numbers_in(payload, key=None):
    """``(nearest dict key, value)`` for every non-string leaf."""
    if isinstance(payload, dict):
        for name, value in payload.items():
            yield from numbers_in(value, name)
    elif isinstance(payload, (list, tuple)):
        for value in payload:
            yield from numbers_in(value, key)
    elif payload is not None and not isinstance(payload, str):
        yield key, payload


def test_every_encoded_number_is_a_plain_int(make_service):
    """numpy ints compare equal to ints and would pass ``==``; the wire
    carries ``int`` — ``float`` only for wall-clock seconds, ``bool``
    only for the two flags."""
    service = make_service()
    stations = service.timetable.num_stations
    payloads = [
        encode_journey(service.journey(JourneyRequest(0, 5, 480))),
        encode_profile(service.profile(ProfileRequest(3)), num_stations=stations),
        encode_batch(
            service.batch(
                BatchRequest(
                    journeys=(JourneyRequest(1, 6),),
                    profiles=(ProfileRequest(2),),
                )
            ),
            num_stations=stations,
        ),
    ]
    for payload in payloads:
        numbers = list(numbers_in(payload))
        assert len(numbers) > 50
        for key, number in numbers:
            if key.endswith("_seconds"):
                assert type(number) is float, (key, type(number))
            elif key in ("cache_hit", "reachable"):
                assert type(number) is bool, (key, type(number))
            else:
                assert type(number) is int, (key, type(number), number)


@pytest.mark.parametrize(
    "points",
    [[[480, 14.0]], [[480, "14"]], [[480, 14, 1]], [[480]], [[True, 14]], [480]],
)
def test_decoder_refuses_points_that_are_not_int_pairs(points):
    with pytest.raises((TypeError, ValueError)):
        decode_journey({**journey_payload(), "profile": points})
