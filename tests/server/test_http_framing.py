"""Request framing on the wire, driven over raw sockets.

``tests/server/harness.py`` speaks to the server through
``http.client``; what a well-behaved library never sends is sent here
byte by byte: a chunked request, an HTTP/1.0 probe, bare-LF line
ends, one byte per segment, garbage, a head that never ends.  Each
ends in one typed answer or a quiet close — never a desynchronised
stream, a 500, a traceback in the log or a handler left behind by the
drain — and a well-formed request costs the server two stream awaits
whatever its header count.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket

import pytest

from repro.server import DatasetRegistry
from repro.server.http_base import MAX_HEAD_BYTES

from tests.helpers import scrubbed_payload
from tests.server.harness import ServerHarness

JOURNEY = json.dumps({"source": 0, "target": 5}).encode()


def connect(harness, timeout: float = 5.0) -> socket.socket:
    return socket.create_connection(("127.0.0.1", harness.port), timeout=timeout)


def post(body: bytes = JOURNEY, *extra: bytes) -> bytes:
    lines = [
        b"POST /v1/oahu/journey HTTP/1.1",
        b"Host: test",
        b"Content-Length: %d" % len(body),
        *extra,
    ]
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def read_response(
    sock: socket.socket, data: bytes = b""
) -> tuple[int, dict, dict, bytes]:
    """One ``Content-Length`` response off ``sock`` (after ``data``,
    already received): status, lowercased headers, JSON payload, and
    whatever bytes followed it."""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"closed inside a response head: {data!r}"
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines)
    }
    length = int(headers["content-length"])
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "closed inside a response body"
        rest += chunk
    status = int(status_line.split()[1])
    return status, headers, json.loads(rest[:length]), rest[length:]


def read_to_eof(sock: socket.socket) -> bytes:
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


class TestTransferEncoding:
    def test_chunked_request_is_refused_once_and_closed(self, harness):
        """At the parent the chunked body was ignored (``400 request
        body is empty``, keep-alive) and its chunk bytes were then
        parsed as the next request line."""
        chunked = (
            b"POST /v1/oahu/journey HTTP/1.1\r\nHost: test\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"%x\r\n%s\r\n0\r\n\r\n" % (len(JOURNEY), JOURNEY)
        )
        with connect(harness) as sock:
            sock.sendall(chunked)
            status, headers, payload, rest = read_response(sock)
            assert status == 501
            assert payload["error"]["code"] == "unsupported_transfer_encoding"
            assert "field" not in payload["error"]
            assert headers["connection"] == "close"
            # Nothing further is read from — or answered on — the
            # connection: the chunk bytes are not a request.
            assert rest + read_to_eof(sock) == b""
        assert harness.request("GET", "/healthz")[0] == 200

    def test_chunked_with_a_content_length_is_refused_too(self, harness):
        with connect(harness) as sock:
            sock.sendall(post(JOURNEY, b"Transfer-Encoding: chunked"))
            status, headers, payload, _ = read_response(sock)
            assert (status, headers["connection"]) == (501, "close")
            assert payload["error"]["code"] == "unsupported_transfer_encoding"
            assert read_to_eof(sock) == b""


class TestHttpVersions:
    def test_http_1_0_probe_is_answered_and_closed(self, harness):
        """At the parent the version was parsed and dropped: the probe
        got ``Connection: keep-alive`` and read to its own timeout."""
        with connect(harness, timeout=1.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            status, headers, payload, rest = read_response(sock)
            assert status == 200 and payload["status"] == "ok"
            assert headers["connection"] == "close"
            assert rest + read_to_eof(sock) == b""  # EOF inside the second

    def test_http_1_0_keep_alive_is_honoured(self, harness):
        request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with connect(harness) as sock:
            for _ in range(2):
                sock.sendall(request)
                status, headers, _, rest = read_response(sock)
                assert (status, rest) == (200, b"")
                assert headers["connection"] == "keep-alive"

    def test_http_1_1_defaults_are_unchanged(self, harness):
        with connect(harness) as sock:
            for _ in range(2):
                sock.sendall(post())
                status, headers, _, rest = read_response(sock)
                assert (status, rest) == (200, b"")
                assert headers["connection"] == "keep-alive"
            sock.sendall(post(JOURNEY, b"Connection: close"))
            status, headers, _, rest = read_response(sock)
            assert (status, headers["connection"]) == (200, "close")
            assert rest + read_to_eof(sock) == b""


class TestSegmentation:
    def test_one_byte_per_send_parses_like_one_segment(self, harness):
        request = post(JOURNEY, b"X-Retry-Attempt: 1")
        with connect(harness) as sock:
            sock.sendall(post())  # both answers below are cache hits
            read_response(sock)
            sock.sendall(request)
            whole = read_response(sock)
        with connect(harness) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(request)):
                sock.send(request[i : i + 1])
            dribbled = read_response(sock)
        assert dribbled[0] == whole[0] == 200
        assert scrubbed_payload(dribbled[2]) == scrubbed_payload(whole[2])
        metrics = harness.request("GET", "/metrics")[1]
        assert metrics["retries_observed_total"] == 2  # headers seen both times

    def test_pipelined_requests_are_answered_in_order(self, harness):
        with connect(harness) as sock:
            sock.sendall(post() + b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            first = read_response(sock)
            assert first[2]["kind"] == "journey"
            # The second answer may already sit behind the first.
            second = read_response(sock, first[3])
            assert second[2]["status"] == "ok" and second[3] == b""


@pytest.fixture()
def own_harness(make_service):
    """A server the test shuts down itself."""
    registry = DatasetRegistry.from_services({"oahu": make_service()})
    h = ServerHarness(registry)
    yield h
    if h.loop.is_running():
        h.close()


class TestGarbageAndQuietCloses:
    """Nothing here may reach the log: the asyncio logger is where an
    unhandled exception in a connection handler would surface."""

    def test_clean_eof_garbage_and_endless_heads_close_quietly(
        self, own_harness, caplog
    ):
        harness = own_harness
        with caplog.at_level(logging.WARNING):
            with connect(harness):
                pass  # connect, say nothing, leave
            with connect(harness) as sock:
                sock.sendall(b"this is not http\r\n\r\n")
                assert read_to_eof(sock) == b""
            with connect(harness) as sock:
                sock.sendall(b"POST /v1/oahu/journey HTTP/1.1\r\nHost: t")
            with connect(harness) as sock:  # bad Content-Length
                sock.sendall(
                    b"POST /x HTTP/1.1\r\nContent-Length: many\r\n\r\n"
                )
                assert read_to_eof(sock) == b""
            with connect(harness) as sock:
                # A head that never ends is cut at the cap, not buffered.
                line = b"X-Filler: " + b"x" * 1000 + b"\r\n"
                try:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                    for _ in range(3 * MAX_HEAD_BYTES // len(line)):
                        sock.sendall(line)
                    assert read_to_eof(sock) == b""
                except (ConnectionResetError, BrokenPipeError):
                    pass  # closed on us mid-send: as quiet as it gets
            assert harness.request("GET", "/healthz")[0] == 200
            harness.close()
        assert harness.server._idle_connections == set()
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_bare_lf_request_stays_parked_until_the_drain(
        self, own_harness, caplog
    ):
        """Decided: bare-LF line ends are not request framing.  Such a
        head never completes, so its connection waits like any idle
        keep-alive one — no answer, no error — and the drain closes
        it.  (``readline`` used to tolerate it by accident.)"""
        harness = own_harness
        with caplog.at_level(logging.WARNING), connect(harness) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\nHost: test\n\n")
            sock.settimeout(0.3)
            with pytest.raises(TimeoutError):
                sock.recv(1)
            assert len(harness.server._idle_connections) == 1
            harness.close()  # 30 s deadline: a leaked handler hangs it
            sock.settimeout(5.0)
            assert read_to_eof(sock) == b""
        assert harness.server._idle_connections == set()
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


class TestWorkPerRequest:
    def test_a_request_costs_two_stream_awaits(self, harness, monkeypatch):
        """Head in one ``readuntil``, body in one ``readexactly`` —
        not one ``readline`` per header line (seven at the parent for
        this request)."""
        calls: list[str] = []
        for name in ("readline", "readuntil", "readexactly", "read"):
            original = getattr(asyncio.StreamReader, name)

            def counted(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(asyncio.StreamReader, name, counted)
        requests = 3
        with connect(harness) as sock:
            for _ in range(requests):
                sock.sendall(
                    post(JOURNEY, b"Accept: */*", b"User-Agent: t", b"X-A: b")
                )
                assert read_response(sock)[0] == 200
        # Two per request, plus the read the connection is parked in.
        assert 2 * requests <= len(calls) <= 2 * requests + 1
        assert set(calls) == {"readuntil", "readexactly"}
