"""Fault injection for :class:`HttpBackend`.

Every way the network or the serving side can fail must surface as
the *documented typed exception* (``docs/CLIENT.md``), never as a raw
``OSError``/``http.client`` leak and never as a silent wrong answer:

* connection refused            → ``TransportError(connection_refused)``
* mid-body disconnect           → ``TransportError(disconnected)``
* slow server past the timeout  → ``BackendTimeoutError(timeout)``
* 503 storm exhausting retries  → ``OverloadedError`` (with the
  server's ``Retry-After`` hint and the attempt count)

Plus the positive halves of the retry contract: a transient 503 is
retried to success with backoff honouring ``Retry-After``, retries
carry ``X-Retry-Attempt`` (what the real server counts in
``/metrics``), and a keep-alive connection the server closed while
idle is replaced transparently.
"""

from __future__ import annotations

import socket

import pytest

from repro.client import (
    BackendTimeoutError,
    HttpBackend,
    OverloadedError,
    RetryPolicy,
    TransportError,
)

from tests.client.fake_server import FakeServer

FAST_RETRY = RetryPolicy(retries=3, backoff=0.01, max_backoff=0.05)

OVERLOADED = {
    "v": 2,
    "error": {"code": "overloaded", "message": "busy", "retriable": True},
}


def journey_payload() -> dict:
    return {
        "v": 2,
        "kind": "journey",
        "source": 0,
        "target": 5,
        "reachable": True,
        "profile": [[480, 14]],
        "departure": None,
        "arrival": None,
        "legs": None,
        "stats": {
            "kind": "journey",
            "kernel": "flat",
            "num_threads": 1,
            "settled_connections": 7,
            "simulated_seconds": 0.0,
            "total_seconds": 0.0,
            "classification": "table",
            "table_prunes": 0,
            "connection_stops": 0,
            "cache_hit": False,
        },
    }


def backend_for(server: FakeServer, **kwargs) -> HttpBackend:
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("timeout", 5.0)
    return HttpBackend(
        f"http://127.0.0.1:{server.port}", dataset="oahu", **kwargs
    )


class TestTransportFaults:
    def test_connection_refused(self):
        # Bind-then-close guarantees an unused port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        backend = HttpBackend(f"http://127.0.0.1:{port}", dataset="oahu")
        with pytest.raises(TransportError) as excinfo:
            backend.journey(0, 5)
        assert excinfo.value.code == "connection_refused"

    def test_mid_body_disconnect(self):
        server = FakeServer([("partial", 60)])
        try:
            backend = backend_for(server)
            with pytest.raises(TransportError) as excinfo:
                backend.journey(0, 5)
            assert excinfo.value.code == "disconnected"
        finally:
            server.close()

    def test_immediate_disconnect_on_fresh_connection(self):
        """A fresh (non-pooled) connection the server drops without
        answering is a hard transport error, not a silent retry loop."""
        server = FakeServer([("close",)])
        try:
            backend = backend_for(server)
            with pytest.raises(TransportError) as excinfo:
                backend.journey(0, 5)
            assert excinfo.value.code == "disconnected"
        finally:
            server.close()

    def test_slow_server_hits_timeout(self):
        server = FakeServer([("hang", 30.0)])
        try:
            backend = backend_for(server, timeout=0.2)
            with pytest.raises(BackendTimeoutError) as excinfo:
                backend.journey(0, 5)
            assert excinfo.value.code == "timeout"
            assert isinstance(excinfo.value, TransportError)
        finally:
            server.close()

    def test_non_json_body_is_typed(self):
        body = b"<html>gateway error</html>"
        server = FakeServer(
            [
                (
                    "raw",
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: text/html\r\n"
                    b"Content-Length: %d\r\n"
                    b"Connection: close\r\n\r\n" % len(body) + body,
                ),
            ]
        )
        try:
            backend = backend_for(server)
            with pytest.raises(TransportError) as excinfo:
                backend.journey(0, 5)
            assert excinfo.value.code == "invalid_response"
        finally:
            server.close()

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param({"v": 2, "kind": "journey"}, id="truncated"),
            pytest.param([1, 2], id="not-an-object"),
            pytest.param(
                {**journey_payload(), "kind": "via", "via": 3},
                id="another-shapes-answer",
            ),
            pytest.param(
                {**journey_payload(), "profile": 7}, id="ill-typed-field"
            ),
        ],
    )
    def test_malformed_200_is_typed(self, payload):
        """A well-formed-JSON 200 that is not this shape's answer is
        the same typed failure as a non-JSON one — never a raw
        ``KeyError``/``AttributeError`` out of the decoder."""
        server = FakeServer([("respond", 200, payload, {})])
        try:
            backend = backend_for(server)
            with pytest.raises(TransportError) as excinfo:
                backend.journey(0, 5)
            assert excinfo.value.code == "invalid_response"
        finally:
            server.close()


class TestRetries:
    def test_503_storm_exhausts_retries(self):
        policy = RetryPolicy(retries=2, backoff=0.01, max_backoff=0.02)
        server = FakeServer(
            [
                ("respond", 503, OVERLOADED, {"Retry-After": "1"}),
                ("respond", 503, OVERLOADED, {"Retry-After": "1"}),
                ("respond", 503, OVERLOADED, {"Retry-After": "1"}),
            ]
        )
        try:
            backend = backend_for(server, retry=policy)
            with pytest.raises(OverloadedError) as excinfo:
                backend.journey(0, 5)
            error = excinfo.value
            assert error.code == "overloaded"
            assert error.attempts == 3  # initial + 2 retries
            assert error.retry_after == 1.0
            assert backend.stats.retries == 2
        finally:
            server.close()

    def test_transient_503_retries_to_success(self):
        server = FakeServer(
            [
                ("respond", 503, OVERLOADED, {"Retry-After": "0"}),
                ("respond", 200, journey_payload()),
            ]
        )
        try:
            backend = backend_for(server)
            answer = backend.journey(0, 5)
            assert answer.reachable and answer.profile.points == ((480, 14),)
            assert backend.stats.retries == 1
            # The retry announced itself: the server-side
            # retries_observed_total counter is fed by this header.
            assert "x-retry-attempt" not in server.requests[0]["headers"]
            assert server.requests[1]["headers"]["x-retry-attempt"] == "1"
        finally:
            server.close()

    def test_retry_after_hint_is_honored(self):
        """With a permissive max_backoff the sleep follows the
        server's Retry-After, not the exponential schedule."""
        server = FakeServer(
            [
                ("respond", 503, OVERLOADED, {"Retry-After": "0.5"}),
                ("respond", 200, journey_payload()),
            ]
        )
        try:
            backend = backend_for(
                server,
                retry=RetryPolicy(retries=1, backoff=0.001, max_backoff=60.0),
            )
            slept: list[float] = []
            backend._sleep = slept.append
            backend.journey(0, 5)
            assert slept == [0.5]
        finally:
            server.close()

    def test_retry_after_is_capped_by_max_backoff(self):
        server = FakeServer(
            [
                ("respond", 503, OVERLOADED, {"Retry-After": "3600"}),
                ("respond", 200, journey_payload()),
            ]
        )
        try:
            backend = backend_for(
                server,
                retry=RetryPolicy(retries=1, backoff=0.001, max_backoff=0.05),
            )
            slept: list[float] = []
            backend._sleep = slept.append
            backend.journey(0, 5)
            assert slept == [0.05]
        finally:
            server.close()

    def test_plain_400_is_not_retried(self):
        server = FakeServer(
            [
                (
                    "respond",
                    400,
                    {
                        "v": 2,
                        "error": {"code": "out_of_range", "message": "no"},
                    },
                ),
            ]
        )
        try:
            backend = backend_for(server)
            with pytest.raises(ValueError):
                backend.journey(0, 5)
            assert backend.stats.retries == 0
        finally:
            server.close()


class TestKeepAlivePool:
    def test_idle_connection_closed_by_server_is_replaced(
        self, harness, local_backend
    ):
        """Force a stale pooled connection by answering one request,
        then restarting nothing — instead, close the server's side by
        driving the real harness through a full drain of its idle
        connections is heavyweight; the portable check: a backend
        whose pooled connection the *client* knows is dead (server
        sent Connection: close) transparently uses a fresh one."""
        backend = HttpBackend(
            f"http://127.0.0.1:{harness.port}", dataset="oahu", pool_size=1
        )
        try:
            first = backend.journey(0, 5)
            second = backend.journey(0, 5)  # reuses the pooled conn
            assert first.profile == second.profile
            assert backend.stats.requests == 2
        finally:
            backend.close()

    def test_stale_idle_connection_is_replayed_on_a_fresh_one(self):
        """A pooled connection the server closed while idle must be
        replaced by a *fresh* connection (never a second pooled one)
        and the query re-sent transparently."""
        import socket as socket_mod

        from repro.client.http import _Connection

        # A throwaway listener that accepts and instantly closes gives
        # us genuinely stale (server-side-closed) connections to seed
        # the pool with.
        closer = socket_mod.socket()
        closer.bind(("127.0.0.1", 0))
        closer.listen(4)
        closer_port = closer.getsockname()[1]

        def make_stale():
            conn = _Connection("127.0.0.1", closer_port, timeout=5.0)
            conn.connect()
            victim, _ = closer.accept()
            victim.close()
            return conn

        server = FakeServer([("respond", 200, journey_payload())])
        try:
            backend = backend_for(server, pool_size=4)
            backend._pool._idle.extend([make_stale(), make_stale()])
            answer = backend.journey(0, 5)
            assert answer.reachable
            assert backend.stats.reconnects == 1
            # Only one stale connection was consumed; the re-send went
            # out fresh rather than popping the second stale one.
            assert len(backend._pool._idle) >= 1
        finally:
            closer.close()
            server.close()

    def test_apply_delays_is_never_replayed(self):
        """The delays endpoint is not idempotent: it must bypass the
        idle stack entirely, so a stale pooled connection can never
        force a silent re-send (= delays applied twice)."""
        import socket as socket_mod

        from repro.client.http import _Connection

        closer = socket_mod.socket()
        closer.bind(("127.0.0.1", 0))
        closer.listen(1)

        stale = _Connection(
            "127.0.0.1", closer.getsockname()[1], timeout=5.0
        )
        stale.connect()
        victim, _ = closer.accept()
        victim.close()

        server = FakeServer(
            [
                (
                    "respond",
                    200,
                    {
                        "v": 2,
                        "dataset": "oahu",
                        "mode": "apply",
                        "generation": 1,
                        "num_delays": 1,
                        "slack_per_leg": 0,
                        "swap_seconds": 0.01,
                    },
                ),
            ]
        )
        try:
            backend = backend_for(server, pool_size=4)
            backend._pool._idle.append(stale)
            from repro.timetable.delays import Delay

            update = backend.apply_delays([Delay(train=0, minutes=45)])
            assert update.generation == 1
            # The stale connection was never even tried — exactly one
            # request reached the server, on a fresh connection.
            assert backend.stats.reconnects == 0
            assert len(server.requests) == 1
            assert backend._pool._idle, "idle stack must be untouched"
        finally:
            closer.close()
            server.close()

    def test_unresolved_info_makes_one_request(self):
        entry = {
            "name": "oahu",
            "source": "store",
            "generation": 0,
            "timetable": "oahu",
            "stations": 12,
            "trains": 3,
            "connections": 9,
            "kernel": "flat",
            "has_distance_table": True,
        }
        server = FakeServer(
            [("respond", 200, {"v": 2, "datasets": [entry]})]
        )
        try:
            backend = HttpBackend(f"http://127.0.0.1:{server.port}")
            info = backend.info()  # resolves the name and answers
            assert info.name == "oahu"
            assert backend.dataset == "oahu"  # no further fetch needed
            assert len(server.requests) == 1
        finally:
            server.close()

    def test_stale_pooled_connection_reconnects(self):
        """A server that closes the connection after each response
        (Connection: close is respected by the pool) never surfaces
        disconnects to the caller across sequential requests."""
        server = FakeServer(
            [
                ("respond", 200, journey_payload()),
                ("respond", 200, journey_payload()),
            ]
        )
        try:
            backend = backend_for(server, pool_size=1)
            backend.journey(0, 5)
            backend.journey(0, 5)
            assert backend.stats.requests == 2
        finally:
            server.close()
