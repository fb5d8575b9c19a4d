"""Shared asyncio HTTP/1.1 machinery for the serving front ends.

:class:`BaseAsyncHttpServer` owns everything that is identical between
a query worker (:class:`~repro.server.app.TransitServer`) and the
fleet routing gateway (:class:`~repro.fleet.gateway.FleetGateway`):
the keep-alive connection loop, strict request reading with an
oversized-body fast path, response writing, the two-stage graceful
drain — and the request path.  Each request's path is parsed once
into an endpoint label and a route (:func:`parse_path`); the method
is checked (405), the request is counted in the front end's
:class:`~repro.server.metrics.HttpMetrics` (with ``X-Retry-Attempt``
and the response's status and latency), and the query and delay
routes pass admission — a fast ``503`` with ``Retry-After`` when
draining or at ``max_inflight`` — and are counted in flight around
their handler.

Subclasses implement the handlers — ``_healthz``, ``_metrics``,
``_datasets``, ``_delays`` and ``_query``, each given the
:class:`Request` and the route's arguments — and may map their own
exceptions to an answer in :meth:`BaseAsyncHttpServer._failure`.  A
handler returns ``(status, payload)`` or ``(status, payload, extra
headers)``; ``payload`` is a JSON payload dict (serialized here) or
pre-encoded ``bytes`` (written verbatim; the gateway forwards worker
answers byte-for-byte this way).  Where the two front ends differ on
purpose, the handler says so: the gateway admits its ``/v1/datasets``
forward (:meth:`BaseAsyncHttpServer._admitted`), a server answers it
on the loop.

Drain is split into **readiness** and **liveness**:

* :meth:`begin_drain` only flips the readiness flag — ``/healthz``
  (which subclasses render from :attr:`health_status`) starts
  reporting ``"draining"`` while requests are still served normally,
  so a load balancer or the fleet gateway stops routing *before* any
  request gets rejected;
* :meth:`shutdown` calls :meth:`begin_drain`, waits out
  ``drain_grace`` seconds (readiness propagation time), then starts
  the hard drain: stop accepting, answer new requests ``503
  draining``, finish in-flight ones, force-close idle keep-alive
  connections, and run the subclass's :meth:`_post_drain` cleanup.

:class:`Upstream` is the other half, the gateway's: it reads what
:meth:`BaseAsyncHttpServer._respond` writes with the parser of a request.
"""

from __future__ import annotations

import asyncio
import re
import time
from typing import NamedTuple
from urllib.parse import urlsplit

from orjson import dumps

from repro.server.metrics import HttpMetrics
from repro.server.protocol import ProtocolError
from repro.service.shapes import BY_ROUTE, error_payload

#: Request bodies above this are rejected with 413 before parsing.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Request heads (request line + header block) above this end in a
#: quiet close: it is the stream's buffer limit.
MAX_HEAD_BYTES = 64 * 1024

_STATUS_TEXT = {
    200: b"OK",
    400: b"Bad Request",
    404: b"Not Found",
    405: b"Method Not Allowed",
    413: b"Payload Too Large",
    500: b"Internal Server Error",
    501: b"Not Implemented",
    502: b"Bad Gateway",
    503: b"Service Unavailable",
}

#: The response head up to the extra headers: status, reason, body
#: length, ``keep-alive`` or ``close``.
_HEAD = (
    b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\nConnection: %s\r\n"
)


#: Every route: its method, and whether it is admitted — passes the
#: ``max_inflight`` bound and is counted in flight around its handler.
_ROUTES = {
    "healthz": ("GET", False),
    "metrics": ("GET", False),
    "datasets": ("GET", False),
    "delays": ("POST", True),
    "query": ("POST", True),
}

_DELAYS_LABEL = "POST /v1/datasets/{name}/delays"


def parse_path(method: str, path: str) -> tuple[str, str | None, tuple]:
    """``(endpoint label, route, route arguments)`` of a request path.

    The label is low-cardinality, for metrics: dataset names are folded
    out (per-dataset detail lives in the registry section of the
    snapshot), and the query routes are the shape table's.  The routes
    are ``healthz``, ``metrics``, ``datasets``, ``delays`` (of a dataset
    name) and ``query`` (of a dataset name and a
    :class:`~repro.service.shapes.Shape`);
    ``None`` is no route."""
    parts = [p for p in path.split("?")[0].split("/") if p]
    if parts == ["healthz"] or parts == ["metrics"]:
        return f"{method} /{parts[0]}", parts[0], ()
    if parts[:2] == ["v1", "datasets"]:
        # Every path below /v1/datasets/ is labelled as the delay route,
        # a query on a dataset named "datasets" too.
        if len(parts) == 2:
            return "GET /v1/datasets", "datasets", ()
        if len(parts) == 4 and parts[3] == "delays":
            return _DELAYS_LABEL, "delays", (parts[2],)
        if len(parts) == 3 and parts[2] in BY_ROUTE:
            return _DELAYS_LABEL, "query", (parts[1], BY_ROUTE[parts[2]])
        return _DELAYS_LABEL, None, ()
    if len(parts) == 3 and parts[0] == "v1" and parts[2] in BY_ROUTE:
        label = f"POST /v1/{{name}}/{parts[2]}"
        return label, "query", (parts[1], BY_ROUTE[parts[2]])
    return f"{method} <unmatched>", None, ()


class Request(NamedTuple):
    """One request as a handler sees it."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    #: The metrics label of :func:`parse_path`.
    endpoint: str


class _Refused(Exception):
    """``(status, code, message)``: the request's framing is refused
    before its body is read.  The answer goes out ``Connection: close``
    and nothing further is read from the connection — whatever follows
    the head is not a request."""


class BaseAsyncHttpServer:
    """One listening socket; subclasses answer through the handlers."""

    #: What the ``503 draining`` message calls this front end.
    ROLE = "server"

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        retry_after: float = 1.0,
        drain_grace: float = 0.0,
        metrics: HttpMetrics | None = None,
    ) -> None:
        if drain_grace < 0:
            raise ValueError(
                f"drain_grace must be non-negative, got {drain_grace}"
            )
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if retry_after < 0:
            raise ValueError(
                f"retry_after must be non-negative, got {retry_after}"
            )
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.max_inflight = max_inflight
        #: Backoff hint (seconds) sent as ``Retry-After`` on every
        #: retriable 503; cooperative clients (repro.client) honor it.
        self.retry_after = retry_after
        self.drain_grace = drain_grace
        #: The request accounting; its ``inflight`` is the admission
        #: count itself.
        self.metrics = metrics if metrics is not None else HttpMetrics()
        self._server: asyncio.base_events.Server | None = None
        #: Readiness: cleared by :meth:`begin_drain`; ``/healthz``
        #: reports ``"draining"`` while requests still succeed.
        self._ready = True
        #: Liveness drain: set by :meth:`shutdown` after the grace
        #: window; new requests are fast-503'd from here on.
        self._draining = False
        #: Connections currently parked between requests (waiting in
        #: readline); shutdown force-closes exactly these so idle
        #: keep-alive clients cannot stall the drain.
        self._idle_connections: set[asyncio.StreamWriter] = set()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the bound
        port afterwards (pass ``port=0`` for an ephemeral one)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_HEAD_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    @property
    def health_status(self) -> str:
        """What ``/healthz`` should report: ``"draining"`` from the
        moment :meth:`begin_drain` ran, ``"ok"`` before."""
        return "draining" if (self._draining or not self._ready) else "ok"

    def begin_drain(self) -> None:
        """Flip readiness only: ``/healthz`` answers ``"draining"``
        while queries are still admitted and served.  Idempotent."""
        self._ready = False

    async def shutdown(self, *, grace: float | None = None) -> None:
        """Graceful drain: announce unreadiness, wait ``grace``
        seconds (default: the constructor's ``drain_grace``) so load
        balancers stop routing, then stop accepting, finish in-flight
        requests, and force-close idle keep-alive connections.

        Idle connections are closed once the last in-flight request
        finished — their handlers are parked in a read that nothing
        else would ever wake, and (from Python 3.12.1) ``wait_closed``
        waits for every handler to return.  Handlers that are
        mid-request finish their response first (draining breaks their
        keep-alive loop)."""
        self.begin_drain()
        grace = self.drain_grace if grace is None else grace
        if grace > 0:
            await asyncio.sleep(grace)
        self._draining = True
        if self._server is not None:
            self._server.close()
        while self.metrics.inflight > 0:
            await asyncio.sleep(0.005)
        for writer in list(self._idle_connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        await self._post_drain()

    async def _post_drain(self) -> None:
        """Subclass cleanup after the last request drained (worker
        pools, health loops, downstream connections)."""

    # -- the request path ----------------------------------------------

    async def _serve(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict | bytes, dict]:
        """Answer one request: route, check the method, count it, and
        admit it if its route is admitted; returns ``(status, payload,
        extra response headers)``."""
        endpoint, route, args = parse_path(method, path)
        metrics = self.metrics
        metrics.observe_request(endpoint)
        if retry_attempt(headers.get("x-retry-attempt")) > 0:
            metrics.observe_client_retry()
        t0 = time.perf_counter()
        extra: dict = {}
        try:
            if route is None:
                raise ProtocolError(
                    "unknown_route",
                    f"no route for {method} {path}",
                    status=404,
                )
            expected, admitted = _ROUTES[route]
            if method != expected:
                raise ProtocolError(
                    "method_not_allowed",
                    f"use {expected} for this endpoint, not {method}",
                    status=405,
                )
            handler = getattr(self, f"_{route}")
            request = Request(method, path, headers, body, endpoint)
            if admitted:
                answer = await self._admitted(request, handler, *args)
            else:
                answer = await handler(request, *args)
            if len(answer) == 3:
                status, payload, extra = answer
            else:
                status, payload = answer
        except Exception as exc:  # noqa: BLE001 — every failure is an answer
            status, payload, extra = self._failure(exc)
        metrics.observe_response(endpoint, status, time.perf_counter() - t0)
        return status, payload, extra

    async def _admitted(self, request: Request, handler, *args) -> tuple:
        """``handler(request, *args)`` as one admitted request: a fast
        503 with its ``Retry-After`` backoff hint instead of an
        unbounded queue, else counted in flight until it answers.
        Unreadiness (``begin_drain``) does *not* reject — the grace
        window exists precisely so requests still in flight from a
        router that has not yet noticed keep succeeding."""
        metrics = self.metrics
        if self._draining:
            metrics.observe_reject(request.endpoint)
            return 503, error_payload(
                "draining", f"{self.ROLE} is shutting down", retriable=True
            ), self._retry_after_header()
        if metrics.inflight >= self.max_inflight:
            metrics.observe_reject(request.endpoint)
            return 503, error_payload(
                "overloaded",
                f"{metrics.inflight} requests in flight "
                f"(max_inflight={self.max_inflight}); retry",
                retriable=True,
            ), self._retry_after_header()
        metrics.inflight += 1
        try:
            return await handler(request, *args)
        finally:
            metrics.inflight -= 1

    def _failure(self, exc: Exception) -> tuple[int, dict, dict]:
        """The answer to a request whose handler raised ``exc``: the
        protocol's own error, else a last-resort 500.  Subclasses map
        their own exceptions first."""
        if isinstance(exc, ProtocolError):
            return exc.status, exc.payload(), {}
        return 500, error_payload(
            "internal", f"{type(exc).__name__}: {exc}"
        ), {}

    # -- helpers shared by both front ends -------------------------------

    def _retry_after_header(self) -> dict:
        # RFC 9110 wants integral delta-seconds; emit sub-second
        # values as-is anyway (our own client parses floats, and a
        # strict parser falling back to "retry later" is still right).
        value = self.retry_after
        rendered = str(int(value)) if float(value).is_integer() else f"{value:g}"
        return {"Retry-After": rendered}

    # -- connection handling -------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                # Parked between requests: eligible for force-close by
                # a draining shutdown.
                self._idle_connections.add(writer)
                try:
                    request = await self._read_request(reader)
                except _Refused as refusal:
                    status, code, message = refusal.args
                    await self._respond(
                        writer, status, error_payload(code, message), {}, False
                    )
                    break
                finally:
                    self._idle_connections.discard(writer)
                if request is None:
                    break
                method, path, headers, body, keep_alive = request
                status, payload, extra = await self._serve(
                    method, path, headers, body
                )
                keep_alive = keep_alive and not self._draining
                await self._respond(writer, status, payload, extra, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,  # head over MAX_HEAD_BYTES
            ConnectionResetError,
            BrokenPipeError,
            ValueError,  # malformed request line / headers
        ):
            pass  # client went away or spoke garbage; just close
        finally:
            self._idle_connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | bytes,
        extra: dict,
        keep_alive: bool,
    ) -> None:
        data = payload if isinstance(payload, bytes) else dumps(payload)
        reason = _STATUS_TEXT.get(status, b"OK")
        connection = b"keep-alive" if keep_alive else b"close"
        extra_lines = "".join(
            f"{name}: {value}\r\n" for name, value in extra.items()
        ).encode("latin-1")
        writer.write(
            _HEAD % (status, reason, len(data), connection)
            + extra_lines
            + b"\r\n"
            + data
        )
        await writer.drain()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes, bool] | None:
        """Read one HTTP/1.x request in two stream awaits — the head up
        to its blank line, then the ``Content-Length`` body — and
        return ``(method, path, headers, body, keep_alive)``; ``None``
        on a clean EOF between requests.  ``keep_alive`` is what the
        client asked for: HTTP/1.1 unless ``Connection: close``,
        HTTP/1.0 only with ``Connection: keep-alive``.  A body over the
        cap or one framed by ``Transfer-Encoding`` is left unread and
        raises :class:`_Refused`."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise
            return None
        start, headers = _parse_head(head)
        method, path, version = start.split()  # ValueError: garbage
        if "transfer-encoding" in headers:
            raise _Refused(
                501,
                "unsupported_transfer_encoding",
                "request bodies are framed by Content-Length only, "
                f"not Transfer-Encoding: {headers['transfer-encoding']}",
            )
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _Refused(
                413,
                "payload_too_large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
            )
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection == "keep-alive"
            if version == "HTTP/1.0"
            else connection != "close"
        )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body, keep_alive


def _parse_head(head: bytes) -> tuple[str, dict[str, str]]:
    """A head read up to its blank line: its start line, and its header
    fields with the names lowercased.  A request and a worker's answer
    are read with this one parser."""
    start, *lines = head[:-4].decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return start, headers


def retry_attempt(header: str | None) -> int:
    """The attempt an ``X-Retry-Attempt`` header names (repro.client
    sends one with each 503 backoff retry); 0 if none or not a number."""
    try:
        return int(header or 0)
    except ValueError:
        return 0


#: A request target is printable ASCII without a space, or not sent.
_UNSAFE_IN_PATH = re.compile(r"[^\x21-\x7e]")


def request_bytes(
    method: str, target: str, headers: dict[str, str], body: bytes | None
) -> bytes:
    """One request as it goes on the wire: head and body in one buffer,
    so it reaches the server as one segment.  A target or header that
    would start a line of its own is a ``ValueError``."""
    lines = [f"{method} {target} HTTP/1.1"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    head = "\r\n".join(lines)
    # One CRLF between lines and not a byte more: nothing a caller
    # passed may start a header (or a request) of its own.
    if _UNSAFE_IN_PATH.search(target) or not (
        head.count("\r") == head.count("\n") == len(lines) - 1
    ):
        raise ValueError(f"unsendable request target or header: {head!r}")
    data = (head + "\r\n\r\n").encode("latin-1")
    return data + body if body else data


class UpstreamError(Exception):
    """An exchange with a worker failed on the wire: refused, reset,
    closed early, out of time, or not a server's answer."""


class Upstream:
    """The gateway's connections to one worker: a stack of idle
    keep-alive ``(reader, writer)`` pairs, never more than the gateway
    had exchanges in flight, and one exchange over them.  It reads what
    :meth:`BaseAsyncHttpServer._respond` writes and nothing else: no
    chunked body, no 1xx, no TLS (``repro.client`` speaks to foreign
    servers)."""

    def __init__(self, url: str) -> None:
        split = urlsplit(url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"a worker URL is http://host:port, got {url!r}")
        self.host, self.port = split.hostname, split.port or 80
        self._host = {"Host": split.netloc}
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._closed = False

    def close(self) -> None:
        """Close the idle pairs, and the busy ones as they come back."""
        self._closed = True
        while self._idle:
            self._idle.pop()[1].close()

    async def exchange(
        self,
        method: str,
        target: str,
        body: bytes | None = None,
        *,
        headers: dict[str, str] | None = None,
        idempotent: bool = True,
        timeout: float,
    ) -> tuple[int, dict[str, str], bytes]:
        """``(status, lowercased headers, raw body)`` of one request,
        within ``timeout`` seconds; a failure on the wire is an
        :class:`UpstreamError`.  An idempotent request tries an idle
        pair first and, if the worker closed it while idle, is sent once
        more on a fresh connection; any other takes a fresh one, so it
        never runs twice.  What :func:`request_bytes` refuses is a
        ``ValueError``, and nothing is sent."""
        headers = {**self._host, **headers} if headers else self._host
        data = request_bytes(method, target, headers, body)
        reuse = idempotent
        try:
            async with asyncio.timeout(timeout):
                while True:
                    reused = reuse and bool(self._idle)
                    if reused:
                        pair = self._idle.pop()
                    else:
                        pair = await asyncio.open_connection(
                            self.host, self.port, limit=MAX_HEAD_BYTES
                        )
                    reader, writer = pair
                    got = b""
                    try:
                        writer.write(data)
                        got = await reader.readuntil(b"\r\n\r\n")
                        start, answered = _parse_head(got)
                        version, status, _ = start.split(" ", 2)
                        length = answered.get("content-length")
                        if not version.startswith("HTTP/1.") or not length:
                            raise ValueError(f"not a server's answer: {start!r}")
                        status = int(status)
                        raw = await reader.readexactly(int(length))
                    except (ConnectionError, asyncio.IncompleteReadError) as exc:
                        writer.close()
                        if not reused or got or getattr(exc, "partial", b""):
                            raise
                        reuse = False  # closed while idle: nothing ran
                        continue
                    except BaseException:
                        writer.close()
                        raise
                    if self._closed or answered.get("connection") != "keep-alive":
                        writer.close()
                    else:
                        self._idle.append(pair)
                    return status, answered, raw
        except TimeoutError:
            raise UpstreamError(f"no answer within {timeout:g}s") from None
        except (OSError, EOFError, ValueError, asyncio.LimitOverrunError) as exc:
            raise UpstreamError(f"{type(exc).__name__}: {exc}") from exc


__all__ = [
    "BaseAsyncHttpServer", "MAX_BODY_BYTES", "Request", "Upstream",
    "UpstreamError", "parse_path", "request_bytes", "retry_attempt",
]
