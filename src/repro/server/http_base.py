"""Shared asyncio HTTP/1.1 machinery for the serving front ends.

:class:`BaseAsyncHttpServer` owns everything that is identical between
a query worker (:class:`~repro.server.app.TransitServer`) and the
fleet routing gateway (:class:`~repro.fleet.gateway.FleetGateway`):
the keep-alive connection loop, strict request reading with an
oversized-body fast path, response writing, and the two-stage graceful
drain.  Subclasses implement exactly one hook —
:meth:`BaseAsyncHttpServer._dispatch` — and may return either a JSON
payload dict (serialized here) or pre-encoded ``bytes`` (written
verbatim; the gateway forwards worker answers byte-for-byte this way).

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
"""

from __future__ import annotations

import asyncio
import json

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
    409: b"Conflict",
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


class _Refused(Exception):
    """``(status, code, message)``: the request's framing is refused
    before its body is read.  The answer goes out ``Connection: close``
    and nothing further is read from the connection — whatever follows
    the head is not a request."""


class BaseAsyncHttpServer:
    """One listening socket; subclasses route via :meth:`_dispatch`."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_grace: float = 0.0,
    ) -> None:
        if drain_grace < 0:
            raise ValueError(
                f"drain_grace must be non-negative, got {drain_grace}"
            )
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.drain_grace = drain_grace
        self._server: asyncio.base_events.Server | None = None
        self._inflight = 0
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
        while self._inflight > 0:
            await asyncio.sleep(0.005)
        for writer in list(self._idle_connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        await self._post_drain()

    async def _post_drain(self) -> None:
        """Subclass cleanup after the last request drained (worker
        pools, health loops, downstream connections)."""

    # -- the routing hook ----------------------------------------------

    async def _dispatch(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict | bytes, dict]:
        """Route one request; returns ``(status, payload, extra
        response headers)``.  ``payload`` may be a JSON-safe dict or
        pre-encoded JSON ``bytes`` (forwarded verbatim)."""
        raise NotImplementedError

    # -- helpers shared by both front ends -------------------------------

    #: Backoff hint (seconds) sent as ``Retry-After`` on every
    #: retriable 503; set by the subclass constructor.
    retry_after: float

    def _endpoint_label(self, method: str, path: str) -> str:
        """Low-cardinality endpoint label for metrics (dataset names
        are folded out of the label; per-dataset detail lives in the
        registry section of the snapshot).  The query routes are the
        shape table's."""
        parts = [p for p in path.split("?")[0].split("/") if p]
        if parts == ["healthz"] or parts == ["metrics"]:
            return f"{method} /{parts[0]}"
        if parts[:2] == ["v1", "datasets"]:
            if len(parts) == 2:
                return "GET /v1/datasets"
            return "POST /v1/datasets/{name}/delays"
        if len(parts) == 3 and parts[0] == "v1" and parts[2] in BY_ROUTE:
            return f"POST /v1/{{name}}/{parts[2]}"
        return f"{method} <unmatched>"

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
                status, payload, extra = await self._dispatch(
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
        data = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8")
        )
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
        lines = head[:-4].decode("latin-1").split("\r\n")
        method, path, version = lines[0].split()  # ValueError: garbage
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
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


__all__ = ["BaseAsyncHttpServer", "MAX_BODY_BYTES"]
