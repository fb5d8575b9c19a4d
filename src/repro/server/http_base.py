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

from repro.service.shapes import BY_ROUTE

#: Request bodies above this are rejected with 413 before parsing.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Sentinel: the request declared a Content-Length over the cap and
#: its body was never read off the socket.
_BODY_TOO_LARGE = object()

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


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
            self._on_connection, self.host, self.port
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
                finally:
                    self._idle_connections.discard(writer)
                if request is None:
                    break
                method, path, headers, body = request
                if body is _BODY_TOO_LARGE:
                    status, payload, extra = 413, _base_error(
                        "payload_too_large",
                        f"request body exceeds {MAX_BODY_BYTES} bytes",
                    ), {}
                    # The oversized body was never read off the socket,
                    # so the connection cannot be reused.
                    keep_alive = False
                else:
                    status, payload, extra = await self._dispatch(
                        method, path, headers, body
                    )
                    keep_alive = (
                        headers.get("connection", "").lower() != "close"
                        and not self._draining
                    )
                data = (
                    payload
                    if isinstance(payload, bytes)
                    else json.dumps(payload).encode("utf-8")
                )
                extra_lines = "".join(
                    f"{name}: {value}\r\n" for name, value in extra.items()
                )
                head = (
                    f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                    f"{extra_lines}"
                    f"\r\n"
                ).encode("latin-1")
                writer.write(head + data)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
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

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Parse one HTTP/1.1 request; ``None`` on a clean EOF.  An
        oversized body is left unread and signalled with the
        :data:`_BODY_TOO_LARGE` sentinel (answered 413 upstream)."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise asyncio.IncompleteReadError(line, None)
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            return method, path, headers, _BODY_TOO_LARGE
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body


def _base_error(code: str, message: str) -> dict:
    # Local renderer: http_base must not import the protocol module
    # (the gateway reuses this loop without the worker's schema).
    from repro.server.protocol import PROTOCOL_VERSION

    return {"v": PROTOCOL_VERSION, "error": {"code": code, "message": message}}


__all__ = ["BaseAsyncHttpServer", "MAX_BODY_BYTES"]
