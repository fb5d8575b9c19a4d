"""`HttpBackend` — the remote transport (stdlib sockets, ``orjson`` bodies).

Speaks the :mod:`repro.server` wire protocol (see ``docs/SERVER.md``)
over persistent HTTP/1.1 keep-alive connections of its own
(:class:`_Connection`: a request is one ``sendall``, a response is
parsed out of one receive buffer — ``docs/CLIENT.md`` lists what HTTP
it speaks and what it deliberately does not):

* **connection pool** — up to ``pool_size`` idle connections are kept
  and reused across requests (and across threads: the pool is locked,
  each in-flight request owns its connection exclusively).  A reused
  connection that the server closed while idle is replaced
  transparently and the request is re-sent once — callers never see
  the keep-alive race.
* **per-request timeouts** — ``timeout`` bounds every socket
  operation; expiry raises
  :class:`~repro.client.errors.BackendTimeoutError`.
* **bounded retry with backoff** — a retriable 503 (``overloaded`` /
  ``draining``) is retried up to ``retry.retries`` times with
  exponential backoff, honouring the server's ``Retry-After`` hint
  (capped at ``retry.max_backoff``).  Retries identify themselves with
  an ``X-Retry-Attempt`` header, which the server counts in
  ``/metrics`` (``retries_observed_total``).  An exhausted budget
  raises :class:`~repro.client.errors.OverloadedError`.
* **typed errors** — every non-200 payload maps through
  :func:`~repro.client.errors.error_from_payload`, the same mapping
  :class:`~repro.client.backend.LocalBackend` applies in-process, so
  error handling is transport-agnostic too.

Answers decode through :mod:`repro.client.results` — bitwise-identical
to :class:`LocalBackend` over the same prepared dataset
(``tests/client/test_transport_parity.py``).
"""

from __future__ import annotations

import socket
import ssl
import time
from dataclasses import dataclass, field
from threading import Lock
from typing import Sequence
from urllib.parse import urlsplit

from orjson import JSONDecodeError, dumps, loads

from repro.client import wire
from repro.client.backend import TransitBackend
from repro.client.errors import (
    BackendTimeoutError,
    OverloadedError,
    TransportError,
    error_from_payload,
)
from repro.client.results import DatasetInfo, DelayUpdate, decode
from repro.server.http_base import request_bytes
from repro.service.shapes import (
    APPLY_REPLY,
    DATASETS,
    Shape,
    error_payload,
    with_version,
)
from repro.timetable.delays import Delay


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retry for retriable 503s (and only those).

    Attempt ``n`` (0-based) sleeps
    ``min(max(backoff * multiplier**n, retry_after), max_backoff)``
    where ``retry_after`` is the server's hint (ignored when
    ``honor_retry_after`` is off).  ``retries=0`` disables retrying.
    """

    retries: int = 4
    backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    honor_retry_after: bool = True

    def delay(self, attempt: int, retry_after: float | None) -> float:
        backoff = self.backoff * self.multiplier**attempt
        if self.honor_retry_after and retry_after is not None:
            backoff = max(backoff, retry_after)
        return min(backoff, self.max_backoff)


@dataclass(slots=True)
class HttpBackendStats:
    """Client-side transport accounting (one per backend)."""

    requests: int = 0
    retries: int = 0
    reconnects: int = 0
    responses_by_status: dict = field(default_factory=dict)


#: A response head (status line + header block) that has not ended
#: within this many bytes is refused.  Also the size of one ``recv``,
#: so the receive buffer never holds more than twice this.
MAX_HEAD_BYTES = 64 * 1024


class _HttpError(ValueError):
    """The peer's bytes are not an HTTP/1.x response we can frame."""


class _NoResponse(EOFError):
    """EOF before the first response byte."""


#: Failures that, on a *reused* connection, mean the server closed it
#: while idle — before our request bytes were processed.
_STALE_CONNECTION = (_NoResponse, ConnectionResetError, BrokenPipeError)


class _Connection:
    """One keep-alive HTTP/1.1 connection to one host.

    :meth:`exchange` writes head and body in **one** ``sendall`` (the
    request reaches the server as one segment, which wakes it once)
    and frames the response out of one receive buffer: status line and
    header block in one split, then a ``Content-Length`` body into a
    buffer sized once, a chunked body decoded, or — neither declared —
    everything up to the close.  No redirects, no proxies, no
    ``Expect: 100-continue``; interim 1xx heads are skipped.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float,
        tls: ssl.SSLContext | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._tls = tls
        name = f"[{host}]" if ":" in host else host
        if port != (80 if tls is None else 443):
            name = f"{name}:{port}"
        self._headers = {"Host": name, "Accept-Encoding": "identity"}
        self._sock: socket.socket | None = None
        self._buf = bytearray()  # received, not yet consumed

    def connect(self) -> None:
        """Open the socket; every later socket operation (the TLS
        handshake included) is bounded by ``timeout``."""
        # Owned by close() from here on, also when the handshake fails.
        self._sock = sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._tls is not None:
            self._sock = self._tls.wrap_socket(sock, server_hostname=self.host)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def exchange(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes, bool]:
        """One request, one response: ``(status, lowercased headers,
        raw body, will_close)``.  ``will_close`` says the connection
        cannot carry another exchange (``Connection: close``, an
        HTTP/1.0 answer, or a body delimited by the close).  What
        :func:`~repro.server.http_base.request_bytes` refuses to put on
        the wire is a ``ValueError``, and nothing is sent."""
        if headers:
            headers = {**self._headers, **headers}
        data = request_bytes(method, path, headers or self._headers, body)
        if self._sock is None:
            self.connect()
        self._sock.sendall(data)

        status = 100
        while 100 <= status < 200 and status != 101:  # skip interim heads
            version, status, answered = self._read_head()
        will_close = (
            version == "HTTP/1.0"
            or answered.get("connection", "").lower() == "close"
        )
        if method == "HEAD" or status < 200 or status in (204, 304):
            raw = b""
        elif "chunked" in answered.get("transfer-encoding", "").lower():
            raw = self._read_chunked()
        elif "content-length" in answered:
            raw = self._read_exactly(int(answered["content-length"]))
        else:  # delimited by the close
            rest = iter(lambda: self._sock.recv(MAX_HEAD_BYTES), b"")
            raw, will_close = bytes(self._buf) + b"".join(rest), True
            self._buf.clear()
        # Bytes past the body would be read as the next response.
        return status, answered, raw, will_close or bool(self._buf)

    # -- framing (a malformed number is a ValueError, mapped like
    # -- _HttpError; EOF inside a response is an EOFError) ---------------

    def _read_until(self, mark: bytes, *, first: bool = False) -> bytes:
        """Consume the buffer up to and including ``mark``; returns
        what came before it."""
        buf = self._buf
        while (end := buf.find(mark)) < 0:
            if len(buf) > MAX_HEAD_BYTES:
                raise _HttpError(
                    f"no end of the response head in {len(buf)} bytes"
                )
            chunk = self._sock.recv(MAX_HEAD_BYTES)
            if not chunk:
                raise (_NoResponse if first and not buf else EOFError)(
                    f"closed after {len(buf)} bytes of a response head"
                )
            buf += chunk
        found = bytes(buf[:end])
        del buf[: end + len(mark)]
        return found

    def _read_head(self) -> tuple[str, int, dict[str, str]]:
        head = self._read_until(b"\r\n\r\n", first=True).decode("latin-1")
        status_line, *lines = head.split("\r\n")
        version, _, rest = status_line.partition(" ")
        if not version.startswith("HTTP/1.") or not rest[:3].isdigit():
            raise _HttpError(f"bad status line {status_line!r}")
        answered: dict[str, str] = {}
        for line in lines:
            name, _, value = line.partition(":")
            answered[name.strip().lower()] = value.strip()
        return version, int(rest[:3]), answered

    def _read_exactly(self, n: int) -> bytes:
        buf = self._buf
        body = bytearray(n)  # sized once; an absurd n raises here
        have = min(n, len(buf))
        body[:have] = buf[:have]
        del buf[:have]
        view = memoryview(body)
        while have < n:
            got = self._sock.recv_into(view[have:])
            if not got:
                raise EOFError(f"closed after {have} of {n} body bytes")
            have += got
        return bytes(body)

    def _read_chunked(self) -> bytes:
        parts = []
        while size := int(self._read_until(b"\r\n").split(b";")[0], 16):
            parts.append(self._read_exactly(size))
            self._read_until(b"\r\n")
        while self._read_until(b"\r\n"):
            pass  # trailer fields
        return b"".join(parts)


class _ConnectionPool:
    """A small stack of reusable keep-alive connections to one host."""

    def __init__(
        self, scheme: str, host: str, port: int, *, size: int, timeout: float
    ) -> None:
        self._tls = ssl.create_default_context() if scheme == "https" else None
        self.host = host
        self.port = port
        self.size = size
        self.timeout = timeout
        self._idle: list[_Connection] = []
        self._lock = Lock()

    def acquire(self, *, fresh: bool = False) -> tuple[_Connection, bool]:
        """Borrow a connection; ``True`` means it is reused (and may
        have been closed by the server while idle).  ``fresh`` skips
        the idle stack — for requests that must not race a stale
        keep-alive connection (non-idempotent posts, the re-send after
        a stale one already failed).  A new connection connects on its
        first exchange."""
        if not fresh:
            with self._lock:
                if self._idle:
                    return self._idle.pop(), True
        conn = _Connection(
            self.host, self.port, timeout=self.timeout, tls=self._tls
        )
        return conn, False

    def release(self, conn: _Connection, *, reusable: bool) -> None:
        if reusable:
            with self._lock:
                if len(self._idle) < self.size:
                    self._idle.append(conn)
                    return
        conn.close()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class HttpBackend(TransitBackend):
    """A :class:`~repro.client.backend.TransitBackend` over HTTP.

    ``base_url`` is ``http(s)://host:port`` with an optional trailing
    ``/dataset`` path segment; without one (and without ``dataset=``)
    the backend asks ``/v1/datasets`` and requires the server to serve
    exactly one.  See the module docstring for pooling, timeout and
    retry semantics, and ``docs/CLIENT.md`` for the full tour.
    """

    def __init__(
        self,
        base_url: str,
        dataset: str | None = None,
        *,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        pool_size: int = 4,
    ) -> None:
        split = urlsplit(base_url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ValueError(
                f"base_url must be http(s)://host[:port][/dataset], "
                f"got {base_url!r}"
            )
        path = split.path.strip("/")
        if path and dataset is None:
            dataset = path
        elif path and path != dataset:
            raise ValueError(
                f"dataset given twice and inconsistently: "
                f"{path!r} in the URL, {dataset!r} as argument"
            )
        self.base_url = f"{split.scheme}://{split.netloc}"
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = HttpBackendStats()
        self._pool = _ConnectionPool(
            split.scheme,
            split.hostname,
            split.port or (443 if split.scheme == "https" else 80),
            size=pool_size,
            timeout=timeout,
        )
        self._sleep = time.sleep  # injection point for retry tests
        self._stats_lock = Lock()  # stats are shared across threads
        self._dataset = dataset

    # -- lifecycle ------------------------------------------------------

    @property
    def dataset(self) -> str:
        """The served dataset this backend talks to (resolved from
        ``/v1/datasets`` on first use when not named explicitly)."""
        if self._dataset is None:
            self._resolve_dataset(self._list_datasets())
        return self._dataset

    def _resolve_dataset(self, entries: list[DatasetInfo]) -> None:
        names = [entry.name for entry in entries]
        if len(names) != 1:
            raise ValueError(
                f"server at {self.base_url} serves {names or 'nothing'}; "
                f"name the dataset (HttpBackend(url, dataset=...) or a "
                f"/dataset URL suffix)"
            )
        self._dataset = names[0]

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "HttpBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the transport hook ----------------------------------------------

    def _exchange(self, shape: Shape, body: dict) -> dict:
        return self._post(f"/v1/{self.dataset}/{shape.route}", body)

    # -- delays and metadata ---------------------------------------------

    def apply_delays(
        self,
        delays: Sequence[Delay],
        *,
        slack_per_leg: int = 0,
        replan: str = "full",
    ) -> DelayUpdate:
        # Not idempotent: a replayed swap would stack the delays onto
        # the already-delayed timetable, so no transparent re-send on
        # connection failures (503 rejections happen *before* any
        # replan and stay safely retriable).
        body = wire.delays_body(delays, slack_per_leg, replan=replan)
        return decode(
            APPLY_REPLY,
            self._post(
                f"/v1/datasets/{self.dataset}/delays",
                body,
                idempotent=False,
            )
        )

    def info(self) -> DatasetInfo:
        # One fetch serves both jobs: resolving an unnamed dataset and
        # answering with its entry.
        entries = self._list_datasets()
        if self._dataset is None:
            self._resolve_dataset(entries)
        for entry in entries:
            if entry.name == self._dataset:
                return entry
        raise error_from_payload(
            404,
            error_payload(
                "unknown_dataset",
                f"dataset {self.dataset!r} is not served by {self.base_url}",
            ),
        )

    def server_metrics(self) -> dict:
        """The server's ``/metrics`` document (transport-specific
        extra: a local backend has no serving metrics)."""
        return self._request("GET", "/metrics")

    # -- transport internals ----------------------------------------------

    def _list_datasets(self) -> list[DatasetInfo]:
        payload = self._request("GET", "/v1/datasets")
        return list(decode(DATASETS, payload)["datasets"])

    def _post(
        self, path: str, body: dict, *, idempotent: bool = True
    ) -> dict:
        return self._request(
            "POST", path, with_version(body), idempotent=idempotent
        )

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        idempotent: bool = True,
    ) -> dict:
        """One logical request: retry loop over :meth:`_send_once`."""
        data = None if body is None else dumps(body)
        attempt = 0
        while True:
            status, headers, raw = self._send_once(
                method, path, data, attempt, idempotent=idempotent
            )
            try:
                payload = loads(raw)
            except JSONDecodeError:
                raise TransportError(
                    "invalid_response",
                    f"server answered HTTP {status} with a non-JSON body "
                    f"({len(raw)} bytes)",
                ) from None
            if status == 200:
                return payload
            retry_after = _parse_retry_after(headers.get("retry-after"))
            error = error_from_payload(
                status, payload, retry_after=retry_after, attempts=attempt + 1
            )
            retriable = isinstance(error, OverloadedError)
            if not retriable or attempt >= self.retry.retries:
                raise error
            with self._stats_lock:
                self.stats.retries += 1
            self._sleep(self.retry.delay(attempt, retry_after))
            attempt += 1

    def _send_once(
        self,
        method: str,
        path: str,
        data: bytes | None,
        attempt: int,
        *,
        idempotent: bool = True,
    ) -> tuple[int, dict, bytes]:
        """One wire exchange; returns ``(status, lowercased headers,
        raw body bytes)`` — :meth:`_request` decodes them.

        Idempotent requests (queries are pure) first try a pooled
        keep-alive connection; if the server closed it while idle, the
        exchange is re-sent once on a **fresh** connection (never a
        second pooled one — the whole idle stack may be stale after a
        server restart).  Non-idempotent requests skip the pool's idle
        stack entirely: a stale-connection failure is then impossible,
        so no replay can ever double-apply them.
        """
        headers = {"Content-Type": "application/json"}
        if attempt > 0:
            headers["X-Retry-Attempt"] = str(attempt)
        passes = (False, True) if idempotent else (True,)
        for i, force_fresh in enumerate(passes):
            conn, reused = self._pool.acquire(fresh=force_fresh)
            try:
                status, answered, raw, will_close = conn.exchange(
                    method, path, data, headers
                )
            except Exception as exc:  # noqa: BLE001 — mapped below
                conn.close()
                stale = reused and isinstance(exc, _STALE_CONNECTION)
                if stale and i + 1 < len(passes):
                    # Keep-alive race: the server closed the idle
                    # connection before our bytes arrived.  Nothing
                    # ran; re-send on a fresh connection.
                    with self._stats_lock:
                        self.stats.reconnects += 1
                    continue
                raise _map_transport_error(exc, self._pool) from exc
            with self._stats_lock:
                self.stats.requests += 1
                by_status = self.stats.responses_by_status
                by_status[status] = by_status.get(status, 0) + 1
            self._pool.release(conn, reusable=not will_close)
            return status, answered, raw
        raise AssertionError("unreachable: the final pass raises or returns")


def _parse_retry_after(value: str | None) -> float | None:
    if value is None:
        return None
    try:
        parsed = float(value)
    except ValueError:
        return None
    return parsed if parsed >= 0 else None


def _map_transport_error(
    exc: Exception, pool: _ConnectionPool
) -> TransportError:
    where = f"{pool.host}:{pool.port}"
    if isinstance(exc, (socket.timeout, TimeoutError)):
        return BackendTimeoutError(
            "timeout",
            f"no complete response from {where} within {pool.timeout:g}s",
        )
    if isinstance(exc, ConnectionRefusedError):
        return TransportError(
            "connection_refused", f"nothing is listening on {where}"
        )
    if isinstance(exc, (ConnectionResetError, BrokenPipeError, EOFError)):
        return TransportError(
            "disconnected",
            f"{where} closed the connection mid-exchange: {exc}",
        )
    if isinstance(exc, (ValueError, OverflowError, MemoryError, OSError)):
        return TransportError(
            "transport", f"HTTP exchange with {where} failed: {exc}"
        )
    raise exc


__all__ = ["HttpBackend", "HttpBackendStats", "RetryPolicy"]
