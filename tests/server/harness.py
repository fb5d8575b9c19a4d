"""A real :class:`TransitServer` on a background event-loop thread,
driven over actual TCP by synchronous stdlib HTTP clients.  Used by
the server test suite (via ``tests/server/conftest.py``),
``tests/test_cli.py`` and the golden-fixture regenerators."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

from repro.server import DatasetRegistry, TransitServer


class GatedService:
    """A service whose served ``<shape>`` requests wait until
    :meth:`release` — the tests' lever for keeping requests in flight.
    The server asks ``lookup`` and then awaits ``submit``; the gate is
    at the start of ``submit``, on the loop, and waits without a thread
    of its own.  The requests that reached the gate are listed in
    :attr:`entered`; everything else is the wrapped service's."""

    def __init__(self, service, shape: str = "journey") -> None:
        self._service = service
        self._shape = shape
        self._gate = threading.Event()
        #: Requests whose ``submit`` has started, in start order.
        self.entered: list = []

    def release(self) -> None:
        self._gate.set()

    def lookup(self, shape, request):
        """Nothing of the gated shape is answered without ``submit`` —
        or it would never reach the gate."""
        if shape.name == self._shape:
            return None
        return self._service.lookup(shape, request)

    async def submit(self, shape, request):
        if shape.name == self._shape:
            self.entered.append(request)
            deadline = time.monotonic() + 30
            while not self._gate.is_set():
                if time.monotonic() > deadline:
                    raise TimeoutError("the gate was never released")
                await asyncio.sleep(0.005)
        return await self._service.submit(shape, request)

    def __getattr__(self, name: str):
        return getattr(self._service, name)


def wait_until(condition, *, timeout: float = 10.0, what: str = "condition"):
    """Poll ``condition()`` until it is truthy; its value is returned."""
    deadline = time.monotonic() + timeout
    while True:
        value = condition()
        if value:
            return value
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.005)


class ServerHarness:
    """Run one server on its own event loop; synchronous test access."""

    def __init__(self, registry: DatasetRegistry, **server_kwargs) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="server-loop", daemon=True
        )
        self._thread.start()
        self.server = TransitServer(registry, port=0, **server_kwargs)
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=10)

    @property
    def port(self) -> int:
        return self.server.port

    def request(
        self,
        method: str,
        path: str,
        body: dict | str | bytes | None = None,
        *,
        timeout: float = 30.0,
    ) -> tuple[int, dict]:
        """One HTTP request on a fresh connection; JSON-decoded reply."""
        status, _headers, payload = self.request_full(
            method, path, body, timeout=timeout
        )
        return status, payload

    def request_full(
        self,
        method: str,
        path: str,
        body: dict | str | bytes | None = None,
        *,
        timeout: float = 30.0,
        headers: dict | None = None,
    ) -> tuple[int, dict, dict]:
        """Like :meth:`request`, with lowercased response headers."""
        # ``http.client`` on purpose, not the SDK: now that the SDK
        # frames HTTP itself, this keeps an independent client on the
        # server suite — and one that sends head and body in separate
        # segments, which the SDK never does.
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=timeout
        )
        try:
            data = (
                body
                if body is None or isinstance(body, (str, bytes))
                else json.dumps(body)
            )
            conn.request(method, path, body=data, headers=headers or {})
            response = conn.getresponse()
            payload = json.loads(response.read())
            response_headers = {
                name.lower(): value for name, value in response.headers.items()
            }
            return response.status, response_headers, payload
        finally:
            conn.close()

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        self.loop.close()
