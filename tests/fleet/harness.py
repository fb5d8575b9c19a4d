"""A real fleet — worker *processes* under a supervisor, gateway on a
background event-loop thread — driven synchronously over actual TCP.
The multi-process sibling of :class:`tests.server.harness.ServerHarness`."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

from repro.fleet import FleetGateway, WorkerSupervisor


def http_json(
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    *,
    timeout: float = 30.0,
) -> tuple[int, bytes]:
    """One request on a fresh connection; raw response bytes (so tests
    can assert *bitwise* identity between gateway and worker)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = None if body is None else json.dumps(body)
        conn.request(method, path, body=data)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class FleetHarness:
    """Spawn workers + gateway; synchronous test access to both."""

    def __init__(
        self,
        stores,
        num_workers: int = 2,
        *,
        runtime_dir,
        supervisor_kwargs: dict | None = None,
        gateway_kwargs: dict | None = None,
    ) -> None:
        sup_kwargs = {
            "drain_grace": 0.0,
            "restart_backoff": 0.1,
            "stable_after": 2.0,
            **(supervisor_kwargs or {}),
        }
        self.supervisor = WorkerSupervisor(
            stores, num_workers, runtime_dir=runtime_dir, **sup_kwargs
        )
        self.supervisor.start()
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="gateway-loop", daemon=True
        )
        self._thread.start()
        gw_kwargs = {"health_interval": 0.1, **(gateway_kwargs or {})}
        try:
            self.gateway = FleetGateway(
                self.supervisor.endpoints, port=0, **gw_kwargs
            )
            self.submit(self.gateway.start()).result(timeout=30)
            self.submit(
                self.gateway.wait_ready(workers=num_workers)
            ).result(timeout=120)
        except BaseException:
            self.close()
            raise

    # -- access ----------------------------------------------------------

    @property
    def port(self) -> int:
        return self.gateway.port

    def submit(self, coro):
        """Run a coroutine on the gateway's loop; returns the future."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        timeout: float = 30.0,
    ) -> tuple[int, dict]:
        status, raw = http_json(
            self.port, method, path, body, timeout=timeout
        )
        return status, json.loads(raw)

    def worker_ports(self) -> dict[str, int]:
        """Each live worker's port, read on the gateway's loop: the
        supervisor's state is confined to it."""

        async def endpoints() -> dict[str, str]:
            return self.supervisor.endpoints()

        return {
            name: int(url.rsplit(":", 1)[1])
            for name, url in self.submit(endpoints()).result(30).items()
        }

    def wait_worker_down(self, name: str, *, timeout: float = 60.0) -> None:
        """Block until the gateway has taken ``name`` out of rotation
        (ejected, or dropped from the worker map after its port file
        vanished).  Call this after failure injection, *before*
        :meth:`wait_worker_healthy` — otherwise the health wait can
        race the ejection and observe the stale pre-crash state."""

        async def _wait() -> None:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + timeout
            while True:
                st = self.gateway._workers.get(name)
                if st is None or st.state != "healthy":
                    return
                if loop.time() > deadline:
                    raise TimeoutError(
                        f"worker {name} still healthy after {timeout:g}s"
                    )
                await asyncio.sleep(0.02)

        self.submit(_wait()).result(timeout=timeout + 10)

    def wait_worker_healthy(
        self, name: str, *, timeout: float = 60.0
    ) -> None:
        """Block until the gateway routes to ``name`` again (used
        after failure injection to observe readmission)."""

        async def _wait() -> None:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + timeout
            while True:
                st = self.gateway._workers.get(name)
                if st is not None and st.state == "healthy":
                    return
                if loop.time() > deadline:
                    state = st.state if st is not None else "absent"
                    raise TimeoutError(
                        f"worker {name} not healthy after {timeout:g}s "
                        f"(state: {state}, last_error: "
                        f"{getattr(st, 'last_error', None)})"
                    )
                await asyncio.sleep(0.02)

        self.submit(_wait()).result(timeout=timeout + 10)

    def close(self) -> None:
        try:
            if getattr(self, "gateway", None) is not None:
                self.submit(self.gateway.shutdown()).result(timeout=30)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=10)
            self.loop.close()
            self.supervisor.stop()
