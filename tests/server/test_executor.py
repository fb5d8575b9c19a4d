""":class:`QueryExecutor` unit tests: one worker job per search,
nothing scheduled on a clock, failures confined to their request, and
an answer that takes no search given without a worker."""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro.server.executor import QueryExecutor
from repro.service.shapes import JOURNEY, MULTICRITERIA, SHAPES

from tests.server.harness import GatedService


class _EchoService:
    """Every ``<shape>`` call echoes its request; ``"boom"`` raises.
    ``lookup`` knows the answers in ``known`` and nothing else."""

    def __init__(self, known: dict | None = None) -> None:
        self._known = known or {}

    def lookup(self, shape, request):
        return self._known.get(request)

    def __getattr__(self, name: str):
        def method(request):
            if request == "boom":
                raise ValueError("boom")
            return ("answered", request)

        return method


def run(scenario, *, workers: int = 4):
    """Run ``scenario(executor)`` on a fresh loop and executor."""

    async def main():
        executor = QueryExecutor(workers=workers)
        try:
            return await scenario(executor)
        finally:
            await executor.shutdown()

    return asyncio.run(asyncio.wait_for(main(), timeout=10))


class TestDispatch:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.name)
    def test_submit_schedules_no_timer(self, shape, monkeypatch):
        async def scenario(executor):
            loop = asyncio.get_running_loop()
            timers = []
            monkeypatch.setattr(
                loop, "call_later", lambda *a, **k: timers.append(a)
            )
            answer = await executor.submit(shape, _EchoService(), "a")
            return answer, timers

        assert run(scenario) == (("answered", "a"), [])

    def test_a_held_request_blocks_no_other(self):
        """A cheap request never waits behind a long one: with the
        first journey held inside the service, a second journey and a
        request of another shape are answered meanwhile."""
        service = _EchoService()
        gated = GatedService(service)

        async def scenario(executor):
            held = asyncio.create_task(executor.submit(JOURNEY, gated, "a"))
            while not gated.entered:
                await asyncio.sleep(0.005)
            others = await asyncio.gather(
                executor.submit(JOURNEY, service, "b"),
                executor.submit(MULTICRITERIA, gated, "c"),
            )
            assert not held.done()
            gated.release()
            return others, await held

        try:
            others, held = run(scenario)
        finally:
            gated.release()
        assert others == [("answered", "b"), ("answered", "c")]
        assert held == ("answered", "a")

    def test_a_lookup_needs_no_worker(self):
        """What ``service.lookup`` answers never becomes a job: it is
        returned while the only worker is held, and still after the
        pool is shut down."""
        service = _EchoService(known={"hit": "looked up"})
        gated = GatedService(_EchoService())

        async def scenario(executor):
            held = asyncio.create_task(executor.submit(JOURNEY, gated, "a"))
            while not gated.entered:
                await asyncio.sleep(0.005)
            during = await executor.submit(JOURNEY, service, "hit")
            assert not held.done()
            gated.release()
            await held
            await executor.shutdown()
            return during, await executor.submit(JOURNEY, service, "hit")

        try:
            assert run(scenario, workers=1) == ("looked up", "looked up")
        finally:
            gated.release()

    def test_a_failure_touches_only_its_own_request(self):
        service = _EchoService()

        async def scenario(executor):
            return await asyncio.gather(
                executor.submit(JOURNEY, service, "a"),
                executor.submit(JOURNEY, service, "boom"),
                executor.submit(JOURNEY, service, "b"),
                return_exceptions=True,
            )

        a, boom, b = run(scenario)
        assert (a, b) == (("answered", "a"), ("answered", "b"))
        assert isinstance(boom, ValueError)

    def test_needs_a_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            QueryExecutor(workers=0)


class TestLifecycle:
    def test_an_answered_service_is_collectable(self):
        """After a hot swap the old generation is referenced only by
        its in-flight jobs: once they are answered the executor holds
        nothing of it."""

        async def scenario(executor):
            old = _EchoService()
            ref = weakref.ref(old)
            assert await executor.submit(JOURNEY, old, "a") == ("answered", "a")
            del old
            gc.collect()
            return ref()

        assert run(scenario) is None

    def test_submit_after_shutdown_fails_every_time(self):
        """Shutdown is idempotent, and a late submit raises instead of
        hanging — the second as cleanly as the first."""

        async def main():
            executor = QueryExecutor(workers=1)
            await executor.shutdown()
            await executor.shutdown()
            for _ in range(2):
                with pytest.raises(RuntimeError, match="after shutdown"):
                    await executor.submit(JOURNEY, _EchoService(), "a")

        asyncio.run(asyncio.wait_for(main(), timeout=10))
