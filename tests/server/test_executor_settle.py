"""Micro-batch settling: a misbehaving ``journey_many`` (wrong result
count) must fail futures loudly, never leave them pending forever."""

from __future__ import annotations

import asyncio

import pytest

from repro.server.executor import QueryExecutor
from repro.service.model import JourneyRequest
from repro.service.shapes import JOURNEY


def _settled_group(results, num_futures):
    """Run _settle_group on a completed task inside a real loop and
    return the per-request futures."""

    async def scenario():
        loop = asyncio.get_running_loop()
        task = loop.create_future()
        task.set_result(results)
        futures = [loop.create_future() for _ in range(num_futures)]
        QueryExecutor._settle_group(task, futures)
        return futures

    return asyncio.run(scenario())


class TestSettleGroupLengths:
    def test_matching_lengths_settle_positionally(self):
        futures = _settled_group(["a", "b", "c"], 3)
        assert [f.result() for f in futures] == ["a", "b", "c"]

    def test_short_result_list_fails_leftovers(self):
        """Three grouped requests, two results: the aligned prefix is
        delivered, the trailing future fails with a clear error
        instead of hanging until the client's HTTP timeout."""
        futures = _settled_group(["a", "b"], 3)
        assert futures[0].result() == "a"
        assert futures[1].result() == "b"
        with pytest.raises(RuntimeError, match="2 results for 3"):
            futures[2].result()
        assert all(f.done() for f in futures)  # nothing left pending

    def test_long_result_list_fails_everything(self):
        """More results than requests means the positional alignment
        itself is untrustworthy — no future may accept an answer."""
        futures = _settled_group(["a", "b", "c"], 2)
        for future in futures:
            with pytest.raises(RuntimeError, match="3 results for 2"):
                future.result()

    def test_empty_result_list_fails_all(self):
        futures = _settled_group([], 2)
        for future in futures:
            with pytest.raises(RuntimeError, match="0 results for 2"):
                future.result()


class TestSettleGroupEndToEnd:
    def test_broken_journey_many_fails_grouped_requests(self, make_service):
        """Through the real micro-batch path: a service whose
        journey_many drops an answer produces request failures, not
        hangs."""
        service = make_service()
        real = service.journey_many
        service.journey_many = lambda requests: real(requests)[:-1]

        async def scenario():
            executor = QueryExecutor(
                workers=2, batch_window=0.05, batch_max=2
            )
            try:
                a = asyncio.create_task(
                    executor.submit(JOURNEY, service, JourneyRequest(0, 5))
                )
                b = asyncio.create_task(
                    executor.submit(JOURNEY, service, JourneyRequest(1, 6))
                )
                results = await asyncio.gather(a, b, return_exceptions=True)
            finally:
                await executor.shutdown()
            return results

        results = asyncio.run(asyncio.wait_for(scenario(), timeout=10))
        # The aligned prefix answered; the dropped tail failed loudly.
        errors = [r for r in results if isinstance(r, Exception)]
        assert len(errors) == 1
        assert "1 results for 2" in str(errors[0])