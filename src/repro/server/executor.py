"""Worker-pool query execution with micro-batched journeys.

Every query the server answers is CPU-bound Python, so nothing may run
on the event loop: :class:`QueryExecutor` owns a
:class:`~concurrent.futures.ThreadPoolExecutor` and funnels all
service calls through it (:meth:`run`).

Micro-batching (:meth:`QueryExecutor.submit`, for the shapes the shape
table flags ``groupable``): concurrent single-journey requests
against the *same* service instance are not dispatched one worker job
each.  The first request opens a collection window
(``batch_window`` seconds); every journey for that service arriving
inside the window joins it; when the window closes — or the batch
reaches ``batch_max`` — the whole group runs as **one**
:meth:`TransitService.journey_many` call (one worker job, one
:class:`~repro.query.batch.BatchQueryEngine` pass over the cache
misses) and the answers fan back out to the per-request futures.  Under concurrency this beats
one-job-per-request dispatch (fewer executor round-trips, no GIL
thrash between worker threads running interleaved searches) —
``benchmarks/bench_server_throughput.py`` measures the gap and the
acceptance test pins it.

Correctness notes:

* batches are keyed by service *instance*, so a delay hot swap drains
  naturally — pending requests run against the service they were
  admitted under, later requests batch under the new one;
* a single-request "batch" short-circuits to ``service.journey``;
  grouped requests go through ``service.journey_many``, which answers
  each journey with the very same engine call *and* the same
  per-request result-cache behaviour — answers are bitwise-identical
  either way and grouping never disables caching
  (``tests/server/test_server_e2e.py`` pins HTTP answers against
  direct facade calls);
* ``batch_window=0`` disables micro-batching entirely (the naive
  dispatch the benchmark compares against).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from repro.service.facade import TransitService
from repro.service.shapes import Shape

T = TypeVar("T")


class _PendingBatch:
    """Requests of one groupable shape collected for one service
    during one window."""

    __slots__ = ("service", "shape", "items", "timer")

    def __init__(self, service: TransitService, shape: str) -> None:
        self.service = service
        self.shape = shape
        self.items: list[tuple[object, asyncio.Future]] = []
        self.timer: asyncio.TimerHandle | None = None


class QueryExecutor:
    """Run service calls on a worker pool; micro-batch journeys.

    ``workers`` sizes the thread pool; ``batch_window`` (seconds) and
    ``batch_max`` bound the journey collection window in time and
    size.  ``metrics``, when given, receives
    ``observe_micro_batch(size)`` per flushed group.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        batch_window: float = 0.002,
        batch_max: int = 8,
        metrics=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if batch_window < 0:
            raise ValueError(
                f"batch_window must be non-negative, got {batch_window}"
            )
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        self.workers = workers
        self.batch_window = batch_window
        self.batch_max = batch_max
        self.metrics = metrics
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query"
        )
        #: (shape, id(service)) → open collection window.  The pending
        #: entry holds a strong reference to its service, so the id
        #: cannot be recycled while a window is open.
        self._pending: dict[tuple[str, int], _PendingBatch] = {}
        self._flushes: set[asyncio.Future] = set()

    # -- generic off-loop execution ------------------------------------

    async def run(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` on the worker pool and await its result."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn)

    # -- query shapes ---------------------------------------------------

    async def submit(self, shape: Shape, service: TransitService, request):
        """Answer one ``shape`` request with ``service.<shape>``.  A
        ``groupable`` shape's request is collected into the open
        (shape, service) window — opening one if needed — and answered
        through ``service.<shape>_many`` with its window mates (see
        module docstring); every other shape is one worker job."""
        single = getattr(service, shape.name)
        if (
            not shape.groupable
            or self.batch_window <= 0
            or self.batch_max <= 1
        ):
            return await self.run(lambda: single(request))
        loop = asyncio.get_running_loop()
        key = (shape.name, id(service))
        pending = self._pending.get(key)
        if pending is None:
            pending = _PendingBatch(service, shape.name)
            self._pending[key] = pending
            pending.timer = loop.call_later(
                self.batch_window, self._flush, key
            )
        future: asyncio.Future = loop.create_future()
        pending.items.append((request, future))
        if len(pending.items) >= self.batch_max:
            self._flush(key)
        return await future

    # -- window flushing ------------------------------------------------

    def _flush(self, key: tuple[str, int]) -> None:
        """Close the window ``key`` and dispatch its group as one
        worker job (event-loop thread only)."""
        pending = self._pending.pop(key, None)
        if pending is None:  # already flushed by the size trigger
            return
        if pending.timer is not None:
            pending.timer.cancel()
        service = pending.service
        items = pending.items
        if self.metrics is not None:
            self.metrics.observe_micro_batch(len(items))
        if len(items) == 1:
            request, future = items[0]
            single = getattr(service, pending.shape)
            job = asyncio.ensure_future(
                self.run(lambda: single(request))
            )
            job.add_done_callback(
                lambda task: self._settle_one(task, future)
            )
        else:
            requests = [request for request, _ in items]
            futures = [future for _, future in items]
            many = getattr(service, f"{pending.shape}_many")
            job = asyncio.ensure_future(
                self.run(lambda: many(requests))
            )
            job.add_done_callback(
                lambda task: self._settle_group(task, futures)
            )
        # Keep a strong reference so in-flight flushes survive GC and
        # drain() can await them.
        self._flushes.add(job)
        job.add_done_callback(self._flushes.discard)

    @staticmethod
    def _settle_one(task: asyncio.Future, future: asyncio.Future) -> None:
        if future.done():
            return
        exc = None if task.cancelled() else task.exception()
        if task.cancelled():
            future.cancel()
        elif exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(task.result())

    @staticmethod
    def _settle_group(
        task: asyncio.Future, futures: Sequence[asyncio.Future]
    ) -> None:
        if task.cancelled():
            for future in futures:
                if not future.done():
                    future.cancel()
            return
        exc = task.exception()
        if exc is not None:
            for future in futures:
                if not future.done():
                    future.set_exception(exc)
            return
        results: list = task.result()
        if len(results) != len(futures):
            # The *_many facade calls are contracted to answer
            # positionally, one result per request.  A short list
            # zipped silently would leave the trailing futures pending
            # forever (their HTTP requests would hang until client
            # timeout); a long one means the positional alignment
            # itself is broken.  Fail every unanswered future loudly
            # instead.
            error = RuntimeError(
                f"grouped dispatch returned {len(results)} results for "
                f"{len(futures)} grouped requests — batch answers must "
                f"be positional"
            )
            for i, future in enumerate(futures):
                if future.done():
                    continue
                if i < len(results) and len(results) < len(futures):
                    future.set_result(results[i])
                else:
                    future.set_exception(error)
            return
        for future, result in zip(futures, results):
            if not future.done():
                future.set_result(result)

    # -- lifecycle ------------------------------------------------------

    async def drain(self) -> None:
        """Flush every open window and wait for in-flight jobs."""
        for key in list(self._pending):
            self._flush(key)
        while self._flushes:
            await asyncio.gather(*list(self._flushes), return_exceptions=True)

    async def shutdown(self) -> None:
        """Drain, then stop the worker pool (idempotent)."""
        await self.drain()
        self._pool.shutdown(wait=True)
