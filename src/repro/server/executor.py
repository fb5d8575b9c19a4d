"""Worker-pool query execution: one job per search.

No search may run on the event loop, and since the searches are pure
Python none runs under its GIL either: :class:`QueryExecutor` owns a
:class:`~concurrent.futures.ThreadPoolExecutor` and funnels service
calls through it (:meth:`run`), and the service a server hands it has
*search workers* — processes forked from the dataset generation
(``TransitService.start_workers``).  A request of any shape is one
``service.<shape>`` job (:meth:`submit`), handed to a thread the moment
it is admitted — nothing waits on a clock or behind another request.
The thread looks the request up in the result cache, ships the search
to a worker, waits on that worker's pipe with the GIL released, stores
the answer and returns it; a profile's thread also partitions and
merges (paper §3.2).  So ``workers`` threads mean up to ``workers``
searches in flight, on as many cores as the generation has processes
for; delay replans (:meth:`run`) are the one CPU-heavy thing that still
runs here.

The one thing that is not a job is an answer that takes no search
(``service.lookup``: a result-cache hit, a distance-table journey).
It costs microseconds, a thread hand-off costs many times that, and
what the hand-off costs depends on which cores the kernel happens to
wake the threads on — so :meth:`submit` returns such an answer on the
spot (``docs/SERVER.md``, "Execution model", has the numbers).

There is deliberately no request grouping: no scheme measured so far
beat this dispatch on a benchmark workload.  A request runs against
the service it was admitted under, so a delay hot swap drains
naturally — the old generation, search workers included, is referenced
only by its in-flight jobs.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from repro.service.facade import TransitService
from repro.service.shapes import Shape

T = TypeVar("T")


class QueryExecutor:
    """Run service calls on a pool of ``workers`` threads: how many
    searches may be in flight at once."""

    def __init__(self, *, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query"
        )

    async def run(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` on the worker pool and await its result."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn)

    async def submit(self, shape: Shape, service: TransitService, request):
        """Answer one ``shape`` request: with ``service.lookup`` if
        that needs no search, else with ``service.<shape>`` as one
        worker job."""
        answer = service.lookup(shape, request)
        if answer is not None:
            return answer
        single = getattr(service, shape.name)
        return await self.run(lambda: single(request))

    async def shutdown(self) -> None:
        """Let running jobs finish, then stop the worker pool
        (idempotent).  The server calls this once its last in-flight
        request is answered."""
        self._pool.shutdown(wait=True)
