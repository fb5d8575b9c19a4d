"""Client-side accounting of one stream replay.

The replay harness is multi-threaded (closed-loop query workers plus
one delay poster — :mod:`repro.streams.replay`), so unlike the
server/gateway metrics (loop-confined, lock-free) this collector takes
a real lock: every observation, every derived metric and the final
snapshot synchronize on ``_lock`` (re-entrant: the snapshot holds it
while it reads the derived ones).  The summary is declared once, as
:attr:`ReplayMetrics.CATALOG` (:mod:`repro.server.metrics`).
"""

from __future__ import annotations

from threading import RLock

from repro.server.metrics import Metric, render

__all__ = ["ReplayMetrics"]


class ReplayMetrics:
    """Thread-safe counters for one replay run."""

    CATALOG: tuple[Metric, ...] = (
        Metric("elapsed_seconds", "wall clock of the whole replay"),
        Metric("queries_total", "journeys issued (successes and failures)"),
        Metric("query_failures_total", "journeys that errored"),
        Metric("query_seconds_mean", "mean per-query latency"),
        Metric("query_seconds_max", "slowest query"),
        Metric("queries_per_second", "closed-loop query throughput"),
        Metric("delay_posts_total", "delay batches posted"),
        Metric("delay_failures_total", "delay posts that errored"),
        Metric("replans_per_second", "committed swaps per second"),
        Metric("swap_seconds_max", "slowest swap acknowledgement"),
        Metric("swap_seconds_mean", "mean swap acknowledgement"),
        Metric("last_generation", "dataset generation after the final commit"),
        Metric("errors", "`{error type: count}` across both traffic kinds"),
    )

    def __init__(self) -> None:
        self._lock = RLock()
        self.queries_total = 0  # guarded-by: _lock
        self.query_failures_total = 0  # guarded-by: _lock
        self.query_seconds_sum = 0.0  # guarded-by: _lock
        self.query_seconds_max = 0.0  # guarded-by: _lock
        self.delay_posts_total = 0  # guarded-by: _lock
        self.delay_failures_total = 0  # guarded-by: _lock
        self.swap_seconds = []  # guarded-by: _lock
        self.last_generation = 0  # guarded-by: _lock
        #: ``{error type name: count}`` across both traffic kinds.
        self.errors: dict[str, int] = {}  # guarded-by: _lock
        #: The replay's wall clock, as handed to :meth:`snapshot`.
        self.elapsed_seconds = 0.0  # guarded-by: _lock

    # -- observation hooks ---------------------------------------------

    def observe_query(self, seconds: float) -> None:
        with self._lock:
            self.queries_total += 1
            self.query_seconds_sum += seconds
            if seconds > self.query_seconds_max:
                self.query_seconds_max = seconds

    def observe_query_failure(self, error: str) -> None:
        with self._lock:
            self.queries_total += 1
            self.query_failures_total += 1
            self.errors[error] = self.errors.get(error, 0) + 1

    def observe_delay_post(self, swap_seconds: float, generation: int) -> None:
        with self._lock:
            self.delay_posts_total += 1
            self.swap_seconds.append(swap_seconds)
            self.last_generation = generation

    def observe_delay_failure(self, error: str) -> None:
        with self._lock:
            self.delay_posts_total += 1
            self.delay_failures_total += 1
            self.errors[error] = self.errors.get(error, 0) + 1

    # -- derived metrics -----------------------------------------------

    @property
    def query_seconds_mean(self) -> float:
        with self._lock:
            queries = self.queries_total
            return self.query_seconds_sum / queries if queries else 0.0

    @property
    def queries_per_second(self) -> float:
        with self._lock:
            return self._per_second(self.queries_total)

    @property
    def replans_per_second(self) -> float:
        with self._lock:
            return self._per_second(
                self.delay_posts_total - self.delay_failures_total
            )

    @property
    def swap_seconds_max(self) -> float:
        with self._lock:
            return max(self.swap_seconds, default=0.0)

    @property
    def swap_seconds_mean(self) -> float:
        with self._lock:
            swaps = self.swap_seconds
            return sum(swaps) / len(swaps) if swaps else 0.0

    def _per_second(self, count: int) -> float:
        with self._lock:
            elapsed = self.elapsed_seconds
        return round(count / elapsed, 3) if elapsed > 0 else 0.0

    # -- rendering ------------------------------------------------------

    def snapshot(self, elapsed_seconds: float) -> dict:
        """JSON-safe summary in :attr:`CATALOG` order;
        ``elapsed_seconds`` is the wall clock of the whole replay (rates
        are derived from it)."""
        with self._lock:
            self.elapsed_seconds = elapsed_seconds
            return render(self, self.CATALOG)
