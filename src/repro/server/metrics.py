"""Server-side observability: counters and latency histograms.

One :class:`ServerMetrics` belongs to one
:class:`~repro.server.app.TransitServer`.  All mutation happens on the
event-loop thread (the request handlers observe after the worker-pool
call returns), so no locking is needed; :meth:`ServerMetrics.snapshot`
renders a JSON-safe dict for the ``/metrics`` endpoint, folding in the
per-dataset :class:`~repro.service.cache.CacheStats` so cache hit
rates are visible next to the request counters they explain.

Latencies are recorded in fixed log-spaced buckets
(:data:`LATENCY_BUCKETS_MS`); p50/p99 are bucket-upper-bound estimates
— good enough to spot a regression, not a substitute for the
client-side percentiles the throughput benchmark measures.  A
percentile falling in the +inf overflow bucket renders as ``null``
next to a non-zero ``overflow_count`` (never clamped to the last
finite bound).
"""

from __future__ import annotations

import time

#: Upper bucket bounds in milliseconds (an implicit +inf bucket
#: follows the last bound).
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with bucket-bound percentiles."""

    __slots__ = ("_counts", "_sum_ms", "_count")

    def __init__(self) -> None:
        self._counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)  # guarded-by: loop
        self._sum_ms = 0.0  # guarded-by: loop
        self._count = 0  # guarded-by: loop

    def observe(self, seconds: float) -> None:
        ms = seconds * 1000.0
        self._sum_ms += ms
        self._count += 1
        for i, bound in enumerate(LATENCY_BUCKETS_MS):
            if ms <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    def percentile(self, q: float) -> float | None:
        """Upper bound of the bucket holding the q-quantile.

        ``None`` with no observations — and ``None`` when the quantile
        falls in the +inf overflow bucket: a 10 s request must never
        be reported as "p99 ≤ 2500 ms".  The snapshot pairs the null
        bound with ``overflow_count`` so overload tails stay visible
        instead of silently clamped to the last finite bound.
        """
        if self._count == 0:
            return None
        rank = q * self._count
        seen = 0
        for i, count in enumerate(self._counts):
            seen += count
            if seen >= rank and count:
                if i < len(LATENCY_BUCKETS_MS):
                    return LATENCY_BUCKETS_MS[i]
                return None  # overflow bucket: no finite upper bound
        return None

    @property
    def overflow_count(self) -> int:
        """Observations beyond the last finite bucket bound."""
        return self._counts[-1]

    def snapshot(self) -> dict:
        return {
            "count": self._count,
            "sum_ms": round(self._sum_ms, 3),
            "mean_ms": round(self._sum_ms / self._count, 3)
            if self._count
            else None,
            "p50_ms_le": self.percentile(0.50),
            "p99_ms_le": self.percentile(0.99),
            "overflow_count": self.overflow_count,
            "buckets_ms": {
                str(bound): self._counts[i]
                for i, bound in enumerate(LATENCY_BUCKETS_MS)
            }
            | {"inf": self._counts[-1]},
        }


class ServerMetrics:
    """Request/response accounting of one server (event-loop-only)."""

    def __init__(self) -> None:
        self._started = time.monotonic()
        self.requests_total: dict[str, int] = {}  # guarded-by: loop
        self.responses_total: dict[str, dict[str, int]] = {}  # guarded-by: loop
        self.latency: dict[str, LatencyHistogram] = {}  # guarded-by: loop
        self.rejected_total = 0  # guarded-by: loop
        self.rejected_by_endpoint: dict[str, int] = {}  # guarded-by: loop
        self.retries_observed_total = 0  # guarded-by: loop
        self.inflight = 0  # guarded-by: loop
        self.swaps_total: dict[str, int] = {}  # guarded-by: loop
        self.last_swap_seconds: dict[str, float] = {}  # guarded-by: loop

    # -- observation hooks ---------------------------------------------

    def observe_request(self, endpoint: str) -> None:
        self.requests_total[endpoint] = (
            self.requests_total.get(endpoint, 0) + 1
        )

    def observe_response(
        self, endpoint: str, status: int, seconds: float
    ) -> None:
        per_status = self.responses_total.setdefault(endpoint, {})
        key = str(status)
        per_status[key] = per_status.get(key, 0) + 1
        hist = self.latency.get(endpoint)
        if hist is None:
            hist = self.latency[endpoint] = LatencyHistogram()
        hist.observe(seconds)

    def observe_reject(self, endpoint: str) -> None:
        """A 503 (overloaded or draining) on ``endpoint``.  The scalar
        ``rejected_total`` stays for wire compat; the per-endpoint
        breakdown makes 503 pressure attributable per route."""
        self.rejected_total += 1
        self.rejected_by_endpoint[endpoint] = (
            self.rejected_by_endpoint.get(endpoint, 0) + 1
        )

    def observe_client_retry(self) -> None:
        """A request declared itself a retry (``X-Retry-Attempt`` > 0)
        — cooperative clients such as
        :class:`repro.client.HttpBackend` mark their 503 backoff
        retries this way, making retry pressure visible server-side."""
        self.retries_observed_total += 1

    def observe_swap(self, dataset: str, seconds: float) -> None:
        self.swaps_total[dataset] = self.swaps_total.get(dataset, 0) + 1
        self.last_swap_seconds[dataset] = seconds

    # -- rendering ------------------------------------------------------

    def snapshot(self, registry=None) -> dict:
        """JSON-safe metrics document (the ``/metrics`` payload).

        ``registry``, when given, contributes per-dataset generation
        counters and result-cache hit rates
        (:attr:`TransitService.cache_stats`), and the search workers
        of the serving generations
        (:attr:`TransitService.worker_stats`)."""
        payload: dict = {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "requests_total": dict(self.requests_total),
            "responses_total": {
                endpoint: dict(statuses)
                for endpoint, statuses in self.responses_total.items()
            },
            "rejected_total": self.rejected_total,
            "rejected_by_endpoint": dict(self.rejected_by_endpoint),
            "retries_observed_total": self.retries_observed_total,
            "inflight": self.inflight,
            "latency": {
                endpoint: hist.snapshot()
                for endpoint, hist in self.latency.items()
            },
            # The executor groups nothing (one job per search); the
            # key stays, empty, because ``e2ebench/run.py`` indexes it.
            "micro_batching": {"mean_batch_size": None},
            "swaps_total": dict(self.swaps_total),
            "last_swap_seconds": {
                name: round(seconds, 6)
                for name, seconds in self.last_swap_seconds.items()
            },
        }
        if registry is not None:
            datasets: dict[str, dict] = {}
            # Over the generations now serving: a swap starts new
            # workers, and their count of replacements, afresh.
            workers = {"processes": 0, "replaced_total": 0}
            for entry in registry.entries():
                alive, replaced = entry.service.worker_stats
                workers["processes"] += alive
                workers["replaced_total"] += replaced
                cache = entry.service.cache_stats
                datasets[entry.name] = {
                    "generation": entry.generation,
                    "result_cache": {
                        "hits": cache.hits,
                        "misses": cache.misses,
                        "size": cache.size,
                        "maxsize": cache.maxsize,
                        "hit_rate": round(cache.hit_rate, 4),
                    },
                }
            payload["search_workers"] = workers
            payload["datasets"] = datasets
        return payload
