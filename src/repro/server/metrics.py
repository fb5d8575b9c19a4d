"""Server-side observability: the metric catalogs and their renderer.

Every metrics document — a server's ``/metrics``, the gateway section
of the fleet's, a stream replay's summary — is declared once, as a
catalog: a tuple of :class:`Metric` (name, help) in document order.
:func:`render` builds the document from it (each value is the metrics
object's attribute of that name, made JSON-safe), and
:func:`catalog_table` renders the same catalog as the markdown table
the docs carry between ``<!-- lint:metrics -->`` markers
(``tests/test_metrics_catalog.py`` compares the two).  The observation
hooks stay plain attribute and dict increments: nothing generic runs
on the request path.

:class:`HttpMetrics` is the request accounting both front ends share
(:class:`~repro.server.http_base.BaseAsyncHttpServer` observes every
request into it); :class:`ServerMetrics` adds what a query server
reports, folding in the per-dataset
:class:`~repro.service.cache.CacheStats` so cache hit rates are
visible next to the request counters they explain.  All mutation
happens on the event-loop thread (the request handlers observe after
the worker-pool call returns), so no locking is needed.

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
from bisect import bisect_left
from typing import NamedTuple

#: Upper bucket bounds in milliseconds (an implicit +inf bucket
#: follows the last bound).
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)


class Metric(NamedTuple):
    """One key of a metrics document and the line the docs give it."""

    name: str
    help: str


def render(metrics: object, catalog: tuple[Metric, ...]) -> dict:
    """The JSON-safe document of ``catalog``, in catalog order: each
    value is ``metrics``' attribute of the metric's name, maps copied,
    histograms as their snapshot and seconds rounded to microseconds."""
    return {
        metric.name: _plain(getattr(metrics, metric.name))
        for metric in catalog
    }


def _plain(value):
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, LatencyHistogram):
        return value.snapshot()
    return value


def catalog_table(catalog: tuple[Metric, ...]) -> str:
    """``catalog`` as the docs' markdown table, one row per metric."""
    rows = [f"| `{metric.name}` | {metric.help} |" for metric in catalog]
    return "\n".join(["| metric | meaning |", "| --- | --- |", *rows])


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
        # A value equal to a bound lands in that bound's bucket; past
        # the last bound, in the +inf bucket at the end.
        self._counts[bisect_left(LATENCY_BUCKETS_MS, ms)] += 1

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


class HttpMetrics:
    """The request accounting of one front end (event-loop-only):
    what :class:`~repro.server.http_base.BaseAsyncHttpServer` observes
    of every request, whichever server it is."""

    CATALOG: tuple[Metric, ...] = (
        Metric("uptime_seconds", "seconds since the metrics were created"),
        Metric("requests_total", "requests received, by endpoint label"),
        Metric(
            "responses_total", "responses, by endpoint label and status code"
        ),
        Metric(
            "rejected_total",
            "503 rejections (overloaded, draining, and at a gateway no "
            "healthy worker), total",
        ),
        Metric(
            "rejected_by_endpoint", "the same rejections, attributed per route"
        ),
        Metric(
            "retries_observed_total",
            "requests that declared `X-Retry-Attempt` > 0",
        ),
        Metric(
            "inflight",
            "admitted requests not yet answered: queries and delay swaps, "
            "and at a gateway `/v1/datasets` forwards",
        ),
        Metric(
            "latency",
            "per endpoint label, a histogram of response times: `count`, "
            "`sum_ms`, `mean_ms`, `p50_ms_le` / `p99_ms_le` (upper bound of "
            "the bucket holding the median / p99, `null` in the overflow "
            "bucket), `overflow_count` (observations beyond the last finite "
            "bound) and `buckets_ms` (upper bound → count)",
        ),
    )

    def __init__(self) -> None:
        self._started = time.monotonic()
        self.requests_total: dict[str, int] = {}  # guarded-by: loop
        self.responses_total: dict[str, dict[str, int]] = {}  # guarded-by: loop
        self.latency: dict[str, LatencyHistogram] = {}  # guarded-by: loop
        self.rejected_total = 0  # guarded-by: loop
        self.rejected_by_endpoint: dict[str, int] = {}  # guarded-by: loop
        self.retries_observed_total = 0  # guarded-by: loop
        #: The front end's admission count itself: it raises and lowers
        #: this around every admitted request.
        self.inflight = 0  # guarded-by: loop

    @property
    def uptime_seconds(self) -> float:
        return round(time.monotonic() - self._started, 3)

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

    # -- rendering ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe metrics document, in :attr:`CATALOG` order."""
        return render(self, self.CATALOG)


class ServerMetrics(HttpMetrics):
    """The request accounting of one query server, its delay swaps
    and — given the registry — its datasets."""

    CATALOG = HttpMetrics.CATALOG + (
        Metric(
            "micro_batching",
            "always `{\"mean_batch_size\": null}`: the server groups "
            "nothing; the key remains only because `e2ebench/run.py` "
            "indexes it",
        ),
        Metric("swaps_total", "committed delay swaps, per dataset"),
        Metric(
            "last_swap_seconds", "duration of the latest swap, per dataset"
        ),
    )

    #: What :meth:`snapshot` adds when given the registry.
    SERVED: tuple[Metric, ...] = (
        Metric(
            "search_workers",
            "`processes` (search workers alive, over all datasets) and "
            "`replaced_total`: workers forked to replace one that died, "
            "counted over the generations now serving — a swap starts new "
            "workers and a new count; anything but 0 means searches are "
            "crashing their process",
        ),
        Metric(
            "datasets",
            "per dataset, its `generation` and its `result_cache`: `hits`, "
            "`misses`, `size`, `maxsize` and `hit_rate`",
        ),
    )

    def __init__(self) -> None:
        super().__init__()
        self.swaps_total: dict[str, int] = {}  # guarded-by: loop
        self.last_swap_seconds: dict[str, float] = {}  # guarded-by: loop

    @property
    def micro_batching(self) -> dict:
        return {"mean_batch_size": None}

    def observe_swap(self, dataset: str, seconds: float) -> None:
        self.swaps_total[dataset] = self.swaps_total.get(dataset, 0) + 1
        self.last_swap_seconds[dataset] = seconds

    def snapshot(self, registry=None) -> dict:
        """JSON-safe metrics document (the ``/metrics`` payload).

        ``registry``, when given, contributes :attr:`SERVED`: the
        search workers of the serving generations
        (:attr:`TransitService.worker_stats`), and per dataset its
        generation and result-cache hit rate
        (:attr:`TransitService.cache_stats`)."""
        payload = render(self, self.CATALOG)
        if registry is not None:
            payload.update(render(_Served(registry), self.SERVED))
        return payload


class _Served:
    """:attr:`ServerMetrics.SERVED`, read off a registry."""

    def __init__(self, registry) -> None:
        self.entries = registry.entries()

    @property
    def search_workers(self) -> dict:
        # Over the generations now serving: a swap starts new workers,
        # and their count of replacements, afresh.
        workers = {"processes": 0, "replaced_total": 0}
        for entry in self.entries:
            alive, replaced = entry.service.worker_stats
            workers["processes"] += alive
            workers["replaced_total"] += replaced
        return workers

    @property
    def datasets(self) -> dict:
        datasets: dict[str, dict] = {}
        for entry in self.entries:
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
        return datasets
