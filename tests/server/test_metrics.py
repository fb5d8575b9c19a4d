"""ServerMetrics unit behaviour: histogram overflow surfacing and
per-endpoint reject attribution (the /metrics e2e payload is pinned in
``test_server_e2e``)."""

from __future__ import annotations

import pytest

from repro.server.metrics import (
    LATENCY_BUCKETS_MS,
    LatencyHistogram,
    ServerMetrics,
)


class TestLatencyHistogram:
    def test_empty_percentiles_are_none(self):
        hist = LatencyHistogram()
        assert hist.percentile(0.5) is None
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["p50_ms_le"] is None
        assert snap["overflow_count"] == 0

    def test_percentile_reports_bucket_upper_bound(self):
        hist = LatencyHistogram()
        for _ in range(100):
            hist.observe(0.004)  # 4 ms -> the "5.0" bucket
        assert hist.percentile(0.5) == 5.0
        assert hist.percentile(0.99) == 5.0

    def test_overflow_percentile_is_null_not_clamped(self):
        """A 10 s request must never report p99 <= 2500 ms: quantiles
        landing in the +inf bucket have no finite upper bound."""
        hist = LatencyHistogram()
        hist.observe(10.0)  # 10 s: beyond the last finite bound
        assert hist.percentile(0.5) is None
        assert hist.percentile(0.99) is None
        snap = hist.snapshot()
        assert snap["p50_ms_le"] is None
        assert snap["p99_ms_le"] is None
        assert snap["overflow_count"] == 1
        assert snap["buckets_ms"]["inf"] == 1

    def test_mixed_load_splits_at_the_overflow_boundary(self):
        """With 90 fast requests and 10 runaways, p50 stays a finite
        bound while p99 (landing in the overflow) goes null — the
        overload tail is surfaced exactly where it lives."""
        hist = LatencyHistogram()
        for _ in range(90):
            hist.observe(0.001)
        for _ in range(10):
            hist.observe(60.0)
        assert hist.percentile(0.50) == 1.0
        assert hist.percentile(0.99) is None
        snap = hist.snapshot()
        assert snap["p50_ms_le"] == 1.0
        assert snap["p99_ms_le"] is None
        assert snap["overflow_count"] == 10
        assert snap["count"] == 100

    def test_last_finite_bucket_still_reports_its_bound(self):
        """Observations inside the last *finite* bucket keep reporting
        its bound — only true overflow goes null."""
        hist = LatencyHistogram()
        hist.observe(LATENCY_BUCKETS_MS[-1] / 1000.0)  # exactly 2500 ms
        assert hist.percentile(0.99) == LATENCY_BUCKETS_MS[-1]
        assert hist.snapshot()["overflow_count"] == 0


    @pytest.mark.parametrize(
        "ms, bucket", [(1.0, "1.0"), (2500.0, "2500.0"), (2500.001, "inf")]
    )
    def test_a_value_on_a_bound_lands_in_that_bound(self, ms, bucket):
        hist = LatencyHistogram()
        hist.observe(ms / 1000.0)
        buckets = hist.snapshot()["buckets_ms"]
        assert buckets[bucket] == 1
        assert sum(buckets.values()) == 1


class TestRejectAttribution:
    def test_rejects_recorded_per_endpoint_and_in_total(self):
        metrics = ServerMetrics()
        metrics.observe_reject("POST /v1/{name}/journey")
        metrics.observe_reject("POST /v1/{name}/journey")
        metrics.observe_reject("POST /v1/datasets/{name}/delays")
        snap = metrics.snapshot()
        # The scalar stays for wire compat...
        assert snap["rejected_total"] == 3
        # ...and the breakdown attributes 503 pressure per route.
        assert snap["rejected_by_endpoint"] == {
            "POST /v1/{name}/journey": 2,
            "POST /v1/datasets/{name}/delays": 1,
        }

    def test_snapshot_copies_the_breakdown(self):
        metrics = ServerMetrics()
        metrics.observe_reject("POST /v1/{name}/journey")
        snap = metrics.snapshot()
        snap["rejected_by_endpoint"]["POST /v1/{name}/journey"] = 99
        assert metrics.rejected_by_endpoint["POST /v1/{name}/journey"] == 1
