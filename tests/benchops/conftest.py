"""Shared builders for the benchops suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.benchops import BenchRecord


@pytest.fixture
def record_factory():
    """Build valid records with controlled metrics/config/scale.

    ``capture`` stamps real machine/git provenance, so everything a
    test varies is passed through; records built from the same config
    share a ``config_hash``, different configs do not.  Each is marked
    clean (``dirty=False``) whatever the state of the checkout the
    suite runs in, so that the indexer promotes it.
    """

    def build(
        benchmark: str = "demo_bench",
        *,
        scale: str = "tiny",
        metrics: dict | None = None,
        config: dict | None = None,
    ) -> BenchRecord:
        record = BenchRecord.capture(
            benchmark,
            scale=scale,
            metrics=metrics or {"run_ms": 10.0, "rate_qps": 100.0},
            config=config if config is not None else {"n": 3},
        )
        return dataclasses.replace(record, dirty=False)

    return build
