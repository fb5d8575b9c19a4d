"""Per-service LRU result cache: hits are the same answers, eviction
is bounded, and delay replanning starts cold (the invalidation the
dynamic scenario needs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.service import (
    BatchRequest,
    JourneyRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
)
from repro.service.cache import LRUResultCache
from repro.service.shapes import BATCH, JOURNEY, PROFILE
from repro.timetable.delays import Delay, apply_delays


class TestLRUResultCache:
    def test_get_put_and_stats(self):
        cache = LRUResultCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = LRUResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_peek_counts_a_hit_but_no_miss(self):
        cache = LRUResultCache(2)
        assert cache.peek("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1  # refreshes a, like get
        cache.put("c", 3)
        assert "b" not in cache
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 0)

    def test_zero_size_disables(self):
        cache = LRUResultCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LRUResultCache(-1)

    def test_clear(self):
        cache = LRUResultCache(4)
        cache.put("a", 1)
        cache.clear()
        assert cache.get("a") is None

    def test_concurrent_len_contains_under_eviction_churn(self):
        """Hammer ``len(cache)`` / ``in`` from reader threads while
        writers continually put-and-evict: every read must observe a
        consistent dict (no internal errors) and a size within bounds.

        Before `__len__`/`__contains__` took the lock, readers could
        catch the OrderedDict mid-mutation between ``put``'s insert and
        its eviction pop."""
        import threading

        cache = LRUResultCache(8)
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(offset: int) -> None:
            i = 0
            while not stop.is_set():
                cache.put((offset, i % 64), i)
                i += 1

        def reader() -> None:
            try:
                while not stop.is_set():
                    # put() inserts and evicts under one lock hold, so
                    # a locked len() can never see the overfull dict.
                    size = len(cache)
                    assert 0 <= size <= 8, size
                    (0, 3) in cache  # noqa: B015 — exercised for safety
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
                stop.set()

        threads = [
            threading.Thread(target=writer, args=(k,)) for k in range(2)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        stop.wait(timeout=1.0)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert not errors, errors
        assert len(cache) <= 8


class TestServiceResultCache:
    def test_repeated_requests_hit_every_shape(self, oahu_tiny):
        """A hit shares the heavy payload with the stored entry (no
        recomputation) and is marked ``cache_hit=True``; the stored
        entry itself stays unmarked."""
        service = TransitService(oahu_tiny, ServiceConfig(num_threads=2))
        assert service.cache_stats.maxsize == 128

        p1, p2 = service.profile(0), service.profile(0)
        assert p2.raw is p1.raw
        assert p2.stats.cache_hit and not p1.stats.cache_hit
        j1 = service.journey(0, 5)
        j2 = service.journey(JourneyRequest(0, 5))
        assert j2.profile is j1.profile
        assert j2.stats.cache_hit and not j1.stats.cache_hit
        b1 = service.batch([(0, 5), (1, 6)])
        b2 = service.batch(BatchRequest.from_pairs([(0, 5), (1, 6)]))
        assert b2.stats is b1.stats
        assert [h.profile for h in b2.journeys] == [
            j.profile for j in b1.journeys
        ]
        assert all(h.stats.cache_hit for h in b2.journeys)
        assert not any(j.stats.cache_hit for j in b1.journeys)

        stats = service.cache_stats
        assert stats.hits == 3
        assert stats.misses == 3

    def test_hits_never_mutate_the_stored_entry(self, oahu_tiny):
        service = TransitService(oahu_tiny, ServiceConfig(num_threads=2))
        service.journey(0, 5)
        service.journey(0, 5)
        third = service.journey(0, 5)
        # Were the stored entry marked in place, its timings/flags
        # would drift; every hit must look the same.
        assert third.stats.cache_hit
        assert service.cache_stats.hits == 2

    def test_distinct_requests_miss(self, oahu_tiny):
        service = TransitService(oahu_tiny, ServiceConfig(num_threads=2))
        service.journey(0, 5)
        service.journey(0, 6)
        service.journey(0, 5, departure=480)  # departure is part of the key
        assert service.cache_stats.hits == 0
        # Without search workers the dated journey's legs consult the
        # memo of the fixed-departure search here: one more miss.
        assert service.cache_stats.misses == 4

    def test_profile_thread_override_is_part_of_the_key(self, oahu_tiny):
        service = TransitService(oahu_tiny, ServiceConfig(num_threads=1))
        a = service.profile(ProfileRequest(0, num_threads=1))
        b = service.profile(ProfileRequest(0, num_threads=3))
        assert b is not a
        assert b.stats.num_threads == 3

    def test_cache_size_zero_disables(self, oahu_tiny):
        service = TransitService(
            oahu_tiny, ServiceConfig(result_cache_size=0)
        )
        assert service.journey(0, 5) is not service.journey(0, 5)
        assert service.cache_stats.size == 0

    def test_eviction_respects_configured_size(self, oahu_tiny):
        service = TransitService(
            oahu_tiny, ServiceConfig(result_cache_size=2)
        )
        first = service.journey(0, 5)
        service.journey(0, 6)
        service.journey(0, 7)  # evicts (0, 5)
        again = service.journey(0, 5)
        assert again is not first
        assert service.cache_stats.size == 2

    def test_apply_delays_invalidates(self, oahu_tiny):
        """Answers cached on the original service never leak into the
        delayed one; the delayed answer matches a cold service on the
        delayed timetable."""
        service = TransitService(oahu_tiny, ServiceConfig(num_threads=2))
        delays = [Delay(train=0, minutes=45)]
        # Warm the original cache on a pair the delay affects.
        pairs = [(s, t) for s in range(4) for t in range(4, 8)]
        for s, t in pairs:
            service.journey(s, t)
        delayed = service.apply_delays(delays)
        assert delayed.cache_stats.size == 0

        cold = TransitService(
            apply_delays(oahu_tiny, delays), ServiceConfig(num_threads=2)
        )
        changed = 0
        for s, t in pairs:
            original = service.journey(s, t).profile
            got = delayed.journey(s, t).profile
            expected = cold.journey(s, t).profile
            assert np.array_equal(got.deps, expected.deps), (s, t)
            assert np.array_equal(got.arrs, expected.arrs), (s, t)
            if not (
                np.array_equal(got.deps, original.deps)
                and np.array_equal(got.arrs, original.arrs)
            ):
                changed += 1
        assert changed > 0, "delay workload did not change any answer"
        # The original service still serves its own (cached) answers.
        assert service.cache_stats.hits >= len(pairs)

    def test_cached_results_equal_fresh_computation(self, oahu_tiny):
        cached_service = TransitService(oahu_tiny, ServiceConfig())
        uncached_service = TransitService(
            oahu_tiny, ServiceConfig(result_cache_size=0)
        )
        for _ in range(2):
            got = cached_service.journey(2, 7)
            fresh = uncached_service.journey(2, 7)
            assert np.array_equal(got.profile.deps, fresh.profile.deps)
            assert np.array_equal(got.profile.arrs, fresh.profile.arrs)

    def test_runtime_overrides_share_prepared_but_not_cache(self, oahu_tiny):
        service = TransitService(oahu_tiny, ServiceConfig(num_threads=2))
        service.journey(0, 5)
        sibling = service.with_runtime_overrides(
            num_threads=3, result_cache_size=64
        )
        assert sibling.prepared is service.prepared
        assert sibling.config.num_threads == 3
        assert sibling.config.result_cache_size == 64
        assert sibling.cache_stats.size == 0
        with pytest.raises(ValueError, match="not runtime-overridable"):
            service.with_runtime_overrides(use_distance_table=True)


class TestLookup:
    """``TransitService.lookup``: the answer when it takes no search,
    counted in the cache statistics like the shape's own method."""

    @pytest.fixture
    def service(self, oahu_tiny):
        return TransitService(
            oahu_tiny,
            ServiceConfig(use_distance_table=True, transfer_fraction=0.3),
        )

    def test_a_table_journey_is_the_journey_methods_answer(self, service):
        a, b = (int(s) for s in service.table.transfer_stations[:2])
        fresh = service.lookup(JOURNEY, JourneyRequest(a, b))
        assert fresh.stats.classification == "table"
        assert not fresh.stats.cache_hit
        hit = service.lookup(JOURNEY, JourneyRequest(a, b))
        assert hit.stats.cache_hit and hit.profile is fresh.profile
        assert service.journey(a, b).profile is fresh.profile
        same = service.lookup(JOURNEY, JourneyRequest(a, a))
        assert same.stats.classification == "trivial"
        stats = service.cache_stats
        assert (stats.hits, stats.misses) == (2, 2)

    def test_what_needs_a_search_is_left_alone(self, service):
        transfer = {int(s) for s in service.table.transfer_stations}
        a, b = sorted(transfer)[:2]
        outside = next(
            s for s in range(service.timetable.num_stations)
            if s not in transfer
        )
        searches = [
            (JOURNEY, JourneyRequest(outside, a)),
            # Legs at a departure time are a search of their own.
            (JOURNEY, JourneyRequest(a, b, 480)),
            (PROFILE, ProfileRequest(a)),
            (BATCH, BatchRequest.from_pairs([(a, b)])),
        ]
        for shape, request in searches:
            assert service.lookup(shape, request) is None
        assert service.cache_stats.misses == 0
        # ... until the shape's method has answered it once.
        for shape, request in searches:
            answered = getattr(service, shape.name)(request)
            hit = service.lookup(shape, request)
            assert hit is not answered
            if shape is not BATCH:
                assert hit.stats.cache_hit and not answered.stats.cache_hit
        stats = service.cache_stats
        # Without search workers the dated journey's legs consult the
        # memo of the fixed-departure search here: one more miss.
        assert (stats.hits, stats.misses) == (len(searches), len(searches) + 1)

    def test_without_a_table_every_journey_is_a_search(self, oahu_tiny):
        service = TransitService(oahu_tiny, ServiceConfig(num_threads=2))
        assert service.table is None
        assert service.lookup(JOURNEY, JourneyRequest(0, 5)) is None
