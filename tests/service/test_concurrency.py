"""Concurrent mixed-shape traffic against ONE service instance.

The server (``repro.server``) answers all traffic for a dataset
through a single shared :class:`TransitService` on a worker-thread
pool — so the facade's result cache and the shared (stateless)
:class:`StationToStationEngine` must tolerate concurrent callers without
changing a single answer.  This suite pins exactly that: N threads
issuing interleaved profile / journey / batch requests must produce
answers bitwise-identical to serial execution of the same workload.
"""

from __future__ import annotations

import random
import threading

import numpy as np

from repro.service import (
    BatchRequest,
    BatchResponse,
    JourneyResult,
    ProfileResult,
    ServiceConfig,
    TransitService,
)

#: Distance table on: concurrent queries exercise classification, via
#: stations and both pruning theorems, not just plain searches.
CONFIG = ServiceConfig(
    num_threads=2,
    use_distance_table=True,
    transfer_fraction=0.25,
    result_cache_size=32,
)

NUM_THREADS = 8
OPS_PER_THREAD = 18


def _workload(num_stations: int, seed: int):
    """A deterministic mixed op stream; repeated ops (same request
    twice) are included on purpose so cache hits happen concurrently."""
    rng = random.Random(seed)
    ops = []
    for _ in range(NUM_THREADS * OPS_PER_THREAD // 2):
        kind = rng.choice(("profile", "journey", "journey", "batch"))
        if kind == "profile":
            ops.append(("profile", rng.randrange(num_stations)))
        elif kind == "journey":
            source = rng.randrange(num_stations)
            target = rng.randrange(num_stations)
            departure = rng.choice((None, 480, 600))
            ops.append(("journey", (source, target, departure)))
        else:
            pairs = tuple(
                (rng.randrange(num_stations), rng.randrange(num_stations))
                for _ in range(3)
            )
            ops.append(("batch", pairs))
    ops = ops * 2  # every op appears twice → concurrent cache hits
    rng.shuffle(ops)
    return ops


def _run_op(service: TransitService, op):
    kind, arg = op
    if kind == "profile":
        return service.profile(arg)
    if kind == "journey":
        source, target, departure = arg
        return service.journey(source, target, departure=departure)
    return service.batch(BatchRequest.from_pairs(list(arg)))


def _assert_profiles_equal(got, expected, context):
    assert np.array_equal(got.deps, expected.deps), context
    assert np.array_equal(got.arrs, expected.arrs), context


def _assert_answers_equal(got, expected, op):
    if isinstance(expected, ProfileResult):
        assert isinstance(got, ProfileResult)
        for station in range(12):
            if station == expected.source:
                continue
            _assert_profiles_equal(
                got.profile(station), expected.profile(station), (op, station)
            )
    elif isinstance(expected, JourneyResult):
        assert isinstance(got, JourneyResult)
        _assert_profiles_equal(got.profile, expected.profile, op)
        assert got.arrival == expected.arrival, op
        assert got.legs == expected.legs, op
        assert got.stats.classification == expected.stats.classification, op
    else:
        assert isinstance(expected, BatchResponse)
        for got_j, exp_j in zip(got.journeys, expected.journeys):
            _assert_profiles_equal(got_j.profile, exp_j.profile, op)


def test_concurrent_mixed_traffic_matches_serial(oahu_tiny):
    shared = TransitService(oahu_tiny, CONFIG)
    serial = TransitService(oahu_tiny, CONFIG)
    ops = _workload(oahu_tiny.num_stations, seed=7)

    # Serial oracle first (separate service; equal config + timetable
    # ⇒ identical answers, pinned by the facade suite).
    expected = [_run_op(serial, op) for op in ops]

    # The same ops, interleaved across N threads against ONE service.
    slices = [ops[i::NUM_THREADS] for i in range(NUM_THREADS)]
    indices = [list(range(i, len(ops), NUM_THREADS)) for i in range(NUM_THREADS)]
    results: dict[int, object] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(NUM_THREADS)

    def worker(thread_slice, thread_indices):
        try:
            barrier.wait()
            for op, index in zip(thread_slice, thread_indices):
                results[index] = _run_op(shared, op)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(s, ix))
        for s, ix in zip(slices, indices)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, f"concurrent query raised: {errors[0]!r}"
    assert len(results) == len(ops)

    for index, op in enumerate(ops):
        _assert_answers_equal(results[index], expected[index], op)

    # The duplicated workload must have produced concurrent cache hits
    # (otherwise this test exercised less than the server does).
    assert shared.cache_stats.hits > 0
