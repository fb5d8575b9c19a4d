#!/usr/bin/env python3
"""CI round trip: drive every server endpoint through the client SDK.

Usage:  client_roundtrip.py http://127.0.0.1:PORT

Run against a `repro-transit serve` started with ``--max-inflight 1``
(the CI server-smoke job does).  Nothing in the server parks a request
on a clock, so the script *forces* a real 503→retry→success cycle by
concurrency: a few threads issue uncached journeys at once against the
single admission slot — whichever arrives while another is in flight
is rejected 503 `overloaded`, backs off per ``Retry-After``, and
succeeds on retry.  Bursts repeat (bounded) until the client has
counted a retry.

Asserted end to end, over real TCP, via :class:`HttpBackend` only:

1. dataset resolution from ``/v1/datasets`` (no name given);
2. all six query shapes answer, and agree with each other (journey
   profile == restricted one-to-all profile == batch item == streamed
   item; the multicriteria front's best arrival == the journey's; the
   min-transfers head sits on the front; via == two chained journeys);
3. ``journey_many`` batches in one round trip;
4. the forced retry happened (client counted it, the server's
   ``retries_observed_total`` and ``rejected_total`` saw it);
5. a delay hot swap bumps the generation and moves the journey —
   and the new shapes answer from the delayed generation too;
6. typed errors: out-of-range station raises the documented
   exception, not a raw HTTP failure — for old and new shapes alike.
"""

from __future__ import annotations

import sys
import threading

from repro.client import BadRequestError, HttpBackend, RetryPolicy
from repro.service.model import JourneyRequest
from repro.timetable.delays import Delay


#: Concurrent journeys per burst, and how many bursts to try before
#: giving up on ever seeing a collision.
BURST_THREADS = 3
MAX_BURSTS = 20


def force_retry(backend: HttpBackend, stations: int) -> int:
    """Issue bursts of concurrent journeys (fresh pairs each burst, so
    all but the few between two transfer stations are real searches
    that hold the admission slot) until one is rejected 503 and retried;
    returns the number of bursts it took.  Every journey must still be
    answered — a retry that runs out of attempts fails the script."""
    pairs = [(s, t) for s in range(stations) for t in range(stations) if s != t]
    failures: list[Exception] = []

    def journey(source: int, target: int) -> None:
        try:
            assert backend.journey(source, target).reachable is not None
        except Exception as exc:  # noqa: BLE001 — reported below
            failures.append(exc)

    for burst in range(MAX_BURSTS):
        threads = [
            threading.Thread(
                target=journey, args=pairs[(burst * BURST_THREADS + k) % len(pairs)]
            )
            for k in range(BURST_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, f"a collided journey never succeeded: {failures}"
        if backend.stats.retries >= 1:
            return burst + 1
    raise AssertionError(
        f"{MAX_BURSTS} bursts of {BURST_THREADS} concurrent journeys never "
        f"collided on the admission slot — is the server running with "
        f"--max-inflight 1? (stats: {backend.stats})"
    )


def main() -> int:
    base_url = sys.argv[1]
    backend = HttpBackend(
        base_url,
        retry=RetryPolicy(retries=6, backoff=0.1, max_backoff=1.5),
        timeout=60,
    )

    # 1. Resolve the one served dataset.
    info = backend.info()
    print(f"dataset: {info.name} ({info.stations} stations, "
          f"generation {info.generation})")
    assert info.generation == 0

    # 2. Query-shape agreement.
    journey = backend.journey(2, 5)
    profile = backend.profile(2, targets=[5])
    assert profile.profiles[5] == journey.profile, (
        "profile restriction disagrees with the journey profile"
    )
    batch = backend.batch([(2, 5)])
    assert batch.journeys[0].profile == journey.profile
    streamed = list(backend.iter_batch([(2, 5)]))
    assert streamed[0].profile == journey.profile
    print(f"query shapes agree: {len(journey.profile)} connection points")

    # 2b. The query zoo: multicriteria, via, min-transfers.
    departure = 480
    mc = backend.multicriteria(2, 5, departure=departure)
    assert mc.reachable and mc.options, mc
    assert mc.best_arrival == journey.profile.earliest_arrival(departure), (
        "multicriteria best arrival disagrees with the journey profile"
    )
    mt = backend.min_transfers(2, 5, departure=departure)
    assert (mt.transfers, mt.arrival) == (
        mc.options[0].transfers,
        mc.options[0].arrival,
    ), "min-transfers head is not the front's first option"
    via = backend.via(2, 5, 7, departure=departure)
    leg_one = backend.journey(2, 5, departure=departure)
    assert via.via_arrival == leg_one.arrival
    leg_two = backend.journey(5, 7, departure=via.via_arrival)
    assert via.arrival == leg_two.arrival, (
        "via arrival disagrees with two chained journeys"
    )
    print(
        f"query zoo agrees: front of {len(mc.options)}, "
        f"min {mt.transfers} transfer(s), via at {via.via_arrival}"
    )

    # 3. journey_many in one round trip.
    many = backend.journey_many([JourneyRequest(2, 5), JourneyRequest(0, 7)])
    assert [a.target for a in many] == [5, 7]
    assert many[0].profile == journey.profile
    print(f"journey_many answered {len(many)} journeys in one request")

    # 4. Force a retry by colliding on the single admission slot.
    bursts = force_retry(backend, info.stations)
    print(f"forced retry observed client-side: {backend.stats.retries} "
          f"(after {bursts} burst(s))")

    # 5. Hot swap moves the journey and bumps the generation.
    update = backend.apply_delays([Delay(train=0, minutes=45)])
    assert update.generation == 1, update
    delayed = backend.journey(2, 5)
    assert delayed.profile != journey.profile, (
        "post-swap journey did not change"
    )
    assert backend.info().generation == 1
    print(f"hot swap: generation {update.generation}, journey moved")

    # 5b. The new shapes answer from the delayed generation: their
    # arrivals must track the post-swap journey profile, not the old.
    delayed_mc = backend.multicriteria(2, 5, departure=departure)
    assert delayed_mc.best_arrival == delayed.profile.earliest_arrival(
        departure
    ), "post-swap multicriteria does not match the delayed profile"
    delayed_mt = backend.min_transfers(2, 5, departure=departure)
    assert delayed_mt.arrival == delayed_mc.options[0].arrival
    delayed_via = backend.via(2, 5, 7, departure=departure)
    assert delayed_via.via_arrival == delayed.profile.earliest_arrival(
        departure
    )
    print("query zoo answers from the delayed generation")

    # 6. Typed errors over the wire.
    try:
        backend.journey(0, 10**6)
    except BadRequestError as exc:
        assert exc.code == "out_of_range" and exc.field == "target"
        print(f"typed rejection: {exc}")
    else:
        raise AssertionError("out-of-range target was not rejected")
    try:
        backend.via(0, 10**6, 5, departure=480)
    except BadRequestError as exc:
        assert exc.code == "out_of_range" and exc.field == "via"
        print(f"typed rejection (via): {exc}")
    else:
        raise AssertionError("out-of-range via was not rejected")

    # The server saw all of it.
    metrics = backend.server_metrics()
    assert metrics["retries_observed_total"] >= 1, metrics
    assert metrics["rejected_total"] >= 1, metrics
    assert metrics["swaps_total"] == {info.name: 1}, metrics
    served = sum(metrics["requests_total"].values())
    print(f"server metrics: {served} requests, "
          f"{metrics['rejected_total']} rejected, "
          f"{metrics['retries_observed_total']} retries observed")
    backend.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
