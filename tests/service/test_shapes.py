"""Oracle equivalence for the served request shapes (the query zoo).

The tentpole contract of ``repro.shapes``: promoting multicriteria,
via and min-transfers queries to served shapes must not fork any query
logic.  Every facade answer is therefore pinned against the standalone
implementations it wraps:

* ``multicriteria`` fronts against the layered transfer-bounded
  Dijkstra oracle (:func:`tests.oracles.mc_time_query`), over a
  seeded grid of 20+ (instance, source, departure) cells — including
  tie and domination edge cases the Pareto merge must get right;
* ``via`` against two chained earliest-arrival journeys through the
  facade's own ``journey`` path;
* ``min_transfers`` against the head of the §6 search's Pareto front;
* the legs of both against the option they belong to.

Plus the dynamic half: after a hot ``apply_delays`` swap, every shape
must answer exactly like a *cold* service built over the delayed
timetable — under concurrent query traffic.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.mc_reference import mc_reference_search
from repro.functions.piecewise import INF_TIME
from repro.service import (
    JourneyRequest,
    MinTransfersRequest,
    MulticriteriaRequest,
    ServiceConfig,
    TransitService,
    ViaRequest,
)
from repro.timetable.delays import Delay, apply_delays

from tests.oracles.mc_time_query import mc_time_query
from tests.oracles.reference_service import SERVICE_OF_KERNEL

CONFIG = ServiceConfig(
    num_threads=2, use_distance_table=True, transfer_fraction=0.25
)

#: The seeded equivalence grid: (source, departure) cells per
#: instance.  Together with the two instances below this is a 24-cell
#: oracle sweep (the acceptance bar asks for 20+), mixing peak/
#: off-peak anchors, late-evening wrap-around and the source==target
#: degenerate cell.
GRID = [
    (0, 300),
    (0, 480),
    (2, 480),
    (2, 1020),
    (3, 0),
    (5, 700),
    (7, 480),
    (7, 1380),
    (9, 60),
    (1, 900),
    (4, 480),
    (6, 1140),
]


@pytest.fixture(scope="module")
def oahu_service(oahu_tiny):
    return TransitService(oahu_tiny, CONFIG)


@pytest.fixture(scope="module")
def germany_service(germany_tiny):
    return TransitService(germany_tiny, CONFIG)


def services(request):
    """Both seeded instances, resolved lazily per test."""
    return (
        request.getfixturevalue("oahu_service"),
        request.getfixturevalue("germany_service"),
    )


# ---------------------------------------------------------------------------
# Multicriteria fronts vs the layered Dijkstra oracle
# ---------------------------------------------------------------------------


class TestMulticriteriaOracle:
    @pytest.mark.parametrize("source,departure", GRID)
    def test_front_matches_mc_time_query(
        self, request, source, departure
    ):
        for service in services(request):
            n = service.timetable.num_stations
            src = source % n
            oracle = mc_time_query(
                service.prepared.graph, src, departure, max_transfers=5
            )
            for target in range(n):
                if target == src:
                    continue
                result = service.multicriteria(
                    MulticriteriaRequest(src, target, departure)
                )
                expected = oracle.pareto_front(target)
                got = [(o.transfers, o.arrival) for o in result.options]
                assert got == expected, (
                    service.timetable.name, src, target, departure
                )

    def test_front_is_strictly_dominating(self, oahu_service):
        """Domination edge case: no front entry may be weakly beaten
        by another (equal arrival at higher transfer count, or equal
        transfers at later arrival, must have been merged away)."""
        for source, departure in GRID:
            for target in range(12):
                if target == source:
                    continue
                result = oahu_service.multicriteria(
                    MulticriteriaRequest(source, target, departure)
                )
                opts = [(o.transfers, o.arrival) for o in result.options]
                ks = [k for k, _ in opts]
                arrs = [a for _, a in opts]
                assert ks == sorted(set(ks)), opts
                assert arrs == sorted(set(arrs), reverse=True), opts

    def test_source_equals_target(self, oahu_service):
        result = oahu_service.multicriteria(
            MulticriteriaRequest(4, 4, 480)
        )
        assert [(o.transfers, o.arrival) for o in result.options] == [
            (0, 480)
        ]
        assert result.legs == ()

    def test_legs_realize_the_fastest_option(self, oahu_service):
        result = oahu_service.multicriteria(
            MulticriteriaRequest(2, 5, 480)
        )
        assert result.reachable
        assert result.legs
        assert result.legs[0].from_station == 2
        assert result.legs[0].departure == 480
        assert result.legs[-1].to_station == 5
        assert result.legs[-1].arrival == result.best_arrival
        assert len(result.legs) - 1 == result.options[-1].transfers
        for prev, nxt in zip(result.legs, result.legs[1:]):
            assert prev.to_station == nxt.from_station
            assert prev.arrival == nxt.departure

    def test_tight_budget_shrinks_or_empties_the_front(
        self, oahu_service
    ):
        wide = oahu_service.multicriteria(
            MulticriteriaRequest(2, 5, 480, max_transfers=5)
        )
        tight = oahu_service.multicriteria(
            MulticriteriaRequest(2, 5, 480, max_transfers=0)
        )
        assert len(tight.options) <= len(wide.options)
        oracle = mc_time_query(
            oahu_service.prepared.graph, 2, 480, max_transfers=0
        )
        assert [
            (o.transfers, o.arrival) for o in tight.options
        ] == oracle.pareto_front(5)


# ---------------------------------------------------------------------------
# Via vs two chained earliest-arrival journeys
# ---------------------------------------------------------------------------


class TestViaOracle:
    @pytest.mark.parametrize("source,departure", GRID)
    def test_matches_chained_journeys(self, request, source, departure):
        for service in services(request):
            n = service.timetable.num_stations
            src = source % n
            via = (src + 3) % n
            target = (src + 7) % n
            result = service.via(ViaRequest(src, via, target, departure))
            first = service.journey(JourneyRequest(src, via, departure))
            expected_via = (
                departure if via == src
                else first.profile.earliest_arrival(departure)
            )
            assert result.via_arrival == expected_via
            if expected_via >= INF_TIME or via == target:
                assert result.arrival == (
                    INF_TIME if expected_via >= INF_TIME else expected_via
                )
            else:
                second = service.journey(
                    JourneyRequest(via, target, expected_via)
                )
                assert result.arrival == second.profile.earliest_arrival(
                    expected_via
                )

    def test_legs_pass_through_the_via(self, oahu_service):
        result = oahu_service.via(ViaRequest(2, 5, 7, 480))
        assert result.reachable
        assert result.legs is not None
        stations = [result.legs[0].from_station] + [
            leg.to_station for leg in result.legs
        ]
        assert stations[0] == 2
        assert stations[-1] == 7
        assert 5 in stations
        boundary = next(
            i for i, leg in enumerate(result.legs)
            if leg.arrival == result.via_arrival
            and leg.to_station == 5
        )
        assert result.legs[boundary].arrival == result.via_arrival

    def test_degenerate_hops(self, oahu_service):
        same_via = oahu_service.via(ViaRequest(2, 2, 5, 480))
        direct = oahu_service.journey(JourneyRequest(2, 5, 480))
        assert same_via.via_arrival == 480
        assert same_via.arrival == direct.profile.earliest_arrival(480)
        via_is_target = oahu_service.via(ViaRequest(2, 5, 5, 480))
        assert via_is_target.arrival == via_is_target.via_arrival


# ---------------------------------------------------------------------------
# Min-transfers vs the front head
# ---------------------------------------------------------------------------


class TestMinTransfersOracle:
    @pytest.mark.parametrize("source,departure", GRID)
    def test_matches_front_head(self, request, source, departure):
        for service in services(request):
            n = service.timetable.num_stations
            src = source % n
            raw = mc_reference_search(
                service.prepared.graph, src, max_transfers=5
            )
            for target in range(n):
                if target == src:
                    continue
                result = service.min_transfers(
                    MinTransfersRequest(src, target, departure)
                )
                front = raw.pareto_front(target, departure)
                if front:
                    assert (result.transfers, result.arrival) == front[0]
                else:
                    assert result.transfers is None
                    assert result.arrival == INF_TIME

    def test_legs_realize_the_transfer_count(self, oahu_service):
        result = oahu_service.min_transfers(
            MinTransfersRequest(2, 5, 480)
        )
        assert result.reachable
        assert result.legs
        assert len(result.legs) - 1 == result.transfers
        assert result.legs[-1].arrival == result.arrival

    @pytest.mark.parametrize("kernel", ["flat", "python"])
    def test_direct_train_has_its_leg(self, toy, kernel):
        """The toy network's direct train 0 → 3 (08:00 → 09:30) is the
        fewest-transfers journey, but not the fastest (one transfer
        arrives 09:10): legs read off an unconstrained earliest-arrival
        search never realise it, the search's own parents do."""
        service = SERVICE_OF_KERNEL[kernel](toy, ServiceConfig())
        result = service.min_transfers(MinTransfersRequest(0, 3, 480))
        assert (result.transfers, result.arrival) == (0, 570)
        assert result.legs is not None and len(result.legs) == 1
        assert result.legs[0].arrival == 570
        front = service.multicriteria(MulticriteriaRequest(0, 3, 480))
        assert [(o.transfers, o.arrival) for o in front.options] == [
            (0, 570),
            (1, 550),
        ]
        assert len(front.legs) == 2 and front.legs[-1].arrival == 550

    def test_shares_the_search_with_multicriteria(self, oahu_tiny):
        """One (source, budget) search serves both shapes: the second
        call must not re-run the §6 search."""
        service = TransitService(oahu_tiny, CONFIG)
        service.multicriteria(MulticriteriaRequest(2, 5, 480))
        before = service.cache_stats.misses
        service.min_transfers(MinTransfersRequest(2, 9, 480))
        after = service.cache_stats.misses
        # The raw-search entry is already cached; only the new typed
        # request itself misses.
        assert after - before == 1


# ---------------------------------------------------------------------------
# Hot swap: post-swap answers equal a cold delayed rebuild
# ---------------------------------------------------------------------------


DELAYS = [Delay(train=0, minutes=45), Delay(train=3, minutes=20)]


def _answers(service):
    mc = service.multicriteria(MulticriteriaRequest(2, 5, 480))
    via = service.via(ViaRequest(2, 5, 7, 480))
    mt = service.min_transfers(MinTransfersRequest(2, 9, 480))
    return (
        tuple((o.transfers, o.arrival) for o in mc.options),
        mc.legs,
        (via.via_arrival, via.arrival, via.legs),
        (mt.transfers, mt.arrival, mt.legs),
    )


class TestHotSwapEquivalence:
    def test_swap_equals_cold_delayed_oracle(self, oahu_tiny):
        hot = TransitService(oahu_tiny, CONFIG)
        _answers(hot)  # warm the caches pre-swap
        swapped = hot.apply_delays(DELAYS)
        cold = TransitService(apply_delays(oahu_tiny, DELAYS), CONFIG)
        assert _answers(swapped) == _answers(cold)

    def test_swap_under_concurrent_traffic(self, oahu_tiny):
        """Queries racing the swap see either generation's answers,
        never a torn mix; post-swap answers equal the cold oracle."""
        service = TransitService(oahu_tiny, CONFIG)
        before = _answers(service)
        cold = TransitService(apply_delays(oahu_tiny, DELAYS), CONFIG)
        after = _answers(cold)
        holder = {"service": service}
        stop = threading.Event()
        failures: list = []

        def traffic():
            while not stop.is_set():
                got = _answers(holder["service"])
                if got not in (before, after):
                    failures.append(got)
                    return

        threads = [threading.Thread(target=traffic) for _ in range(3)]
        for t in threads:
            t.start()
        holder["service"] = holder["service"].apply_delays(DELAYS)
        stop.set()
        for t in threads:
            t.join()
        assert not failures
        assert _answers(holder["service"]) == after
