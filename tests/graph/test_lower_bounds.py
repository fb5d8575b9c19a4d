"""The per-target lower bounds ``π_T`` of the goal-directed search.

``TDGraphArrays.lower_bounds_to(T)`` is what the flat kernel adds to
an arrival time to key its queue (``docs/KERNEL.md``, "Goal
direction").  The search is exact only if the bounds are *consistent*
on every edge and therefore *admissible* — and only if they belong to
the pack that is being searched: a swap's pack must compute its own.

The generated timetables are the adversarial ones of the kernel suites
(:func:`tests.strategies.adversarial_timetables`: period wrap, zero
transfer times, duplicate and overtaking trains, stations without
departures).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.functions.piecewise import INF_TIME
from repro.graph.td_arrays import pack_td_graph
from repro.graph.td_model import build_td_graph
from repro.service import ServiceConfig, TransitService
from repro.service.prepare import replan_dataset
from repro.timetable.builder import TimetableBuilder
from repro.timetable.types import Timetable

from tests.helpers import assert_packs_equal, retimed, swapped_pack
from tests.oracles.mc_time_query import mc_time_query
from tests.oracles.reference_service import ReferenceService
from tests.strategies import adversarial_timetables, retimings


def _bound_from_station(arrays, bounds, station: int, target: int) -> int:
    """The bound a search *from* ``station`` starts with: it boards
    without paying ``T(station)``, so its seeds are the route nodes
    behind the station's boarding edges, not the station node."""
    if station == target:
        return 0
    heads = [head for head, _, _ in arrays.kernel_adjacency()[station]]
    return min((bounds[head] for head in heads), default=INF_TIME)


class TestGeneratedTimetables:
    @settings(
        deadline=None,
        max_examples=120,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(timetable=adversarial_timetables(), data=st.data())
    def test_consistent_admissible_and_exact_about_reachability(
        self, timetable, data
    ):
        graph = build_td_graph(timetable)
        arrays = pack_td_graph(graph)
        period = timetable.period
        taus = data.draw(
            st.lists(
                st.integers(0, period - 1), min_size=2, max_size=4, unique=True
            ),
            label="departures",
        )
        queries = {
            (s, tau): mc_time_query(graph, s, tau, max_transfers=None).arrival
            for s in range(graph.num_stations)
            for tau in taus
        }
        for target in range(graph.num_stations):
            bounds = arrays.lower_bounds_to(target)
            assert len(bounds) == arrays.num_nodes
            assert bounds[target] == 0

            # Consistent: π(u) ≤ min-cost(u, v) + π(v) on every edge.
            for u, edges in enumerate(arrays.kernel_adjacency()):
                for head, weight, row in edges:
                    cost = weight if row is None else min(row)
                    assert bounds[u] <= cost + bounds[head], (target, u, head)

            # Admissible against the time query, and ∞ exactly where
            # the time query never arrives.
            for (s, tau), arrival in queries.items():
                bound = _bound_from_station(arrays, bounds, s, target)
                if bound >= INF_TIME:
                    assert arrival[target][0] >= INF_TIME, (s, target, tau)
                else:
                    assert arrival[target][0] < INF_TIME, (s, target, tau)
                    assert arrival[target][0] - tau >= bound, (s, target, tau)

    @settings(
        deadline=None,
        max_examples=120,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(timetable=adversarial_timetables(), data=st.data())
    def test_a_swapped_pack_has_the_bounds_of_the_oracle(self, timetable, data):
        changes = data.draw(retimings(timetable), label="(shift, stretch) per train")
        swapped, oracle = swapped_pack(timetable, retimed(timetable, changes))
        assert_packs_equal(swapped, oracle)
        for target in range(timetable.num_stations):
            assert swapped.lower_bounds_to(target) == oracle.lower_bounds_to(
                target
            ), target


class TestBoundsOutliveNoGeneration:
    """The one way goal direction can answer wrongly: bounds computed
    for one generation's travel times, used on the next one's.

    ``apply_delays`` shifts departures and keeps every ride's duration
    (slack shortens dwell, not rides), so no batch the service accepts
    today moves a bound.  ``replan_dataset`` — what every
    ``TransitService.apply_delays`` runs — takes
    any re-timed timetable though, and a ride that got *shorter than
    any ride its edge had before* makes the old bound an overestimate:
    the search then settles the target through the slower train first
    and the stopping criterion throws the faster one away.
    """

    def _timetable(self) -> tuple[Timetable, int, int, int]:
        builder = TimetableBuilder(period=1440, name="recovery")
        s, x, t = (
            builder.add_station(name, transfer_time=2) for name in "SXT"
        )
        # The only train over X → T needs 100 minutes for that leg ...
        slow = builder.add_trip([(s, 0), (x, 10), (t, 110)], name="via-x")
        # ... so the later direct train is the best way to T.
        builder.add_trip([(s, 5), (t, 55)], name="direct")
        builder.add_trip([(t, 200), (s, 260)], name="back")
        return builder.build(), s, t, slow

    def test_a_ride_faster_than_ever_before_is_found_after_a_swap(self):
        timetable, s, t, slow = self._timetable()
        config = ServiceConfig(use_distance_table=False)
        base = TransitService(timetable, config)
        before = base.journey(s, t).profile
        assert (before.deps.tolist(), before.arrs.tolist()) == ([5], [55])

        # Every ride of the train gets 90 minutes shorter, none under a
        # minute: S 0 → X 1, X 10 → T 20.
        recovered = retimed(timetable, {slow: (0, -90)})
        incremental = TransitService(
            recovered,
            config,
            prepared=replan_dataset(base.prepared, recovered),
        )
        rebuilt = TransitService(recovered, config)
        reference = ReferenceService(recovered, config)

        after = incremental.journey(s, t).profile
        assert (after.deps.tolist(), after.arrs.tolist()) == ([0, 5], [20, 55])
        stations = range(timetable.num_stations)
        for source in stations:
            for target in stations:
                answer = incremental.journey(source, target).profile
                assert answer == rebuilt.journey(source, target).profile
                assert answer == reference.journey(source, target).profile
            assert incremental.prepared.arrays.lower_bounds_to(
                source
            ) == rebuilt.prepared.arrays.lower_bounds_to(source)
