"""Cross-implementation equivalence — the central correctness property.

On random networks, four independent implementations must agree:

* SPCS (connection-setting, self-pruning)     — paper §3
* parallel SPCS on any thread count           — paper §3.2
* label-correcting profile search             — paper §2
* one time-query per departure anchor         — ground truth

Equality is checked on reduced profiles (exact) and on earliest-arrival
evaluations at probe times spread over two periods (wrap coverage).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.label_correcting import label_correcting_profile
from repro.core.parallel import parallel_profile_search
from repro.core.spcs import spcs_profile_search
from repro.functions.piecewise import INF_TIME
from repro.graph.td_model import build_td_graph

from tests.helpers import random_line_timetable
from tests.oracles.mc_time_query import brute_force_arrivals, mc_time_query

PROBE_TIMES = list(range(0, 2 * 1440, 173))


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(min_value=0, max_value=2_000))
def test_spcs_equals_label_correcting(seed):
    graph = build_td_graph(random_line_timetable(seed, num_stations=9, num_lines=5))
    spcs = spcs_profile_search(graph, 0)
    lc = label_correcting_profile(graph, 0)
    for station in range(graph.num_stations):
        assert spcs.profile(station) == lc.profile(
            station, graph.timetable.period
        ), f"station {station} differs (seed {seed})"


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=2_000),
    p=st.integers(min_value=2, max_value=6),
)
def test_parallel_equals_sequential(seed, p):
    graph = build_td_graph(random_line_timetable(seed, num_stations=9, num_lines=5))
    single = spcs_profile_search(graph, 0)
    parallel = parallel_profile_search(graph, 0, p)
    for station in range(graph.num_stations):
        assert parallel.profile(station) == single.profile(station)


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(min_value=0, max_value=2_000))
def test_spcs_equals_brute_force(seed):
    """The SPCS profile *function* must match one-time-query-per-anchor
    ground truth at every departure anchor of conn(S).

    Function equality, not point-set equality: SPCS keeps a raw point
    per outgoing connection, and a pathologically slow same-day point
    may be cyclically dominated by the next day's first train — the
    evaluation handles that, so values are the right comparison.
    """
    graph = build_td_graph(random_line_timetable(seed, num_stations=7, num_lines=4))
    spcs = spcs_profile_search(graph, 0)
    anchors = sorted(
        {c.dep_time for c in graph.timetable.outgoing_connections(0)}
    )
    truth = brute_force_arrivals(graph, 0, anchors)
    for station in range(1, graph.num_stations):
        profile = spcs.profile(station)
        for k, dep in enumerate(anchors):
            assert profile.earliest_arrival(dep) == truth[station][k], (
                f"station {station} anchor {dep} (seed {seed})"
            )


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(min_value=0, max_value=2_000))
def test_profile_evaluation_matches_time_queries(seed):
    """dist(S, T, τ) read from the profile equals a fresh time-query for
    arbitrary τ — including wrap-around past the period."""
    graph = build_td_graph(random_line_timetable(seed, num_stations=7, num_lines=4))
    spcs = spcs_profile_search(graph, 0)
    for station in range(1, graph.num_stations):
        profile = spcs.profile(station)
        for tau in PROBE_TIMES:
            truth = mc_time_query(
                graph, 0, tau, max_transfers=None
            ).arrival_at_station(station, 0)
            assert profile.earliest_arrival(tau) == truth, (
                f"station {station} at τ={tau} (seed {seed})"
            )


@settings(deadline=None, max_examples=6)
@given(seed=st.integers(min_value=0, max_value=2_000))
def test_self_pruning_is_lossless(seed):
    graph = build_td_graph(random_line_timetable(seed, num_stations=8, num_lines=5))
    pruned = spcs_profile_search(graph, 0, self_pruning=True)
    plain = spcs_profile_search(graph, 0, self_pruning=False)
    for station in range(graph.num_stations):
        assert pruned.profile(station) == plain.profile(station)


@settings(deadline=None, max_examples=6)
@given(
    seed=st.integers(min_value=0, max_value=2_000),
    target=st.integers(min_value=1, max_value=6),
)
def test_stopping_criterion_is_lossless_for_target(seed, target):
    graph = build_td_graph(random_line_timetable(seed, num_stations=7, num_lines=4))
    target = target % graph.num_stations or 1
    full = spcs_profile_search(graph, 0)
    stopped = spcs_profile_search(graph, 0, target=target)
    assert stopped.profile(target) == full.profile(target)


def test_all_sources_agree_on_instances(oahu_tiny_graph, germany_tiny_graph):
    """Deterministic sweep over a handful of sources on both network
    families (dense bus, sparse rail)."""
    for graph in (oahu_tiny_graph, germany_tiny_graph):
        for source in range(0, graph.num_stations, 5):
            spcs = spcs_profile_search(graph, source)
            lc = label_correcting_profile(graph, source)
            parallel = parallel_profile_search(graph, source, 4)
            for station in range(graph.num_stations):
                expected = lc.profile(station, graph.timetable.period)
                assert spcs.profile(station) == expected
                assert parallel.profile(station) == expected
