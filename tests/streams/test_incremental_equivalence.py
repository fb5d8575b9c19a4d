"""Oracle harness for delta replanning, the one replan path.

``apply_delays(...)`` packs the delayed timetable over the routes it
shares with its parent (:func:`repro.graph.td_arrays.pack_timetable`)
and scans that pack for the distance table; a cold service built from
the delayed timetable is the oracle, and is never served.  The contract is **bitwise identity**, not
approximate agreement: on ≥50 seeded instances sweeping the same shape
and time-structure distribution as the kernel-equivalence harness
(:mod:`tests.core.test_kernel_equivalence`) — including wrap-heavy
night service and slack-recovery batches — every packed array buffer,
every graph edge and every distance-table profile of the swapped
dataset must equal a cold service built from scratch on the delayed
timetable, and so must the answers of all three query shapes (journey,
one-to-all profile, batch) on both kernels.

The multi-criteria shapes (``multicriteria``, ``min_transfers``) get
the same treatment after a *sequence* of batches: on a
``flat`` service their search reads the swapped packed arrays,
so it must answer exactly as a cold rebuild and as the reference
multi-criteria search on the rebuilt graph.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np
import pytest

from repro.core.mc_reference import mc_reference_search
from repro.functions.piecewise import INF_TIME
from repro.service import (
    BatchRequest,
    MinTransfersRequest,
    MulticriteriaRequest,
    ServiceConfig,
)
from repro.synthetic.workloads import random_station_pairs
from repro.timetable.delays import Delay, apply_delays

from tests.helpers import (
    SERVICE_OF_KERNEL,
    assert_rows_bitwise_equal,
    random_line_timetable,
)

#: Instance sweep: shape/time-structure configs × per-config seeds ⇒
#: ≥50 randomized instances.  ``kernel``/``table`` vary across configs
#: so both kernels and both table modes are exercised throughout;
#: ``periodic-wrap`` and ``late-night-wrap`` force wrap-around night
#: trains (delayed departures crossing the period boundary).
CONFIGS: dict[str, dict] = {
    "small-dense": dict(
        shape=dict(num_stations=6, num_lines=6, max_line_length=4),
        kernel="flat", table=False,
    ),
    "mid-default": dict(
        shape=dict(num_stations=12, num_lines=6),
        kernel="flat", table=True,
    ),
    "sparse-long": dict(
        shape=dict(num_stations=14, num_lines=4, max_line_length=7),
        kernel="python", table=False,
    ),
    "transfer-rich": dict(
        shape=dict(num_stations=8, num_lines=7, min_headway=15, max_headway=35),
        kernel="flat", table=True,
    ),
    "slow-transfers": dict(
        shape=dict(num_stations=9, num_lines=5, max_transfer=15),
        kernel="python", table=True,
    ),
    "zero-transfers": dict(
        shape=dict(num_stations=8, num_lines=5, max_transfer=0),
        kernel="flat", table=False,
    ),
    "aperiodic-morning": dict(
        shape=dict(num_stations=10, num_lines=5, service_span=(360, 720)),
        kernel="flat", table=True,
    ),
    "periodic-wrap": dict(
        shape=dict(num_stations=9, num_lines=5, service_span=(0, 1440)),
        kernel="flat", table=True,
    ),
    "short-period": dict(
        shape=dict(num_stations=9, num_lines=5, period=720, service_span=(0, 720)),
        kernel="python", table=False,
    ),
    "late-night-wrap": dict(
        shape=dict(num_stations=8, num_lines=5, service_span=(1100, 1440)),
        kernel="flat", table=True,
    ),
}

SEEDS_PER_CONFIG = 5
CASES = [
    pytest.param(name, seed, id=f"{name}-s{seed}")
    for name in CONFIGS
    for seed in range(SEEDS_PER_CONFIG)
]
assert len(CASES) >= 50

#: Every packed buffer of :class:`~repro.graph.td_arrays.TDGraphArrays`
#: (the private adjacency mirror is checked separately).
ARRAY_FIELDS = (
    "node_station",
    "edge_indptr",
    "edge_target",
    "edge_weight",
    "edge_ttf",
    "ttf_indptr",
    "ttf_dep",
    "ttf_dur",
    "ttf_fifo",
    "conn_indptr",
    "conn_dep",
    "conn_start",
    "transfer_time",
)


@lru_cache(maxsize=None)
def _case(name: str, seed: int):
    config = CONFIGS[name]
    timetable = random_line_timetable(1000 * seed + 17, **config["shape"])
    service_config = ServiceConfig(
        num_threads=2,
        use_distance_table=config["table"],
        transfer_fraction=0.3,
    )
    service = SERVICE_OF_KERNEL[config["kernel"]](timetable, service_config)
    return timetable, service_config, service


def _random_batch(timetable, seed: int) -> tuple[list[Delay], int]:
    """A seeded delay batch: 1–5 victims (duplicates allowed — the
    composition rule makes them additive), minutes large enough to
    push late-night departures across the period boundary, and a
    slack-recovery draw roughly every other batch."""
    rng = random.Random(2000 * seed + 5)
    legs: dict[int, int] = {}
    for c in timetable.connections:
        legs[c.train] = legs.get(c.train, 0) + 1
    trains = sorted(legs)
    picked = [trains[rng.randrange(len(trains))] for _ in range(rng.randint(1, 5))]
    delays = [
        Delay(
            train=train,
            minutes=rng.randint(1, 180),
            from_stop=rng.randrange(legs[train]),
        )
        for train in picked
    ]
    return delays, rng.choice((0, 0, 1, 3))


def assert_profiles_bitwise_equal(expected, got, context=""):
    assert got.period == expected.period, context
    assert np.array_equal(got.deps, expected.deps), context
    assert np.array_equal(got.arrs, expected.arrs), context


def _assert_prepared_bitwise_equal(cold, warm, context=""):
    """Every travel-time-carrying artifact of the swapped dataset
    equals the cold rebuild's, buffer for buffer."""
    # Object graph: same topology, identical travel-time functions.
    assert warm.graph.num_nodes == cold.graph.num_nodes, context
    for node in range(cold.graph.num_nodes):
        cold_edges = cold.graph.adjacency[node]
        warm_edges = warm.graph.adjacency[node]
        assert len(warm_edges) == len(cold_edges), f"{context}: node {node}"
        for slot, (ce, we) in enumerate(zip(cold_edges, warm_edges)):
            where = f"{context}: node {node} slot {slot}"
            assert we.target == ce.target, where
            assert we.weight == ce.weight, where
            if ce.ttf is None:
                assert we.ttf is None, where
            else:
                assert we.ttf.deps == ce.ttf.deps, where
                assert we.ttf.durs == ce.ttf.durs, where
    assert warm.graph.conn_start_node == cold.graph.conn_start_node, context

    # Packed arrays, buffer for buffer (including the kernel mirror).
    if cold.arrays is None:
        assert warm.arrays is None, context
    else:
        for field in ARRAY_FIELDS:
            assert np.array_equal(
                getattr(warm.arrays, field), getattr(cold.arrays, field)
            ), f"{context}: arrays.{field}"
        assert (
            warm.arrays.kernel_adjacency() == cold.arrays.kernel_adjacency()
        ), context

    # Distance table, profile for profile.
    if cold.table is None:
        assert warm.table is None, context
    else:
        assert np.array_equal(
            warm.table.transfer_stations, cold.table.transfer_stations
        ), context
        for a, cold_row in enumerate(cold.table.profiles):
            for b, cold_profile in enumerate(cold_row):
                assert_profiles_bitwise_equal(
                    cold_profile,
                    warm.table.profiles[a][b],
                    f"{context}: table[{a}][{b}]",
                )


@pytest.mark.parametrize("name,seed", CASES)
def test_incremental_bitwise_equals_cold_rebuild(name, seed):
    """The tentpole pin: a swap ≡ a cold build of the delayed
    timetable, bitwise, artifacts and all three query shapes."""
    timetable, config, base = _case(name, seed)
    delays, slack = _random_batch(timetable, seed)

    warm = base.apply_delays(delays, slack_per_leg=slack)
    cold = type(base)(
        apply_delays(timetable, delays, slack_per_leg=slack), config
    )

    # The swap shared the topology and built no graph.
    assert warm.prepare_stats.shared_station_graph
    assert warm.prepare_stats.graph_seconds == 0.0
    _assert_prepared_bitwise_equal(
        cold.prepared, warm.prepared, f"{name}-s{seed}"
    )

    pairs = random_station_pairs(timetable, 3, seed=seed + 1)
    # Query shape 1: station-to-station journeys.
    for s, t in pairs:
        assert_profiles_bitwise_equal(
            cold.journey(s, t).profile,
            warm.journey(s, t).profile,
            f"{name}-s{seed}: journey {s}->{t}",
        )
    # Query shape 2: one-to-all profile search.
    source = pairs[0][0]
    cold_p = cold.profile(source)
    warm_p = warm.profile(source)
    for target in range(timetable.num_stations):
        assert_profiles_bitwise_equal(
            cold_p.profile(target),
            warm_p.profile(target),
            f"{name}-s{seed}: profile {source}->{target}",
        )
    # Query shape 3: the batch path.
    warm_batch = warm.batch(BatchRequest.from_pairs(pairs))
    cold_batch = cold.batch(BatchRequest.from_pairs(pairs))
    for (s, t), w, c in zip(pairs, warm_batch.journeys, cold_batch.journeys):
        assert_profiles_bitwise_equal(
            c.profile, w.profile, f"{name}-s{seed}: batch {s}->{t}"
        )


@pytest.mark.parametrize("name,seed", CASES)
def test_incremental_sequence_multicriteria_equals_cold_and_reference(
    name, seed
):
    """Three swaps in a row, then both multi-criteria
    shapes: swapped service ≡ cold rebuild (answers, legs, work) ≡ the
    reference search on the rebuilt object graph."""
    timetable, config, base = _case(name, seed)
    warm, delayed = base, timetable
    for step in range(3):
        delays, slack = _random_batch(timetable, seed + 100 * step)
        warm = warm.apply_delays(delays, slack_per_leg=slack)
        delayed = apply_delays(delayed, delays, slack_per_leg=slack)
    cold = type(base)(delayed, config)
    context = f"{name}-s{seed}"
    _assert_prepared_bitwise_equal(cold.prepared, warm.prepared, context)

    max_transfers = 3
    source = random_station_pairs(timetable, 1, seed=seed + 1)[0][0]
    reference = mc_reference_search(
        cold.prepared.graph, source, max_transfers=max_transfers
    )
    for target in range(timetable.num_stations):
        for departure in (0, 480, timetable.period - 1):
            where = f"{context}: {source}->{target}@{departure}"
            front = (
                reference.pareto_front(target, departure)
                if target != source
                else [(0, departure)]
            )

            mc = MulticriteriaRequest(source, target, departure, max_transfers)
            w, c = warm.multicriteria(mc), cold.multicriteria(mc)
            assert [(o.transfers, o.arrival) for o in w.options] == front, where
            assert w.options == c.options, where
            assert w.legs == c.legs, where

            mt = MinTransfersRequest(source, target, departure, max_transfers)
            w2, c2 = warm.min_transfers(mt), cold.min_transfers(mt)
            head = front[0] if front else (None, INF_TIME)
            assert (w2.transfers, w2.arrival) == head, where
            assert (w2.transfers, w2.arrival, w2.legs) == (
                c2.transfers, c2.arrival, c2.legs,
            ), where

            for got, expected in ((w.stats, c.stats), (w2.stats, c2.stats)):
                assert got.kernel == expected.kernel, where
                assert (
                    got.settled_connections == expected.settled_connections
                ), where


@pytest.mark.parametrize(
    "name,seed", [pytest.param(n, 0, id=n) for n in CONFIGS]
)
def test_incremental_shares_untouched_artifacts(name, seed):
    """The point of the delta path: topology artifacts are shared, not
    copies; the distance table is the generation's own, and equals a
    cold service's."""
    timetable, config, base = _case(name, seed)
    delays, slack = _random_batch(timetable, seed)
    warm = base.apply_delays(delays, slack_per_leg=slack)

    assert warm.prepared.station_graph is base.prepared.station_graph
    assert warm.prepared.transfer_stations is base.prepared.transfer_stations
    assert warm.prepare_stats.shared_station_graph
    if base.prepared.table is not None:
        cold = type(base)(
            apply_delays(timetable, delays, slack_per_leg=slack), config
        )
        assert_rows_bitwise_equal(cold.table.profiles, warm.table.profiles)
        assert not any(
            new is old
            for new, old in zip(warm.table.profiles, base.table.profiles)
        )


def test_any_mode_gives_the_swap_stats():
    """``mode`` selects nothing: with it omitted, ``"full"`` or
    ``"incremental"``, a swap reports the one path's accounting —
    shared topology, no route, station-graph or selection time."""
    timetable, config, base = _case("mid-default", 0)
    delays, slack = _random_batch(timetable, 0)
    swaps = [
        base.apply_delays(delays, slack_per_leg=slack, **mode)
        for mode in ({}, {"mode": "full"}, {"mode": "incremental"})
    ]
    counts = {
        (
            stats.shared_station_graph,
            stats.num_nodes,
            stats.num_edges,
            stats.num_transfer_stations,
            stats.packed_bytes,
        )
        for stats in (swap.prepare_stats for swap in swaps)
    }
    assert len(counts) == 1
    for swap in swaps:
        stats = swap.prepare_stats
        assert stats.shared_station_graph
        assert stats.graph_seconds == 0.0
        assert stats.station_graph_seconds == 0.0
        assert stats.selection_seconds == 0.0
        assert swap.prepared.hydrated == {"timetable"}


def test_incremental_rejects_unknown_mode():
    timetable, config, base = _case("small-dense", 0)
    with pytest.raises(ValueError, match="mode"):
        base.apply_delays([Delay(train=0, minutes=5)], mode="bogus")
