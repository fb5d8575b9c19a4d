"""Oracle-equivalence harness for the flat-array SPCS kernel.

The kernel (:mod:`repro.core.spcs_kernel`) must be indistinguishable —
profile-for-profile — from two independent implementations on a broad
randomized instance distribution:

* the pure-Python SPCS (:mod:`repro.core.spcs`), the reference
  implementation of the paper's §3 algorithm;
* the label-correcting baseline (:mod:`repro.baselines`), an entirely
  different algorithm family (§2) serving as the oracle.

The distribution sweeps instance *shape* (size, line density, headway /
transfer density) and *time structure* (periodic wrap-heavy service,
aperiodic service windows, non-1440 periods): ≥50 seeded instances in
total, each checked on every station's reduced profile and on
earliest-arrival evaluations across two periods.  Raw labels may
legitimately differ between kernels on exact arrival ties (queue
tie-breaking); reduced profiles and arrival times may not.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.baselines.label_correcting import label_correcting_profile
from repro.core.merge import merge_thread_results
from repro.core.spcs import spcs_profile_search
from repro.core.spcs_kernel import spcs_kernel_search
from repro.graph.td_arrays import pack_td_graph
from repro.graph.td_model import build_td_graph

from tests.helpers import random_line_timetable

#: Instance-shape sweep.  Each config is run with several seeds; the
#: cross product gives the ≥50 randomized oracle instances.
CONFIGS: dict[str, dict] = {
    "small-dense": dict(num_stations=6, num_lines=6, max_line_length=4),
    "mid-default": dict(num_stations=12, num_lines=6),
    "sparse-long": dict(num_stations=14, num_lines=4, max_line_length=7),
    "transfer-rich": dict(
        num_stations=8, num_lines=7, min_headway=15, max_headway=35
    ),
    "slow-transfers": dict(num_stations=9, num_lines=5, max_transfer=15),
    "zero-transfers": dict(num_stations=8, num_lines=5, max_transfer=0),
    "aperiodic-morning": dict(
        num_stations=10, num_lines=5, service_span=(360, 720)
    ),
    "periodic-wrap": dict(
        num_stations=9, num_lines=5, service_span=(0, 1440)
    ),
    "short-period": dict(
        num_stations=9, num_lines=5, period=720, service_span=(0, 720)
    ),
    "late-night-wrap": dict(
        num_stations=8, num_lines=5, service_span=(1100, 1440)
    ),
}

SEEDS_PER_CONFIG = 5
CASES = [
    pytest.param(name, seed, id=f"{name}-s{seed}")
    for name in CONFIGS
    for seed in range(SEEDS_PER_CONFIG)
]
assert len(CASES) >= 50

#: Arrival-evaluation probes across two periods (wrap coverage).
PROBE_STEP = 211


@lru_cache(maxsize=None)
def _case(name: str, seed: int):
    """Graph + packed arrays for one oracle instance (cached across the
    test functions so each instance is built and searched once)."""
    config = CONFIGS[name]
    timetable = random_line_timetable(1000 * seed + 17, **config)
    graph = build_td_graph(timetable)
    return graph, pack_td_graph(graph)


@pytest.mark.parametrize("name,seed", CASES)
def test_kernel_matches_python_and_label_correcting(name, seed):
    """The oracle triple: flat kernel ≡ Python SPCS ≡ label-correcting,
    on every station's reduced profile and on arrival evaluations."""
    graph, arrays = _case(name, seed)
    period = graph.timetable.period
    kernel = spcs_kernel_search(arrays, 0)
    python = spcs_profile_search(graph, 0)
    oracle = label_correcting_profile(graph, 0)

    for station in range(graph.num_stations):
        k_prof = kernel.profile(station)
        assert k_prof == python.profile(station), (
            f"kernel vs python SPCS differ at station {station} "
            f"({name}, seed {seed})"
        )
        assert k_prof == oracle.profile(station, period), (
            f"kernel vs label-correcting differ at station {station} "
            f"({name}, seed {seed})"
        )
        for tau in range(0, 2 * period, PROBE_STEP):
            assert k_prof.earliest_arrival(tau) == python.profile(
                station
            ).earliest_arrival(tau)


@pytest.mark.parametrize(
    "name,seed",
    [pytest.param(n, 0, id=n) for n in CONFIGS],
)
def test_kernel_subset_merge_matches_full_run(name, seed):
    """Disjoint connection subsets merged back equal the full kernel run
    (the §3.2 parallel decomposition, exercised at the kernel level)."""
    graph, arrays = _case(name, seed)
    full = spcs_kernel_search(arrays, 0)
    n = int(full.conn_indices.size)
    if n < 2:
        pytest.skip("instance has fewer than 2 outgoing connections")
    parts = [list(range(0, n, 2)), list(range(1, n, 2))]
    merged = merge_thread_results(
        [
            spcs_kernel_search(arrays, 0, connection_subset=part)
            for part in parts
        ],
        n,
    )
    for station in range(graph.num_stations):
        assert merged.profile(station) == full.profile(station)


@pytest.mark.parametrize(
    "name,seed",
    [pytest.param(n, s, id=f"{n}-s{s}") for n in CONFIGS for s in range(2)],
)
def test_kernel_target_stopping_is_lossless(name, seed):
    """Theorem 2 on the kernel: stopping may prune work but not change
    the profile at the target."""
    graph, arrays = _case(name, seed)
    target = graph.num_stations - 1
    full = spcs_kernel_search(arrays, 0)
    stopped = spcs_kernel_search(arrays, 0, target=target)
    assert stopped.profile(target) == full.profile(target)
    assert (
        stopped.stats.settled_connections <= full.stats.settled_connections
    )


@pytest.mark.parametrize(
    "name,seed",
    [pytest.param(n, 1, id=n) for n in CONFIGS],
)
def test_kernel_self_pruning_is_lossless(name, seed):
    """Theorem 1 on the kernel: disabling self-pruning changes work,
    never profiles."""
    graph, arrays = _case(name, seed)
    pruned = spcs_kernel_search(arrays, 0, self_pruning=True)
    plain = spcs_kernel_search(arrays, 0, self_pruning=False)
    for station in range(graph.num_stations):
        assert pruned.profile(station) == plain.profile(station)


def test_kernel_rejects_bad_inputs():
    graph, arrays = _case("small-dense", 0)
    route_node = graph.num_stations  # first non-station node
    with pytest.raises(ValueError, match="station node"):
        spcs_kernel_search(arrays, route_node)
    with pytest.raises(ValueError, match="station node"):
        spcs_kernel_search(arrays, 0, target=route_node)
    with pytest.raises(ValueError, match="ascending"):
        spcs_kernel_search(arrays, 0, connection_subset=[1, 0])
    with pytest.raises(ValueError, match="range"):
        spcs_kernel_search(arrays, 0, connection_subset=[10**9])


def test_kernel_handles_zero_point_ttf_edge():
    """A TravelTimeFunction with no points is legal (arrival() returns
    INF_TIME) and reports is_fifo() == True; the kernel's FIFO fast
    path must yield INF instead of crashing.  Unreachable via
    build_td_graph (empty legs get no edge) — guard the contract for
    hand-built graphs anyway."""
    from repro.functions.piecewise import TravelTimeFunction
    from repro.graph.td_model import Edge

    graph, _ = _case("small-dense", 0)
    target_node = graph.num_stations  # any route node
    graph.adjacency[0].append(Edge(target_node, 0, TravelTimeFunction([], [])))
    try:
        arrays = pack_td_graph(graph)
        kernel = spcs_kernel_search(arrays, 0)
        python = spcs_profile_search(graph, 0)
        for station in range(graph.num_stations):
            assert kernel.profile(station) == python.profile(station)
    finally:
        graph.adjacency[0].pop()


def test_kernel_empty_subset_returns_empty_result():
    graph, arrays = _case("small-dense", 0)
    result = spcs_kernel_search(arrays, 0, connection_subset=[])
    assert result.labels.shape == (graph.num_nodes, 0)
    assert result.stats.settled_connections == 0


@pytest.mark.parametrize(
    "name,seed",
    [pytest.param(n, s, id=f"{n}-s{s}") for n in CONFIGS for s in range(2)],
)
def test_transit_service_matches_oracle_paths(name, seed):
    """The TransitService facade on the same oracle instances: its
    profile answers must equal both direct kernel runs and the Python
    reference, for either configured kernel (the facade adds routing
    and artifact sharing, never semantics)."""
    from tests.oracles.reference_service import SERVICE_OF_KERNEL

    graph, arrays = _case(name, seed)
    python = spcs_profile_search(graph, 0)
    for kernel in ("python", "flat"):
        service = SERVICE_OF_KERNEL[kernel](graph.timetable)
        result = service.profile(0)
        for station in range(graph.num_stations):
            assert result.profile(station) == python.profile(station), (
                f"facade[{kernel}] vs python SPCS differ at station "
                f"{station} ({name}, seed {seed})"
            )
