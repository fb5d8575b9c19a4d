"""The reference searches' queues: one each, and the work they do.

Every reference search runs on exactly one ``repro.pq`` queue, and
SPCS's self-pruning depends on the order in which that queue releases
equal keys — Table 1's settled columns are the reference's work on the
binary heap.  ``WORK`` pins that work to the digit: a search moved to
another queue (SPCS on :class:`repro.pq.LazyHeap` settles 38–66 % more
on ``oahu``/tiny) or a changed sift tie-break fails here even though
every profile stays the same.  The numbers are the three tiny
instances' work at sources 0, 4 and 9.
"""

from __future__ import annotations

import pytest

from repro.baselines.label_correcting import label_correcting_profile
from repro.core.multicriteria import mc_profile_search
from repro.core.parallel import parallel_profile_search, timed_subset_search
from repro.core.spcs import spcs_profile_search
from repro.core.spcs_kernel import run_spcs_search
from repro.graph.td_model import build_td_graph
from repro.query.table_query import StationToStationEngine
from repro.synthetic.instances import make_instance

from tests.oracles.mc_time_query import mc_time_query

KERNELS = ("python", "flat")

#: (instance, source) -> the work of each reference search:
#: ``spcs_profile_search`` settled and queue pushes; the same search on
#: four threads, settled summed; ``label_correcting_profile`` settled
#: connections;
#: ``mc_time_query(…, 480, max_transfers=2)`` settled; and
#: ``mc_profile_search(…, max_transfers=2)`` settled and pruned.
WORK = {
    ("oahu", 0): (7334, 7456, 7453, 17561, 43, 8086, 2217),
    ("oahu", 4): (9059, 9186, 9114, 33110, 43, 9653, 2822),
    ("oahu", 9): (6985, 7109, 7028, 17634, 49, 8504, 2195),
    ("germany", 0): (3368, 3385, 3752, 53724, 91, 4153, 1512),
    ("germany", 4): (2741, 2852, 2944, 5096, 79, 2811, 619),
    ("germany", 9): (1865, 1938, 1958, 3408, 77, 2047, 397),
    ("washington", 0): (12595, 13276, 12760, 44488, 92, 11155, 1905),
    ("washington", 4): (16397, 17114, 16688, 57391, 100, 16957, 4508),
    ("washington", 9): (16452, 16878, 16703, 67935, 113, 19292, 6339),
}


@pytest.fixture(scope="module")
def washington_tiny_graph():
    return build_td_graph(make_instance("washington", scale="tiny"))


@pytest.mark.parametrize(
    "instance,source", sorted(WORK), ids=lambda v: str(v)
)
def test_the_reference_searches_do_the_recorded_work(
    instance, source, request
):
    graph = request.getfixturevalue(f"{instance}_tiny_graph")
    spcs = spcs_profile_search(graph, source).stats
    parallel = parallel_profile_search(graph, source, 4).stats
    mc = mc_profile_search(graph, source, max_transfers=2).stats
    assert (
        spcs.settled_connections,
        spcs.queue_pushes,
        sum(parallel.settled_per_thread),
        label_correcting_profile(graph, source).settled_connections,
        mc_time_query(graph, source, 480, max_transfers=2).settled,
        mc.settled,
        mc.pruned,
    ) == WORK[instance, source]


def _engine_query(graph, kernel, queue):
    engine = StationToStationEngine(graph, kernel=kernel, queue=queue)
    return engine.query(0, 3)


def _profile(graph, kernel, queue):
    return parallel_profile_search(graph, 0, 2, kernel=kernel, queue=queue)


def _mc_profile(graph, kernel, queue):
    return mc_profile_search(graph, 0, max_transfers=1, queue=queue)


@pytest.mark.parametrize(
    "entry,kernel",
    [(entry, k) for entry in (_engine_query, _profile) for k in KERNELS]
    + [(_mc_profile, "python")],
    ids=lambda v: getattr(v, "__name__", v).lstrip("_"),
)
def test_a_queue_other_than_the_binary_heap_is_refused(
    toy_graph, entry, kernel
):
    """The entry points that still take ``queue`` accept ``"binary"``
    and refuse every other name on either kernel — not a bare
    ``KeyError``, and not silently ignored by the flat kernel.  The
    whole-day multi-criteria search has the reference kernel only."""
    assert entry(toy_graph, kernel, "binary") is not None
    for queue in ("lazy", "4-ary", "fib"):
        with pytest.raises(ValueError, match="unknown queue"):
            entry(toy_graph, kernel, queue)


@pytest.mark.parametrize(
    "search",
    (
        lambda g: spcs_profile_search(g, 0, queue="binary"),
        lambda g: run_spcs_search(g, None, 0, queue="binary"),
        lambda g: timed_subset_search(
            g, None, 0, [0], self_pruning=True, queue="binary"
        ),
    ),
    ids=(
        "spcs_profile_search",
        "run_spcs_search",
        "timed_subset_search",
    ),
)
def test_the_searches_without_a_choice_take_no_queue(toy_graph, search):
    with pytest.raises(TypeError, match="queue"):
        search(toy_graph)
