"""The four workloads and their seeded request scripts.

A script is a pure function of ``(workload, seed, seconds)`` and the
(fixed) dataset: the same arguments give the same operations in the
same order on every commit, and nothing in it depends on the clock.
``seconds`` only scales the operation *counts* (``Workload.ops`` is
the count at ``RUN_SECONDS``), so a faster program finishes the same
script sooner instead of being handed more work.

An operation is a tuple whose first item names its kind:

``("journey", s, t)``
    one ``journey(s, t)`` request;
``("session", s, v, t)``
    five requests for one traveller — ``profile(s, num_threads=2)``,
    ``multicriteria(s, t)``, ``min_transfers(s, t)``, ``via(s, v, t)``
    and ``batch([(s, t), (t, s)])``, all departing at 08:00.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.service.model import (
    BatchRequest,
    JourneyRequest,
    MinTransfersRequest,
    MulticriteriaRequest,
    ProfileRequest,
    ViaRequest,
)
from repro.synthetic.delays import generate_delay_stream

#: ``--seconds`` at which ``Workload.ops`` is the timed operation count
#: (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 10

#: From-scratch set-ups per run: ``setup_s`` is their median and the
#: last server is the one measured.  (The run budget — 92 driver runs
#: in 57 minutes, on a box that can be 1.7x slow — pays for two.)
SETUPS = 2

#: Departure time of every dated request (08:00, inside the rush hour).
DEPARTURE = 480

#: Delay shapes whose batches respect ``max_trains_per_event`` (a line
#: closure touches every train of its route, however many).
_DELAY_SHAPES = ("rush_hour_cascade", "rolling_disruption", "recovering_delay")
_MAX_TRAINS_PER_BATCH = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: dataset, stored config, load shape."""

    name: str
    why: str
    instance: str
    scale: str
    #: ``ServiceConfig`` fields stored with the dataset — the only
    #: configuration the benchmark chooses; the server's own flags
    #: stay at their defaults.
    config: dict
    #: Closed-loop query client threads, one connection each.
    clients: int
    #: Timed operations at ``RUN_SECONDS`` and warm-up operations per
    #: set-up (for ``delay_replay``: cycles of ``pairs * rounds``).
    ops: int
    warmup: int
    #: Share of the timed operations re-asked in-process after the run.
    check_share: float
    #: Operations (``delay_replay``: cycles) of the traced pass.
    trace_ops: int
    #: ``delay_replay`` only: hot pairs per round, rounds per cycle and
    #: rounds of the warm-up cycle.
    pairs: int = 0
    rounds: int = 0
    warmup_rounds: int = 0


_TABLE_CONFIG = {
    "use_distance_table": True,
    "transfer_fraction": 0.5,
    "result_cache_size": 0,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table_hit",
            why="both ends in S_trans: the answer is a distance-table "
            "lookup, so client, wire, HTTP and executor do nearly all "
            "the work and the search kernel none",
            instance="washington",
            scale="small",
            config=_TABLE_CONFIG,
            clients=2,
            ops=3784,  # two passes over the 44 x 43 pairs
            warmup=200,
            check_share=0.05,
            trace_ops=400,
        ),
        Workload(
            name="cold_search",
            why="source outside S_trans, unique pairs, no result cache: "
            "every op is a full table-pruned SPCS search, so core and "
            "query dominate and the wire is a few percent",
            instance="washington",
            scale="small",
            config=_TABLE_CONFIG,
            clients=2,
            ops=264,
            warmup=16,
            check_share=0.05,
            trace_ops=40,
        ),
        Workload(
            name="zoo_session",
            why="one op is a five-request session over all six served "
            "shapes on sparse rail: multicriteria search, parallel "
            "profile + merge, big payloads, mc/min-transfers sharing",
            instance="germany",
            scale="medium",
            config={"use_distance_table": True, "transfer_fraction": 0.5},
            clients=2,
            ops=50,
            warmup=4,
            check_share=0.1,
            trace_ops=6,
        ),
        Workload(
            name="delay_replay",
            why="hot pairs read through the result cache while a second "
            "thread posts incremental delay batches: swap cost, cold "
            "caches and rebuilt packed rows show here only",
            instance="washington",
            scale="small",
            config={},
            clients=1,
            ops=5,
            warmup=1,
            check_share=0.0,  # checked after the last swap instead
            trace_ops=1,
            pairs=24,
            rounds=12,
            warmup_rounds=2,
        ),
    )
}


@dataclass
class Script:
    """The operations of one run, in the order the clients issue them.

    ``warmup`` and ``timed`` are operation lists; ``posts`` maps an
    index into the respective list to the delay event a second thread
    posts when the (single) query client *reaches* that index.
    """

    warmup: list = field(default_factory=list)
    timed: list = field(default_factory=list)
    warmup_posts: dict = field(default_factory=dict)
    timed_posts: dict = field(default_factory=dict)
    #: ``delay_replay``: the last cycle's hot pairs, re-queried after
    #: the last swap, and the operations of one cycle (the unit the
    #: traced pass counts in).
    hot_pairs: list = field(default_factory=list)
    cycle_ops: int = 1


def scaled(count: int, seconds: float) -> int:
    """``count`` operations at ``RUN_SECONDS``, scaled to ``seconds``."""
    return max(1, round(count * seconds / RUN_SECONDS))


def _rng(workload: Workload, seed: int) -> random.Random:
    # A string seed is hashed deterministically (unlike hash()).
    return random.Random(f"e2ebench:{workload.name}:{seed}")


def transfer_stations(service) -> list[int]:
    stations = service.prepared.transfer_stations
    return [] if stations is None else sorted(int(s) for s in stations)


# Seeds must change the inputs without changing how much work they are:
# the samplers below draw *balanced* samples (every stratum of the cost
# predictor equally often), so that runs with different seeds can be
# compared with each other.


def _balanced(rng, items: list, count: int) -> list:
    """``count`` draws in which every item occurs ``count // len`` or
    one more times, in shuffled order."""
    full, rest = divmod(count, len(items))
    drawn = list(items) * full + rng.sample(list(items), rest)
    rng.shuffle(drawn)
    return drawn


def _one_per_stratum(rng, ranked: list, count: int) -> list:
    """``count`` distinct items of ``ranked`` (sorted by a cost
    predictor): one from each of ``count`` contiguous strata, shuffled.
    More than ``len(ranked)`` draws take further passes."""
    drawn: list = []
    while len(drawn) < count:
        k = min(count - len(drawn), len(ranked))
        picks = [
            rng.choice(ranked[i * len(ranked) // k : (i + 1) * len(ranked) // k])
            for i in range(k)
        ]
        rng.shuffle(picks)
        drawn.extend(picks)
    return drawn


def _by_connections(service, stations) -> list:
    """Stations ranked by how many connections leave them — what a
    search from there costs, to first order."""
    timetable = service.timetable
    return sorted(
        stations, key=lambda s: (len(timetable.outgoing_connections(s)), s)
    )


def _table_hit_pairs(rng, service, warmup: int, timed: int) -> list:
    """Ordered pairs of distinct transfer stations in whole shuffled
    passes over *all* such pairs: with ``timed`` a multiple of their
    number every seed does the same multiset of lookups and differs
    only in order."""
    s_trans = transfer_stations(service)
    pairs = [("journey", s, t) for s in s_trans for t in s_trans if s != t]

    def passes(count: int) -> list:
        ops: list = []
        while len(ops) < count:
            rng.shuffle(pairs)
            ops.extend(pairs)
        return ops[:count]

    timed_ops = passes(timed)
    return passes(warmup) + timed_ops


def _balanced_pairs(rng, sources: list, targets: list, count: int, taken: set) -> list:
    """``count`` unique ``(source, target)`` pairs, none in ``taken``
    (which they join), balanced both ways: every source and every
    target occurs equally often.  Search cost depends on both ends —
    the source's connection count, the target's distance and table
    membership — so balancing both keeps a sample's cost close to the
    population's whatever the seed."""
    if count + len(taken) > len(sources) * (len(targets) - 1) // 2:
        raise ValueError(
            f"{count} more unique pairs asked of {len(sources)} sources x "
            f"{len(targets)} targets ({len(taken)} taken)"
        )
    drawn_s = _balanced(rng, sources, count)
    drawn_t = _balanced(rng, targets, count)
    while True:
        seen = set(taken)
        clashes = []
        for i, pair in enumerate(zip(drawn_s, drawn_t)):
            if pair[0] == pair[1] or pair in seen:
                clashes.append(i)
            seen.add(pair)
        if not clashes:
            pairs = list(zip(drawn_s, drawn_t))
            taken.update(pairs)
            return pairs
        for i in clashes:  # trade targets with a random other draw
            j = rng.randrange(count)
            drawn_t[i], drawn_t[j] = drawn_t[j], drawn_t[i]


def _cold_search_pairs(rng, service, warmup: int, timed: int) -> list:
    """Unique pairs whose source is outside ``S_trans``; the timed
    pairs are balanced on their own, the warm-up pairs further draws."""
    stations = list(range(service.timetable.num_stations))
    inside = set(transfer_stations(service))
    outside = [s for s in stations if s not in inside]
    taken: set = set()
    timed_pairs = _balanced_pairs(rng, outside, stations, timed, taken)
    warm_pairs = _balanced_pairs(rng, outside, stations, warmup, taken)
    return [("journey", s, t) for s, t in warm_pairs + timed_pairs]


def _sessions(rng, service, warmup: int, timed: int) -> list:
    """One session per source station: distinct sources (a repeated
    one would be answered from the result cache), one from each stratum
    of the stations ranked by connection count; via and target drawn
    from the other stations."""
    num_stations = service.timetable.num_stations
    ranked = _by_connections(service, range(num_stations))
    ops = []
    for s in _one_per_stratum(rng, ranked, warmup + timed):
        v, t = rng.sample([x for x in range(num_stations) if x != s], 2)
        ops.append(("session", s, v, t))
    return ops


def _delay_cycles(rng, workload, service, script, seconds) -> None:
    """Cycles of ``rounds`` passes over the cycle's own hot pairs, each
    opened by a delay post.  Every cycle has a fresh hot set, all of
    them one two-way balanced draw, so that a run's cache misses cost
    the same whatever the seed."""
    stations = list(range(service.timetable.num_stations))
    pairs = min(workload.pairs, len(stations))
    cycles = scaled(workload.ops, seconds)
    stream = generate_delay_stream(
        service.timetable,
        seed=rng.randrange(2**31),
        num_events=workload.warmup + cycles,
        duration_s=0.0,
        shapes=_DELAY_SHAPES,
        max_trains_per_event=_MAX_TRAINS_PER_BATCH,
    )
    events = list(stream.events)
    taken: set = set()
    script.cycle_ops = pairs * workload.rounds

    def fill(ops: list, posts: dict, count: int, rounds: int) -> None:
        hot = _balanced_pairs(rng, stations, stations, count * pairs, taken)
        for cycle in range(count):
            posts[len(ops)] = events.pop(0)
            script.hot_pairs = hot[cycle * pairs : (cycle + 1) * pairs]
            for _ in range(rounds):
                order = script.hot_pairs[:]
                rng.shuffle(order)
                ops.extend(("journey", s, t) for s, t in order)

    fill(script.warmup, script.warmup_posts, workload.warmup,
         workload.warmup_rounds)
    fill(script.timed, script.timed_posts, cycles, workload.rounds)


def build_script(
    workload: Workload, seed: int, seconds: float, service
) -> Script:
    """The run's operations (see module docstring).  ``service`` is the
    prepared dataset the server will serve, loaded in-process: it
    supplies station counts, ``S_trans`` and the timetable the delay
    stream is generated against."""
    rng = _rng(workload, seed)
    script = Script()
    if workload.name == "delay_replay":
        _delay_cycles(rng, workload, service, script, seconds)
        return script
    make = {
        "table_hit": _table_hit_pairs,
        "cold_search": _cold_search_pairs,
        "zoo_session": _sessions,
    }[workload.name]
    ops = make(rng, service, workload.warmup, scaled(workload.ops, seconds))
    script.warmup, script.timed = ops[: workload.warmup], ops[workload.warmup :]
    return script


def requests_of(op) -> list:
    """The typed requests of one operation as ``(shape, request)``
    pairs in issue order; ``shape`` names the ``TransitBackend``
    method that takes the request."""
    if op[0] == "journey":
        _, s, t = op
        return [("journey", JourneyRequest(s, t))]
    _, s, v, t = op
    return [
        ("profile", ProfileRequest(s, num_threads=2)),
        ("multicriteria", MulticriteriaRequest(s, t, DEPARTURE)),
        ("min_transfers", MinTransfersRequest(s, t, DEPARTURE)),
        ("via", ViaRequest(s, v, t, DEPARTURE)),
        ("batch", BatchRequest.from_pairs([(s, t), (t, s)])),
    ]


def perform(backend, op) -> list:
    """Issue one operation on any ``TransitBackend``; its answers in
    request order."""
    return [getattr(backend, shape)(req) for shape, req in requests_of(op)]


def post(backend, event):
    """Apply one delay event of a script on any ``TransitBackend``."""
    return backend.apply_delays(
        list(event.delays),
        slack_per_leg=event.slack_per_leg,
        replan="incremental",
    )
