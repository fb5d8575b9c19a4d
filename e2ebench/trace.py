"""The traced pass: where one request's time goes, layer by layer.

Spans are recorded from *outside* the program, around calls into each
layer's public functions (spans inside the program are a later change):
for a prefix of the workload's operations the benchmark walks the very
stage sequence ``LocalBackend`` runs — ``client.wire`` → JSON text →
``server.protocol`` parse → ``TransitService`` → ``server.protocol``
encode → JSON text → ``client.results`` decode — one span per stage.
The ``query``/``core`` work behind a facade call cannot be spanned
from outside while it runs, so it is *replayed* right after: the same
``StationToStationEngine.query`` / ``parallel_profile_search`` /
``mc_profile_search`` call the facade just made, recorded as a child
span (``replay: true``) of the ``service`` span.  A layer's self time
is its span minus its children.

Each operation is then asked twice more, to close the books: of a plain
``LocalBackend`` (``trace.overhead_ratio`` = staged stages ÷ plain
call) and, alone on the wire, of the live server
(``server.transport_ms`` = round trip − staged pipeline: HTTP framing,
event loop, executor hand-off and the micro-batch window).  The three
take turns operation by operation, so they see the same machine speed.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from repro.client import LocalBackend, results, wire
from repro.core.multicriteria import mc_profile_search
from repro.core.parallel import parallel_profile_search
from repro.query.table_query import StationToStationEngine
from repro.server import protocol
from repro.service.facade import TransitService

from e2ebench.harness import connect
from e2ebench.workloads import post, requests_of

#: Sources of the kernel probe (one-to-all searches at p=1 and p=2).
PROBE_SOURCES = 6

#: shape → (wire body, wire parser, encoder, decoder).
_SHAPES = {
    "journey": (
        wire.journey_body, protocol.parse_journey_request,
        protocol.encode_journey, results.decode_journey,
    ),
    "profile": (
        wire.profile_body, protocol.parse_profile_request,
        protocol.encode_profile, results.decode_profile,
    ),
    "batch": (
        wire.batch_body, protocol.parse_batch_request,
        protocol.encode_batch, results.decode_batch,
    ),
    "multicriteria": (
        wire.multicriteria_body, protocol.parse_multicriteria_request,
        protocol.encode_multicriteria, results.decode_multicriteria,
    ),
    "via": (
        wire.via_body, protocol.parse_via_request,
        protocol.encode_via, results.decode_via,
    ),
    "min_transfers": (
        wire.min_transfers_body, protocol.parse_min_transfers_request,
        protocol.encode_min_transfers, results.decode_min_transfers,
    ),
}

#: The stages ``LocalBackend`` itself runs (it hands dicts across; the
#: JSON text steps exist only on a real wire).
_BACKEND_STAGES = (
    "client.wire", "server.parse", "service", "server.encode", "client.decode",
)


class Tracer:
    """In-memory span list.  Spans are added after the fact from clock
    readings taken around the calls, so recording costs the traced code
    one ``perf_counter`` per boundary."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name, op, start, end, parent=None, **extra) -> int:
        self.spans.append(
            {"name": name, "op": op, "parent": parent, "start": start,
             "end": end, **extra}
        )
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        return [
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        ]

    def per_op(self, names) -> dict[int, float]:
        """Summed duration of the named top-level spans, per operation."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s["name"] in names and s["parent"] is None:
                totals[s["op"]] = totals.get(s["op"], 0.0) + s["end"] - s["start"]
        return totals


def _engine(service: TransitService) -> StationToStationEngine:
    """A station-to-station engine over the service's own artifacts,
    built the way the facade builds its private one."""
    cfg, prepared = service.config, service.prepared
    return StationToStationEngine(
        prepared.graph,
        prepared.table,
        num_threads=cfg.num_threads,
        strategy=cfg.strategy,
        stopping=cfg.stopping,
        table_pruning=cfg.table_pruning,
        target_pruning=cfg.target_pruning,
        queue=cfg.queue,
        kernel=cfg.kernel,
        arrays=prepared.arrays,
        station_graph=prepared.station_graph,
    )


def _profile_search(service: TransitService, source: int, num_threads: int):
    cfg, prepared = service.config, service.prepared
    return parallel_profile_search(
        prepared.graph,
        source,
        num_threads,
        strategy=cfg.strategy,
        backend="serial",
        self_pruning=cfg.self_pruning,
        queue=cfg.queue,
        kernel=cfg.kernel,
        arrays=prepared.arrays,
    )


def _replay_children(tracer, service, engine, shape, request, result, op, parent, seen_mc, s2s):
    """Replay the query/core calls the facade made for ``request`` as
    child spans of its ``service`` span (see module docstring)."""
    if getattr(getattr(result, "stats", None), "cache_hit", False):
        return
    clock = time.perf_counter
    if shape == "journey":
        pairs = [(request.source, request.target)]
    elif shape == "via":
        pairs = [(request.source, request.via), (request.via, request.target)]
    elif shape == "batch":
        pairs = [(j.source, j.target) for j in request.journeys]
    else:
        pairs = []
    for source, target in pairs:
        t0 = clock()
        s2s.append(engine.query(source, target))
        tracer.add("query.s2s", op, t0, clock(), parent, replay=True)
    if shape == "profile":
        t0 = clock()
        _profile_search(service, request.source, request.num_threads)
        tracer.add("core.profile", op, t0, clock(), parent, replay=True)
    # min_transfers after multicriteria on the same source reads the
    # shared search from the result cache: one search per source.
    if shape in ("multicriteria", "min_transfers"):
        key = (id(service), request.source, request.max_transfers)
        if key not in seen_mc:
            seen_mc.add(key)
            t0 = clock()
            mc_profile_search(
                service.prepared.graph,
                request.source,
                max_transfers=request.max_transfers,
                self_pruning=service.config.self_pruning,
                queue=service.config.queue,
            )
            tracer.add("core.mc_search", op, t0, clock(), parent, replay=True)


#: The stages of one request in pipeline order; consecutive clock
#: readings delimit them.
_STAGES = (
    "client.wire", "client.dumps", "server.loads", "server.parse", "service",
    "server.encode", "server.dumps", "client.loads", "client.decode",
)


def _staged_request(tracer, service, engine, shape, request, op, seen_mc, s2s) -> int:
    """One request through the staged pipeline; returns response bytes."""
    body_fn, parse_fn, encode_fn, decode_fn = _SHAPES[shape]
    num_stations = service.timetable.num_stations
    clock = time.perf_counter
    t0 = clock()
    body = {"v": protocol.PROTOCOL_VERSION, **body_fn(request)}
    t1 = clock()
    text = json.dumps(body)
    t2 = clock()
    raw = json.loads(text)
    t3 = clock()
    parsed = parse_fn(raw, num_stations)
    t4 = clock()
    targets = None
    if shape == "profile":
        parsed, targets = parsed
    result = getattr(service, shape)(parsed)
    t5 = clock()
    if shape == "profile":
        payload = encode_fn(result, num_stations=num_stations, targets=targets)
    elif shape == "batch":
        payload = encode_fn(result, num_stations=num_stations)
    else:
        payload = encode_fn(result)
    t6 = clock()
    text = json.dumps(payload)
    t7 = clock()
    raw = json.loads(text)
    t8 = clock()
    decode_fn(raw)
    marks = (t0, t1, t2, t3, t4, t5, t6, t7, t8, clock())
    for name, start, end in zip(_STAGES, marks, marks[1:]):
        index = tracer.add(name, op, start, end, shape=shape)
        if name == "service":
            service_span = index
    _replay_children(
        tracer, service, engine, shape, parsed, result, op, service_span,
        seen_mc, s2s,
    )
    return len(text)


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def traced_pass(workload, seed, store, server, control, ops, posts) -> tuple[dict, dict]:
    """Walk ``ops`` three ways, operation by operation — staged and
    spanned, through a plain ``LocalBackend``, and over HTTP to the
    live ``server`` — so that all three see the same machine speed
    (module docstring).  ``posts`` maps an index of ``ops`` to the
    delay event applied before it.  Returns the per-layer metrics at
    reference speed (``control.py``) and the trace document."""
    tracer = Tracer()
    clock = time.perf_counter
    response_bytes: list[int] = []
    s2s: list = []
    seen_mc: set = set()
    local_s: list[float] = []
    http_s: list[float] = []

    service = TransitService.load(store)
    engine = _engine(service)
    local = LocalBackend(TransitService.load(store))
    backend = connect(server.url)
    t_begin = clock()
    try:
        for index, op in enumerate(ops):
            event = posts.get(index)
            if event is not None:
                t0 = clock()
                service = service.apply_delays(
                    list(event.delays),
                    slack_per_leg=event.slack_per_leg,
                    mode="incremental",
                )
                tracer.add("service.replan", index, t0, clock())
                engine = _engine(service)
                post(local, event)
                post(backend, event)
            requests = requests_of(op)

            def staged_turn() -> None:
                response_bytes.append(
                    sum(
                        _staged_request(
                            tracer, service, engine, shape, request, index,
                            seen_mc, s2s,
                        )
                        for shape, request in requests
                    )
                )

            def local_turn() -> None:
                t0 = clock()
                for shape, request in requests:
                    getattr(local, shape)(request)
                local_s.append(clock() - t0)

            # Whoever goes first after the HTTP call finds cold caches:
            # take turns at it.
            first, second = (
                (staged_turn, local_turn) if index % 2 else (local_turn, staged_turn)
            )
            first()
            second()
            t0 = clock()
            for shape, request in requests:
                getattr(backend, shape)(request)
            http_s.append(clock() - t0)
    finally:
        backend.close()

    # Kernel probe: one-to-all searches from seeded sources, p=1 and 2.
    rng = random.Random(f"e2ebench:probe:{workload.name}:{seed}")
    base = TransitService.load(store)
    sources = rng.sample(range(base.timetable.num_stations), PROBE_SOURCES)
    p1 = [_profile_search(base, s, 1).stats for s in sources]
    p2 = [_profile_search(base, s, 2).stats for s in sources]

    slowdown = control.slowdown(t_begin, clock())
    cpu = 1.0 / slowdown  # restates a time at reference speed
    staged = tracer.per_op(_BACKEND_STAGES)
    pipeline = tracer.per_op(_STAGES)
    service_s = tracer.per_op(("service",))
    replayed: dict[int, float] = {}
    for s in tracer.spans:
        if s.get("replay"):
            replayed[s["op"]] = replayed.get(s["op"], 0.0) + s["end"] - s["start"]
    per_request = len(requests_of(ops[0]))

    def stage_us(*names) -> float:
        return _median(
            list(tracer.per_op(names).values()), cpu * 1e6 / per_request
        )

    searched = [r for r in s2s if r.classification != "table"]
    metrics = {
        "client.wire_encode_us": stage_us("client.wire", "client.dumps"),
        "client.decode_us": stage_us("client.loads", "client.decode"),
        "client.response_bytes": statistics.mean(response_bytes),
        "server.parse_us": stage_us("server.loads", "server.parse"),
        "server.encode_us": stage_us("server.encode", "server.dumps"),
        "server.transport_ms": _median(
            [http_s[i] - pipeline[i] for i in range(len(ops))],
            cpu * 1000.0 / per_request,
        ),
        "service.facade_us": _median(
            [service_s[i] - replayed.get(i, 0.0) for i in range(len(ops))],
            cpu * 1e6 / per_request,
        ),
        "service.replan_ms": _median(
            tracer.durations("service.replan"), cpu * 1000.0
        ),
        "query.s2s_ms": _median(tracer.durations("query.s2s"), cpu * 1000.0),
        "query.table_share": (
            sum(r.classification == "table" for r in s2s) / len(s2s)
            if s2s else 0.0
        ),
        "query.settled_per_op": (
            statistics.mean(r.settled_connections for r in searched)
            if searched else 0.0
        ),
        "query.table_prunes_per_op": (
            statistics.mean(r.table_prunes for r in searched)
            if searched else 0.0
        ),
        "core.profile_ms": _median([s.total_time for s in p1], cpu * 1000.0),
        "core.profile_p2_ms": _median([s.total_time for s in p2], cpu * 1000.0),
        "core.settled_per_profile": statistics.mean(
            s.settled_connections for s in p1
        ),
        "core.us_per_settled": _median(
            [s.total_time / s.settled_connections for s in p1], cpu * 1e6
        ),
        "core.mc_search_ms": _median(
            tracer.durations("core.mc_search"), cpu * 1000.0
        ),
        "trace.overhead_ratio": _median(list(staged.values()))
        / _median(local_s),
    }
    origin = tracer.spans[0]["start"]
    document = {
        "workload": workload.name,
        "seed": seed,
        "operations": len(ops),
        "slowdown": slowdown,
        "spans": [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in tracer.spans
        ],
        "local_backend_s": local_s,
        "http_c1_s": http_s,
    }
    return metrics, document
