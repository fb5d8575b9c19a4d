"""The :class:`TransitService` facade — prepare once, query many.

One service instance owns every prepared artifact of one dataset (the
time-dependent graph, the station graph, the packed arrays, the
transfer stations and distance table) and answers every query shape of
the paper through a typed request/response model:

* :meth:`TransitService.profile` — one-to-all profile search (§3);
* :meth:`TransitService.journey` — station-to-station query with
  stopping criterion and distance-table pruning (§4), optionally with
  concrete journey legs at a departure time;
* :meth:`TransitService.batch` — batched workloads, one item per
  search worker job (the traffic-serving shape);
* :meth:`TransitService.multicriteria` — the Pareto front of
  (transfers, arrival) trade-offs (§6);
* :meth:`TransitService.via` — source → via → target journeys as two
  chained earliest-arrival legs;
* :meth:`TransitService.min_transfers` — the fewest-transfers journey
  within a transfer budget;
* :meth:`TransitService.apply_delays` — the fully dynamic scenario
  (§5.1): a new service for the delayed timetable that re-derives only
  travel-time-dependent artifacts and shares the rest;
* :meth:`TransitService.save` / :meth:`TransitService.load` — persist
  the prepared artifacts to a :mod:`repro.store` directory and
  warm-start later processes from it without rebuilding anything;
* answers are additionally memoized per service in an LRU result
  cache (:mod:`repro.service.cache`, ``config.result_cache_size``).

The facade delegates to the same engines the pre-facade entry points
used (:func:`~repro.core.parallel.parallel_profile_search`'s two
halves, :class:`~repro.query.table_query.StationToStationEngine`),
injecting the shared artifacts — so answers are bitwise-identical to
the historical paths (``tests/service/test_facade.py`` pins this).

Each shape is stated once as worker jobs plus a finish step
(``TransitService._work``), the paper's master / worker scheme (§3.2):
a profile is partitioned into subsets of ``conn(S)``, a batch into its
items, every other shape is one job, and the finish merges or gathers
the answers.  The generation's search workers
(:meth:`TransitService.start_workers`), when it has any, run one job
each; the composition runs on an event loop on the caller's side
(:meth:`TransitService.submit`) — ``serve``'s, or a private one for
the blocking query methods.  A batch item runs the very same
composition as ``journey`` / ``profile``, so it is the single answer
by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from repro.core.fanout import ForkPool
from repro.core.multicriteria import mc_time_search
from repro.core.parallel import merge_profile, split_profile, timed_subset_search
from repro.functions.piecewise import INF_TIME
from repro.query.batch import BatchStats
from repro.query.distance_table import DistanceTable
from repro.query.table_query import StationToStationEngine
from repro.service.cache import CacheStats, LRUResultCache
from repro.service.config import RUNTIME_FIELDS, SERVED_KERNEL, ServiceConfig
from repro.service.journeys import legs_along
from repro.service.model import (
    DEFAULT_MAX_TRANSFERS,
    BatchRequest,
    BatchResponse,
    JourneyRequest,
    JourneyResult,
    MinTransfersRequest,
    MinTransfersResult,
    MulticriteriaRequest,
    MulticriteriaResult,
    ParetoOption,
    ProfileRequest,
    ProfileResult,
    QueryStats,
    ViaRequest,
    ViaResult,
)
from repro.service.prepare import (
    PreparedDataset,
    PrepareStats,
    prepare_dataset,
    replan_dataset,
)
from repro.service.shapes import (
    BATCH,
    JOURNEY,
    MIN_TRANSFERS,
    MULTICRITERIA,
    PROFILE,
    VIA,
    Shape,
    as_request,
)
from repro.timetable.delays import Delay, apply_delays as _delay_timetable
from repro.timetable.types import Timetable


@dataclass(frozen=True, slots=True)
class _McSearchKey:
    """Internal result-cache key for one shared fixed-departure
    search: every multicriteria / min-transfers request for the same
    (source, departure, budget) — whatever its target — reads the same
    :class:`~repro.core.multicriteria.McTimeQueryResult`, and so does
    every dated journey and via hop (budget ``None``).
    """

    source: int
    departure: int
    max_transfers: int | None


class _Work(NamedTuple):
    """One request as the search workers see it: ``job`` — a method
    name of the service — called once per entry of ``jobs``, for choice
    in the worker whose last job had the same ``affinity``, then
    ``finish`` over the results in order on the caller's side.  The
    entries whose indices are in ``here`` take no search: the caller
    runs them itself, workers or not."""

    job: str
    jobs: list[tuple]
    finish: Callable[[list], object]
    affinity: object = None
    here: frozenset[int] = frozenset()


def _only(results: list):
    return results[0]


#: The shapes whose whole uncached answer is one worker job.
_ONE_JOB = {
    JOURNEY: "_search_journey",
    MULTICRITERIA: "_run_multicriteria",
    VIA: "_run_via",
    MIN_TRANSFERS: "_run_min_transfers",
}


def _mark_cache_hit(result):
    """A shallow copy of a cached answer whose :class:`QueryStats`
    carry ``cache_hit=True``.

    The heavy payloads (profiles, label matrices, legs) are shared
    with the cache entry — only the small stats/result shells are
    copied — so callers can distinguish cached answers without the
    stored entry ever being mutated (it keeps ``cache_hit=False`` and
    its original timings).
    """
    if isinstance(result, BatchResponse):
        return BatchResponse(
            journeys=[_mark_cache_hit(j) for j in result.journeys],
            profiles=[_mark_cache_hit(p) for p in result.profiles],
            stats=result.stats,
        )
    return replace(result, stats=replace(result.stats, cache_hit=True))


class TransitService:
    """Facade over one prepared dataset (see module docstring).

    Construction eagerly runs the prepare-once pipeline — unless
    ``prepared`` is given, and then ``timetable`` is not read; every
    query method afterwards only searches.  A service is immutable:
    delay updates return a *new* service (:meth:`apply_delays`).
    """

    def __init__(
        self,
        timetable: Timetable | None,
        config: ServiceConfig | None = None,
        *,
        prepared: PreparedDataset | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        if prepared is None:
            prepared = prepare_dataset(timetable, self.config)
        self.prepared = prepared
        cfg = self.config
        # The one station-to-station engine every journey (single or
        # batched) goes through; construction is cheap because all
        # artifacts are injected, and it searches the pack alone, so
        # it is given no object graph.  Of the table rules it runs
        # Theorem 4; Theorem 3 is the reference kernel's.  A journey
        # is one job on one core, so one SPCS search: more partitions
        # would only settle more for the same profile.
        self._engine = StationToStationEngine(
            None,
            prepared.table,
            num_threads=1,
            table_pruning=cfg.table_pruning,
            kernel="flat",
            arrays=prepared.arrays,
            station_graph=prepared.station_graph,
        )
        # Per-service LRU over answers; requests are frozen dataclasses
        # and the service is immutable, so entries never go stale.  A
        # delayed service (apply_delays) is a new instance and thus
        # starts cold — the invalidation the dynamic scenario needs.
        self._result_cache = LRUResultCache(cfg.result_cache_size)
        #: The generation's search workers, once a server started them
        #: (:meth:`start_workers`); ``None``: every search runs on the
        #: thread that asked.
        self._workers: ForkPool | None = None

    # -- persistence (repro.store) -------------------------------------

    def save(self, path: str | Path) -> Path:
        """Serialize every prepared artifact to a store directory.

        A later process warm-starts from it with :meth:`load`, paying
        none of the build cost again (``docs/API.md``, "Persistence
        and warm starts").  Returns the store path.
        """
        # Imported lazily: repro.store depends on the service layer's
        # types, so a module-level import would be circular.
        from repro.store import save_dataset

        # The service's config, not prepared.config: runtime overrides
        # applied after preparation must survive the round-trip.
        return save_dataset(self.prepared, path, config=self.config)

    @classmethod
    def load(
        cls, path: str | Path, *, config: ServiceConfig | None = None
    ) -> "TransitService":
        """Warm-start a service from a store written by :meth:`save`.

        No builder runs — the pack's and the distance table's buffers
        are memory-mapped read-only, the station graph is decoded from
        the mapped record, and the timetable, its routes and the object
        graph, which no query reads, are built only when something asks
        for them (:class:`~repro.service.prepare.PreparedDataset`: a
        delay swap or a save builds the timetable and the routes, only
        an oracle the graph); answers are bitwise-identical to a
        cold prepare under the stored config
        (``tests/store/test_store_roundtrip.py``).  ``config``, when
        given, asserts the store was prepared under that
        configuration's *preparation recipe* (runtime-only fields may
        differ — see :data:`~repro.service.config.RUNTIME_FIELDS`);
        the stored config governs either way.  Raises
        :class:`repro.store.StoreError` on a missing/corrupt store, a
        format-version bump, or a recipe mismatch.
        """
        from repro.store import load_dataset

        prepared = load_dataset(path, expected_config=config)
        return cls(None, prepared.config, prepared=prepared)

    def with_runtime_overrides(self, **changes) -> "TransitService":
        """A sibling service over the *same* prepared artifacts with
        runtime-only config changes (:data:`RUNTIME_FIELDS`: a
        profile's default partition count and the result-cache size).

        Nothing is rebuilt — the new service shares this one's
        :class:`PreparedDataset` — so fields that shape preparation
        (the distance-table knobs) are rejected with ``ValueError``:
        those need a fresh prepare, not an override.
        """
        illegal = set(changes) - RUNTIME_FIELDS
        if illegal:
            raise ValueError(
                f"not runtime-overridable: {sorted(illegal)} "
                f"(allowed: {sorted(RUNTIME_FIELDS)})"
            )
        config = self.config.with_overrides(**changes)
        return type(self)(None, config, prepared=self.prepared)

    # -- convenient read-only views ------------------------------------

    # No query reads these two: on a loaded or swapped service the
    # first access builds what is missing (PreparedDataset).

    @property
    def timetable(self) -> Timetable:
        return self.prepared.timetable

    @property
    def graph(self):
        return self.prepared.graph

    @property
    def table(self) -> DistanceTable | None:
        return self.prepared.table

    @property
    def prepare_stats(self) -> PrepareStats:
        """Timing/size accounting of the prepare-once pipeline."""
        return self.prepared.stats

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss accounting of the per-service result cache."""
        return self._result_cache.stats

    def describe(self) -> dict:
        """The generation-derived fields of a ``/v1/datasets`` entry,
        JSON-safe; whoever serves the generation adds ``name``,
        ``source`` and ``generation`` (no packed buffer is touched)."""
        counts = self.prepared.counts
        return {
            "timetable": counts.name,
            "stations": counts.stations,
            "trains": counts.trains,
            "connections": counts.connections,
            "kernel": SERVED_KERNEL,
            "has_distance_table": self.table is not None,
        }

    def lookup(self, shape: Shape, request):
        """The answer to the typed ``request`` if it takes no search,
        else ``None`` (ask ``self.<shape.name>(request)`` then).

        No search means a result-cache hit — any shape — or a journey
        without a departure whose endpoints coincide or are both
        transfer stations: all its best connections are in the
        distance table (paper §4, Special Cases).  Either way the
        answer costs microseconds and is the one the shape's method
        returns; the server gives these on its event loop before it
        asks :meth:`submit` for anything (``docs/SERVER.md``,
        "Execution model")."""
        cached = self._result_cache.peek(request)
        if cached is not None:
            return _mark_cache_hit(cached)
        if shape is JOURNEY and self._takes_no_search(request):
            return self._answer(JOURNEY, request, here=True)
        return None

    def _takes_no_search(self, request: JourneyRequest) -> bool:
        """Whether a journey is answered from memory: no departure, and
        endpoints that coincide or are both transfer stations."""
        return request.departure is None and not self._engine.needs_search(
            request.source, request.target
        )

    async def submit(self, shape: Shape, request):
        """The answer to the typed ``request``, awaited on the running
        event loop and never blocking it — how ``serve`` answers what
        :meth:`lookup` did not: the cached answer, else the shape's
        composition (:meth:`_work`) with each job in a search worker
        (:meth:`ForkPool.submit <repro.core.fanout.ForkPool.submit>`) —
        but those that take no search (``work.here``), run on the loop —
        and the finish on the loop, stored for the next asker.  A
        generation without workers runs the jobs on one thread
        (``asyncio.to_thread``): no search ever runs on the loop.  The
        first job that raised, in job order, raises here."""
        cached = self._result_cache.get(request)
        if cached is not None:
            return _mark_cache_hit(cached)
        work = self._work(shape, request)
        workers = self._workers
        if workers is None or not workers.processes:
            import asyncio  # a cold prepare never loads it

            results = await asyncio.to_thread(self._run_here, work)
        else:
            futures = [
                None
                if i in work.here
                else workers.submit(work.job, *args, affinity=work.affinity)
                for i, args in enumerate(work.jobs)
            ]
            run = getattr(self, work.job)
            results, error = [], None
            for args, future in zip(work.jobs, futures):
                try:  # each one awaited, failed or not
                    results.append(
                        run(*args) if future is None else await future
                    )
                except Exception as exc:  # noqa: BLE001 — raised below
                    error = error or exc
            if error is not None:
                raise error
        result = work.finish(results)
        self._result_cache.put(request, result)
        return result

    # -- search workers ------------------------------------------------

    def start_workers(self, processes: int) -> None:
        """Fork ``processes`` search workers from this generation
        (:class:`~repro.core.fanout.ForkPool`): from now on every
        search a query method needs runs in one of them, on the sealed
        graph, pack, mirrors and table they inherited copy-on-write —
        only the typed request travels in and the typed answer back.
        The result cache and its accounting stay here, with the caller.

        Whoever serves the generation calls this, once, before any
        query (``TransitServer.start``); :meth:`apply_delays` then
        passes workers on to the generation it returns.  They stop with
        :meth:`stop_workers` or when the service is collected: a
        swapped-out generation keeps its workers exactly as long as its
        last in-flight request keeps the service.
        """
        if self._workers is None:
            self._workers = ForkPool(
                self, processes, initializer=TransitService._enter_worker
            )

    def stop_workers(self) -> None:
        """Stop and reap the search workers, if any (idempotent);
        queries from now on search on the calling thread again."""
        if self._workers is not None:
            self._workers.close()

    @property
    def worker_stats(self) -> tuple[int, int]:
        """``(live search workers, workers replaced after dying)``."""
        if self._workers is None:
            return 0, 0
        return self._workers.processes, self._workers.replaced_total

    def _enter_worker(self) -> None:
        # A worker's first act.  The parent's cache comes with a lock
        # some other thread may have held during the fork, and nothing
        # put here would ever be seen there: the worker gets a cache of
        # its own — where the fixed-departure searches the dated shapes
        # share live.
        self._result_cache = LRUResultCache(self.config.result_cache_size)

    def _answer(self, shape: Shape, req, *, here: bool = False):
        """The query methods' one dispatch point, for a blocking caller:
        on a generation with search workers, :meth:`submit` on a private
        event loop; else — or when ``here`` keeps the jobs on the
        calling thread — the cached answer to ``req``, else the shape's
        composition (:meth:`_work`) with its jobs run here and its
        finish, stored for the next asker."""
        workers = self._workers
        if not here and workers is not None and workers.processes:
            import asyncio  # a cold prepare never loads it

            return asyncio.run(self.submit(shape, req))
        cached = self._result_cache.get(req)
        if cached is not None:
            return _mark_cache_hit(cached)
        work = self._work(shape, req)
        result = work.finish(self._run_here(work))
        self._result_cache.put(req, result)
        return result

    def _work(self, shape: Shape, req) -> _Work:
        """``req`` stated once as worker jobs plus a finish step — what
        both :meth:`_answer` and :meth:`submit` run.  A profile is the
        paper's master / worker scheme (§3.2): the partition of
        ``conn(S)`` here, one :meth:`_search_subset` job per subset,
        the merge here.  A batch is one :meth:`_search` job per item
        and the gather.  Every other shape is one job, for choice in
        the worker that last searched from its source: a traveller's
        multicriteria and min-transfers requests share one search
        there."""
        if shape is PROFILE:
            return self._profile_work(req)
        if shape is BATCH:
            return self._batch_work(req)
        return _Work(_ONE_JOB[shape], [(req,)], _only, affinity=req.source)

    def _run_here(self, work: _Work) -> list:
        """``work``'s jobs, one after another on the calling thread."""
        return [getattr(self, work.job)(*args) for args in work.jobs]

    # -- one-to-all profiles -------------------------------------------

    def profile(
        self, request: ProfileRequest | int, /
    ) -> ProfileResult:
        """Answer a :class:`ProfileRequest` (or a raw source station).

        The search is composed here, the paper's master (§3.2): the
        partition of ``conn(S)`` and the merge run on the calling
        thread, each subset's search in a search worker when there are
        any (:meth:`_work`)."""
        return self._answer(PROFILE, as_request(PROFILE, request))

    # -- station-to-station journeys -----------------------------------

    def journey(
        self,
        request: JourneyRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
    ) -> JourneyResult:
        """Answer a :class:`JourneyRequest` (or raw source/target)."""
        return self._answer(
            JOURNEY, as_request(JOURNEY, request, target, departure)
        )

    # -- batched workloads ---------------------------------------------

    def batch(
        self, request: BatchRequest | Sequence[tuple[int, int]], /
    ) -> BatchResponse:
        """Answer a :class:`BatchRequest` (or raw (source, target)
        pairs).

        Composed here like :meth:`profile`: the items are split off and
        gathered on the calling thread, each one searched in a search
        worker when there are any (:meth:`_work`)."""
        return self._answer(BATCH, as_request(BATCH, request))

    # -- the query zoo: multicriteria / via / min-transfers ------------

    def multicriteria(
        self,
        request: MulticriteriaRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
        max_transfers: int = DEFAULT_MAX_TRANSFERS,
    ) -> MulticriteriaResult:
        """Answer a :class:`MulticriteriaRequest` (or raw arguments):
        the Pareto front of (transfers, arrival) trade-offs (§6)."""
        req = as_request(MULTICRITERIA, request, target, departure, max_transfers)
        return self._answer(MULTICRITERIA, req)

    def via(
        self,
        request: ViaRequest | int,
        via: int | None = None,
        target: int | None = None,
        *,
        departure: int | None = None,
    ) -> ViaResult:
        """Answer a :class:`ViaRequest` (or raw arguments): two chained
        earliest-arrival journeys, source → via → target.

        Each hop reads the search a dated :meth:`journey` reads for its
        legs — the time query at one layer, shared through the same
        memo — so arrivals are by construction those of the two chained
        station-to-station queries the parity oracle runs, without the
        whole-day profile searches such a journey also makes.
        """
        return self._answer(VIA, as_request(VIA, request, via, target, departure))

    def min_transfers(
        self,
        request: MinTransfersRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
        max_transfers: int = DEFAULT_MAX_TRANSFERS,
    ) -> MinTransfersResult:
        """Answer a :class:`MinTransfersRequest` (or raw arguments):
        the fewest-transfers journey within the budget — the first
        entry of the Pareto front."""
        req = as_request(MIN_TRANSFERS, request, target, departure, max_transfers)
        return self._answer(MIN_TRANSFERS, req)

    # -- delay replanning ----------------------------------------------

    def apply_delays(
        self,
        delays: Sequence[Delay],
        *,
        slack_per_leg: int = 0,
        mode: str = "full",
    ) -> "TransitService":
        """A new service for the delayed timetable (§5.1).

        Only the travel-time artifacts are re-derived, by
        :func:`replan_dataset`: the pack is built from the delayed
        timetable and a configured distance table scanned afresh;
        delayed trains keep their routes, so the routes, the station
        graph and the transfer-station selection are *shared* with this
        service, and no object graph is built.  Answers are exactly
        those of a cold
        ``TransitService(apply_delays(timetable, delays), config)`` —
        the oracle every swap is tested against, never served
        (``tests/service/test_delay_replanning.py``).  A batch that makes a train depart one
        station twice at one time point of the period is refused with
        ``ValueError`` (:func:`repro.timetable.delays.apply_delays`).

        ``mode`` is checked and selects nothing
        (:data:`repro.server.protocol.DELAY_REPLAN_MODES`).

        The returned service starts with an **empty result cache**:
        answers cached before the delays can never be served for the
        delayed timetable (``tests/service/test_result_cache.py``).
        This service and its cache stay valid for the original
        timetable.  If this service has search workers
        (:meth:`start_workers`) the returned one has as many, forked
        here, by the thread that built it — whoever publishes it
        publishes a generation that is ready to search.
        """
        if mode not in ("full", "incremental"):
            raise ValueError(
                f"mode must be 'full' or 'incremental', got {mode!r}"
            )
        delayed = _delay_timetable(
            self.timetable, delays, slack_per_leg=slack_per_leg
        )
        prepared = replan_dataset(self.prepared, delayed)
        replanned = type(self)(delayed, self.config, prepared=prepared)
        if self._workers is not None:
            replanned.start_workers(self._workers.processes)
        return replanned

    # -- internals ------------------------------------------------------

    def _search(
        self, req: JourneyRequest | ProfileRequest
    ) -> JourneyResult | ProfileResult:
        """One batch item, a search worker's job — or the loop's, for a
        journey that takes no search (:meth:`_takes_no_search`): the
        uncached answer :meth:`journey` / :meth:`profile` compute for
        ``req``, composed where it runs — a profile item's partitions
        one after another, since a pool child never forks.

        It stays clear of the result cache on purpose: the batch is the
        one entry its caller keeps, and what a worker put in its own
        cache the caller would never see."""
        work = self._work(
            JOURNEY if isinstance(req, JourneyRequest) else PROFILE, req
        )
        return work.finish(self._run_here(work))

    def _batch_work(self, request: BatchRequest) -> _Work:
        items = [*request.journeys, *request.profiles]
        split = len(request.journeys)
        t0 = time.perf_counter()

        def gather(results: list) -> BatchResponse:
            return BatchResponse(
                journeys=results[:split],
                profiles=results[split:],
                stats=BatchStats(
                    num_queries=len(request),
                    kernel=SERVED_KERNEL,
                    total_seconds=time.perf_counter() - t0,
                ),
            )

        here = frozenset(
            i
            for i, item in enumerate(request.journeys)
            if self._takes_no_search(item)
        )
        return _Work("_search", [(item,) for item in items], gather, here=here)

    def _search_subset(self, source: int, subset: list[int]):
        """One §3.2 job: the SPCS run over one subset of
        ``conn(source)``, timed where it ran — a search worker, or the
        calling thread when there are none."""
        return timed_subset_search(None, self.prepared.arrays, source, subset)

    def _profile_work(self, req: ProfileRequest) -> _Work:
        num_threads = (
            req.num_threads
            if req.num_threads is not None
            else self.config.num_threads
        )
        t0 = time.perf_counter()
        split = split_profile(
            None,
            req.source,
            num_threads,
            kernel="flat",
            arrays=self.prepared.arrays,
        )

        def merge(timed: list) -> ProfileResult:
            raw = merge_profile(split, timed)
            stats = QueryStats(
                kind="profile",
                kernel=SERVED_KERNEL,
                num_threads=num_threads,
                settled_connections=raw.stats.settled_connections,
                simulated_seconds=raw.stats.simulated_time,
                total_seconds=time.perf_counter() - t0,
            )
            return ProfileResult(source=req.source, stats=stats, raw=raw)

        jobs = [(req.source, part) for part in split.parts]
        return _Work("_search_subset", jobs, merge)

    def _search_journey(self, req: JourneyRequest) -> JourneyResult:
        res = self._engine.query(req.source, req.target)
        stats = QueryStats(
            kind="journey",
            kernel=SERVED_KERNEL,
            num_threads=1,
            settled_connections=res.settled_connections,
            simulated_seconds=res.simulated_time,
            total_seconds=res.total_time,
            classification=res.classification,
            table_prunes=res.table_prunes,
            connection_stops=res.connection_stops,
        )
        legs = None
        arrival = None
        if req.departure is not None:
            legs, arrival, _ = self._earliest(
                req.source, req.target, req.departure
            )
        return JourneyResult(
            source=req.source,
            target=req.target,
            profile=res.profile,
            stats=stats,
            departure=req.departure,
            arrival=arrival,
            legs=legs,
        )

    def _mc_search(
        self, source: int, departure: int, max_transfers: int | None
    ):
        """The shared fixed-departure search, memoized in the result
        cache under :class:`_McSearchKey` — so a traveller's
        multicriteria and min-transfers requests pay one search, and
        dated journeys and via hops (``max_transfers=None``: one layer)
        from the same source and departure another.  Like the SPCS
        paths it runs the flat loop on the dataset's packed arrays.
        One-to-all, so the memo serves every target.
        """
        key = _McSearchKey(source, departure, max_transfers)
        raw = self._result_cache.get(key)
        if raw is None:
            raw = mc_time_search(
                self.prepared.arrays,
                source,
                departure,
                max_transfers=max_transfers,
            )
            self._result_cache.put(key, raw)
        return raw

    def _check_stations(self, *stations: int) -> None:
        """The check a search makes of its source, for the stations a
        fixed-departure search only reads: a target, ``via``'s via."""
        for station in stations:
            if not self.prepared.arrays.is_station_node(station):
                raise ValueError(f"{station} is not a station node")

    def _run_multicriteria(self, req: MulticriteriaRequest) -> MulticriteriaResult:
        self._check_stations(req.target)
        t0 = time.perf_counter()
        if req.source == req.target:
            options = (ParetoOption(0, req.departure),)
            legs: tuple | None = ()
            settled = 0
        else:
            raw = self._mc_search(req.source, req.departure, req.max_transfers)
            settled = raw.settled
            options = tuple(
                ParetoOption(k, arr) for k, arr in raw.pareto_front(req.target)
            )
            # The fastest option's journey, off the search's own parents.
            legs = (
                legs_along(
                    self.prepared.arrays,
                    raw.path_to(req.target, options[-1].transfers),
                )
                if options
                else None
            )
        total = time.perf_counter() - t0
        return MulticriteriaResult(
            source=req.source,
            target=req.target,
            departure=req.departure,
            max_transfers=req.max_transfers,
            options=options,
            stats=self._mc_stats("multicriteria", settled, total),
            legs=legs,
        )

    def _run_min_transfers(self, req: MinTransfersRequest) -> MinTransfersResult:
        self._check_stations(req.target)
        t0 = time.perf_counter()
        if req.source == req.target:
            transfers: int | None = 0
            arrival = req.departure
            legs: tuple | None = ()
            settled = 0
        else:
            raw = self._mc_search(req.source, req.departure, req.max_transfers)
            settled = raw.settled
            front = raw.pareto_front(req.target)
            if not front:
                transfers, arrival, legs = None, INF_TIME, None
            else:
                transfers, arrival = front[0]
                legs = legs_along(
                    self.prepared.arrays, raw.path_to(req.target, transfers)
                )
        total = time.perf_counter() - t0
        return MinTransfersResult(
            source=req.source,
            target=req.target,
            departure=req.departure,
            max_transfers=req.max_transfers,
            transfers=transfers,
            arrival=arrival,
            stats=self._mc_stats("min_transfers", settled, total),
            legs=legs,
        )

    def _run_via(self, req: ViaRequest) -> ViaResult:
        self._check_stations(req.via, req.target)
        t0 = time.perf_counter()
        legs_first, via_arrival, settled = self._earliest(
            req.source, req.via, req.departure
        )
        if via_arrival >= INF_TIME:
            arrival = INF_TIME
            legs = None
        else:
            legs_second, arrival, more = self._earliest(
                req.via, req.target, via_arrival
            )
            settled += more
            legs = None if legs_second is None else legs_first + legs_second
        total = time.perf_counter() - t0
        return ViaResult(
            source=req.source,
            via=req.via,
            target=req.target,
            departure=req.departure,
            via_arrival=via_arrival,
            arrival=arrival,
            stats=self._mc_stats("via", settled, total),
            legs=legs,
        )

    def _mc_stats(self, kind: str, settled: int, total: float) -> QueryStats:
        # The departure-time shapes read the sequential fixed-departure
        # search, which has no parallel driver: one thread, as a
        # journey.
        return QueryStats(
            kind=kind,
            kernel=SERVED_KERNEL,
            num_threads=1,
            settled_connections=settled,
            simulated_seconds=total,
            total_seconds=total,
        )

    def _earliest(self, source: int, target: int, departure: int):
        """``(legs, arrival, settled)`` of the earliest journey, read off
        the shared search at one layer; ``settled`` is that search's
        work, memo hit or not (0 when nothing ran).  ``legs`` is
        ``None`` when the target is unreachable (``arrival`` is then
        :data:`INF_TIME`), an empty tuple when ``source == target``."""
        if source == target:
            return (), departure, 0
        raw = self._mc_search(source, departure, None)
        arrival = raw.arrival[target][0]
        if arrival >= INF_TIME:
            return None, INF_TIME, raw.settled
        legs = legs_along(self.prepared.arrays, raw.path_to(target, 0))
        return legs, arrival, raw.settled
