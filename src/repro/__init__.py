"""repro — reproduction of *Parallel Computation of Best Connections in
Public Transportation Networks* (Delling, Katz, Pajor; IPDPS 2010).

Public API tour
---------------

Build or load a timetable::

    from repro import TimetableBuilder, make_instance
    timetable = make_instance("oahu", scale="tiny")

Build the realistic time-dependent graph and run profile searches::

    from repro import build_td_graph, parallel_profile_search
    graph = build_td_graph(timetable)
    result = parallel_profile_search(graph, source=0, num_threads=4)
    profile = result.profile(station=5)     # dist(S, T, ·), reduced
    profile.earliest_arrival(8 * 60)        # depart 08:00

Or — the recommended entry point — let the :class:`TransitService`
facade prepare everything once and answer every query shape::

    from repro import TransitService, ServiceConfig
    service = TransitService(
        timetable,
        ServiceConfig(use_distance_table=True, transfer_fraction=0.05),
    )
    service.profile(0)                         # one-to-all
    service.journey(0, 5, departure=8 * 60)    # journey with legs
    service.batch([(0, 5), (3, 9)])            # batched workload
    service.apply_delays([Delay(train=2, minutes=10)])  # replanning

Persist the prepared artifacts once and warm-start later processes in
milliseconds (no builds, bitwise-identical answers)::

    service.save("stores/oahu")
    warm = TransitService.load("stores/oahu")

Or write against the transport-agnostic client SDK — the same program
runs unchanged over an in-process dataset or a remote
``repro-transit serve`` fleet, with bitwise-identical answers::

    from repro import connect
    backend = connect("stores/oahu")              # LocalBackend
    backend = connect("http://host:8321/oahu")    # HttpBackend
    backend.journey(0, 5, departure=8 * 60)
    for answer in backend.iter_batch([(0, 5), (3, 9)]):
        ...                                       # streaming batch

For failover, serve the same store from N worker processes behind a
routing gateway (``repro-transit serve-fleet``; :mod:`repro.fleet`,
docs/FLEET.md) — clients keep the URL above, and gain worker failover
plus fleet-wide delay swaps that never answer from an older
generation.

Live operations ride on the same swap path: a seeded GTFS-RT-style
delay stream (:func:`repro.synthetic.delays.generate_delay_stream`)
replayed by :mod:`repro.streams` drives a serving target with
interleaved query+delay traffic, each batch absorbed by the one
replan path: ``apply_delays`` packs the delayed timetable over the
routes, station graph and transfer stations it shares with its parent
and rescans a configured distance table — bitwise-identical to a cold
build of the delayed timetable, the test oracle (see docs/STREAMS.md).

The lower-level building blocks remain available for research use::

    from repro import (
        select_transfer_stations, build_distance_table, StationToStationEngine,
    )
    from repro.graph.td_arrays import packed_arrays
    stations = select_transfer_stations(timetable, fraction=0.05)
    table = build_distance_table(packed_arrays(graph), stations)
    engine = StationToStationEngine(graph, table)
    answer = engine.query(source=0, target=5)

See docs/API.md for the service facade and the layers beneath it.
"""

from repro.timetable import (
    Connection,
    Delay,
    Route,
    Station,
    Timetable,
    TimetableBuilder,
    TimetableError,
    Train,
    apply_delays,
    validate_timetable,
)
from repro.timetable.gtfs import load_gtfs, save_gtfs
from repro.timetable.io import load_timetable, save_timetable
from repro.functions import INF_TIME, Profile, TravelTimeFunction
from repro.graph import TDGraph, build_station_graph, build_td_graph
from repro.baselines import label_correcting_profile
from repro.core import (
    mc_profile_search,
    parallel_profile_search,
    spcs_profile_search,
)
from repro.query import (
    DistanceTable,
    StationToStationEngine,
    build_distance_table,
    compute_via_stations,
    select_transfer_stations,
)
from repro.store import StoreError, describe_store, load_dataset, save_dataset
from repro.service import (
    BatchRequest,
    BatchResponse,
    JourneyLeg,
    JourneyRequest,
    JourneyResult,
    MinTransfersRequest,
    MinTransfersResult,
    MulticriteriaRequest,
    MulticriteriaResult,
    ParetoOption,
    PreparedDataset,
    PrepareStats,
    ProfileRequest,
    ProfileResult,
    QueryStats,
    ServiceConfig,
    TransitService,
    ViaRequest,
    ViaResult,
    prepare_dataset,
)
from repro.client import (
    BackendError,
    BackendTimeoutError,
    BadRequestError,
    HttpBackend,
    LocalBackend,
    OverloadedError,
    RetryPolicy,
    TransitBackend,
    TransportError,
    UnknownDatasetError,
    connect,
)
from repro.synthetic import make_instance

__version__ = "1.6.0"

__all__ = [
    "Connection",
    "Delay",
    "apply_delays",
    "Route",
    "Station",
    "Timetable",
    "TimetableBuilder",
    "TimetableError",
    "Train",
    "validate_timetable",
    "load_gtfs",
    "save_gtfs",
    "load_timetable",
    "save_timetable",
    "INF_TIME",
    "Profile",
    "TravelTimeFunction",
    "TDGraph",
    "build_station_graph",
    "build_td_graph",
    "label_correcting_profile",
    "mc_profile_search",
    "parallel_profile_search",
    "spcs_profile_search",
    "DistanceTable",
    "StationToStationEngine",
    "build_distance_table",
    "compute_via_stations",
    "select_transfer_stations",
    "TransitService",
    "ServiceConfig",
    "ProfileRequest",
    "JourneyRequest",
    "BatchRequest",
    "MulticriteriaRequest",
    "ViaRequest",
    "MinTransfersRequest",
    "ProfileResult",
    "JourneyResult",
    "BatchResponse",
    "MulticriteriaResult",
    "ViaResult",
    "MinTransfersResult",
    "ParetoOption",
    "JourneyLeg",
    "QueryStats",
    "PreparedDataset",
    "PrepareStats",
    "prepare_dataset",
    "StoreError",
    "describe_store",
    "load_dataset",
    "save_dataset",
    "make_instance",
    "TransitBackend",
    "LocalBackend",
    "HttpBackend",
    "RetryPolicy",
    "connect",
    "BackendError",
    "TransportError",
    "BackendTimeoutError",
    "BadRequestError",
    "UnknownDatasetError",
    "OverloadedError",
    "__version__",
]
