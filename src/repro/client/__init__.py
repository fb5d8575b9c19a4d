"""The client SDK: one query API, two transports.

``TransitBackend`` is the transport-agnostic surface over the serving
layer's six query shapes (``profile``, ``journey``, ``batch``,
``multicriteria``, ``via``, ``min_transfers``) plus ``journey_many``,
the streaming ``iter_batch``, ``apply_delays`` and ``info``.  Programs
written against it run unchanged — with bitwise-identical answers —
over:

* :class:`LocalBackend` — an in-process
  :class:`~repro.service.TransitService` or a lazily-opened artifact
  store (``repro.store``);
* :class:`HttpBackend` — a remote :mod:`repro.server` fleet, over a
  keep-alive connection pool of its own with per-request timeouts and
  bounded 503 retry (:class:`RetryPolicy`).

Pick one with :func:`connect`::

    from repro.client import connect

    backend = connect("stores/berlin")                  # in-process
    backend = connect("http://10.0.0.7:8321/berlin")    # remote fleet

    answer = backend.journey(3, 41, departure=8 * 60)
    for item in backend.iter_batch(pairs):              # streaming
        ...

Failures share one typed hierarchy (:mod:`repro.client.errors`)
whichever transport raised them.  See ``docs/CLIENT.md`` for the full
tour and ``docs/SERVER.md`` for the wire protocol underneath.
"""

from repro.client.backend import LocalBackend, TransitBackend, connect
from repro.client.errors import (
    BackendError,
    BackendTimeoutError,
    BadRequestError,
    OverloadedError,
    ServerInternalError,
    TransportError,
    UnknownDatasetError,
)
from repro.client.http import HttpBackend, HttpBackendStats, RetryPolicy
from repro.client.results import (
    BatchAnswer,
    ConnectionProfile,
    DatasetInfo,
    DelayUpdate,
    JourneyAnswer,
    MinTransfersResult,
    MulticriteriaResult,
    ProfileAnswer,
    ViaResult,
)

__all__ = [
    "TransitBackend",
    "LocalBackend",
    "HttpBackend",
    "HttpBackendStats",
    "RetryPolicy",
    "connect",
    "BackendError",
    "TransportError",
    "BackendTimeoutError",
    "BadRequestError",
    "UnknownDatasetError",
    "OverloadedError",
    "ServerInternalError",
    "ConnectionProfile",
    "JourneyAnswer",
    "ProfileAnswer",
    "BatchAnswer",
    "MulticriteriaResult",
    "ViaResult",
    "MinTransfersResult",
    "DatasetInfo",
    "DelayUpdate",
]
