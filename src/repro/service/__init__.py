"""Service layer: the prepare-once / query-many facade (ROADMAP north
star — the seam every scaling feature plugs into).

* :mod:`repro.service.config` — :class:`ServiceConfig`, the typed,
  eagerly validated knob set.
* :mod:`repro.service.prepare` — :func:`prepare_dataset` and the
  :class:`PreparedDataset` artifact snapshot with
  :class:`PrepareStats` accounting.
* :mod:`repro.service.model` — typed requests
  (:class:`ProfileRequest`, :class:`JourneyRequest`,
  :class:`BatchRequest`) and responses (:class:`ProfileResult`,
  :class:`JourneyResult`, :class:`BatchResponse`, :class:`QueryStats`,
  :class:`JourneyLeg`).
* :mod:`repro.service.journeys` — a searched node path cut into
  journey legs.
* :mod:`repro.service.cache` — the per-service LRU result cache
  (:class:`LRUResultCache`, :class:`CacheStats`).
* :mod:`repro.service.facade` — :class:`TransitService` itself,
  including persistence (``save``/``load`` over :mod:`repro.store`).

See ``docs/API.md`` for the lifecycle walk-through.
"""

from repro.service.cache import CacheStats, LRUResultCache
from repro.service.config import (
    RUNTIME_FIELDS,
    SELECTION_METHODS,
    ServiceConfig,
)
from repro.service.facade import TransitService
from repro.service.model import (
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
)

__all__ = [
    "RUNTIME_FIELDS",
    "SELECTION_METHODS",
    "ServiceConfig",
    "CacheStats",
    "LRUResultCache",
    "TransitService",
    "BatchRequest",
    "BatchResponse",
    "JourneyLeg",
    "JourneyRequest",
    "JourneyResult",
    "MinTransfersRequest",
    "MinTransfersResult",
    "MulticriteriaRequest",
    "MulticriteriaResult",
    "ParetoOption",
    "ProfileRequest",
    "ProfileResult",
    "QueryStats",
    "ViaRequest",
    "ViaResult",
    "PreparedDataset",
    "PrepareStats",
    "prepare_dataset",
]
