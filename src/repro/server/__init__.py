"""The serving layer: an async multi-dataset query server (stdlib-only).

PRs 1–3 built fast kernels, the prepare-once
:class:`~repro.service.TransitService` facade, and warm-start
persistence; this package turns those prepared artifacts into a
long-lived, concurrent network service — the interactive
journey-planning *service* the paper frames SPCS as the engine for.

* :mod:`repro.server.protocol` — versioned JSON wire schema with
  strict validation and typed error payloads;
* :mod:`repro.server.registry` — named datasets warm-loaded from
  :mod:`repro.store`, with atomic hot delay swaps;
* :mod:`repro.server.app` — HTTP routing, bounded admission (fast 503
  on overload), graceful drain, and every search handed from the event
  loop to the dataset's search workers
  (``TransitService.submit``);
* :mod:`repro.server.metrics` — request counters, latency histograms,
  cache hit rates.

Entry points: ``repro-transit serve --store DIR --port N`` (CLI) or
embed :class:`TransitServer` directly (``examples/serve_city.py``).
See ``docs/SERVER.md`` for the wire protocol and operational
semantics.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.server.app": ("MAX_BODY_BYTES", "TransitServer"),
        "repro.server.http_base": ("BaseAsyncHttpServer",),
        "repro.server.metrics": ("LatencyHistogram", "ServerMetrics"),
        "repro.server.protocol": (
            "DELAY_MODES",
            "PROTOCOL_VERSION",
            "DelayCommand",
            "ProtocolError",
        ),
        "repro.server.registry": (
            "DatasetEntry",
            "DatasetRegistry",
            "RegistryError",
        ),
    },
)

__all__ = [
    "DELAY_MODES",
    "MAX_BODY_BYTES",
    "PROTOCOL_VERSION",
    "BaseAsyncHttpServer",
    "DatasetEntry",
    "DatasetRegistry",
    "DelayCommand",
    "LatencyHistogram",
    "ProtocolError",
    "RegistryError",
    "ServerMetrics",
    "TransitServer",
]
