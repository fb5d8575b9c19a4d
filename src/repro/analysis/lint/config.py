"""Per-rule configuration, with defaults bound to this repository.

Every rule reads its knobs from :class:`LintConfig`, so the same rule
implementations run unchanged over the real repo, over the miniature
violation/near-miss fixture repos in ``tests/analysis/fixtures/``, and
over any future layout — only the config differs.  Paths that do not
exist under the analysed root are silently skipped by the rules, which
is what lets :func:`default_config` double as the fixture config.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Fully-qualified callables that block the thread they run on.  The
#: ASYNC-BLOCK rule resolves import aliases before matching, so
#: ``from time import sleep as nap; nap()`` is still caught.
DEFAULT_BLOCKING_CALLS: frozenset[str] = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "os.wait",
        "os.waitpid",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.request",
        "open",
    }
)


@dataclass(frozen=True)
class AsyncBlockConfig:
    """ASYNC-BLOCK: subtrees whose ``async def`` bodies (and the sync
    helpers they call) must not invoke blocking calls."""

    roots: tuple[str, ...] = (
        "src/repro/server",
        "src/repro/fleet",
        "src/repro/streams",
    )
    blocking_calls: frozenset[str] = DEFAULT_BLOCKING_CALLS


@dataclass(frozen=True)
class LockGuardConfig:
    """LOCK-GUARD: subtrees scanned for ``# guarded-by: <lock>``
    annotations and the accesses they constrain.  Guard scope is the
    annotating module: an attribute annotated in ``cache.py`` is
    checked throughout ``cache.py`` only."""

    roots: tuple[str, ...] = (
        "src/repro/service",
        "src/repro/server",
        "src/repro/fleet",
        "src/repro/streams",
    )


@dataclass(frozen=True)
class DictPair:
    """One encoder/decoder pair whose dict keys must agree exactly,
    modulo the ``envelope`` keys (version/kind markers the decoder
    never surfaces)."""

    encoder_path: str
    encoder_func: str
    decoder_path: str
    decoder_func: str
    envelope: frozenset[str] = frozenset()


@dataclass(frozen=True)
class RequestPair:
    """One request renderer whose produced keys must be a subset of
    the allowed-field constants the server validates against."""

    renderer_path: str
    renderer_func: str
    schema_path: str
    schema_consts: tuple[str, ...]


@dataclass(frozen=True)
class WireParityConfig:
    """WIRE-PARITY: the response encoder/decoder pairs and request
    renderer/validator pairs that define the wire schema."""

    dict_pairs: tuple[DictPair, ...] = ()
    request_pairs: tuple[RequestPair, ...] = ()


@dataclass(frozen=True)
class MetricDocPair:
    """One doc file whose marked metric catalog must mirror the
    ``snapshot()`` keys of the listed metrics modules."""

    doc_path: str
    module_paths: tuple[str, ...]


@dataclass(frozen=True)
class MetricDriftConfig:
    """METRIC-DRIFT: docs↔code metric-name parity.

    Only names inside ``<!-- lint:metrics -->`` … ``<!-- /lint:metrics -->``
    regions are treated as the doc-side catalog; prose elsewhere can
    mention response fields freely without tripping the rule.
    """

    pairs: tuple[MetricDocPair, ...] = ()
    #: Suffixes that make an identifier a metric name.
    suffixes: tuple[str, ...] = (
        "_total",
        "_seconds",
        "_ms",
        "_ms_le",
        "_count",
        "_rate",
        "_size",
        "_by_endpoint",
    )
    #: Exact names with no conventional suffix.
    exact_names: frozenset[str] = frozenset({"inflight"})


@dataclass(frozen=True)
class ExportSanityConfig:
    """EXPORT-SANITY: subtrees whose ``__all__`` declarations are
    checked for unbound names, duplicates, and missed public defs."""

    roots: tuple[str, ...] = ("src",)


@dataclass(frozen=True)
class LintConfig:
    """The full per-rule configuration handed to every rule."""

    async_block: AsyncBlockConfig = field(default_factory=AsyncBlockConfig)
    lock_guard: LockGuardConfig = field(default_factory=LockGuardConfig)
    wire_parity: WireParityConfig = field(default_factory=WireParityConfig)
    metric_drift: MetricDriftConfig = field(default_factory=MetricDriftConfig)
    export_sanity: ExportSanityConfig = field(
        default_factory=ExportSanityConfig
    )


def default_config() -> LintConfig:
    """The configuration for *this* repository: every hand-written
    encoder/decoder pair of the HTTP wire schema, both metric catalogs,
    and the concurrency-sensitive subtrees.  The regular request
    shapes need no WIRE-PARITY rows: their renderers, parsers, encoders
    and decoders are derived from one field list each
    (``repro.service.shapes``), so they cannot drift apart."""
    envelope_vk = frozenset({"v", "kind"})
    protocol = "src/repro/server/protocol.py"
    results = "src/repro/client/results.py"
    wire_py = "src/repro/client/wire.py"
    wire = WireParityConfig(
        dict_pairs=(
            DictPair(protocol, "encode_query_stats", results, "decode_query_stats"),
            DictPair(protocol, "encode_batch_stats", results, "decode_batch_stats"),
            DictPair(protocol, "_legs", results, "_decode_legs"),
            DictPair(protocol, "encode_profile", results, "decode_profile", envelope_vk),
            DictPair(protocol, "encode_batch", results, "decode_batch", envelope_vk),
            DictPair(
                "src/repro/service/facade.py",
                "describe",
                results,
                "decode_info",
                frozenset({"name", "source", "generation"}),
            ),
            DictPair(
                "src/repro/server/app.py",
                "_swap_apply",
                results,
                "decode_delay_update",
                frozenset({"v", "mode"}),
            ),
        ),
        request_pairs=(
            RequestPair(wire_py, "profile_body", protocol, ("_PROFILE_FIELDS",)),
            RequestPair(wire_py, "batch_body", protocol, ("_BATCH_FIELDS",)),
            RequestPair(
                wire_py, "delays_body",
                protocol, ("_DELAY_FIELDS", "_DELAY_ITEM_FIELDS"),
            ),
        ),
    )
    metrics = MetricDriftConfig(
        pairs=(
            MetricDocPair("docs/SERVER.md", ("src/repro/server/metrics.py",)),
            MetricDocPair("docs/FLEET.md", ("src/repro/fleet/metrics.py",)),
            MetricDocPair("docs/STREAMS.md", ("src/repro/streams/metrics.py",)),
        )
    )
    return LintConfig(wire_parity=wire, metric_drift=metrics)
