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
    metric_drift: MetricDriftConfig = field(default_factory=MetricDriftConfig)
    export_sanity: ExportSanityConfig = field(
        default_factory=ExportSanityConfig
    )


def default_config() -> LintConfig:
    """The configuration for *this* repository: the metric catalogs
    and the concurrency-sensitive subtrees.  The wire schema needs no
    rule: every payload is declared once (``repro.service.shapes``) and
    both of its ends are derived from that declaration."""
    metrics = MetricDriftConfig(
        pairs=(
            MetricDocPair("docs/SERVER.md", ("src/repro/server/metrics.py",)),
            MetricDocPair("docs/FLEET.md", ("src/repro/fleet/metrics.py",)),
            MetricDocPair("docs/STREAMS.md", ("src/repro/streams/metrics.py",)),
        )
    )
    return LintConfig(metric_drift=metrics)
