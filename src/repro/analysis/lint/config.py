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
class ExportSanityConfig:
    """EXPORT-SANITY: subtrees whose ``__all__`` declarations are
    checked for unbound names, duplicates, and missed public defs."""

    roots: tuple[str, ...] = ("src",)


@dataclass(frozen=True)
class LintConfig:
    """The full per-rule configuration handed to every rule."""

    async_block: AsyncBlockConfig = field(default_factory=AsyncBlockConfig)
    lock_guard: LockGuardConfig = field(default_factory=LockGuardConfig)
    export_sanity: ExportSanityConfig = field(
        default_factory=ExportSanityConfig
    )


def default_config() -> LintConfig:
    """The configuration for *this* repository: the concurrency-
    sensitive subtrees.  The wire schema and the metric catalogs need
    no rule: every payload (``repro.service.shapes``) and every metrics
    document (``repro.server.metrics``) is declared once, and what is
    written from it is derived from that declaration."""
    return LintConfig()
