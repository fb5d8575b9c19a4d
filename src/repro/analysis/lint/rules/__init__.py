"""Built-in lint rules.

Importing this package registers every rule with
:mod:`repro.analysis.lint.registry`; the engine triggers that import
lazily, so adding a rule module here (plus its import below) is the
whole integration.
"""

from repro.analysis.lint.rules import (  # noqa: F401
    async_block,
    export_sanity,
    lock_guard,
)

__all__ = [
    "async_block",
    "export_sanity",
    "lock_guard",
]
