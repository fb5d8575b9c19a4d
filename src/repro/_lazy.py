"""Package namespaces that import their re-exports on first use.

Every package ``__init__`` of :mod:`repro` re-exports names from its
modules without importing them (PEP 562): a name's module is imported
when the name is first read, so a process imports only the modules it
uses — ``serve`` no instance generator, the fleet gateway no numpy.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of the package whose
    ``globals()`` is ``namespace`` and which re-exports ``table``'s
    names, each table key a module and its value the names read from
    it.  A name read once is bound in the package, so the next read is
    a plain lookup; a name the table lacks is an ``AttributeError``, so
    ``from package import submodule`` still imports the submodule."""
    package = namespace["__name__"]
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *where})

    return __getattr__, __dir__
