"""Small AST helpers shared by the built-in rules."""

from __future__ import annotations

import ast
from typing import Iterator


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name → fully-qualified name, from every import statement.

    ``import subprocess as sp`` → ``{"sp": "subprocess"}``;
    ``from time import sleep as nap`` → ``{"nap": "time.sleep"}``.
    Relative imports keep their bare module path (good enough for
    matching the stdlib blocking set, which is always absolute).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                full = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call_target(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """Fully-qualified name of the callee, import aliases applied.

    A dotted callee whose head is *not* an import of this module
    resolves to ``None``: ``requests.get(...)`` on a local dict named
    ``requests`` must not match the ``requests`` HTTP library.  Bare
    names pass through (builtins like ``open``, from-imports resolve
    via the alias map)."""
    name = dotted_name(call.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    if head in aliases:
        resolved = aliases[head]
        return f"{resolved}.{rest}" if rest else resolved
    return None if rest else name


def iter_direct_calls(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.Call]:
    """Calls lexically inside ``func``'s own body — nested ``def``s,
    ``async def``s and ``lambda``s are *not* descended into, so a bare
    callable handed to ``run_in_executor`` never counts as a call made
    by the enclosing coroutine."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def module_functions(
    tree: ast.Module,
) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function/method in the module, keyed by bare name (last
    definition wins — rules use this for conservative name-based call
    resolution within one module)."""
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node
    return functions

