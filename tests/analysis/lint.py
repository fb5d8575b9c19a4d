"""The repository's static checks: three rules over ``ast``, run by tier-1.

The generic toolchain cannot see which attributes a lock protects,
which calls block the event loop, or what a module exports.  Three
rules encode those invariants.  :func:`lint` runs each over the
subtrees :data:`RULES` gives it and returns ``(findings, suppressed)``,
two sorted lists of :class:`Finding` ``(path, line, rule, symbol,
message)``.  ``test_repo_lint_clean.py`` runs it over the repository
(no finding, one justified suppression); ``test_lint_rules.py`` over
``fixtures/violations/`` (every rule fires, with exact symbols) and
``fixtures/nearmiss/`` (the closest legal variants: nothing fires).  A
regression fails the commit that introduced it, and so does a rule
that stops firing.  A file that does not parse raises ``SyntaxError``:
a broken file cannot switch a rule off.  (The metric catalogs need no
rule: each is declared once in code, and ``tests/test_metrics_catalog.py``
compares the docs' tables with it.)

**ASYNC-BLOCK** — no blocking call on the event loop.  Flags a call
to a known-blocking function (:data:`BLOCKING_CALLS`: ``time.sleep``,
``subprocess.run``, ``socket.create_connection``, ``open``, …) that is
reachable from an ``async def`` under ``server/`` or ``fleet/``: in
its own body, or in a sync helper it calls, transitively, through the
module-local call graph (by bare name, or as ``self.f`` / ``cls.f``).  The message names the helper ("via
`_refresh_cache`").  Import aliases are resolved first, so ``from time
import sleep as nap; nap()`` is caught, and ``requests.get`` on a local
dict named ``requests`` is not the HTTP library.  Only calls make
edges: a bare callable or a ``lambda`` handed to
``loop.run_in_executor`` runs on a worker thread and is not flagged.

**LOCK-GUARD** — annotated attributes are accessed under their lock.
A trailing comment on the attribute's initialising assignment
declares its guard::

    self._entries: dict[str, Entry] = {}  # guarded-by: _lock

Every other access ``recv._entries`` in the same module must then sit
inside ``with recv._lock:`` (or ``async with``); the receiver must
match, so ``gateway._delay_log`` needs ``gateway._swap_lock`` held, not
any ``_swap_lock``.  The declaring function (usually ``__init__``) is
exempt: construction happens before the object is shared.
``# guarded-by: loop`` declares event-loop confinement instead of a
mutex: straight-line access is fine anywhere, and the violation is
capturing the attribute into a nested ``def`` or ``lambda``, which may
run on an executor thread.  The rule is module-local by design — keep
guarded state private to its module.  It walks ``service/``,
``server/`` and ``fleet/``;
``test_guard_annotations_are_pinned_per_file`` pins the number of
annotations per file, so none can be dropped silently.

**EXPORT-SANITY** — ``__all__`` is real.  Every name in a literal
``__all__`` under ``src/`` must be bound at module top level (unless
the module does ``from x import *``) and listed once, and every public
top-level ``def`` / ``class`` must be listed.  A computed ``__all__``
is skipped.  A package that re-exports on first use
(``__getattr__, __dir__ = lazy_exports(globals(), {module: names})``,
:mod:`repro._lazy`) binds a name of its table only when the module the
table names binds it — read off that module's syntax tree, through its
own table if it has one — so an entry pointing at the wrong module is
an unbound export, not an ``AttributeError`` on first use.

**Suppressions.**  A deliberate exception carries an inline comment on
the finding's line or the line above it, with the reason after an
em-dash (``test_every_suppression_carries_a_justification``)::

    # lint: disable=LOCK-GUARD — loop-confined sync read

**Adding a rule:** write a function ``(path, tree, lines, root) ->
findings`` (``root`` is the tree being linted, for a rule that reads
another module),
add it to :data:`RULES` with the subtrees it walks, and seed a
violation and a near miss under ``fixtures/``, pinned in
``test_lint_rules.py``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple


class Finding(NamedTuple):
    """One rule violation at ``path:line``; ``symbol`` names what is in
    violation independent of where it sits in the file."""

    path: str
    line: int
    rule: str
    symbol: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def python_files(root: Path, subtrees: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under ``subtrees`` of ``root``, sorted, as a
    posix path relative to ``root``.  A missing subtree yields nothing:
    the fixture trees hold only the subtrees they seed (the repository
    is held to all of them by ``test_all_three_rules_actually_ran``)."""
    for subtree in subtrees:
        for path in sorted((root / subtree).rglob("*.py")):
            yield path.relative_to(root).as_posix()


# -- shared AST helpers ------------------------------------------------


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _functions(tree: ast.Module) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function and method of the module, nested ones too."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


# -- ASYNC-BLOCK -------------------------------------------------------

BLOCKING_CALLS = frozenset(
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


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name → fully-qualified name, from every import:
    ``import subprocess as sp`` → ``sp: subprocess``, ``from time
    import sleep as nap`` → ``nap: time.sleep``."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                aliases[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _call_target(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """The callee's fully-qualified name.  A dotted callee whose head
    is not an import of the module is ``None``; a bare name passes
    through (builtins such as ``open``)."""
    name = _dotted(call.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    if head in aliases:
        return f"{aliases[head]}.{rest}" if rest else aliases[head]
    return None if rest else name


def _direct_calls(func: ast.AST) -> Iterator[ast.Call]:
    """Calls in ``func``'s own body: nested ``def``s and ``lambda``s
    are not entered, so a callable handed to an executor is not a call
    the enclosing coroutine makes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _local_callee(call: ast.Call, functions: dict) -> str | None:
    """The module-local function a call reaches: by bare name, or as
    ``self.f`` / ``cls.f`` (a method of any other object is not
    followed)."""
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
    elif (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("self", "cls")
    ):
        name = func.attr
    else:
        return None
    return name if name in functions else None


def async_block(
    path: str, tree: ast.Module, lines: list[str], root: Path
) -> list[Finding]:
    """ASYNC-BLOCK over one module."""
    aliases = _import_aliases(tree)
    # By bare name, conservatively: the last definition wins.
    functions = {func.name: func for func in _functions(tree)}
    blocking: dict[str, list[tuple[int, str]]] = {}
    callees: dict[str, set[str]] = {}
    for name, func in functions.items():
        blocking[name], callees[name] = [], set()
        for call in _direct_calls(func):
            target = _call_target(call, aliases)
            if target in BLOCKING_CALLS:
                blocking[name].append((call.lineno, target))
            if (callee := _local_callee(call, functions)) is not None:
                callees[name].add(callee)

    findings = []
    for name, func in functions.items():
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        reached, stack = {name}, [name]
        while stack:
            for callee in callees[stack.pop()] - reached:
                reached.add(callee)
                stack.append(callee)
        for helper in reached:
            via = "" if helper == name else f" (via `{helper}`)"
            for lineno, target in blocking[helper]:
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "ASYNC-BLOCK",
                        f"{name}->{target}@{helper}",
                        f"blocking call `{target}` is reachable from "
                        f"`async def {name}`{via}; move it behind "
                        f"run_in_executor or use the asyncio equivalent",
                    )
                )
    return findings


# -- LOCK-GUARD --------------------------------------------------------

GUARD_RE = re.compile(
    r"self\.(\w+)\s*(?::[^=#]*)?=.*#\s*guarded-by:\s*([A-Za-z_]\w*)"
)


def lock_guard(
    path: str, tree: ast.Module, lines: list[str], root: Path
) -> list[Finding]:
    """LOCK-GUARD over one module."""
    guards = {}  # attribute -> (lock, line of its annotation)
    for lineno, text in enumerate(lines, start=1):
        if match := GUARD_RE.search(text):
            guards[match[1]] = (match[2], lineno)
    functions = _functions(tree)
    declaring = {  # attribute -> innermost function around its annotation
        attr: max(
            (f for f in functions if f.lineno <= lineno <= f.end_lineno),
            key=lambda f: f.lineno,
            default=None,
        )
        for attr, (_, lineno) in guards.items()
    }
    findings = []

    def access(node: ast.Attribute, held, funcs, deferred) -> None:
        if funcs and funcs[-1] is declaring[node.attr]:
            return  # construction in the declaring function
        receiver, lock = node.value.id, guards[node.attr][0]
        func_name = funcs[-1].name if funcs else "<module>"
        if lock == "loop":
            if not deferred:
                return
            message = (
                f"`{receiver}.{node.attr}` is loop-confined (guarded-by: "
                f"loop) but is captured in a nested callable that may run "
                f"off the event loop"
            )
        elif f"{receiver}.{lock}" not in held:
            message = (
                f"`{receiver}.{node.attr}` is guarded by `{receiver}.{lock}` "
                f"but is accessed in `{func_name}` without holding it"
            )
        else:
            return
        findings.append(
            Finding(path, node.lineno, "LOCK-GUARD", f"{node.attr}@{func_name}", message)
        )

    def visit(node: ast.AST, held: frozenset, funcs: tuple, deferred: int) -> None:
        """Walk ``node`` with the locks held, the enclosing functions
        and the depth of deferred callables around it."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = deferred + 1 if funcs else deferred
            for child in node.body:
                visit(child, held, funcs + (node,), inner)
            return
        if isinstance(node, ast.Lambda):
            visit(node.body, held, funcs, deferred + 1)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for item in node.items:
                acquired.add(_dotted(item.context_expr))
                visit(item.context_expr, held, funcs, deferred)
            for child in node.body:
                visit(child, frozenset(acquired), funcs, deferred)
            return
        if (
            isinstance(node, ast.Attribute)
            and node.attr in guards
            and isinstance(node.value, ast.Name)
        ):
            access(node, held, funcs, deferred)
        for child in ast.iter_child_nodes(node):
            visit(child, held, funcs, deferred)

    if guards:
        visit(tree, frozenset(), (), 0)
    return findings


# -- EXPORT-SANITY -----------------------------------------------------


def _literal_all(tree: ast.Module) -> tuple[list[str], int] | None:
    """The names of the module's ``__all__`` and its line, or ``None``
    when there is none or it is computed."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if not isinstance(node.value, (ast.List, ast.Tuple)) or not all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.value.elts
            ):
                return None
            return [e.value for e in node.value.elts], node.lineno
    return None


def _lazy_table(node: ast.stmt) -> dict[str, str]:
    """Each name of a ``lazy_exports(globals(), {module: names})``
    assignment with the module it is read from; empty for any other
    statement."""
    call = node.value if isinstance(node, ast.Assign) else None
    if not (
        isinstance(call, ast.Call)
        and _dotted(call.func) in ("lazy_exports", "_lazy.lazy_exports")
        and len(call.args) == 2
        and isinstance(call.args[1], ast.Dict)
    ):
        return {}
    return {
        name.value: module.value
        for module, names in zip(call.args[1].keys, call.args[1].values)
        if isinstance(module, ast.Constant)
        for name in getattr(names, "elts", ())
        if isinstance(name, ast.Constant)
    }


def _top_level_bindings(
    tree: ast.Module,
) -> tuple[set[str], dict[str, int], bool, dict[str, str]]:
    """(every bound name, each top-level def/class with its line, whether
    the module does ``import *``, each lazily exported name with its
    module).  Top-level ``if`` / ``try`` blocks (version and
    optional-dependency guards) are entered."""
    bound: set[str] = set()
    defs: dict[str, int] = {}
    star = False
    lazy: dict[str, str] = {}

    def scan(body) -> None:
        nonlocal star
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
                defs.setdefault(node.name, node.lineno)
            elif isinstance(node, ast.Assign):
                lazy.update(_lazy_table(node))
                bound.update(
                    leaf.id
                    for target in node.targets
                    for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Name)
                )
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name == "*":
                        star = True
                    elif isinstance(node, ast.Import):
                        bound.add(alias.asname or alias.name.split(".")[0])
                    else:
                        bound.add(alias.asname or alias.name)
            elif isinstance(node, ast.If):
                scan(node.body)
                scan(node.orelse)
            elif isinstance(node, ast.Try):
                scan(node.body)
                for handler in node.handlers:
                    scan(handler.body)
                scan(node.orelse)
                scan(node.finalbody)

    scan(tree.body)
    return bound, defs, star, lazy


def _binds(
    root: Path, module: str, name: str, seen: frozenset[str] = frozenset()
) -> bool:
    """Whether ``module`` (a file under ``root/src``) binds ``name`` at
    top level, or exports it lazily from a module that does."""
    base = root / "src" / module.replace(".", "/")
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file() and module not in seen:
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
            bound, _, star, lazy = _top_level_bindings(tree)
            if star or name in bound:
                return True
            return name in lazy and _binds(root, lazy[name], name, seen | {module})
    return False


def export_sanity(
    path: str, tree: ast.Module, lines: list[str], root: Path
) -> list[Finding]:
    """EXPORT-SANITY over one module."""
    declared = _literal_all(tree)
    if declared is None:
        return []
    names, all_line = declared
    bound, defs, star, lazy = _top_level_bindings(tree)
    bound |= {
        name for name, target in lazy.items() if _binds(root, target, name)
    }
    module = ".".join(
        part
        for part in path.removeprefix("src/").removesuffix(".py").split("/")
        if part != "__init__"
    )
    findings = []
    seen: set[str] = set()
    for name in names:
        if name in seen:
            findings.append(
                Finding(
                    path, all_line, "EXPORT-SANITY", f"{name}:duplicate",
                    f"__all__ lists {name!r} more than once",
                )
            )
        seen.add(name)
        if not star and name not in bound:
            where = (
                f"its lazy table reads it from `{lazy[name]}`, which never "
                f"binds it"
                if name in lazy
                else "the module never binds it"
            )
            findings.append(
                Finding(
                    path, all_line, "EXPORT-SANITY", f"{name}:unbound",
                    f"__all__ exports {name!r} but {where} "
                    f"— `from {module} import *` would raise AttributeError",
                )
            )
    for name, lineno in defs.items():
        if not name.startswith("_") and name not in seen:
            findings.append(
                Finding(
                    path, lineno, "EXPORT-SANITY", f"{name}:uncovered",
                    f"public top-level `{name}` is missing from __all__ "
                    f"(add it, or prefix it with `_`)",
                )
            )
    return findings


# -- running the rules -------------------------------------------------

#: Each rule: its check and the subtrees it walks.
RULES = {
    "ASYNC-BLOCK": (
        async_block,
        ("src/repro/server", "src/repro/fleet"),
    ),
    "LOCK-GUARD": (
        lock_guard,
        ("src/repro/service", "src/repro/server", "src/repro/fleet"),
    ),
    "EXPORT-SANITY": (export_sanity, ("src",)),
}

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_\-, ]+)")


def _disabled_at(lines: list[str], line: int) -> set[str]:
    """Rules an inline comment disables on ``line`` or the line above."""
    return {
        rule.strip()
        for text in lines[max(line - 2, 0) : line]
        if (match := _SUPPRESS_RE.search(text))
        for rule in match[1].split(",")
    }


def lint(root: str | Path) -> tuple[list[Finding], list[Finding]]:
    """Run every rule over ``root``, each file parsed once: the
    ``(findings, suppressed)`` it yields, sorted."""
    root = Path(root)
    sources: dict[str, tuple[ast.Module, list[str]]] = {}
    raw: set[Finding] = set()
    for check, subtrees in RULES.values():
        for path in python_files(root, subtrees):
            if path not in sources:
                text = (root / path).read_text(encoding="utf-8")
                sources[path] = ast.parse(text, filename=path), text.splitlines()
            raw.update(check(path, *sources[path], root))
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in sorted(raw):
        disabled = _disabled_at(sources[finding.path][1], finding.line)
        (suppressed if finding.rule in disabled else findings).append(finding)
    return findings, suppressed
