"""Every public top-level name in the package has a caller, and every
defaulted parameter of a public function or method is set by some call.

A public function, class or constant of ``src/posetglue/*.py`` must be used
somewhere in ``src/`` or ``tests/`` other than its own definition and its
re-export in ``__init__.py``.  Uses are names read in code and attributes
read off a module (``harness.random_diagram``); imports alone do not count.

A parameter with a default is an option; one that no call in ``src/``,
``tests/`` or ``perfbench/`` passes, by keyword or by position, is an option
nobody uses.  Calls are matched to definitions by name only (``f(..)`` and
``obj.f(..)``; a class by its name for ``__init__``), which can only count
too many calls, never too few.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "posetglue"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} | {"posetglue"}


def _defined(stmt) -> set:
    """Public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, ast.Assign):
        names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = {stmt.target.id}
    else:
        names = set()
    return {n for n in names if not n.startswith("_")}


def _used(node) -> set:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in MODULES
        ):
            used.add(sub.attr)
    return used


def test_every_public_name_has_a_caller():
    definitions = {}
    used = set()
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = _defined(stmt) if path.parent == PACKAGE else set()
            for name in own:
                definitions[name] = path.name
            # a definition's own body does not count as a use of it
            used |= _used(stmt) - own
    callerless = sorted(
        f"{module}:{name}" for name, module in definitions.items() if name not in used
    )
    assert not callerless, callerless


def _calls(files) -> dict:
    """Callee name -> list of (positional count, keyword names) per call.

    A starred argument counts as every position, ``**kw`` as every keyword.
    """
    calls = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args), keywords)
            )
    return calls


def _defaulted(fn, skip: int):
    """(position after the skipped self/cls, name) of each defaulted parameter;
    keyword-only ones get no position."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional):
        if i >= first:
            yield i - skip, arg.arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _public_callables(tree):
    """(call name, function node, leading parameters a call does not pass)."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt.name, stmt, 0
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for fn in stmt.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                decorators = {getattr(d, "id", None) for d in fn.decorator_list}
                if fn.name == "__init__":
                    yield stmt.name, fn, 1
                elif not fn.name.startswith("_") and "property" not in decorators:
                    yield fn.name, fn, 0 if "staticmethod" in decorators else 1


def test_every_parameter_default_is_overridden_somewhere():
    calls = _calls(
        sorted(PACKAGE.glob("*.py"))
        + sorted((ROOT / "tests").glob("*.py"))
        + sorted((ROOT / "perfbench").glob("*.py"))
    )
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn, skip in _public_callables(tree):
            for position, param in _defaulted(fn, skip):
                if not any(
                    None in keywords
                    or param in keywords
                    or (position is not None and count > position)
                    for count, keywords in calls.get(name, [])
                ):
                    unset.append(f"{path.stem}:{fn.name if skip == 0 else name}({param})")
    assert not unset, unset
