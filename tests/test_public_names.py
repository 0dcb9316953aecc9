"""Every public top-level name in the package has a caller.

A public function, class or constant of ``src/posetglue/*.py`` must be used
somewhere in ``src/`` or ``tests/`` other than its own definition and its
re-export in ``__init__.py``.  Uses are names read in code and attributes
read off a module (``harness.random_diagram``); imports alone do not count.
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
