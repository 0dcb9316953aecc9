"""Every public top-level name in the package has a caller, every
defaulted parameter of a function or method, private ones included, is set
by some call, the unchecked ``Mat._of`` constructor is used only inside
``intmat`` and the unchecked ``CMorphism._trusted`` only by the builders
that prove their matrices canonical (and the one test wrapper), only
``formula_cat`` walks a word morphism's entries, nothing but the two
constructors of a ``CMorphism`` writes into one, the isomorphism search
serves only ``poset iso``, matrices are ranked only by ``Field.rank``, JSON is decoded only by ``cli._load_doc``, ``harness``
makes evaluation contexts only in ``EpsilonTransform.evaluate``, no module
keeps a cache in a dict or set of its own (but ``intmat._IDENTITIES``), and
the package imports nothing outside the standard library.

A public function, class or constant of ``src/posetglue/*.py`` must be used
somewhere in ``src/`` or ``tests/`` other than its own definition and its
re-export in ``__init__.py``.  Uses are names read in code and attributes
read off a module (``harness.random_diagram``); imports alone do not count.

A parameter with a default is an option; one that no call in ``src/``,
``tests/`` or ``perfbench/`` passes, by keyword or by position, with a value
other than the literal default is an option nobody uses.  A starred argument
or ``**kw`` counts as another value.  Calls are matched to definitions by
name only (``f(..)`` and ``obj.f(..)``; a class by its name for
``__init__``), which can only count too many calls, never too few.
"""

from __future__ import annotations

import ast
import sys
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


OTHER = object()  # an argument whose value the AST cannot pin down


def _calls(files) -> dict:
    """Callee name -> list of (positional arguments, keyword arguments) per
    call, each argument an AST node.

    A starred argument stands for OTHER at its own and every later position,
    ``**kw`` for OTHER under every keyword (the None key).
    """
    calls = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            positional = []
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    positional.append(OTHER)
                    break
                positional.append(arg)
            keywords = {
                k.arg: OTHER if k.arg is None else k.value for k in node.keywords
            }
            calls.setdefault(name, []).append((positional, keywords))
    return calls


def _passed(call, position, name):
    """The argument a call passes for a parameter, OTHER, or None if it
    passes nothing there."""
    positional, keywords = call
    if None in keywords:
        return OTHER
    if name in keywords:
        return keywords[name]
    if position is not None and positional:
        if position < len(positional):
            return positional[position]
        if positional[-1] is OTHER:
            return OTHER
    return None


def _literal(node):
    """(type, value) of a literal argument, or None."""
    if node is OTHER:
        return None
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return type(value), value


def _is_default(arg, default) -> bool:
    literal = _literal(arg)
    return literal is not None and literal == _literal(default)


def _defaulted(fn, skip: int):
    """(position after the skipped self/cls, name, default node) of each
    defaulted parameter; keyword-only ones get no position."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional):
        if i >= first:
            yield i - skip, arg.arg, fn.args.defaults[i - first]
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg, default


def _callables(tree):
    """(call name, function node, leading parameters a call does not pass)
    of every top-level function and every method, private ones included."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt, 0
        elif isinstance(stmt, ast.ClassDef):
            for fn in stmt.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                decorators = {getattr(d, "id", None) for d in fn.decorator_list}
                if fn.name == "__init__":
                    yield stmt.name, fn, 1
                elif "property" not in decorators:
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
        for name, fn, skip in _callables(tree):
            for position, param, default in _defaulted(fn, skip):
                passed = (_passed(c, position, param) for c in calls.get(name, []))
                if not any(
                    arg is not None and not _is_default(arg, default) for arg in passed
                ):
                    unset.append(f"{path.stem}:{fn.name if skip == 0 else name}({param})")
    assert not unset, unset


def test_trusted_mat_constructor_stays_in_intmat():
    # Mat._of stores rows without converting or checking them; only intmat's
    # own operations, which build well-formed rows, may call it.
    intmat = PACKAGE / "intmat.py"
    files = [
        path
        for folder in (ROOT / "src", ROOT / "tests", ROOT / "perfbench")
        for path in sorted(folder.rglob("*.py"))
    ]
    uses = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "_of") or (
                isinstance(node, ast.Name) and node.id == "_of"
            ):
                uses.setdefault(path, []).append(node.lineno)
    assert intmat in uses  # the guard still names the constructor intmat uses
    outside = {str(p.relative_to(ROOT)): lines for p, lines in uses.items() if p != intmat}
    assert not outside, outside


#: The callers of CMorphism._trusted: each proves in its docstring that the
#: matrices it passes are canonical (compose's products by transitivity and
#: its own quotient, star's sign changes, canonical_formula's 0/1 pass,
#: translation_formula's [[1]] and the substituted matrices), or takes them
#: from a maker that does (the restrictions _Restrictions makes on read).
PROVEN_TRUSTED_SITES = {
    "formula_cat.compose",
    "formula_cat.star",
    "formula_cat.canonical_formula",
    "formula_cat.translation_formula",
    "formula_cat._substituted_value",
    "formula_cat._Restrictions.__getitem__",
}


def test_trusted_cmorphism_constructor_serves_only_proven_sites():
    # CMorphism._trusted stores a matrix without the order and degree tests;
    # only the builders that prove their matrices canonical may call it, and
    # in the tests only conftest.wrap_trusted, which observes those calls.
    files = [
        path
        for folder in (ROOT / "src", ROOT / "tests", ROOT / "perfbench")
        for path in sorted(folder.rglob("*.py"))
    ]
    allowed, outside = [], []
    for path in files:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = f"{stmt.name}." if isinstance(stmt, ast.ClassDef) else ""
            for unit in stmt.body if owner else [stmt]:
                if _refers_to(unit, "_trusted"):
                    where = f"{path.stem}.{owner}{getattr(unit, 'name', unit.lineno)}"
                    known = PROVEN_TRUSTED_SITES | {"conftest.wrap_trusted"}
                    (allowed if where in known else outside).append(where)
    # the guard still sees every listed caller
    assert set(allowed) == PROVEN_TRUSTED_SITES | {"conftest.wrap_trusted"}
    assert not outside, outside


#: The slots of a CMorphism: its two ends and its matrix.
_CMORPHISM_SLOTS = ("source", "target", "matrix")


def _made_by_new_of_another_class(node) -> bool:
    """Whether node is object.__new__(C) for a class C other than
    CMorphism (cls, in a classmethod, could be CMorphism)."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "__new__"
        and getattr(node.func.value, "id", None) == "object"
        and len(node.args) == 1
        and getattr(node.args[0], "id", "cls") not in ("CMorphism", "cls")
    )


def _slot_writes(tree) -> tuple:
    """(constructors, other): the lines that store or delete an attribute
    named like a CMorphism slot inside CMorphism.__init__ and
    CMorphism._trusted, and those elsewhere that could write into a
    CMorphism.  A CMorphism has no __dict__, so only its slots can be
    written.  Not counted as other: a store on self in a method of another
    class, and one on a name bound to object.__new__ of another class in
    the same function.  setattr and __setattr__ calls that name a slot by a
    literal count as other."""
    inside, exempt = set(), set()
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        for fn in stmt.body:
            if stmt.name == "CMorphism" and getattr(fn, "name", None) in ("__init__", "_trusted"):
                inside |= {id(node) for node in ast.walk(fn)}
            elif stmt.name != "CMorphism" and isinstance(fn, ast.FunctionDef):
                exempt |= {
                    id(node) for node in ast.walk(fn) if getattr(node, "id", None) == "self"
                }
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            made = {
                target.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and _made_by_new_of_another_class(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            exempt |= {id(node) for node in ast.walk(fn) if getattr(node, "id", None) in made}
    constructors, other = [], []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and node.attr in _CMORPHISM_SLOTS
        ):
            if id(node) in inside:
                constructors.append(node.lineno)
            elif id(node.value) not in exempt:
                other.append(node.lineno)
        elif isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "setattr"
            or getattr(node.func, "attr", None) in ("setattr", "__setattr__")
        ):
            if any(
                isinstance(arg, ast.Constant) and arg.value in _CMORPHISM_SLOTS
                for arg in node.args
            ):
                other.append(node.lineno)
    return constructors, other


def test_formula_cat_owns_the_entry_walk_and_no_one_writes_a_cmorphism():
    # A CMorphism holds its two ends and its matrix, set by its two
    # constructors, and nothing else: no walk or evaluation keeps what it
    # derives on a morphism.  formula_cat._entries is the one reading of a
    # word morphism's entries, with the Koszul sign of a raising entry
    # folded in, and abelian_eval reads no morphism's matrix, which an entry
    # walk of its own would have to do.
    formula_cat, abelian_eval = PACKAGE / "formula_cat.py", PACKAGE / "abelian_eval.py"
    files = [
        path
        for folder in (ROOT / "src", ROOT / "tests", ROOT / "perfbench")
        for path in sorted(folder.rglob("*.py"))
    ]
    outside = {}
    for path in files:
        constructors, other = _slot_writes(ast.parse(path.read_text(), filename=str(path)))
        if path == formula_cat:
            # the guard still sees the stores of both constructors
            assert len(constructors) == 2 * len(_CMORPHISM_SLOTS)
        if other:
            outside[str(path.relative_to(ROOT))] = other
    assert not outside, outside
    cmorphism = next(
        stmt
        for stmt in ast.parse(formula_cat.read_text(), filename=str(formula_cat)).body
        if isinstance(stmt, ast.ClassDef) and stmt.name == "CMorphism"
    )
    slots = [
        ast.literal_eval(stmt.value)
        for stmt in cmorphism.body
        if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "__slots__"
    ]
    assert slots == [_CMORPHISM_SLOTS]
    tree = ast.parse(abelian_eval.read_text(), filename=str(abelian_eval))
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "matrix"
    ]
    assert not reads, reads


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert not outside, outside


def test_src_imports_nothing_from_the_tests():
    # tests/generators.py and conftest build on the package; the package
    # must not depend on them, so that it runs without its test suite.
    test_modules = {"tests", "conftest", "generators"} | {
        p.stem for p in (ROOT / "tests").glob("*.py")
    }
    assert {"conftest", "generators"} <= test_modules  # the guard still sees both
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            found += [
                f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in test_modules
            ]
    assert not found, found


def _refers_to(node, name) -> bool:
    return any(
        getattr(sub, "id", None) == name
        or getattr(sub, "attr", None) == name
        or (isinstance(sub, ast.alias) and name in (sub.name, sub.asname))
        for sub in ast.walk(node)
    )


def test_only_poset_iso_searches_for_isomorphisms():
    # is_isomorphic is an exponential search, capped at 12 elements; every
    # pipeline compares its glued orders with their expected shapes by label
    # (Poset.same_order) instead.
    allowed, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("poset_core", "__init__"):
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if _refers_to(stmt, "is_isomorphic"):
                where = f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
                (allowed if where == "cli._cmd_poset_iso" else outside).append(where)
    assert allowed  # the guard still sees the one search
    assert not outside, outside


def test_only_field_rank_ranks_matrices():
    # abelian_eval.cohomology is the one count of dim - rank - rank and
    # ranks through Field.rank; is_quasi_iso is the cohomology of the cone,
    # so no second count can rank matrices by itself.
    rankers = {"abelian_eval.Field.rank"}
    allowed, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "intmat":
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            owner = f"{stmt.name}." if isinstance(stmt, ast.ClassDef) else ""
            for unit in stmt.body if owner else [stmt]:
                if _refers_to(unit, "rank_exact") or _refers_to(unit, "rank_mod"):
                    where = f"{path.stem}.{owner}{getattr(unit, 'name', unit.lineno)}"
                    (allowed if where in rankers else outside).append(where)
    assert set(allowed) == rankers  # the guard still sees the rank site
    assert not outside, outside


def _constructs(node, name) -> bool:
    """Whether node calls `name` or `<anything>.name`."""
    return any(
        isinstance(sub, ast.Call)
        and name in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None))
        for sub in ast.walk(node)
    )


def test_harness_makes_evaluation_contexts_only_in_epsilon_evaluate():
    # The trial drivers evaluate through EpsilonTransform.evaluate and
    # eval_formula, each of which makes its own context for its one call;
    # no driver hands a context from one evaluation to the next.
    harness, maker = PACKAGE / "harness.py", "harness.EpsilonTransform.evaluate"
    allowed, outside = [], []
    for stmt in ast.parse(harness.read_text(), filename=str(harness)).body:
        owner = f"{stmt.name}." if isinstance(stmt, ast.ClassDef) else ""
        for unit in stmt.body if owner else [stmt]:
            if _constructs(unit, "_Evaluation"):
                where = f"harness.{owner}{getattr(unit, 'name', unit.lineno)}"
                (allowed if where == maker else outside).append(where)
    assert allowed == [maker]  # the guard still sees the one maker
    assert not outside, outside


def _decodes_json(node) -> bool:
    """Whether node calls json.load or json.loads, or a bare loads."""
    return any(
        isinstance(sub, ast.Call)
        and (
            getattr(sub.func, "id", None) == "loads"
            or (
                getattr(sub.func, "attr", None) in ("load", "loads")
                and getattr(getattr(sub.func, "value", None), "id", None) == "json"
            )
        )
        for sub in ast.walk(node)
    )


def test_only_cli_load_doc_parses_json():
    # cli._load_doc turns every JSON decoding failure, a nesting too deep to
    # decode included, into ParseError; a second caller of json.loads would
    # have to repeat that.
    entry_points = {"cli._load_doc"}
    allowed, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = f"{stmt.name}." if isinstance(stmt, ast.ClassDef) else ""
            for unit in stmt.body if owner else [stmt]:
                if _decodes_json(unit):
                    where = f"{path.stem}.{owner}{getattr(unit, 'name', unit.lineno)}"
                    (allowed if where in entry_points else outside).append(where)
    assert set(allowed) == entry_points  # the guard still sees the entry point
    assert not outside, outside


#: Methods that write into a dict or a set.
_MUTATORS = {
    "setdefault", "update", "pop", "popitem", "clear", "add", "discard", "remove",
    "__setitem__", "__delitem__", "__ior__",
}


def _module_containers(tree) -> set:
    """Names that a module's top level binds to a dict or set display,
    comprehension, or dict() or set() call."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        container = isinstance(value, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "set")
        )
        if container:
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _writes_into(node, name) -> bool:
    """Whether node stores or deletes an item of `name`, or calls one of its
    mutating methods."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Subscript)
            and isinstance(sub.ctx, (ast.Store, ast.Del))
            and getattr(sub.value, "id", None) == name
        ):
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _MUTATORS
            and getattr(sub.func.value, "id", None) == name
        ):
            return True
    return False


def test_no_module_keeps_a_cache():
    # Each call is evaluated afresh: the formula builders, the evaluator and
    # the trials share matrices and products only through memos that are
    # locals of one call.  A dict or set bound at module level that a
    # function fills would outlive every call; the shared identities of
    # Mat.identity are the one such table.
    allowed = {"intmat._IDENTITIES"}
    found, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        containers = _module_containers(tree)
        functions = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        ]
        for name in sorted(containers):
            if any(_writes_into(fn, name) for fn in functions):
                where = f"{path.stem}.{name}"
                (found if where in allowed else outside).append(where)
    assert set(found) == allowed  # the guard still sees the one table
    assert not outside, outside
