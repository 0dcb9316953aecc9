"""Verification harness: formula builders, epsilon transforms, pipelines."""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json

import pytest

from posetglue.abelian_eval import (
    RATIONALS,
    ChainMap,
    DiagramMap,
    Field,
    PosetDiagram,
    VectComplex,
    cohomology_table,
    eval_formula,
    is_quasi_iso_diagram,
    random_diagram,
)
from posetglue.errors import (
    BaseMismatch,
    CommutativityFailure,
    DiagramAxiomFailure,
    InternalInconsistency,
    NaturalityFailure,
    NoPathFound,
    NotATree,
    ParseError,
    PosetGlueError,
    SizeLimit,
)
from posetglue import abelian_eval, formula_cat, gluing, harness
from posetglue.cli import main
from posetglue.formula_cat import (
    TWO_CHAIN,
    CMorphism,
    CObject,
    Formula,
    FormulaToPoint,
    check_formula,
    check_formula_morphism,
    compose,
    compose_formulas,
    substitute,
    translation_formula,
)
from posetglue.gluing import (
    build_minus,
    build_plus,
    from_function,
    gluing_to_json,
    validate_gluing,
)
from posetglue.harness import (
    FIGURE_ONE_PAIRS,
    EpsilonTransform,
    build_epsilons,
    build_theorem_formulas,
    counterexample_data,
    figure_one_gluing,
    figure_one_poset,
    random_gluing,
    verify_bgp_path,
    verify_equivalence,
    verify_two_chain,
    verify_x1z,
)
from posetglue.intmat import Mat
from posetglue.poset_core import covers, hasse, opposite, point_poset, poset_from_generators

from conftest import chain_of_chains, evaluation_key, restriction, run_python, wrap_trusted

SMALL = {"trials": 3, "max_dim": 2, "window": (-1, 1)}


def single_edge_gluing():
    X = poset_from_generators(["x"], [])
    Y = poset_from_generators(["y"], [])
    return validate_gluing(X, Y, {"x": ("y",)})


class TestTheoremFormulas:
    def test_single_edge_reduces_to_the_two_chain_lane(self):
        g = single_edge_gluing()
        xi_plus, xi_minus = build_theorem_formulas(g)
        # over the plus order x < y the minus-side stalk at x is the
        # substituted arrow word, exactly as in the named constants
        assert xi_minus.at["x"].xi.entries == (("y", 1), ("x", 0))
        assert xi_minus.at["x"].D.matrix.tolist() == [[1, 0], [1, 1]]
        assert xi_plus.at["x"].xi.entries == (("x", 1), ("y", 0))
        assert xi_plus.at["x"].D.matrix.tolist() == [[1, 0], [1, 1]]
        assert xi_plus.at["y"].xi.entries == (("y", 0),)
        assert xi_minus.at["y"].xi.entries == (("y", 1),)
        # with x, y named "1", "2", relabelling along their swap gives the
        # two-chain instance
        point = from_function(point_poset("1"), point_poset("2"), {"1": "2"})
        xi_plus, xi_minus = build_theorem_formulas(point)
        chain, flipped = xi_plus.base, xi_plus.target
        assert chain == TWO_CHAIN and flipped.le("2", "1")

        def swap(target, base):
            at = {
                y: FormulaToPoint(CObject(((z, 0),), base), [[1]])
                for y, z in (("1", "2"), ("2", "1"))
            }
            res = {(a, b): CMorphism(at[a].xi, at[b].xi, [[1]]) for a, b in target.leq}
            return Formula(target, at, res)

        assert compose_formulas(swap(chain, flipped), xi_plus) == harness.TWO_CHAIN_PLUS
        assert compose_formulas(xi_minus, swap(flipped, chain)) == harness.TWO_CHAIN_MINUS

    def test_every_value_is_a_valid_formula(self):
        for seed in (0, 3, 11):
            g = random_gluing(seed)
            xi_plus, xi_minus = build_theorem_formulas(g)
            for F in (xi_plus, xi_minus):
                for y in F.target.elements:
                    assert check_formula(F.at[y]) is None

    def test_witness_free_elements_get_stalks(self):
        X = poset_from_generators(["x"], [])
        Y = poset_from_generators(["y"], [])
        g = validate_gluing(X, Y, {"x": ()})
        xi_plus, xi_minus = build_theorem_formulas(g)
        assert xi_plus.at["x"].xi.entries == (("x", 1),)
        assert xi_minus.at["x"].xi.entries == (("x", 0),)

    def test_formulas_evaluate_on_random_diagrams(self):
        g = random_gluing(4)
        xi_plus, xi_minus = build_theorem_formulas(g)
        plus = build_plus(g).poset
        minus = build_minus(g).poset
        K = random_diagram(plus, 0, max_dim=2, window=(-1, 1))
        T = eval_formula(xi_plus, K)
        assert T.base.elements == minus.elements
        L = random_diagram(minus, 0, max_dim=2, window=(-1, 1))
        S = eval_formula(xi_minus, L)
        assert S.base.elements == plus.elements


def _witness(g, x, holds):
    """The one witness w of x for which holds(w), by the definition of a
    cross relation."""
    (w,) = [w for w in g.Yx[x] if holds(w)]
    return w


def _paper_xi(g, source, target) -> Formula:
    """The theorem formula derived as in the paper: XI12 substituted into the
    arrow formula from the stalk at x to its witness stalks (or back), and
    each restriction matching entries through phi and the cross witnesses."""
    base, X = source.poset, set(g.X.elements)
    plus = source.sign == "plus"

    def word(entries):
        return FormulaToPoint(CObject(entries, base), Mat.identity(len(entries)))

    at = {y: word(((y, 0 if plus else 1),)) for y in g.Y.elements}
    for x in g.X.elements:
        if not g.Yx[x]:
            at[x] = word(((x, 1 if plus else 0),))
            continue
        stalk, witnesses = word(((x, 0),)), word(tuple((w, 0) for w in g.Yx[x]))
        low, high = (stalk, witnesses) if plus else (witnesses, stalk)
        ones = [[1] * len(low.xi)] * len(high.xi)
        arrow = Formula(
            TWO_CHAIN, {"1": low, "2": high}, {("1", "2"): CMorphism(low.xi, high.xi, ones)}
        )
        at[x] = substitute(formula_cat.XI12, arrow)
    res = {}
    for a, b in target.poset.leq:
        if a == b:
            continue
        if a in X and b in X:
            matching = {a: b, **g.phi[(a, b)]}
        elif a in X:
            matching = {_witness(g, a, lambda w: g.Y.le(w, b)): b}
        elif b in X:
            matching = {a: _witness(g, b, lambda w: g.Y.le(a, w))}
        else:
            matching = {a: b}
        src = {e: i for i, (e, _) in enumerate(at[a].xi.entries)}
        tgt = {e: j for j, (e, _) in enumerate(at[b].xi.entries)}
        rows = [[0] * len(src) for _ in tgt]
        for e, f in matching.items():
            rows[tgt[f]][src[e]] = 1
        res[(a, b)] = CMorphism(at[a].xi, at[b].xi, rows)
    return Formula(target.poset, at, res)


#: the chain-of-chains shapes (n, k) of the build-scale benchmark workload
_BUILD_SHAPES = ((6, 3), (9, 3), (8, 4), (9, 4), (10, 4))


class TestPaperDerivation:
    @pytest.mark.parametrize(
        "case",
        [*FIGURE_ONE_PAIRS, *range(100), *_BUILD_SHAPES],
        ids=lambda c: "-".join(map(str, c)) if isinstance(c, tuple) else f"random{c}",
    )
    def test_canonical_formulas_are_the_paper_derivation(self, case):
        if case in FIGURE_ONE_PAIRS:
            g = figure_one_gluing(case)[0]
        elif isinstance(case, tuple):
            g = chain_of_chains(*case)
        else:
            g = random_gluing(case)
        plus, minus = build_plus(g), build_minus(g)
        assert build_theorem_formulas(g) == (_paper_xi(g, plus, minus), _paper_xi(g, minus, plus))


def _anti_transpose(matrix):
    """The transpose in reversed order: entry (j, i) of an n-by-m matrix
    moves to (m - 1 - i, n - 1 - j)."""
    return [list(col)[::-1] for col in zip(*matrix.rows)][::-1]


def dual(F: Formula) -> Formula:
    """F over the opposite target and base: each word reversed with every
    degree m taken to 1 - m, each D and restriction anti-transposed."""
    base = opposite(F.base)
    at = {
        y: FormulaToPoint(
            CObject([(e, 1 - m) for e, m in reversed(f.xi.entries)], base),
            _anti_transpose(f.D.matrix),
        )
        for y, f in F.at.items()
    }
    res = {
        (b, a): CMorphism(at[b].xi, at[a].xi, _anti_transpose(phi.matrix))
        for (a, b), phi in F.res.items()
    }
    return Formula(opposite(F.target), at, res)


def _up_to_entry_order(F: Formula):
    """F's orders, words, D's and restrictions, keyed by entry, not position
    (an element occurs at most once in a theorem formula's word)."""

    def sparse(matrix, rows, cols):
        return {
            (rows[j], cols[i]): c
            for j, row in enumerate(matrix.rows)
            for i, c in enumerate(row)
            if c
        }

    values = {
        y: (sorted(f.xi.entries), sparse(f.D.matrix, f.xi.entries, f.xi.entries))
        for y, f in F.at.items()
    }
    restrictions = {
        key: sparse(phi.matrix, phi.target.entries, phi.source.entries)
        for key, phi in F.res.items()
    }
    orders = [(set(P.elements), P.leq) for P in (F.target, F.base)]
    return orders, values, restrictions


def _gluing_id(case):
    return "-".join(case) if isinstance(case, tuple) else f"random{case}"


class TestDuality:
    @pytest.mark.parametrize("case", [*FIGURE_ONE_PAIRS, *range(20)], ids=_gluing_id)
    def test_each_sign_is_the_dual_of_the_other_on_the_opposite_data(self, case):
        # xi_minus of a gluing is the dual of xi_plus of the opposite data,
        # and conversely: this pins the two sign choices of the builder
        g = figure_one_gluing(case)[0] if isinstance(case, tuple) else random_gluing(case)
        self.assert_dual(g)

    def test_witness_free_elements_are_dual(self):
        X = poset_from_generators(["x1", "x2"], [])
        Y = poset_from_generators(["y1", "y2"], [("y1", "y2")])
        self.assert_dual(validate_gluing(X, Y, {"x1": ("y1",), "x2": ()}))

    @staticmethod
    def assert_dual(g):
        op = validate_gluing(opposite(g.X), opposite(g.Y), g.Yx)
        xi_plus, xi_minus = build_theorem_formulas(g)
        op_plus, op_minus = build_theorem_formulas(op)
        assert _up_to_entry_order(xi_minus) == _up_to_entry_order(dual(op_plus))
        assert _up_to_entry_order(xi_plus) == _up_to_entry_order(dual(op_minus))


def _non_cover_pairs():
    """(side, a, c) for each relation a < c that is not a cover in the
    target of xi_plus (side 0), the minus order, or of xi_minus (side 1),
    the plus order, of the X1/X2 gluing.  The orders are read off the
    gluing, so collecting the tests builds no formula."""
    g, _, _ = figure_one_gluing(FIGURE_ONE_PAIRS[0])
    return [
        (side, a, c)
        for side, target in enumerate((build_minus(g).poset, build_plus(g).poset))
        for a, c in sorted(target.leq)
        if a != c and (a, c) not in hasse(target).edges
    ]


def _naturality_difference(source, target, components, edge) -> list:
    """The difference of the two sides of the naturality square at edge,
    computed with compose on validated morphisms."""
    a, b = edge
    phi = {
        y: CMorphism(source.at[y].xi, target.at[y].xi, components[y]) for y in (a, b)
    }
    left = compose(target.res[(a, b)], phi[a])
    right = compose(phi[b], source.res[(a, b)])
    return left.matrix.sub(right.matrix).tolist()


class TestSingleCheckSite:
    """Corruptions that only the Formula constructor's composition check and
    the epsilon naturality check can catch."""

    @pytest.mark.parametrize("side", [0, 1], ids=["xi_plus", "xi_minus"])
    def test_zeroed_restriction_names_its_pair(self, side):
        g, _, _ = figure_one_gluing(FIGURE_ONE_PAIRS[0])
        xi = build_theorem_formulas(g)[side]
        P = xi.target
        covers = hasse(P).edges
        # a minimal and c maximal: (a, c) is the composite of every triangle
        # it belongs to, so the check can only name this pair
        a, c = next(
            (a, c)
            for a, c in sorted(P.leq)
            if a != c
            and (a, c) not in covers
            and P.down_set(a) == {a}
            and P.up_set(c) == {c}
        )
        res = dict(xi.res)
        res[(a, c)] = CMorphism(
            xi.at[a].xi, xi.at[c].xi, Mat.zero(len(xi.at[c].xi), len(xi.at[a].xi))
        )
        assert check_formula_morphism(res[(a, c)], xi.at[a], xi.at[c]) is None
        with pytest.raises(CommutativityFailure) as info:
            Formula(P, xi.at, res)
        assert info.value.pair == (a, c)
        witnesses = [
            f"via {b!r}: difference "
            f"{compose(res[(b, c)], res[(a, b)]).matrix.tolist()}"
            for b in P.up_set(a) & P.down_set(c) - {a, c}
        ]
        assert any(w in str(info.value) for w in witnesses), str(info.value)

    @pytest.mark.parametrize("side, a, c", _non_cover_pairs())
    def test_every_non_cover_restriction_is_checked(self, side, a, c):
        g, _, _ = figure_one_gluing(FIGURE_ONE_PAIRS[0])
        xi = build_theorem_formulas(g)[side]
        P = xi.target
        res = dict(xi.res)
        res[(a, c)] = CMorphism(
            xi.at[a].xi, xi.at[c].xi, Mat.zero(len(xi.at[c].xi), len(xi.at[a].xi))
        )
        with pytest.raises(CommutativityFailure) as info:
            Formula(P, xi.at, res)
        # the failing cover triangle has (a, c) as its composite, or as its
        # second leg below some z covered by a
        z, top = info.value.pair
        assert top == c and z in P.down_set(a)

    def test_sign_flipped_non_cover_restrictions_are_proved_by_the_covers(self):
        # check_formula_morphism runs only on Hasse edges; every other
        # restriction is proved by the cover triangles, so a corrupted one is
        # caught there, even one that is no formula morphism by itself
        g, _, _ = figure_one_gluing(FIGURE_ONE_PAIRS[0])
        formulas = build_theorem_formulas(g)
        invalid = []
        for side, a, c in _non_cover_pairs():
            xi = formulas[side]
            rows = xi.res[(a, c)].matrix.tolist()
            j, i = next(
                (j, i) for j, row in enumerate(rows) for i, e in enumerate(row) if e
            )
            rows[j][i] = -rows[j][i]
            res = dict(xi.res)
            res[(a, c)] = CMorphism(xi.at[a].xi, xi.at[c].xi, rows)
            if check_formula_morphism(res[(a, c)], xi.at[a], xi.at[c]) is not None:
                invalid.append((side, a, c))
            with pytest.raises(CommutativityFailure):
                Formula(xi.target, xi.at, res)
        assert invalid  # some corruptions fail check_formula_morphism outright

    def test_sign_flipped_epsilon_component_names_its_edge(self):
        g, _, _ = figure_one_gluing(FIGURE_ONE_PAIRS[0])
        eps_pm, _ = build_epsilons(g, *build_theorem_formulas(g))
        x = next(x for x in g.X.elements if g.Yx[x])
        comps = {y: phi.matrix.tolist() for y, phi in eps_pm.components.items()}
        comps[x] = [[-c for c in row] for row in comps[x]]
        with pytest.raises(NaturalityFailure) as info:
            EpsilonTransform(eps_pm.source, eps_pm.target, comps)
        assert info.value.edge in hasse(eps_pm.source.target).edges
        assert x in info.value.edge
        difference = _naturality_difference(eps_pm.source, eps_pm.target, comps, info.value.edge)
        assert str(info.value).endswith(f"difference {difference}")

    def test_naturality_witness_does_not_depend_on_the_hash_seed(self):
        # with every witnessed counit component sign-flipped, several edges
        # fail at once; the one named must be the first in element order,
        # not the first in the Hasse edges' hash order
        edges = set()
        for hash_seed in (0, 1):
            result = run_python(["-c", _FLIPPED_COUNIT], hash_seed)
            assert result.returncode == 0, result.stderr
            edges.add(result.stdout)
        (out,) = edges
        assert len(out.splitlines()) == 2, out


class TestRunParameters:
    @pytest.mark.parametrize("max_dim", [0, -1])
    def test_max_dim_below_one_is_rejected_before_any_work(self, monkeypatch, max_dim):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the parameters were checked")

        monkeypatch.setattr(harness, "build_theorem_formulas", no_work)
        monkeypatch.setattr(harness, "random_diagram", no_work)
        p = poset_from_generators(["a", "b"], [("a", "b")])
        runs = [
            lambda: verify_two_chain(trials=1, max_dim=max_dim),
            lambda: verify_equivalence(single_edge_gluing(), trials=1, max_dim=max_dim),
            lambda: verify_x1z(p, p, trials=1, max_dim=max_dim),
            lambda: verify_bgp_path(p, p, p, trials=1, max_dim=max_dim),
        ]
        for run in runs:
            with pytest.raises(ParseError, match="max_dim"):
                run()

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"trials": 0}, "trials"),
            ({"trials": -5}, "trials"),
            ({"seed": True}, "seed"),
            ({"window": (2, -1)}, "window"),
            ({"window": (1,)}, "window"),
            ({"window": ("a", "b")}, "window"),
            ({"window": 2}, "window"),
            ({"trials": 1.5}, "trials"),
            ({"trials": True}, "trials"),
            ({"seed": "x"}, "seed"),
            ({"max_dim": 2.5}, "max_dim"),
            ({"window": (0.5, 1)}, "window"),
            ({"field": "q"}, "field"),
            ({"window": (0, 2**64)}, "window"),
            ({"window": (-(2**63), 2**63)}, "window"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
        ],
    )
    def test_run_bounds_are_checked_before_any_work(self, monkeypatch, bad, match):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the parameters were checked")

        monkeypatch.setattr(harness, "build_theorem_formulas", no_work)
        monkeypatch.setattr(harness, "random_diagram", no_work)
        monkeypatch.setattr(harness, "ordinal_witness", no_work)
        p = poset_from_generators(["a", "b"], [("a", "b")])
        run = {"trials": 1, "max_dim": 2, **bad}
        runs = [
            lambda: verify_two_chain(**run),
            lambda: verify_equivalence(single_edge_gluing(), **run),
            lambda: verify_x1z(p, p, **run),
            lambda: verify_bgp_path(p, p, p, **run),
        ]
        for call in runs:
            with pytest.raises(ParseError, match=match):
                call()

    def test_seed_range_ends_run_and_stay_distinct(self):
        # The RNG reads seeds modulo 2**64, so the bound keeps 2**64 from
        # repeating the trials of seed 0 under another recorded seed.
        last = verify_two_chain(trials=1, max_dim=2, seed=2**64 - 1)
        first = verify_two_chain(trials=1, max_dim=2, seed=0)
        assert last.ok and first.ok
        assert last.config["seed"] == 2**64 - 1
        assert last.trials[0].seed != first.trials[0].seed

    def test_widest_window_runs(self):
        for window in [(0, 2**64 - 1), (-(2**63), 2**63 - 1)]:
            assert verify_two_chain(trials=1, max_dim=2, window=window).ok


class TestOneBuildPerOrder:
    """Each glued order is built, and its closure checked, once per gluing."""

    @pytest.fixture
    def closures(self, monkeypatch):
        # _build predicts and checks a glued order, then wraps it once
        calls = []
        real = gluing.GluedOrder
        monkeypatch.setattr(
            gluing,
            "GluedOrder",
            lambda **fields: calls.append(fields) or real(**fields),
        )
        return calls

    def test_verify_x1z(self, closures):
        X = poset_from_generators(["a", "b"], [("a", "b")])
        Z = poset_from_generators(["u", "v"], [])
        assert verify_x1z(X, Z, **SMALL).ok
        assert len(closures) == 2

    @pytest.mark.parametrize(
        "argv, builds",
        [
            (["demo", "figure1"], 6),
            (["verify", "theorem", "--gluing", "{gluing}", "--dot", "{dot}"], 2),
            (["demo", "bgp-star"], 2),
        ],
        ids=["demo-figure1", "verify-theorem-dot", "demo-bgp-star"],
    )
    def test_cli(self, closures, tmp_path, argv, builds):
        path = tmp_path / "gluing.json"
        path.write_text(json.dumps(gluing_to_json(single_edge_gluing())))
        argv = [a.format(gluing=path, dot=tmp_path / "dot") for a in argv]
        run = ["--trials", "1", "--max-dim", "2", "--window", "-1", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + run) == 0
        assert len(closures) == builds


class TestSizeCap:
    def test_order_pairs_above_the_cap_raise_before_any_formula(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a formula was built")

        monkeypatch.setattr(harness, "build_theorem_formulas", no_work)
        g = chain_of_chains(3, 2)
        pairs = len(gluing.build_plus(g).poset.leq) + len(gluing.build_minus(g).poset.leq)
        monkeypatch.setattr(harness, "_MAX_ORDER_PAIRS", pairs - 1)
        with pytest.raises(SizeLimit, match=f"have {pairs} order pairs together"):
            verify_equivalence(g, trials=1)
        monkeypatch.setattr(harness, "_MAX_ORDER_PAIRS", pairs)
        with pytest.raises(AssertionError, match="a formula was built"):
            verify_equivalence(g, trials=1)


class TestCompose:
    @pytest.mark.parametrize("case", [FIGURE_ONE_PAIRS[0], (10, 4)], ids=["X1-X2", "chains-10-4"])
    def test_each_value_substituted_once_and_each_check_run_once_per_key(
        self, case, monkeypatch
    ):
        # every value is substituted once; check_formula runs once per
        # distinct _value_key of the values, and the restriction test once
        # per distinct _restriction_key of the Hasse edges
        g = figure_one_gluing(case)[0] if case in FIGURE_ONE_PAIRS else chain_of_chains(*case)
        xi_plus, xi_minus = build_theorem_formulas(g)
        calls = {"_substituted_value": 0, "check_formula": 0, "_restriction_problem": 0}
        for name in calls:
            real = getattr(formula_cat, name)

            def spy(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(formula_cat, name, spy)
        composite = compose_formulas(xi_plus, xi_minus)
        monkeypatch.undo()
        edges = hasse(xi_plus.target).edges
        at, res = composite.at, composite.res
        assert calls == {
            "_substituted_value": len(xi_plus.target),
            "check_formula": len({formula_cat._value_key(f) for f in at.values()}),
            "_restriction_problem": len({
                formula_cat._restriction_key(res[(y, y2)], at[y], at[y2]) for y, y2 in edges
            }),
        }
        assert len(composite.res) == len(xi_plus.target.leq)
        if case == (10, 4):
            # few distinct inputs: 85 Hasse edges, 50 values
            assert (len(edges), len(at)) == (85, 50)
            assert calls["check_formula"] < 10 and calls["_restriction_problem"] < 30

    @pytest.mark.parametrize("case", [FIGURE_ONE_PAIRS[0], (10, 4)], ids=["X1-X2", "chains-10-4"])
    def test_corrupting_any_hasse_edge_still_raises(self, case):
        # each Hasse edge in turn gets a restriction, one entry changed, that
        # the unkeyed check rejects; the walk names that edge with the
        # unkeyed check's message.  A 1x1 restriction between one-entry words
        # has no such change: its scalar commutes with both [[1]] D's.
        g = figure_one_gluing(case)[0] if case in FIGURE_ONE_PAIRS else chain_of_chains(*case)
        composite = compose_formulas(*build_theorem_formulas(g))
        at, edges, tested = composite.at, hasse(composite.target).edges, 0
        for y, y2 in sorted(edges):
            phi = composite.res[(y, y2)]
            for j, i in ((j, i) for j in range(phi.matrix.nrows) for i in range(phi.matrix.ncols)):
                rows = phi.matrix.tolist()
                rows[j][i] = 2 * rows[j][i] + 1
                bad = CMorphism(phi.source, phi.target, rows)
                problem = check_formula_morphism(bad, at[y], at[y2])
                if problem is not None:
                    break
            else:
                assert (phi.matrix.nrows, phi.matrix.ncols) == (1, 1), (y, y2)
                continue
            with pytest.raises(DiagramAxiomFailure) as info:
                Formula(composite.target, at, {**composite.res, (y, y2): bad})
            assert str(info.value) == f"restriction for {y!r} <= {y2!r} is invalid: {problem}"
            tested += 1
        assert tested == sum(composite.res[e].matrix.nrows * composite.res[e].matrix.ncols > 1
                             for e in edges) > 0

    def test_invalid_composite_is_an_internal_inconsistency(self, monkeypatch):
        # negate the substituted restrictions but not the values' D's, so
        # that every value passes substitute's check and compose_formulas'
        # Hasse-edge check rejects the composite
        real = formula_cat._substituted_matrix

        def negated(psi, inner):
            m = real(psi, inner)
            return m.neg() if psi.target != psi.source.shifted(1) else m

        plus, minus = harness.TWO_CHAIN_PLUS, harness.TWO_CHAIN_MINUS
        monkeypatch.setattr(formula_cat, "_substituted_matrix", negated)
        with pytest.raises(InternalInconsistency, match="substitution produced") as info:
            compose_formulas(plus, minus)
        assert isinstance(info.value.__cause__, DiagramAxiomFailure)

    @pytest.mark.parametrize("index", range(len(FIGURE_ONE_PAIRS) + 10))
    @pytest.mark.parametrize("plus_outer", (True, False))
    def test_evaluating_a_composite_is_composing_evaluations(self, index, plus_outer):
        xi_plus, xi_minus = _law_formulas(index)
        outer, inner = (xi_plus, xi_minus) if plus_outer else (xi_minus, xi_plus)
        composite = compose_formulas(outer, inner)
        for seed in (0, 1):
            K = random_diagram(inner.base, seed, 2, (-1, 1))
            assert eval_formula(composite, K) == eval_formula(outer, eval_formula(inner, K))


@functools.lru_cache(maxsize=None)
def _law_formulas(index: int):
    """The theorem formulas of the Figure-1 gluings, then random_gluing 0, 1, ..."""
    if index < len(FIGURE_ONE_PAIRS):
        g = figure_one_gluing(FIGURE_ONE_PAIRS[index])[0]
    else:
        g = random_gluing(index - len(FIGURE_ONE_PAIRS))
    return build_theorem_formulas(g)


#: Sign-flip every witnessed counit component of the X1/X2 gluing, as
#: matrices and as evaluated chain maps, and print the edge named by the
#: NaturalityFailure of EpsilonTransform and of DiagramMap.
_FLIPPED_COUNIT = """
from posetglue.abelian_eval import ChainMap, DiagramMap, random_diagram
from posetglue.errors import NaturalityFailure
from posetglue.harness import (
    FIGURE_ONE_PAIRS, EpsilonTransform, build_epsilons, build_theorem_formulas,
    figure_one_gluing,
)

g = figure_one_gluing(FIGURE_ONE_PAIRS[0])[0]
eps_pm, _ = build_epsilons(g, *build_theorem_formulas(g))
witnessed = [x for x in g.X.elements if g.Yx[x]]
comps = {y: phi.matrix.tolist() for y, phi in eps_pm.components.items()}
counit = eps_pm.evaluate(random_diagram(eps_pm.source.base, 0))
maps = dict(counit.components)
for x in witnessed:
    comps[x] = [[-c for c in row] for row in comps[x]]
    c = maps[x]
    maps[x] = ChainMap(c.source, c.target, {t: m.neg() for t, m in c.f.items()})
try:
    EpsilonTransform(eps_pm.source, eps_pm.target, comps)
except NaturalityFailure as exc:
    print(exc.edge)
try:
    DiagramMap(counit.source, counit.target, maps)
except NaturalityFailure as exc:
    print(exc.edge)
"""


class TestEpsilons:
    def test_two_chain_substitutions_reproduce_constants(self):
        fc = formula_cat
        assert substitute(fc.XI12, harness.TWO_CHAIN_MINUS).D.matrix == fc.XI121.D.matrix
        assert substitute(fc.XI12, harness.TWO_CHAIN_PLUS).D.matrix == fc.XI212.D.matrix

    def test_epsilon_shapes_cover_all_elements(self):
        g = random_gluing(2)
        xi_plus, xi_minus = build_theorem_formulas(g)
        eps_pm, eps_mp = build_epsilons(g, xi_plus, xi_minus)
        plus = build_plus(g).poset
        for eps in (eps_pm, eps_mp):
            assert set(eps.components) == set(plus.elements)

    def test_component_at_a_stray_element_is_rejected(self):
        comps = {"1": [[1]], "2": [[1]], "3": [[1]]}
        with pytest.raises(ParseError, match="component given at '3', which is not"):
            EpsilonTransform(formula_cat.NU, formula_cat.NU, comps)
        with pytest.raises(ParseError, match="no component at element '2'"):
            EpsilonTransform(formula_cat.NU, formula_cat.NU, {"1": [[1]]})

    def test_formulas_over_different_bases_are_rejected(self):
        # the same target, TWO_CHAIN, but values over a one-point order
        point = point_poset("p")
        word = CObject((("p", 0),), point)
        value = FormulaToPoint(word, [[1]])
        res = {("1", "2"): CMorphism(word, word, [[1]])}
        F = Formula(TWO_CHAIN, {"1": value, "2": value}, res)
        with pytest.raises(BaseMismatch, match="different bases"):
            EpsilonTransform(formula_cat.NU, F, {"1": [[1]], "2": [[1]]})

    def test_formulas_of_different_shapes_are_rejected(self):
        with pytest.raises(ParseError, match="different shapes"):
            EpsilonTransform(formula_cat.NU, translation_formula(point_poset("1"), 1), {"1": [[1]]})

    def test_a_broken_retract_is_caught(self):
        g, _, _ = figure_one_gluing(FIGURE_ONE_PAIRS[0])
        xi_plus, xi_minus = build_theorem_formulas(g)
        comp_pm = compose_formulas(xi_plus, xi_minus)
        nu_minus = translation_formula(xi_minus.base, 1)
        x = next(x for x in g.X.elements if g.Yx[x])
        k = len(g.Yx[x])
        middle = [0] * k + [1] + [0] * k
        counit = [0] * k + [1] + [1] * k
        harness._certify_retracts([(comp_pm.at[x], nu_minus.at[x], middle, counit)])
        counit[k] = -1
        with pytest.raises(InternalInconsistency, match="retract certificate failed"):
            harness._certify_retracts([(comp_pm.at[x], nu_minus.at[x], middle, counit)])

    def test_a_retract_sharing_valid_matrices_with_other_degrees_is_rejected(self):
        # both retracts have one D object and, through the certificate's own
        # sharing, one alpha, beta and h; only the degrees differ, and with
        # them the sign twist of D
        P = point_poset("1")
        D = formula_cat.XI121.D.matrix
        valid = FormulaToPoint(CObject((("1", 1), ("1", 1), ("1", 0)), P), D)
        other = FormulaToPoint(CObject((("1", 1), ("1", 0), ("1", 0)), P), D)
        assert valid.D.matrix is D and other.D.matrix is D
        alpha, beta = [0, 1, 0], [0, 1, -1]

        def small(m):
            return FormulaToPoint(CObject((("1", m),), P), [[1]])

        harness._certify_retracts([(valid, small(1), alpha, beta)])
        with pytest.raises(InternalInconsistency, match="retract certificate failed: alpha"):
            harness._certify_retracts([(valid, small(1), alpha, beta), (other, small(0), alpha, beta)])

    def test_component_that_is_no_formula_morphism_is_named(self):
        g, _, _ = figure_one_gluing(FIGURE_ONE_PAIRS[0])
        eps_pm, _ = build_epsilons(g, *build_theorem_formulas(g))
        comps = {y: phi.matrix for y, phi in eps_pm.components.items()}
        comps["1"] = [[0, 0, 1]]
        with pytest.raises(
            DiagramAxiomFailure, match="component at '1' is invalid: intertwining fails"
        ):
            EpsilonTransform(eps_pm.source, eps_pm.target, comps)

    def test_component_shape_mismatch_is_rejected(self):
        comps = {"1": [[1]], "2": [[1]]}
        with pytest.raises(PosetGlueError):
            EpsilonTransform(harness.TWO_CHAIN_PLUS, harness.TWO_CHAIN_MINUS, comps)

    def test_evaluate_evaluates_each_value_once(self, monkeypatch):
        g, _, _ = figure_one_gluing(FIGURE_ONE_PAIRS[0])
        eps_pm, eps_mp = build_epsilons(g, *build_theorem_formulas(g))
        calls, contexts = [], []
        real, real_init = abelian_eval._Evaluation.point, abelian_eval._Evaluation.__init__
        monkeypatch.setattr(
            abelian_eval._Evaluation, "point", lambda ev, f: calls.append(f) or real(ev, f)
        )
        monkeypatch.setattr(
            abelian_eval._Evaluation,
            "__init__",
            lambda ev, K: contexts.append(K) or real_init(ev, K),
        )
        sides = ((eps_pm, eps_pm.source, eps_pm.target), (eps_mp, eps_mp.target, eps_mp.source))
        for eps, composite, nu in sides:
            K = random_diagram(eps.source.base, 7, 2, (-1, 1))
            ev = abelian_eval._Evaluation(K)
            keys = {y: evaluation_key(ev, composite.at[y].D) for y in composite.target.elements}
            first = {}
            for y, key in keys.items():
                first.setdefault(key, y)
            assert len(first) < len(keys)  # some values share a key
            calls.clear()
            contexts.clear()
            m = eps.evaluate(K)
            # each composite value once per distinct key of its D, the first
            # with that key; the translation side is K shifted and evaluates
            # no value
            assert nu.shift == 1 and composite.shift is None
            assert [id(f) for f in calls] == [id(composite.at[y]) for y in first.values()]
            # one context for both formulas and every component
            assert contexts == [K]
            # a stalk at every y: the value of the first y with its key, which
            # is the value of y
            values = m.target if composite is eps.target else m.source
            assert values.K.keys() == keys.keys()
            for y, key in keys.items():
                assert values.K[y] is values.K[first[key]]
                assert values.K[y] == real(abelian_eval._Evaluation(K), composite.at[y])

    def test_building_one_structure_makes_a_pinned_number_of_morphisms(self, monkeypatch):
        # Building the 50-element structure validates only the morphisms
        # made from outside input (epsilon components, retract maps,
        # identity diagonals).  The trusted ones are the canonical values
        # and restrictions that the formulas keep: the 0/1 matrices of the
        # canonical and translation formulas and the substituted ones.  No
        # compose runs: substitution, the checks and the triangle and
        # naturality walks multiply plain matrices.  The composites and
        # translations make a restriction when it is read, and the build
        # reads only the 85 Hasse edges of each (the naturality squares)
        # and the 50 diagonals of each composite (the identity check): so
        # 2 x (445 + 50) restrictions of the composites and 2 x 495 of the
        # translations became 2 x 135 and 2 x 85 reads, 3,170 -> 1,630.
        made, trusted, composed = [], [], []
        real_init, real_compose = CMorphism.__init__, formula_cat.compose

        def counted_compose(g, f):
            composed.append(f)
            return real_compose(g, f)

        monkeypatch.setattr(
            CMorphism, "__init__", lambda m, *args: made.append(m) or real_init(m, *args)
        )
        wrap_trusted(monkeypatch, lambda *args: trusted.append(args))
        monkeypatch.setattr(formula_cat, "compose", counted_compose)
        g = chain_of_chains(10, 4)
        build_epsilons(g, *build_theorem_formulas(g))
        assert (len(made), len(trusted), len(composed)) == (260, 1630, 0)

    def test_naturality_failure_is_reported_with_edge(self):
        # sign-flipped identity components break the connecting square
        bad = {"1": [[1]], "2": [[-1]]}
        with pytest.raises(NaturalityFailure) as info:
            EpsilonTransform(formula_cat.NU, formula_cat.NU, bad)
        assert info.value.edge == ("1", "2")
        difference = _naturality_difference(formula_cat.NU, formula_cat.NU, bad, info.value.edge)
        assert difference == [[2]]
        assert str(info.value).endswith(f"difference {difference}")

    @pytest.mark.parametrize("side", ["unit", "counit"])
    def test_a_negated_component_fails_at_its_first_square(self, side):
        # The naturality squares of the unit and the counit on
        # chain_of_chains(10, 4), and of their evaluations, repeat their four
        # objects, and each walk compares each distinct square once.  A
        # component negated at one element, so that no other element shares
        # it, is still named at the first Hasse edge in element order whose
        # square fails, with the difference of a plain walk over every edge.
        g = chain_of_chains(10, 4)
        eps_pm, eps_mp = build_epsilons(g, *build_theorem_formulas(g))
        eps = eps_mp if side == "unit" else eps_pm
        evaluated = eps.evaluate(random_diagram(eps.source.base, 0))
        source, target, comps = evaluated.source, evaluated.target, evaluated.components
        edges = covers(source.base)
        # the squares as the walk reads them, an omitted restriction as None
        squares = {
            tuple(map(id, (target.r.get((a, b)), comps[a], comps[b], source.r.get((a, b)))))
            for a, b in edges
        }
        assert len(squares) < len(edges)
        matrices = {y: phi.matrix for y, phi in eps.components.items()}
        tested = {"formula": 0, "evaluated": 0}
        for y in source.base.elements:
            negated = {**matrices, y: matrices[y].neg()}
            differences = (
                (edge, _naturality_difference(eps.source, eps.target, negated, edge))
                for edge in edges
            )
            edge, difference = next(
                ((e, d) for e, d in differences if any(map(any, d))), (None, None)
            )
            if edge is None:
                continue
            with pytest.raises(NaturalityFailure) as info:
                EpsilonTransform(eps.source, eps.target, negated)
            assert str(info.value) == str(NaturalityFailure(edge, f"difference {difference}"))
            tested["formula"] += 1
            c = comps[y]
            components = {
                **comps, y: ChainMap(c.source, c.target, {t: m.neg() for t, m in c.f.items()})
            }
            failing = (e for e in edges if not _square_commutes(source, target, components, *e))
            edge = next(failing, None)
            if edge is not None:
                with pytest.raises(NaturalityFailure) as info:
                    DiagramMap(source, target, components)
                assert str(info.value) == str(NaturalityFailure(edge))
                tested["evaluated"] += 1
        # every negated formula component breaks a square; an evaluated one
        # does where it is nonzero on a square that does not vanish
        assert tested == {"formula": 50, "evaluated": 6 if side == "unit" else 12}


def _square_commutes(source, target, components, a, b) -> bool:
    """Whether the naturality square of the diagram map components at the
    edge a < b commutes, compared degree by degree over the source stalk at
    a and the target stalk at b with plain products."""
    degrees = set(source.K[a].dims) | set(target.K[b].dims)
    return all(
        restriction(target, a, b).at(t).mul(components[a].at(t))
        == components[b].at(t).mul(restriction(source, a, b).at(t))
        for t in degrees
    )


class TestVerifyTwoChain:
    def test_passes_and_is_deterministic(self):
        a = verify_two_chain(trials=4, seed=9, max_dim=2, window=(-1, 1))
        b = verify_two_chain(trials=4, seed=9, max_dim=2, window=(-1, 1))
        assert a.ok and b.ok
        assert a.to_json() == b.to_json()
        json.dumps(a.to_json())  # serializable

    def test_field_switch_keeps_tables(self):
        a = verify_two_chain(trials=4, seed=1, field=RATIONALS, max_dim=2, window=(-1, 1))
        b = verify_two_chain(trials=4, seed=1, field=Field(5), max_dim=2, window=(-1, 1))
        assert a.to_json()["trials"] == b.to_json()["trials"]
        assert a.to_json()["config"] != b.to_json()["config"]

    def test_each_trial_evaluates_eleven_formulas(self, monkeypatch):
        # four epsilons with two ends each and T1, T2, T3, each evaluated
        # afresh: NU at K is the counit's target and the unit's source, and
        # K is shifted for each
        calls, shifts = [], []
        real, real_shift = abelian_eval._Evaluation.formula, abelian_eval.shift_diagram
        monkeypatch.setattr(
            abelian_eval._Evaluation, "formula", lambda ev, F: calls.append(F) or real(ev, F)
        )
        monkeypatch.setattr(
            abelian_eval, "shift_diagram", lambda K, n: shifts.append(n) or real_shift(K, n)
        )
        assert verify_two_chain(trials=1).ok
        assert len(calls) == 11
        assert [F.shift for F in calls if F.shift is not None] == [1, 1]
        assert shifts == [1, 1]

    def test_a_broken_composition_law_is_an_internal_inconsistency(self, monkeypatch):
        # T3, the plus side evaluated three times, must be the source of the
        # evaluated square transformation at T1
        real = harness.eval_formula

        def iterated(F, K):
            T3 = real(F, K)
            wrong = abelian_eval.shift_diagram(T3, 2)
            assert wrong != T3
            return wrong

        monkeypatch.setattr(harness, "eval_formula", iterated)
        with pytest.raises(
            InternalInconsistency, match="composite formula disagrees with iterated evaluation"
        ):
            verify_two_chain(trials=1)

    def test_each_trial_makes_one_evaluation_context_per_call(self, monkeypatch):
        # at the input K: three epsilons and T1; at T1: the square and T2;
        # at T2: T3
        diagrams = []
        real = abelian_eval._Evaluation.__init__
        monkeypatch.setattr(
            abelian_eval._Evaluation, "__init__", lambda ev, K: diagrams.append(K) or real(ev, K)
        )
        assert verify_two_chain(trials=1).ok
        K, T1, T2 = diagrams[0], diagrams[4], diagrams[6]
        assert len({id(K), id(T1), id(T2)}) == 3
        assert [id(D) for D in diagrams] == [id(K)] * 4 + [id(T1)] * 2 + [id(T2)]

    def test_two_chain_formulas_are_pinned(self):
        def pins(F):
            values = {
                y: (f.xi.entries, f.D.matrix.tolist()) for y, f in F.at.items()
            }
            return values, F.res[("1", "2")].matrix.tolist()

        assert pins(harness.TWO_CHAIN_PLUS) == (
            {"1": ((("2", 0),), [[1]]), "2": ((("1", 1), ("2", 0)), [[1, 0], [1, 1]])},
            [[0], [1]],
        )
        assert pins(harness.TWO_CHAIN_MINUS) == (
            {"1": ((("1", 1), ("2", 0)), [[1, 0], [1, 1]]), "2": ((("1", 1),), [[1]])},
            [[1, 0]],
        )

    def test_counit_and_unit_are_pinned(self):
        counit, unit, _, _ = harness._two_chain_epsilons(*harness._two_chain_formulas())
        matrices = [
            {y: phi.matrix.tolist() for y, phi in eps.components.items()}
            for eps in (counit, unit)
        ]
        assert matrices == [
            {"1": [[1]], "2": [[0, 1, 1]]},
            {"1": [[1], [-1], [0]], "2": [[1]]},
        ]

    def test_counit_and_unit_come_from_build_epsilons(self, monkeypatch):
        calls = []
        real = harness.build_epsilons
        monkeypatch.setattr(
            harness, "build_epsilons", lambda *a: calls.append(a) or real(*a)
        )
        assert verify_two_chain(trials=1, max_dim=2, window=(-1, 1)).ok
        assert len(calls) == 1

    def test_structural_check_names(self):
        cert = verify_two_chain(trials=1, max_dim=2, window=(-1, 1))
        names = [name for name, _ in cert.structural]
        assert "substitution-identities" in names
        assert "retract-homotopy-212" in names
        assert "composition-law" in names


class TestVerifyEquivalence:
    def test_random_gluings_pass(self):
        for seed in (0, 5, 17):
            g = random_gluing(seed)
            cert = verify_equivalence(g, **SMALL)
            assert cert.ok, (seed, cert.to_json())

    def test_empty_witness_gluing_passes(self):
        X = poset_from_generators(["x1", "x2"], [("x1", "x2")])
        Y = poset_from_generators(["y"], [])
        g = validate_gluing(X, Y, {"x1": (), "x2": ()})
        assert verify_equivalence(g, **SMALL).ok

    def test_one_empty_side_passes(self):
        empty = poset_from_generators([], [])
        point = poset_from_generators(["p"], [])
        for X, Y, Yx in ((empty, point, {}), (point, empty, {"p": ()})):
            assert verify_equivalence(validate_gluing(X, Y, Yx), **SMALL).ok

    def test_a_certificate_leaves_no_cyclic_garbage(self):
        # Evaluation contexts live for their call: one kept on its diagram
        # makes a reference cycle for every evaluated diagram (2,509 objects
        # for the cyclic collector in this certificate).
        g = figure_one_gluing(FIGURE_ONE_PAIRS[0])[0]
        gc.collect()
        gc.disable()
        try:
            assert verify_equivalence(g, trials=5).ok
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_certificate_fields(self):
        g = single_edge_gluing()
        doc = verify_equivalence(g, **SMALL).to_json()
        assert set(doc) == {"description", "config", "structural", "trials", "ok"}
        for trial in doc["trials"]:
            assert set(trial) == {"seed", "verdict", "tables"}


def _epsilons(g):
    return build_epsilons(g, *build_theorem_formulas(g))


def _representable(base, u) -> PosetDiagram:
    """The diagram P_u: the field in degree 0 at each x >= u, zero
    elsewhere, with identity restrictions."""
    up = base.up_set(u)
    stalks = {x: VectComplex({0: int(x in up)}, {}) for x in base.elements}
    return PosetDiagram(
        base,
        stalks,
        {(x, x2): ChainMap(stalks[x], stalks[x2], {0: [[1]]} if x in up else {}) for x, x2 in base.leq},
    )


def _both_paths(epsilons, field, tseeds):
    """The evaluated and the assembled record of each trial seed, as JSON
    text, at verify_equivalence's default draw (max_dim 3, window (-2, 2))."""
    eps_pm, eps_mp = epsilons
    images = harness._Images(eps_pm, field), harness._Images(eps_mp, field)
    return [
        (
            json.dumps(harness._equivalence_trial(tseed, *epsilons, field, 3, (-2, 2)).to_json()),
            json.dumps(harness._assembled_trial(tseed, *images, 3, (-2, 2)).to_json()),
        )
        for tseed in tseeds
    ]


ORACLE_GLUINGS = {
    "figure-one": lambda: [figure_one_gluing(pair)[0] for pair in FIGURE_ONE_PAIRS],
    "random-gluings": lambda: [random_gluing(seed) for seed in range(40)],
    "chain-of-chains": lambda: [chain_of_chains(10, 4)],
}


class TestAssembledTrials:
    """Trials assembled from the images of the representables against the
    evaluated ones, the oracle: the two records agree byte for byte."""

    @pytest.mark.parametrize("field", [RATIONALS, Field(5)], ids=str)
    @pytest.mark.parametrize("case", sorted(ORACLE_GLUINGS))
    def test_assembled_records_equal_evaluated_ones(self, case, field):
        for g in ORACLE_GLUINGS[case]():
            for evaluated, assembled in _both_paths(_epsilons(g), field, range(10)):
                assert assembled == evaluated

    @pytest.mark.parametrize("field, verdict", [(RATIONALS, True), (Field(5), False)], ids=str)
    def test_components_times_five_are_quasi_isomorphisms_over_q_only(self, field, verdict):
        # 5 times a natural transformation is natural; over F5 it is zero,
        # so no component whose ends have cohomology is a quasi-isomorphism
        g = figure_one_gluing(FIGURE_ONE_PAIRS[0])[0]
        epsilons = _epsilons(g)
        scaled = tuple(
            EpsilonTransform(
                eps.source, eps.target, {y: phi.matrix.scale(5) for y, phi in eps.components.items()}
            )
            for eps in epsilons
        )
        records = _both_paths(scaled, field, range(5))
        for (evaluated, assembled), (unscaled, _) in zip(records, _both_paths(epsilons, field, range(5))):
            assert assembled == evaluated
            assert json.loads(evaluated)["verdict"] is verdict
            assert json.loads(evaluated)["tables"] == json.loads(unscaled)["tables"]

    @pytest.mark.parametrize(
        "case, field",
        [("figure-one", RATIONALS), ("figure-one", Field(5)), ("random-gluings", RATIONALS)],
        ids=str,
    )
    def test_the_images_at_every_element_are_its_evaluations(self, case, field):
        # every u, drawn or not: the images at u against the epsilon
        # evaluated at the diagram P_u, the one piece (u, field in degree 0)
        for g in ORACLE_GLUINGS[case]():
            for eps in _epsilons(g):
                images, base = harness._Images(eps, field), eps.source.base
                for u in base.elements:
                    P = abelian_eval._PieceDiagram(base, [(u, VectComplex({0: 1}, {}))]).diagram()
                    at_u = eps.evaluate(P)
                    source, target = cohomology_table(at_u.source, field), cohomology_table(at_u.target, field)
                    nonzero = {
                        y: (source[y], target[y]) for y in eps.source.target.elements if source[y] or target[y]
                    }
                    assert images.at(u) == (nonzero, is_quasi_iso_diagram(at_u, field))

    @pytest.fixture
    def images(self, monkeypatch):
        """The key of every image of a representable built, with the base it
        lives over: each image is built as its source and target values at
        P_u, then its component, through the selection kernel."""
        values, built = [], []
        real_complex, real_matrices = harness._selected_complex, harness._selected_matrices

        def value(f, selection):
            values.append((id(f.D.matrix), formula_cat._degrees(f.xi), selection))
            return real_complex(f, selection)

        def component(phi, *selections):
            built.append((id(phi.source.base), id(phi.matrix), *values[-2:]))
            return real_matrices(phi, *selections)

        monkeypatch.setattr(harness, "_selected_complex", value)
        monkeypatch.setattr(harness, "_selected_matrices", component)
        return built

    def test_a_one_trial_certificate_builds_no_image(self, images):
        g = figure_one_gluing(FIGURE_ONE_PAIRS[0])[0]
        assert verify_equivalence(g, trials=1).ok
        assert images == []
        assert verify_equivalence(g, trials=2).ok
        assert images  # the spy sees the images of a longer run

    def test_each_image_is_built_once_per_call(self, images):
        g = figure_one_gluing(FIGURE_ONE_PAIRS[0])[0]
        for _ in range(2):
            images.clear()
            assert verify_equivalence(g, trials=20).ok
            assert images and len(set(images)) == len(images)

    def test_each_drawn_element_is_convolved_once(self, monkeypatch):
        # a trial adds up H(S) of the drawn pieces with H(S) != 0 at each u
        # and convolves each image at P_u with the sum once, at each y where
        # the image at P_u (here evaluated at a diagram P_u) is nonzero, and
        # at each end
        calls = []
        real = harness._convolved
        monkeypatch.setattr(harness, "_convolved", lambda a, b: calls.append(1) or real(a, b))
        seeds = [harness.derive_seed(0, "trial", i) for i in range(20)]
        for g in [figure_one_gluing(pair)[0] for pair in FIGURE_ONE_PAIRS] + [random_gluing(7)]:
            calls.clear()
            assert verify_equivalence(g, trials=20).ok
            eps_pm, eps_mp = _epsilons(g)
            expected = 0
            for eps, side in ((eps_mp, "plus"), (eps_pm, "minus")):
                base, nonzero = eps.source.base, {}
                for u in base.elements:
                    P = _representable(base, u)
                    images = [cohomology_table(eval_formula(F, P)) for F in (eps.source, eps.target)]
                    nonzero[u] = sum(1 for y in eps.source.target.elements if any(t[y] for t in images))
                # trial 0 is assembled once, to be compared with its evaluation
                for tseed in seeds:
                    recipes = abelian_eval._diagram_draw(base, harness.derive_seed(tseed, side), 3, (-2, 2))
                    drawn = {u for u, elem, _ in recipes if abelian_eval._recipe_cohomology(elem)}
                    expected += sum(2 * nonzero[u] for u in drawn)
            assert len(calls) == expected > 0

    def test_each_image_key_is_imaged_once_per_call(self, monkeypatch):
        # An image at P_u at y reads the matrix objects of both D's and of
        # the component, the degrees of both words and the positions of the
        # entries of each word over u, its selection: one pair of values is
        # built per distinct key of those that a drawn piece with H(S) != 0
        # reaches, and none for a pair of empty selections.  Each image
        # reads its three matrices through the kernel's _selected_matrices,
        # in the order source D, target D, component.
        points, maps, made = [], [], []
        real_point, real_matrices = harness._selected_complex, harness._selected_matrices
        real_init = harness._Images.__init__

        def matrices(phi, *selections):
            degrees = formula_cat._degrees(phi.source), formula_cat._degrees(phi.target)
            maps.append((id(phi.matrix), *degrees, *selections))
            return real_matrices(phi, *selections)

        monkeypatch.setattr(
            harness._Images, "__init__", lambda images, *args: made.append(images) or real_init(images, *args)
        )
        monkeypatch.setattr(
            harness, "_selected_complex", lambda f, selection: points.append(f) or real_point(f, selection)
        )
        monkeypatch.setattr(harness, "_selected_matrices", matrices)
        monkeypatch.setattr(abelian_eval, "_selected_matrices", matrices)
        seeds = [harness.derive_seed(0, "trial", i) for i in range(20)]
        shared = 0
        for g in [figure_one_gluing(pair)[0] for pair in FIGURE_ONE_PAIRS] + [random_gluing(7)]:
            points.clear()
            maps.clear()
            made.clear()
            assert verify_equivalence(g, trials=20).ok
            built = []
            for source_d, target_d, component in zip(maps[::3], maps[1::3], maps[2::3]):
                phi, source_degrees, target_degrees, source_over, target_over = component
                assert source_d[1::2] == (source_degrees, source_over)
                assert target_d[1::2] == (target_degrees, target_over)
                built.append(
                    (phi, source_d[0], target_d[0], source_degrees, target_degrees, source_over, target_over)
                )
            assert len(maps) == 3 * len(built) and len(points) == 2 * len(built)
            drawn, per_element = set(), set()
            counit_images, unit_images = made
            for eps, side in ((unit_images.eps, "plus"), (counit_images.eps, "minus")):
                base = eps.source.base
                for tseed in seeds:
                    recipes = abelian_eval._diagram_draw(base, harness.derive_seed(tseed, side), 3, (-2, 2))
                    for u, elem, _ in recipes:
                        if not abelian_eval._recipe_cohomology(elem):
                            continue
                        for y in eps.source.target.elements:
                            src, tgt = eps.source.at[y], eps.target.at[y]
                            selections = [
                                tuple(i for i, (x, _) in enumerate(f.xi.entries) if base.le(u, x))
                                for f in (src, tgt)
                            ]
                            if any(selections):
                                drawn.add((
                                    id(eps.components[y].matrix), id(src.D.matrix), id(tgt.D.matrix),
                                    formula_cat._degrees(src.xi), formula_cat._degrees(tgt.xi), *selections,
                                ))
                                per_element.add((id(eps), y, *selections))
            assert drawn and sorted(built) == sorted(drawn)
            shared += len(per_element) - len(drawn)
        assert shared > 0  # some key is reached at more than one y

    def test_the_image_key_tells_apart_components_selections_and_degrees(self):
        # Values over the antichain p, q, r, at the elements of an
        # antichain, so that naturality is vacuous.  "a" and "b" share both
        # D's, the degrees and the selections, but the identity at "a" is a
        # quasi-isomorphism at P_p and the zero map at "b" is not; "c" and
        # "d" differ only in the target selection, at P_q and at P_r, and
        # the selected target entries have different degrees; "e" differs
        # from "a" only in its degrees.  The counit is an identity, so the
        # verdict is the unit's: false iff the plus draw has a piece with
        # H(S) != 0, and in a trial that draws those at p alone, false
        # because of "b" alone.
        base = poset_from_generators(["p", "q", "r"], [])
        target = poset_from_generators(["a", "b", "c", "d", "e"], [])
        one, two = Mat(1, 1, [[1]]), Mat.identity(2)

        def value(entries, D):
            return FormulaToPoint(CObject(entries, base), D)

        p0, p1, r0 = value((("p", 0),), one), value((("p", 1),), one), value((("r", 0),), one)
        c, d = value((("q", 0), ("r", 1)), two), value((("r", 0), ("q", 1)), two)
        source = Formula(target, {"a": p0, "b": p0, "c": r0, "d": r0, "e": p1}, {})
        image = Formula(target, {"a": p0, "b": p0, "c": c, "d": d, "e": p1}, {})
        zero = [[0], [0]]
        unit = EpsilonTransform(source, image, {"a": [[1]], "b": [[0]], "c": zero, "d": zero, "e": [[1]]})
        counit = EpsilonTransform(image, image, {y: Mat.identity(len(image.at[y].xi)) for y in "abcde"})
        key = {y: harness._restriction_key(unit.components[y], source.at[y], image.at[y]) for y in "abcde"}
        assert key["a"][1:] == key["b"][1:] and key["a"][0] != key["b"][0]
        assert key["c"] == key["d"]
        assert key["a"][:3] == key["e"][:3] and key["a"] != key["e"]
        seeds = range(20)
        drawn = [
            {
                u
                for u, elem, _ in abelian_eval._diagram_draw(base, harness.derive_seed(tseed, "plus"), 3, (-2, 2))
                if abelian_eval._recipe_cohomology(elem)
            }
            for tseed in seeds
        ]
        assert {"p"} in drawn and {"q"} in drawn and {"r"} in drawn
        for (evaluated, assembled), us in zip(_both_paths((counit, unit), RATIONALS, seeds), drawn):
            assert assembled == evaluated
            assert json.loads(evaluated)["verdict"] is not bool(us)

    @pytest.mark.parametrize(
        "lone, difference",
        [
            ("table", "the table 'extra', only in the assembled record"),
            ("element", "the table 'plus_shift' at '1', only in the evaluated record"),
        ],
    )
    def test_a_table_or_element_on_one_side_only_stops_the_run(self, monkeypatch, lone, difference):
        real_trial = harness._assembled_trial

        def assembled(*args):
            record = real_trial(*args)
            tables = dict(record.tables)
            if lone == "table":
                tables["extra"] = {}
            else:
                tables["plus_shift"] = {y: row for y, row in tables["plus_shift"].items() if y != "1"}
            return harness.TrialRecord(seed=record.seed, verdict=record.verdict, tables=tables)

        monkeypatch.setattr(harness, "_assembled_trial", assembled)
        g = figure_one_gluing(FIGURE_ONE_PAIRS[0])[0]
        tseed = harness.derive_seed(0, "trial", 0)
        with pytest.raises(InternalInconsistency) as info:
            verify_equivalence(g, trials=2)
        assert str(info.value) == (
            f"trial {tseed} assembled from the representables differs from its "
            f"evaluation, at {difference}"
        )

    @pytest.mark.parametrize(
        "corrupt, difference",
        [
            ("point", "the verdict: evaluated True, assembled False"),
            ("cohomology", "the table 'plus_shift' at '1': evaluated {'-1': 1}, assembled {"),
        ],
    )
    def test_a_corrupted_image_stops_the_run_at_trial_zero(self, monkeypatch, corrupt, difference):
        if corrupt == "point":
            # one more dimension in degree 9, far from every differential: no
            # component is a quasi-isomorphism any more
            real = harness._selected_complex
            monkeypatch.setattr(
                harness,
                "_selected_complex",
                lambda f, selection: VectComplex({**real(f, selection).dims, 9: 1}, real(f, selection).d),
            )
        else:
            # every image gets cohomology in degree 9 (no drawn S is ranked)
            real = harness.cohomology
            monkeypatch.setattr(harness, "cohomology", lambda K, field: {**real(K, field), 9: 1})
        assembled = []
        real_trial = harness._assembled_trial
        monkeypatch.setattr(
            harness,
            "_assembled_trial",
            lambda tseed, *args: assembled.append(tseed) or real_trial(tseed, *args),
        )
        g = figure_one_gluing(FIGURE_ONE_PAIRS[0])[0]
        tseed = harness.derive_seed(0, "trial", 0)
        with pytest.raises(InternalInconsistency) as info:
            verify_equivalence(g, trials=5)
        assert str(info.value).startswith(
            f"trial {tseed} assembled from the representables differs from its "
            f"evaluation, at {difference}"
        )
        assert assembled == [tseed]  # no later trial was assembled


class TestVerifyX1Z:
    def test_chain_against_antichain(self):
        X = poset_from_generators(["a", "b"], [("a", "b")])
        Z = poset_from_generators(["u", "v"], [])
        cert = verify_x1z(X, Z, **SMALL)
        assert cert.ok
        names = [name for name, _ in cert.structural]
        assert "plus-order-shape" in names and "minus-order-shape" in names

    def test_empty_x_and_z_pass(self):
        empty = poset_from_generators([], [])
        assert verify_x1z(empty, empty, **SMALL).ok

    def test_twenty_elements_need_no_isomorphism_search(self):
        xs = [f"x{i}" for i in range(10)]
        zs = [f"z{i}" for i in range(10)]
        X = poset_from_generators(xs, [(a, b) for a, b in zip(xs, xs[2:])])
        Z = poset_from_generators(zs, [(zs[0], z) for z in zs[1:]])
        cert = verify_x1z(X, Z, trials=1, max_dim=2, window=(-1, 1))
        checks = dict(cert.structural)
        assert checks["plus-order-shape"] and checks["minus-order-shape"]
        assert cert.ok

    def test_a_wrong_shape_is_caught(self, monkeypatch, capsys):
        ordinal_witness = harness.ordinal_witness

        def swapped(X, Z):
            g, plus, minus = ordinal_witness(X, Z)
            return g, minus, plus

        monkeypatch.setattr(harness, "ordinal_witness", swapped)
        X = poset_from_generators(["a", "b"], [("a", "b")])
        Z = poset_from_generators(["u", "v"], [])
        cert = verify_x1z(X, Z, **SMALL)
        checks = dict(cert.structural)
        assert not checks["plus-order-shape"] and not checks["minus-order-shape"]
        assert not cert.ok
        argv = ["demo", "x1z", "--json", "--trials", "1", "--max-dim", "2",
                "--window", "-1", "1"]
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["structural"][0] == {"name": "plus-order-shape", "pass": False}
        assert doc["ok"] is False


class TestFigureOne:
    def test_orders_are_isomorphic_to_the_named_posets(self):
        for pair in FIGURE_ONE_PAIRS:
            g, expected_plus, expected_minus = figure_one_gluing(pair)
            assert build_plus(g).poset.same_order(expected_plus)
            assert build_minus(g).poset.same_order(expected_minus)

    def test_posets_have_seven_elements(self):
        for name in ("X1", "X2", "X3", "X4"):
            assert len(figure_one_poset(name)) == 7

    def test_unknown_names_are_rejected(self):
        with pytest.raises(ParseError, match="unknown worked poset 'X5'; pick one of X1..X4"):
            figure_one_poset("X5")
        with pytest.raises(ParseError, match=r"unknown worked pair \('X1', 'X4'\)"):
            figure_one_gluing(("X1", "X4"))

    def test_counterexample_data_matches_construction(self):
        X, Y, Yx = counterexample_data()
        assert [len(X), len(Y)] == [1, 3]
        assert Yx == {"1": ("2", "3")}


class TestBgp:
    def path(self):
        return poset_from_generators(
            ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
        )

    def test_worked_example_two_reflections(self):
        tree = poset_from_generators(["a", "b", "c"], [("a", "b"), ("b", "c")])
        goal = poset_from_generators(["a", "b", "c"], [("b", "a"), ("c", "b")])
        report = verify_bgp_path(tree, tree, goal, trials=2, max_dim=2, window=(-1, 1))
        assert report["ok"]
        assert [(s["vertex"], s["kind"]) for s in report["steps"]] == [
            ("a", "source"),
            ("c", "sink"),
        ]

    def test_star_labels_survive_the_gluing_relabelling(self):
        # from_bgp names the new point '**' here, which collides with the
        # tree, so the gluing relabels every element.
        verts = ["*", "**", "c"]
        out = poset_from_generators(verts, [("c", "*"), ("c", "**")])
        into = poset_from_generators(verts, [("*", "c"), ("**", "c")])
        for a, b, kind in ((out, into, "source"), (into, out, "sink")):
            report = verify_bgp_path(out, a, b, trials=1, max_dim=2, window=(-1, 1))
            assert report["ok"]
            assert report["path"] == [{"vertex": "c", "kind": kind}]

    def test_identity_path(self):
        p = self.path()
        report = verify_bgp_path(p, p, p, trials=1, max_dim=2, window=(-1, 1))
        assert report["ok"] and report["path_length"] == 0

    def test_not_a_tree_rejected(self):
        diamond = poset_from_generators(
            ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        )
        with pytest.raises(NotATree):
            verify_bgp_path(diamond, diamond, diamond, trials=1)

    def test_long_cycle_is_not_a_tree(self):
        # nine edges: the tree check comes before the edge cap
        names = ["bot", "p1", "p2", "p3", "q1", "q2", "q3", "q4", "top"]
        edges = [("bot", "p1"), ("p1", "p2"), ("p2", "p3"), ("p3", "top")]
        edges += [("bot", "q1"), ("q1", "q2"), ("q2", "q3"), ("q3", "q4"), ("q4", "top")]
        cycle = poset_from_generators(names, edges)
        assert len(hasse(cycle).edges) == 9
        with pytest.raises(NotATree):
            verify_bgp_path(cycle, cycle, cycle, trials=1)

    def test_orientation_mismatch_rejected(self):
        p = self.path()
        other = poset_from_generators(["a", "b", "x", "y"], [("a", "b"), ("x", "y")])
        with pytest.raises(ParseError):
            verify_bgp_path(p, other, p, trials=1)

    def test_size_limit(self):
        names = [f"v{i}" for i in range(10)]
        big = poset_from_generators(names, list(zip(names, names[1:])))
        with pytest.raises(SizeLimit):
            verify_bgp_path(big, big, big, trials=1)

    def test_report_is_json_serializable(self):
        p = self.path()
        rev = poset_from_generators(
            ["a", "b", "c", "d"], [("b", "a"), ("c", "b"), ("d", "c")]
        )
        report = verify_bgp_path(p, p, rev, trials=1, max_dim=2, window=(-1, 1))
        json.dumps(report)
        assert report["path_length"] == len(report["steps"]) > 0


class TestRandomGluing:
    def test_deterministic_and_bounded(self):
        for seed in range(30):
            g1 = random_gluing(seed)
            g2 = random_gluing(seed)
            assert g1.X.leq == g2.X.leq and g1.Yx == g2.Yx
            assert len(g1.X) + len(g1.Y) <= 8

    def test_multi_witness_sets_appear(self):
        assert any(
            any(len(v) > 1 for v in random_gluing(seed).Yx.values())
            for seed in range(30)
        )


class TestEulerLedger:
    def test_euler_characteristic_is_preserved_elementwise(self):
        g = random_gluing(6)
        xi_plus, _ = build_theorem_formulas(g)
        plus = build_plus(g).poset
        K = random_diagram(plus, 1, max_dim=2, window=(-1, 1))
        T = eval_formula(xi_plus, K)
        for y in T.base.elements:
            expected = sum(
                (-1) ** (m % 2) * K.K[x].euler() for x, m in xi_plus.at[y].xi.entries
            )
            assert T.K[y].euler() == expected


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestCertificatePins:
    """SHA-256 digests of whole reports of the pipelines the perfbench
    digests do not cover.  A deliberate schema change re-records them."""

    X1Z_PAIRS = {
        "chain-antichain": (
            (["a", "b"], [("a", "b")]),
            (["u", "v"], []),
            "4b7d304c906b55d1d38d7c9944045af488f8fc70df0215804c2ffd9c46b05727",
        ),
        "vee-chain": (
            (["a", "b", "c"], [("a", "b"), ("a", "c")]),
            (["u", "v"], [("u", "v")]),
            "72e5701712c98389135bdb3a00149ec6258e2cd8a742a8f4ebad5c836d6d74d5",
        ),
        "colliding-labels": (
            (["*", "a"], [("a", "*")]),
            (["*", "a", "b"], [("*", "b")]),
            "04de30681446e75281ebb177a37679ef19114970a30ba9a0546d8d20f750ab08",
        ),
    }

    @pytest.mark.parametrize(
        "field, pin",
        [
            ("q", "d437fc5881ac84d5db72f1b636796ce5db00de79a43ec58e7f4ee4267d39ece7"),
            ("p:5", "ed4e593a12bef220865ee023111a78d2f42d502d157c6e6048e23e373492a07c"),
        ],
    )
    def test_two_chain(self, field, pin):
        cert = verify_two_chain(trials=10, field=Field.parse(field))
        assert _digest(cert.to_json()) == pin

    @pytest.mark.parametrize("name", sorted(X1Z_PAIRS))
    def test_x1z(self, name):
        x, z, pin = self.X1Z_PAIRS[name]
        X, Z = poset_from_generators(*x), poset_from_generators(*z)
        cert = verify_x1z(X, Z, trials=2, max_dim=2, window=(-1, 1))
        assert _digest(cert.to_json()) == pin

    def test_bgp(self):
        tree = poset_from_generators(["a", "b", "c"], [("a", "b"), ("b", "c")])
        goal = poset_from_generators(["a", "b", "c"], [("b", "a"), ("c", "b")])
        report = verify_bgp_path(tree, tree, goal, trials=2, max_dim=2, window=(-1, 1))
        pin = "aee99367df2fa4441454e00bf1bc5502219a70bc7edd906c2578e5bd9d83e761"
        assert _digest(report) == pin

    def test_demo_figure1(self):
        argv = ["demo", "figure1", "--json", "--trials", "2", "--max-dim", "2",
                "--window", "-1", "1"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        pin = "c2c9495daca16038b3d9c432a666ba843a6505b6444a4c7ad38b3a85f07cbde2"
        assert _digest(json.loads(out.getvalue())) == pin
