"""The matrix calculus: objects, morphisms, named constants, substitution."""

from __future__ import annotations

import itertools
import re
import sys

import pytest

from posetglue.abelian_eval import eval_formula, eval_point, random_diagram
from posetglue.errors import (
    BaseMismatch,
    CommutativityFailure,
    DiagramAxiomFailure,
    InternalInconsistency,
    ParseError,
    ShapeMismatch,
)
import posetglue
from posetglue import formula_cat, harness
from posetglue.formula_cat import (
    TWO_CHAIN,
    CMorphism,
    CObject,
    Formula,
    FormulaToPoint,
    _canonical,
    _substituted_matrix,
    canonical_formula,
    check_formula,
    check_formula_morphism,
    check_homotopy,
    compose,
    compose_formulas,
    i_xi,
    identity_morphism,
    negated_star_shift,
    shift,
    star,
    substitute,
    translation_formula,
)
from posetglue.gluing import build_minus, build_plus
from posetglue.harness import (
    FIGURE_ONE_PAIRS,
    build_epsilons,
    build_theorem_formulas,
    figure_one_gluing,
    figure_one_poset,
    random_gluing,
)
from posetglue.intmat import Mat
from posetglue.poset_core import _pairs, cover_triangles, covers, hasse, poset_from_generators

from posetglue.rng import SplitMix64, derive_seed

from conftest import (
    chain_of_chains,
    glued_orders,
    matmul,
    morphism_check_formula,
    morphism_check_formula_morphism,
    morphism_check_homotopy,
    morphism_substituted_matrix,
    per_entry_star,
    random_cmorphism,
    random_cobject,
    run_python,
    wrap_trusted,
)
from generators import legal_rows

# The one-entry values and the restrictions of the two-chain formulas.  The
# package makes the formulas when they are read, so a test that reads them
# fails by its name if they cannot be built.
def _xi1():
    return harness.TWO_CHAIN_MINUS.at["2"]


def _xi2():
    return harness.TWO_CHAIN_PLUS.at["1"]


def _phi1():
    return harness.TWO_CHAIN_MINUS.res[("1", "2")]


def _phi2():
    return harness.TWO_CHAIN_PLUS.res[("1", "2")]


class TestMat:
    def test_mul_matches_naive(self):
        a = Mat.from_rows([[1, 2], [3, -4], [0, 5]])
        b = Mat.from_rows([[2, 0, 1], [-1, 3, 2]])
        got = a.mul(b).tolist()
        want = [[int(v) for v in row] for row in matmul(a.tolist(), b.tolist())]
        assert got == want

    def test_identity_diag_zero(self):
        assert Mat.identity(2).tolist() == [[1, 0], [0, 1]]
        assert Mat.diag([2, -1]).tolist() == [[2, 0], [0, -1]]
        assert Mat.zero(2, 3).tolist() == [[0, 0, 0], [0, 0, 0]]
        assert Mat.zero(2, 3).is_zero()

    def test_add_neg_transpose(self):
        a = Mat.from_rows([[1, 2], [3, 4]])
        assert a.add(a.neg()).is_zero()
        assert a.transpose().tolist() == [[1, 3], [2, 4]]

    def test_shape_errors(self):
        a = Mat.from_rows([[1, 2]])
        with pytest.raises(ShapeMismatch):
            a.mul(a)
        with pytest.raises(ShapeMismatch):
            a.add(Mat.identity(2))


class TestObjectsAndMorphisms:
    # each rule holds for list rows and for a Mat alike
    def test_support_rule_zeroes_or_rejects(self):
        # no relation from "2" down to "1": a nonzero entry in that direction
        # is normalized to zero.
        src = CObject((("2", 0),), TWO_CHAIN)
        tgt = CObject((("1", 0),), TWO_CHAIN)
        for matrix in ([[1]], Mat.identity(1)):
            assert CMorphism(src, tgt, matrix).matrix.is_zero()

    def test_degree_jumps_of_two_are_quotiented(self):
        src = CObject((("1", 0),), TWO_CHAIN)
        tgt = CObject((("1", 2),), TWO_CHAIN)
        for matrix in ([[1]], Mat.identity(1)):
            assert CMorphism(src, tgt, matrix).matrix.is_zero()

    def test_degree_lowering_is_zeroed(self):
        src = CObject((("1", 1),), TWO_CHAIN)
        tgt = CObject((("1", 0),), TWO_CHAIN)
        for matrix in ([[1]], Mat.identity(1)):
            assert CMorphism(src, tgt, matrix).matrix.is_zero()

    def test_wrong_shapes_are_rejected(self):
        src = CObject((("1", 0), ("2", 0)), TWO_CHAIN)
        tgt = CObject((("2", 0),), TWO_CHAIN)
        for matrix in (Mat.zero(2, 2), Mat.zero(1, 1), Mat.zero(2, 1)):
            with pytest.raises(ShapeMismatch):
                CMorphism(src, tgt, matrix)
        for target, rows in ((src, [[1, 0], [1]]), (tgt, [[1]]), (tgt, [[1, 0, 0]]), (tgt, [])):
            with pytest.raises(ShapeMismatch):
                CMorphism(src, target, rows)

    def test_composition_matches_matrix_product(self):
        phi = CMorphism(formula_cat.XI12.xi, _xi1().xi, [[1, 0]])
        psi = CMorphism(_xi1().xi, _xi1().xi, [[1]])
        assert compose(psi, phi).matrix.tolist() == [[1, 0]]

    def test_identity_is_neutral(self):
        phi = _phi1()
        left = compose(identity_morphism(phi.target), phi)
        right = compose(phi, identity_morphism(phi.source))
        assert left.matrix == phi.matrix == right.matrix

    def test_star_negated_star_and_i_xi_follow_the_degree_parity(self):
        # star(D) has D's entry (j, i) times (-1)**(m_j - m_i), the negated
        # star shift's D minus that, and i_xi the diagonal (-1)**m_i; on the
        # named values and on random D's over words with degrees -2..2
        rng = SplitMix64(derive_seed(0, "star"))
        words = [random_cobject(rng, TWO_CHAIN, 4, (-2, -1, 0, 1, 2)) for _ in range(40)]
        values = [_xi1(), formula_cat.XI12, formula_cat.XI121, formula_cat.XI212] + [
            FormulaToPoint(xi, random_cmorphism(rng, xi, xi.shifted(1))) for xi in words
        ]
        for f in values:
            d, starred = f.D, star(f.D)
            negated = negated_star_shift(f).D.matrix
            for j, (_, mj) in enumerate(d.target.entries):
                for i, (_, mi) in enumerate(d.source.entries):
                    sign = (-1) ** ((mj - mi) % 2)
                    assert starred.matrix[j, i] == sign * d.matrix[j, i]
                    assert negated[j, i] == -sign * d.matrix[j, i]
            assert starred == per_entry_star(d)
            assert _canonical(d.source, d.target, starred.matrix) == starred.matrix
            assert i_xi(f).matrix == Mat.diag([(-1) ** (m % 2) for _, m in f.xi.entries])

    def test_star_is_an_involution(self):
        assert star(star(formula_cat.XI121.D)).matrix == formula_cat.XI121.D.matrix

    def test_shift_moves_degrees_only(self):
        s = shift(formula_cat.XI12, 1)
        assert s.xi.entries == tuple((x, m + 1) for x, m in formula_cat.XI12.xi.entries)
        assert s.D.matrix == formula_cat.XI12.D.matrix


def _rule_orders() -> list:
    """TWO_CHAIN, the orders X1..X4, the glued orders of the Figure-1
    gluings and those of random_gluing 0-9."""
    orders = glued_orders() + [figure_one_poset(f"X{k}") for k in range(1, 5)]
    for seed in range(10):
        g = random_gluing(seed)
        orders += [build_plus(g).poset, build_minus(g).poset]
    return orders


def _spread_word(rng, base) -> tuple:
    """1 to 4 entries at the degrees 0, 2 and 4, the entries of one degree
    at pairwise incomparable elements."""
    entries = []
    for _ in range(1 + rng.randrange(4)):
        x, m = rng.choice(base.elements), rng.choice((0, 2, 4))
        if all(m != n or not (base.le(x, e) or base.le(e, x)) for e, n in entries):
            entries.append((x, m))
    return tuple(entries)


class TestCanonicalRule:
    """The rule's two statements in formula_cat, the predicate of
    _canonical and the row masks of canonical_formula, against
    generators.legal_rows, which is written from the definition."""

    def test_the_constructor_keeps_exactly_the_entries_the_rule_allows(self):
        # seeded integer matrices, about a fifth of their entries zero,
        # between words of up to 6 entries at degrees 0..3, so elements
        # repeat and meet incomparable ones
        seen = set()  # (x_i <= x_j, m_j - m_i) of each nonzero input entry
        for k, base in enumerate(_rule_orders()):
            rng = SplitMix64(derive_seed(k, "canonical-rule"))
            for _ in range(12):
                src, tgt = (random_cobject(rng, base, 6, (0, 1, 2, 3)) for _ in range(2))
                rows = [[rng.randint(-2, 2) for _ in src.entries] for _ in tgt.entries]
                legal = legal_rows(src, tgt)
                want = Mat(len(tgt), len(src), [
                    [c * ok for c, ok in zip(row, allowed)] for row, allowed in zip(rows, legal)
                ])
                assert _canonical(src, tgt, Mat(len(tgt), len(src), rows)) == want
                assert CMorphism(src, tgt, rows).matrix == want
                seen |= {
                    (base.le(xi, xj), mj - mi)
                    for row, (xj, mj) in zip(rows, tgt.entries)
                    for c, (xi, mi) in zip(row, src.entries)
                    if c
                }
        # every jump -3..3 met with the order holding and failing
        assert seen == {(le, jump) for le in (True, False) for jump in range(-3, 4)}

    def test_canonical_formula_rows_follow_the_rule_at_degree_spreads_of_two(self):
        # words at the degrees 0, 2 and 4 whose entries of one degree are
        # incomparable: each D is the identity, no restriction raises degree,
        # and the target has no chain of three, so no triangle; every such
        # formula is valid, and its entries x_i <= x_j two or four degrees
        # apart must stay zero
        T = poset_from_generators(["p", "q", "r", "s"], [("p", "r"), ("p", "s"), ("q", "s")])
        jumps = set()
        for k, base in enumerate(_rule_orders()):
            rng = SplitMix64(derive_seed(k, "canonical-rows"))
            for _ in range(4):
                F = canonical_formula(T, base, {y: _spread_word(rng, base) for y in T.elements})
                for f in F.at.values():
                    n = len(f.xi)
                    assert f.D.matrix == Mat(n, n, legal_rows(f.xi, f.xi.shifted(1)))
                for (y, y2), phi in F.res.items():
                    src, tgt = F.at[y].xi, F.at[y2].xi
                    if y != y2:
                        assert phi.matrix == Mat(len(tgt), len(src), legal_rows(src, tgt))
                    jumps |= {
                        mj - mi for xj, mj in tgt.entries for xi, mi in src.entries
                        if base.le(xi, xj)
                    }
        assert jumps == {-4, -2, 0, 2, 4}


class TestCompose:
    def test_agrees_with_the_validating_constructor(self):
        # compose skips the order test; the reference canonicalizes the
        # plain product from scratch.  Words over an order with incomparable
        # elements, with degrees that give jumps of 0, 1 and 2.
        bases = (figure_one_poset("X1"), TWO_CHAIN)
        jumps = set()
        for seed in range(240):
            rng = SplitMix64(derive_seed(seed, "compose"))
            base = bases[seed % 2]
            a, b, c = (random_cobject(rng, base, 4, (-1, 0, 1, 2)) for _ in range(3))
            f, g = random_cmorphism(rng, a, b), random_cmorphism(rng, b, c)
            product = g.matrix.mul(f.matrix)
            reference = CMorphism(f.source, g.target, product)
            got = compose(g, f)
            assert got == reference and got.matrix == reference.matrix, seed
            jumps |= {
                c.entries[k][1] - a.entries[i][1]
                for k, row in enumerate(product.rows)
                for i, v in enumerate(row)
                if v
            }
        assert jumps == {0, 1, 2}

    def test_a_product_at_a_jump_of_two_is_quotiented(self):
        V = poset_from_generators(["a", "b", "c"], [("a", "c"), ("b", "c")])
        ab = CObject((("a", 0), ("b", 0)), V)
        c1, c2 = CObject((("c", 1),), V), CObject((("c", 2),), V)
        f = CMorphism(ab, c1, [[1, 2]])
        g = CMorphism(c1, c2, [[3]])
        assert g.matrix.mul(f.matrix).tolist() == [[3, 6]]
        assert compose(g, f).is_zero()
        assert compose(g, f) == CMorphism(f.source, c2, [[3, 6]])


class TestRejectedInputs:
    """The base and shape checks of the constructors and of composition
    and substitution, each named by its message."""

    X1 = figure_one_poset("X1")

    def test_morphism_ends_over_different_posets(self):
        over_x1 = CObject((("1", 0),), self.X1)
        with pytest.raises(BaseMismatch, match="source and target live over different posets"):
            CMorphism(formula_cat.XI12.xi, over_x1, [[1, 0]])

    def test_compose_over_different_posets(self):
        one = identity_morphism(CObject((("1", 0),), self.X1))
        with pytest.raises(BaseMismatch, match="cannot compose morphisms over different posets"):
            compose(one, identity_morphism(formula_cat.XI12.xi))

    def test_compose_of_unmatched_ends(self):
        with pytest.raises(ShapeMismatch, match="target of the first factor != source"):
            compose(identity_morphism(formula_cat.XI121.xi), identity_morphism(formula_cat.XI12.xi))

    def test_degrees_and_entries_are_integers(self):
        # int() used to truncate: CMorphism(w, w, [[0.5]]) was the zero map
        w = CObject((("1", 0),), self.X1)
        with pytest.raises(ParseError, match="matrix entry must be an integer, got 0.5"):
            CMorphism(w, w, [[0.5]])
        with pytest.raises(ParseError, match="degree must be an integer, got 0.5"):
            CObject((("1", 0.5),), self.X1)

    def test_words_at_other_elements_than_the_target_s(self):
        one = (("1", 0),)
        with pytest.raises(ParseError, match="^no word at element '2'$"):
            canonical_formula(TWO_CHAIN, TWO_CHAIN, {"1": one})
        with pytest.raises(ParseError, match="^word given at '3', which is not an element$"):
            canonical_formula(TWO_CHAIN, TWO_CHAIN, {"1": one, "2": one, "3": one})

    @pytest.mark.parametrize("word", [5, None, [5], [("1",)], [("1", 0, 0)]], ids=repr)
    def test_a_word_that_is_no_sequence_of_pairs(self, word):
        message = f"a word must be a sequence of (element, degree) pairs, got {word!r}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            CObject(word, TWO_CHAIN)

    def test_value_with_a_d_that_is_not_to_the_shift(self):
        with pytest.raises(ShapeMismatch, match="D must map the object to its shift by one"):
            FormulaToPoint(formula_cat.XI12.xi, identity_morphism(formula_cat.XI12.xi))

    def test_substitution_over_another_target(self):
        inner = translation_formula(self.X1, 0)
        with pytest.raises(BaseMismatch, match="outer formula must live over the inner"):
            substitute(formula_cat.XI12, inner)
        with pytest.raises(BaseMismatch, match="base must equal inner formula's target"):
            compose_formulas(formula_cat.NU, inner)


#: Import the package under a profile hook and print the names of the
#: formula_cat functions it called, but for the module __getattr__, which
#: the import machinery asks for names such as __path__.
_IMPORT_CALLS = """
import inspect
import sys

calls = set()


def watch(frame, event, arg):
    code = frame.f_code
    if (
        event == "call"
        and code.co_flags & inspect.CO_NEWLOCALS
        and code.co_filename.endswith("formula_cat.py")
        and code.co_name != "__getattr__"
    ):
        calls.add(code.co_name)


sys.setprofile(watch)
import posetglue
sys.setprofile(None)
print(sorted(calls))
"""


class TestNamedConstants:
    def test_importing_the_package_builds_no_formula(self):
        # the named constants are made when read, so a defect in a builder
        # or a check fails the tests that read them, not the import
        result = run_python(["-c", _IMPORT_CALLS])
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_the_package_serves_the_named_constants(self):
        assert posetglue.TWO_CHAIN_PLUS == harness.TWO_CHAIN_PLUS
        assert posetglue.XI12 == formula_cat.XI12
        assert posetglue.H121 == formula_cat.H121
        for module in (posetglue, formula_cat, harness):
            with pytest.raises(AttributeError, match="has no attribute 'XI13'"):
                module.XI13

    def test_all_named_formulas_are_valid(self):
        for f in (_xi1(), _xi2(), formula_cat.XI12, formula_cat.XI121, formula_cat.XI212):
            report = check_formula(f)
            assert report is None, report

    def test_named_formula_morphisms_are_valid(self):
        for phi, F in ((_phi1(), harness.TWO_CHAIN_MINUS), (_phi2(), harness.TWO_CHAIN_PLUS)):
            report = check_formula_morphism(phi, F.at["1"], F.at["2"])
            assert report is None, report

    def test_exact_matrices(self):
        assert _xi1().xi.entries == (("1", 1),)
        assert _xi1().D.matrix.tolist() == [[1]]
        assert _xi2().xi.entries == (("2", 0),)
        assert formula_cat.XI12.xi.entries == (("1", 1), ("2", 0))
        assert formula_cat.XI12.D.matrix.tolist() == [[1, 0], [1, 1]]
        assert formula_cat.XI121.xi.entries == (("1", 2), ("2", 1), ("1", 1))
        assert formula_cat.XI121.D.matrix.tolist() == [[1, 0, 0], [-1, 1, 0], [1, 0, 1]]
        assert formula_cat.XI212.xi.entries == (("2", 1), ("1", 1), ("2", 0))
        assert formula_cat.XI212.D.matrix.tolist() == [[1, 0, 0], [0, 1, 0], [1, 1, 1]]

    def test_retract_homotopies(self):
        fc = formula_cat
        report = check_homotopy(fc.ALPHA1, fc.BETA1, fc.H212, fc.XI212.D)
        assert report is None, report
        report = check_homotopy(fc.ALPHA2, fc.BETA2, fc.H121, fc.XI121.D)
        assert report is None, report

    def test_beta_alpha_is_identity(self):
        assert compose(formula_cat.BETA1, formula_cat.ALPHA1).matrix.tolist() == [[1]]
        assert compose(formula_cat.BETA2, formula_cat.ALPHA2).matrix.tolist() == [[1]]

    def test_broken_homotopy_is_rejected(self):
        zero_h = CMorphism(formula_cat.XI212.xi, formula_cat.XI212.xi.shifted(-1), Mat.zero(3, 3))
        report = check_homotopy(formula_cat.ALPHA1, formula_cat.BETA1, zero_h, formula_cat.XI212.D)
        assert "is not the identity" in report


class TestSubstitution:
    def test_reproduces_named_composites(self):
        via_minus = substitute(formula_cat.XI12, harness.TWO_CHAIN_MINUS)
        assert via_minus.xi.entries == formula_cat.XI121.xi.entries
        assert via_minus.D.matrix.tolist() == formula_cat.XI121.D.matrix.tolist()
        via_plus = substitute(formula_cat.XI12, harness.TWO_CHAIN_PLUS)
        assert via_plus.xi.entries == formula_cat.XI212.xi.entries
        assert via_plus.D.matrix.tolist() == formula_cat.XI212.D.matrix.tolist()

    def test_substituting_the_translation_is_the_shift(self):
        for f in (_xi1(), _xi2(), formula_cat.XI12):
            s = substitute(f, formula_cat.NU)
            assert s.xi.entries == tuple((x, m + 1) for x, m in f.xi.entries)

    def test_result_is_always_valid(self):
        for f in (_xi1(), _xi2(), formula_cat.XI12, formula_cat.XI121, formula_cat.XI212):
            for F in (harness.TWO_CHAIN_PLUS, harness.TWO_CHAIN_MINUS, formula_cat.NU):
                assert check_formula(substitute(f, F)) is None

    def test_degree_raising_outer_coefficient_evaluates_as_composite(self):
        # Outer words ((a, 0), (b, 0)) with a < b: the off-diagonal
        # coefficient c raises degree, so substitution composes the inner
        # restriction with the receiving inner D and scales it by c.
        g = figure_one_gluing(("X1", "X2"))[0]
        for inner in build_theorem_formulas(g):
            P = inner.target
            for (a, b), c in itertools.product(sorted(P.leq), (1, -1)):
                if a == b:
                    continue
                outer = FormulaToPoint(CObject(((a, 0), (b, 0)), P), [[1, 0], [c, 1]])
                composite = substitute(outer, inner)
                for seed in range(10):
                    K = random_diagram(inner.base, seed)
                    expected = eval_point(outer, eval_formula(inner, K))
                    assert eval_point(composite, K) == expected, (a, b, c, seed)


class TestShiftAndStar:
    def test_i_xi_intertwines(self):
        for f in (_xi1(), formula_cat.XI12, formula_cat.XI121, formula_cat.XI212):
            phi = i_xi(f)
            assert check_formula_morphism(phi, shift(f, 1), negated_star_shift(f)) is None
            expected = Mat.diag([(-1) ** (m % 2) for _, m in f.xi.entries])
            assert phi.matrix == expected
            assert phi.source.entries == shift(f, 1).xi.entries
            assert negated_star_shift(f).D.matrix == star(f.D).matrix.neg()

    def test_negated_star_shift_is_valid(self):
        for f in (formula_cat.XI12, formula_cat.XI121, formula_cat.XI212):
            assert check_formula(negated_star_shift(f)) is None


#: Build a Formula and a PosetDiagram over X1 with every restriction
#: missing, and print the ParseError each raises.
_MISSING_RESTRICTIONS = """
from posetglue.abelian_eval import PosetDiagram, random_diagram
from posetglue.errors import ParseError
from posetglue.formula_cat import Formula, translation_formula
from posetglue.harness import figure_one_poset

X1 = figure_one_poset("X1")
for build in (
    lambda: Formula(X1, translation_formula(X1, 0).at, {}),
    lambda: PosetDiagram(X1, random_diagram(X1, 0).K, {}),
):
    try:
        build()
    except ParseError as exc:
        print(exc)
"""


class TestFormulaValidation:
    def test_two_chain_formulas_are_valid(self):
        for F in (harness.TWO_CHAIN_PLUS, harness.TWO_CHAIN_MINUS, formula_cat.NU):
            for y in F.target.elements:
                assert check_formula(F.at[y]) is None
            for (y, y2), phi in F.res.items():
                assert check_formula_morphism(phi, F.at[y], F.at[y2]) is None

    def test_res_must_be_degree_preserving_restrictions(self):
        # a res entry that raises degree is not a valid restriction morphism
        bad = CMorphism(_xi2().xi, formula_cat.XI12.xi, [[0], [1]])
        F = Formula(TWO_CHAIN, {"1": _xi2(), "2": formula_cat.XI12}, {("1", "2"): bad})
        assert F is not None  # PHI2 itself is legal as a res value
        with pytest.raises(Exception):
            Formula(
                TWO_CHAIN,
                {"1": _xi1(), "2": formula_cat.XI12},
                {("1", "2"): CMorphism(_xi1().xi, formula_cat.XI12.xi, [[1], [1]])},
            )

    def test_a_degree_raising_entry_off_the_covers_fails_its_triangle(self):
        # r(a, c) gets the entry ("1", 0) -> ("2", 1): legal in canonical
        # form (1 <= 2, degree rises by one), so the validating constructor
        # keeps it, but the product r(b, c)·r(a, b) of the two
        # degree-preserving covers has no entry there
        chain = poset_from_generators(["a", "b", "c"], [("a", "b"), ("b", "c")])
        low = FormulaToPoint(CObject((("1", 0),), TWO_CHAIN), [[1]])
        top = FormulaToPoint(CObject((("1", 0), ("2", 1)), TWO_CHAIN), [[1, 0], [0, 1]])
        assert check_formula(top) is None
        at = {"a": low, "b": low, "c": top}
        res = {
            ("a", "b"): CMorphism(low.xi, low.xi, [[1]]),
            ("b", "c"): CMorphism(low.xi, top.xi, [[1], [0]]),
            ("a", "c"): CMorphism(low.xi, top.xi, [[1], [0]]),
        }
        Formula(chain, at, res)
        res[("a", "c")] = CMorphism(low.xi, top.xi, [[1], [1]])
        assert res[("a", "c")].matrix.tolist() == [[1], [1]]
        with pytest.raises(CommutativityFailure) as info:
            Formula(chain, at, res)
        assert info.value.pair == ("a", "c")
        left = compose(res[("b", "c")], res[("a", "b")])
        difference = left.matrix.sub(res[("a", "c")].matrix).tolist()
        assert difference == [[0], [-1]]
        assert str(info.value).endswith(f"via 'b': difference {difference}")

    def test_restriction_with_wrong_ends_is_rejected(self):
        # PHI2 maps XI2's word to XI12's; as a restriction between XI1 and
        # XI12, or between XI2 and XI1, it has the wrong ends
        with pytest.raises(ShapeMismatch, match="phi must map the source word"):
            check_formula_morphism(_phi2(), _xi1(), formula_cat.XI12)
        with pytest.raises(ShapeMismatch, match="phi must map the source word"):
            check_formula_morphism(_phi2(), _xi2(), _xi1())
        with pytest.raises(ShapeMismatch, match="restriction for '1' <= '2' has wrong ends"):
            Formula(TWO_CHAIN, {"1": _xi1(), "2": formula_cat.XI12}, {("1", "2"): _phi2()})

    def test_value_at_a_stray_element_is_rejected(self):
        at = {**harness.TWO_CHAIN_PLUS.at, "3": _xi2()}
        with pytest.raises(ParseError, match="value given at '3', which is not an element"):
            Formula(TWO_CHAIN, at, harness.TWO_CHAIN_PLUS.res)
        with pytest.raises(ParseError, match="no value at element '2'"):
            Formula(TWO_CHAIN, {"1": _xi2()}, {})

    def test_restriction_for_an_unrelated_pair_is_rejected(self):
        nu = formula_cat.NU
        res = {**nu.res, ("2", "1"): CMorphism(nu.at["2"].xi, nu.at["1"].xi, [[1]])}
        with pytest.raises(ParseError, match="restriction given for unrelated pair '2', '1'"):
            Formula(TWO_CHAIN, formula_cat.NU.at, res)

    def test_missing_restriction_is_named_in_element_order(self):
        # leq is a frozenset of string pairs, so its iteration order moves
        # with the hash seed; the pair named must not.  A diagram needs
        # restrictions only between nonzero stalks, so it names the first
        # such pair in element order.
        X1 = figure_one_poset("X1")
        K = random_diagram(X1, 0)
        support = [x for x in X1.elements if K.K[x].dims]
        first = min(
            ((a, b) for a in support for b in support if a != b and X1.le(a, b)),
            key=lambda ab: (X1.index(ab[0]), X1.index(ab[1])),
        )
        assert first == ("6", "7") and not K.K["1"].dims
        for hash_seed in (0, 2):
            result = run_python(["-c", _MISSING_RESTRICTIONS], hash_seed)
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines() == [
                "no restriction for '1' <= '2'", "no restriction for '6' <= '7'"
            ]

    def test_a_diagonal_automorphism_is_not_the_identity(self):
        # 2·identity at the maximal element "2" intertwines its value's D, so
        # only the identity check rejects it: cover_triangles has no
        # triangle (1, 2, 2)
        word = harness.TWO_CHAIN_PLUS.at["2"].xi
        doubled = CMorphism(word, word, Mat.identity(len(word)).scale(2))
        res = {**harness.TWO_CHAIN_PLUS.res, ("2", "2"): doubled}
        with pytest.raises(DiagramAxiomFailure, match=r"at \('2', '2'\) is not the identity"):
            Formula(TWO_CHAIN, harness.TWO_CHAIN_PLUS.at, res)

    def test_values_over_two_bases_are_rejected(self):
        other = poset_from_generators(["1", "2", "3"], [("1", "2")])
        stray = FormulaToPoint(CObject((("2", 0),), other), [[1]])
        with pytest.raises(BaseMismatch, match="all values must live over one base poset"):
            Formula(TWO_CHAIN, {"1": _xi2(), "2": stray}, {})
        F = harness.TWO_CHAIN_PLUS
        assert Formula(F.target, F.at, F.res).base is F.base

    def test_stalk_values_are_valid(self):
        # every one-entry value with D = [[1]] is a formula: the one entry of
        # D*[1]·D raises degree by 2 and is quotiented away
        for base in (TWO_CHAIN, figure_one_poset("X1")):
            for x in base.elements:
                for d in range(-2, 3):
                    value = FormulaToPoint(CObject(((x, d),), base), [[1]])
                    assert check_formula(value) is None, (x, d)

    def test_translation_formula_shapes(self):
        for n in (0, 1, 2):
            F = translation_formula(TWO_CHAIN, n)
            for y in TWO_CHAIN.elements:
                assert F.at[y].xi.entries == ((y, n),)


def _formula_conditions(f: FormulaToPoint):
    """The three formula conditions, computed entrywise from f.D.matrix:
    (D*[1]·D vanishes, D is lower triangular, D has a unit diagonal)."""
    D = f.D.matrix.tolist()
    entries = f.xi.entries
    n = len(entries)
    # D*: entry (j, k) maps degree m_k to m_j + 1; its sign is that parity
    sign = [[(-1) ** (entries[j][1] + 1 - entries[k][1]) for k in range(n)] for j in range(n)]
    square_zero = True
    for j, (xj, mj) in enumerate(entries):
        for i, (xi, mi) in enumerate(entries):
            if mj + 2 - mi not in (0, 1) or not f.xi.base.le(xi, xj):
                continue  # quotiented away in the canonical form
            if sum(sign[j][k] * D[j][k] * D[k][i] for k in range(n)) != 0:
                square_zero = False
    lower = all(D[j][i] == 0 for j in range(n) for i in range(j + 1, n))
    unit = all(D[i][i] == 1 for i in range(n))
    return square_zero, lower, unit


class TestCheckWitnesses:
    def test_non_unit_diagonal_fails(self):
        f = FormulaToPoint(CObject((("1", 1),), TWO_CHAIN), [[2]])
        assert check_formula(f) == "diagonal entry at (0,0) is 2, not 1"

    def test_non_lower_triangular_fails(self):
        # the (0, 1) entry has legal support (equal degrees, same element) so
        # it survives canonicalization and must be flagged as upper-triangular
        f = FormulaToPoint(
            CObject((("1", 1), ("1", 1)), TWO_CHAIN), [[1, 1], [0, 1]]
        )
        assert check_formula(f) == "D is not lower triangular: entry 1 at (0,1)"

    def test_d_star_d_must_vanish(self):
        # D*[1]·D = 0 fails for this D even though it is unit lower triangular
        X = poset_from_generators(["1"], [])
        f = FormulaToPoint(
            CObject((("1", 2), ("1", 1), ("1", 0)), X),
            [[1, 0, 0], [1, 1, 0], [0, 1, 1]],
        )
        assert check_formula(f) == "D*[1]·D = [[0, 0, 0], [0, 0, 0], [1, 0, 0]] is not zero"

    def test_degree_raising_component_is_named(self):
        source = FormulaToPoint(CObject((("1", 0),), TWO_CHAIN), [[1]])
        target = FormulaToPoint(CObject((("2", 1),), TWO_CHAIN), [[1]])
        phi = CMorphism(source.xi, target.xi, [[1]])
        assert check_formula_morphism(phi, source, target) == (
            "component 1 at (0,0) raises degree; not a restriction"
        )

    def test_intertwining_difference_is_named(self):
        # "1" goes to "1" in degree 1, but XI12's D also sends it on to "2"
        phi = CMorphism(_xi1().xi, formula_cat.XI12.xi, [[1], [0]])
        assert check_formula_morphism(phi, _xi1(), formula_cat.XI12) == (
            "intertwining fails: phi[1]·D - D'·phi = [[0], [-1]]"
        )

    def test_bad_beta_alpha_is_named(self):
        fc = formula_cat
        zero_beta = CMorphism(fc.XI212.xi, fc.NU.at["1"].xi, [[0, 0, 0]])
        assert check_homotopy(fc.ALPHA1, zero_beta, fc.H212, fc.XI212.D) == (
            "beta·alpha = [[0]] is not the identity"
        )

    def test_bad_homotopy_sum_is_named(self):
        fc = formula_cat
        zero_h = CMorphism(fc.XI212.xi, fc.XI212.xi.shifted(-1), Mat.zero(3, 3))
        assert check_homotopy(fc.ALPHA1, fc.BETA1, zero_h, fc.XI212.D) == (
            "alpha·beta + h[1]·D + D*[-1]·h = "
            "[[0, -1, 0], [0, 1, 0], [0, 0, 0]] is not the identity"
        )

    def test_homotopy_against_a_map_that_is_no_d_is_rejected(self):
        # every shape is checked before any product, so a pair that is no
        # retract is rejected for the shape of D too
        not_d = CMorphism(formula_cat.XI212.xi, formula_cat.XI212.xi, Mat.identity(3))
        zero_beta = CMorphism(formula_cat.XI212.xi, formula_cat.NU.at["1"].xi, [[0, 0, 0]])
        for beta in (formula_cat.BETA1, zero_beta):
            with pytest.raises(ShapeMismatch, match="D must map its object to its shift by 1"):
                check_homotopy(formula_cat.ALPHA1, beta, formula_cat.H212, not_d)

    def test_check_formula_agrees_with_the_three_conditions(self):
        V = poset_from_generators(["a", "b", "c"], [("a", "c"), ("b", "c")])
        rng = SplitMix64(derive_seed(0, "check-formula"))
        seen = set()
        for trial in range(300):
            base = (TWO_CHAIN, V)[trial % 2]
            xi = random_cobject(rng, base, max_len=4)
            rows = random_cmorphism(rng, xi, xi.shifted(1)).matrix.tolist()
            if trial % 3:
                # unit lower triangular, so D*[1]·D alone decides
                rows = [
                    [1 if i == j else c if i < j else 0 for i, c in enumerate(row)]
                    for j, row in enumerate(rows)
                ]
            f = FormulaToPoint(xi, rows)
            square_zero, lower, unit = _formula_conditions(f)
            problem = check_formula(f)
            seen.add((square_zero, lower and unit))
            if not square_zero:
                assert problem.startswith("D*[1]·D = "), (xi, rows, problem)
            elif not (lower and unit):
                assert problem.startswith(("D is not lower", "diagonal entry")), problem
            else:
                assert problem is None, (xi, rows, problem)
        assert seen == {(True, True), (False, True), (True, False), (False, False)}


# --- the matrix-level checks against their morphism-level references ------------

_REFERENCE = {
    check_formula: morphism_check_formula,
    check_formula_morphism: morphism_check_formula_morphism,
    check_homotopy: morphism_check_homotopy,
}


def _built_sites(g, monkeypatch) -> list:
    """(check, args) for every value and restriction of g's theorem formulas,
    their composites and shift formulas, every epsilon component, and every
    retract certificate that build_epsilons runs: check_homotopy runs once
    per distinct _homotopy_key of the retracts, one of which each retract
    gets."""
    retracts, keys = [], []
    real, real_key = harness.check_homotopy, harness._homotopy_key
    monkeypatch.setattr(harness, "check_homotopy", lambda *a: retracts.append(a) or real(*a))
    monkeypatch.setattr(harness, "_homotopy_key", lambda *a: keys.append(real_key(*a)) or keys[-1])
    xi_plus, xi_minus = build_theorem_formulas(g)
    eps_pm, eps_mp = build_epsilons(g, xi_plus, xi_minus)
    monkeypatch.undo()
    sites = []
    for F in (xi_plus, xi_minus, eps_pm.source, eps_pm.target, eps_mp.source, eps_mp.target):
        sites += [(check_formula, (f,)) for f in F.at.values()]
        sites += [
            (check_formula_morphism, (phi, F.at[y], F.at[y2]))
            for (y, y2), phi in F.res.items()
        ]
    for eps in (eps_pm, eps_mp):
        sites += [
            (check_formula_morphism, (phi, eps.source.at[y], eps.target.at[y]))
            for y, phi in eps.components.items()
        ]
    assert len(keys) == 2 * len(g.X.elements)
    assert len(retracts) == len(set(keys))
    return sites + [(check_homotopy, args) for args in retracts]


def _sign_flips(m: Mat):
    """The rows of m with the sign of one nonzero entry flipped, for each."""
    rows = m.tolist()
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            if c:
                flipped = [list(r) for r in rows]
                flipped[j][i] = -c
                yield flipped


def _flipped(check, args):
    """Every site made from args by flipping the sign of one entry of one of
    its matrices."""
    if check is check_formula:
        (f,) = args
        return [(check, (FormulaToPoint(f.xi, rows),)) for rows in _sign_flips(f.D.matrix)]
    if check is check_formula_morphism:
        phi = args[0]
        return [
            (check, (CMorphism(phi.source, phi.target, rows), *args[1:]))
            for rows in _sign_flips(phi.matrix)
        ]
    return [
        (check, args[:k] + (CMorphism(m.source, m.target, rows),) + args[k + 1:])
        for k, m in enumerate(args)
        for rows in _sign_flips(m.matrix)
    ]


def _agree(sites):
    for check, args in sites:
        assert check(*args) == _REFERENCE[check](*args), (check.__name__, args)


class TestMatrixLevelChecks:
    @pytest.mark.parametrize(
        "case",
        [*FIGURE_ONE_PAIRS, *range(20), (6, 3)],
        ids=lambda c: "-".join(map(str, c)) if isinstance(c, tuple) else f"random{c}",
    )
    def test_every_built_site_agrees_with_the_reference(self, case, monkeypatch):
        if case in FIGURE_ONE_PAIRS:
            g = figure_one_gluing(case)[0]
        elif isinstance(case, tuple):
            g = chain_of_chains(*case)
        else:
            g = random_gluing(case)
        sites = _built_sites(g, monkeypatch)
        for check, args in sites:
            assert check(*args) is None
        _agree(sites)

    def test_flipped_signs_agree_with_the_reference(self, monkeypatch):
        sites = _built_sites(figure_one_gluing(FIGURE_ONE_PAIRS[0])[0], monkeypatch)
        verdicts = set()
        for site in sites:
            for check, args in _flipped(*site):
                verdicts.add((check.__name__, check(*args) is None))
                _agree([(check, args)])
        assert verdicts >= {
            ("check_formula", False),
            ("check_formula_morphism", False),
            ("check_homotopy", False),
        }

    def test_jumps_of_two_agree_with_the_reference(self):
        # random words with degrees -1..2: products with entries that jump
        # by 2 and are quotiented away, and degree-raising restrictions.
        # Each homotopy check also gets a sub-word of xi, included and
        # projected, so that beta·alpha is the identity and the sum is tested.
        bases = (figure_one_poset("X1"), TWO_CHAIN)
        degrees = (-1, 0, 1, 2)
        jumps, messages = set(), set()

        def jumps_by_two(product, src, tgt, rise=0):
            return any(
                v and tgt.entries[k][1] + rise - src.entries[i][1] == 2
                for k, row in enumerate(product.rows)
                for i, v in enumerate(row)
            )

        for seed in range(200):
            rng = SplitMix64(derive_seed(seed, "matrix-checks"))
            base = bases[seed % 2]
            xi, xi2, small = (random_cobject(rng, base, 4, degrees) for _ in range(3))
            D = random_cmorphism(rng, xi, xi.shifted(1))
            D2 = random_cmorphism(rng, xi2, xi2.shifted(1))
            values = (FormulaToPoint(xi, D), FormulaToPoint(xi2, D2))
            phi = random_cmorphism(rng, xi, xi2)
            alpha, beta = random_cmorphism(rng, small, xi), random_cmorphism(rng, xi, small)
            h = random_cmorphism(rng, xi, xi.shifted(-1))
            picks = [i for i in range(len(xi)) if rng.randrange(2)] or [0]
            sub = CObject([xi.entries[i] for i in picks], base)
            inclusion = [[int(i == p) for p in picks] for i in range(len(xi))]
            sites = [
                *((check_formula, (f,)) for f in values),
                (check_formula_morphism, (phi, *values)),
                (check_homotopy, (alpha, beta, h, D)),
                (check_homotopy, (
                    CMorphism(sub, xi, inclusion),
                    CMorphism(xi, sub, list(zip(*inclusion))),
                    h,
                    D,
                )),
            ]
            _agree(sites)
            if jumps_by_two(star(D).matrix.mul(D.matrix), xi, xi, 2):
                jumps.add("square")
            if jumps_by_two(h.matrix.mul(D.matrix).add(star(D).matrix.mul(h.matrix)), xi, xi):
                jumps.add("homotopy")
            messages |= {(check.__name__, str(check(*args))[:9]) for check, args in sites}
        assert jumps == {"square", "homotopy"}
        assert {
            ("check_formula_morphism", "component"),
            ("check_homotopy", "beta·alph"),
            ("check_homotopy", "alpha·bet"),
        } <= messages

    def test_non_identity_diagonals_agree_with_the_reference(self):
        word = harness.TWO_CHAIN_PLUS.at["2"].xi
        for phi in (CMorphism(word, word, Mat.identity(len(word)).scale(c)) for c in (1, 2, -1)):
            assert phi.matrix.is_identity() == (phi == identity_morphism(word))
        doubled = FormulaToPoint(formula_cat.XI12.xi, formula_cat.XI12.D.matrix.scale(2))
        alpha = formula_cat.ALPHA1
        _agree([
            (check_formula, (doubled,)),
            (check_homotopy, (CMorphism(alpha.source, alpha.target, alpha.matrix.scale(2)),
                              formula_cat.BETA1, formula_cat.H212, formula_cat.XI212.D)),
        ])
        assert check_formula(doubled) == "diagonal entry at (0,0) is 2, not 1"


#: The functions that build morphisms through CMorphism._trusted while a
#: structure is built and read, each of which proves in its docstring that
#: its matrices are canonical; "__getitem__" is _Restrictions', which makes
#: the restrictions of the theorem formulas, composites and translations
#: when they are read.  compose and star are trusted sites too, but no
#: builder calls them.
TRUSTED_SITES = {"canonical_formula", "translation_formula", "_substituted_value", "__getitem__"}


def _trusted_site(frame) -> str:
    """The name of the function that frame runs, comprehensions skipped."""
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def _build_two_chain():
    """Rebuild the two-chain formulas as the harness does and compare them
    with its own, then build its transformations and the substitutions
    that reproduce the named constants."""
    xi_plus, xi_minus = harness.build_theorem_formulas(harness._POINT_GLUING)
    plus = compose_formulas(
        canonical_formula(TWO_CHAIN, harness._FLIPPED, harness._SWAP), xi_plus
    )
    minus = compose_formulas(
        xi_minus, canonical_formula(harness._FLIPPED, TWO_CHAIN, harness._SWAP)
    )
    formulas = harness._two_chain_formulas()
    assert formulas[1:] == (plus, minus)
    named = formula_cat._two_chain_constants()
    assert substitute(named["XI12"], minus) == named["XI121"]
    assert substitute(named["XI12"], plus) == named["XI212"]
    return harness._two_chain_epsilons(*formulas)


#: Structures whose build is observed: the Figure-1 gluings, random gluings,
#: two chains of chains and the two-chain.
_STRUCTURES = [*FIGURE_ONE_PAIRS, *range(40), (6, 3), (10, 4), "two-chain"]


def _structure_id(case) -> str:
    return (
        "-".join(map(str, case)) if isinstance(case, tuple)
        else case if isinstance(case, str) else f"random{case}"
    )


def _build_structure(case):
    """Build the formulas and transformations of one of _STRUCTURES, and
    read every restriction of every formula they hold, so that the
    restrictions made on read are made too."""
    if case == "two-chain":
        epsilons = _build_two_chain()
    else:
        if case in FIGURE_ONE_PAIRS:
            g = figure_one_gluing(case)[0]
        elif isinstance(case, tuple):
            g = chain_of_chains(*case)
        else:
            g = random_gluing(case)
        epsilons = build_epsilons(g, *build_theorem_formulas(g))
    for eps in epsilons:
        for F in (eps.source, eps.target):
            assert len(list(F.res.values())) == len(F.target.leq)


class TestCanonicalByConstruction:
    @pytest.mark.parametrize("case", _STRUCTURES, ids=_structure_id)
    def test_every_trusted_matrix_is_canonical(self, case, monkeypatch):
        # CMorphism._trusted skips the canonical-form pass; every matrix
        # that reaches it while a structure is built is already canonical
        sites = set()

        def observe(source, target, matrix):
            # asserted at the call, before any check of the built structure
            site = _trusted_site(sys._getframe(2))
            sites.add(site)
            assert _canonical(source, target, matrix) == matrix, (site, source, target, matrix)

        wrap_trusted(monkeypatch, observe)
        _build_structure(case)
        assert sites == TRUSTED_SITES

    @pytest.mark.parametrize("case", _STRUCTURES, ids=_structure_id)
    def test_every_composite_matches_the_morphism_level_substitution(self, case, monkeypatch):
        # each value and restriction of each composite equals the reference
        # that composes D·rho as a morphism and twists it with the per-entry
        # star
        composites, real = [], compose_formulas

        def recording(outer, inner):
            composites.append((outer, inner, real(outer, inner)))
            return composites[-1][2]

        monkeypatch.setattr(harness, "compose_formulas", recording)
        monkeypatch.setitem(globals(), "compose_formulas", recording)
        _build_structure(case)
        assert composites
        for outer, inner, F in composites:
            for q in outer.target.elements:
                assert F.at[q].D.matrix == morphism_substituted_matrix(outer.at[q].D, inner), q
            for key, psi in outer.res.items():
                assert F.res[key].matrix == morphism_substituted_matrix(psi, inner), key


def test_every_composite_passes_the_triangle_walk_it_derives(monkeypatch):
    # compose_formulas walks no cover triangle of its result: the law
    # follows from those of the two formulas, as substitution preserves
    # composition (see its docstring).  Every composite that build_epsilons
    # and the two-chain make is still accepted by the checked constructor,
    # triangle walk included, and each restriction made on read is the
    # substituted matrix of the outer restriction.
    composites, real = [], compose_formulas

    def recording(outer, inner):
        composites.append((outer, inner, real(outer, inner)))
        return composites[-1][2]

    monkeypatch.setattr(harness, "compose_formulas", recording)
    gluings = [figure_one_gluing(pair)[0] for pair in FIGURE_ONE_PAIRS]
    gluings += [random_gluing(seed) for seed in range(40)]
    gluings += [chain_of_chains(6, 3), chain_of_chains(10, 4)]
    for g in gluings:
        build_epsilons(g, *build_theorem_formulas(g))
    assert len(composites) == 2 * len(gluings)
    # the two two-chain formulas, the point gluing's two composites and the
    # three of the two-chain's own transformations
    harness._two_chain_epsilons(*harness._two_chain_formulas())
    assert len(composites) == 2 * len(gluings) + 7
    for outer, inner, C in composites:
        for pair in C.res:
            assert C.res[pair].matrix == _substituted_matrix(outer.res[pair], inner), pair
        assert Formula(C.target, C.at, dict(C.res)) == C


def test_restrictions_made_on_read_answer_as_the_dict_of_every_restriction():
    # a composite and a translation formula make each restriction on its
    # first read and keep it; their mapping iterates the related pairs in
    # element order and answers len, in, items and == as the dict of every
    # restriction, with KeyError for a key that is not a related pair
    xi_plus, xi_minus = build_theorem_formulas(figure_one_gluing(FIGURE_ONE_PAIRS[0])[0])
    for F in (compose_formulas(xi_plus, xi_minus), translation_formula(xi_minus.base, 1)):
        P = F.target
        pairs = [(a, b) for a in P.elements for b in P.elements if P.le(a, b)]
        assert list(F.res) == pairs and len(F.res) == len(P.leq)
        full = dict(F.res.items())
        assert full.keys() == P.leq and F.res == full and full == F.res
        assert all(F.res[pair] is full[pair] for pair in pairs)
        unrelated = next((b, a) for a, b in pairs if a != b)
        for key in (unrelated, ("nowhere", P.elements[0]), P.elements[0], (*pairs[0], 0), 5):
            assert key not in F.res and key not in full
            with pytest.raises(KeyError):
                F.res[key]
        with pytest.raises(TypeError):
            [*pairs[0]] in F.res


@pytest.mark.parametrize("n", range(-2, 3))
def test_translation_formula_is_the_checked_canonical_formula(n):
    # translation_formula skips the checks its shape proves; canonical_formula
    # on the same words runs every one.  Formula equality makes every
    # restriction of the translation formula, which makes them on read.
    g = chain_of_chains(10, 4)
    for X in (*glued_orders(), build_plus(g).poset, build_minus(g).poset):
        words = {x: ((x, n),) for x in X.elements}
        assert translation_formula(X, n) == canonical_formula(X, X, words), X


class TestSharedMatrices:
    """Equal restriction matrices are one object, and a triangle walk
    compares each distinct triple of them once: a repeated triple has the
    result of its first triangle, and the first failing one is named."""

    def test_theorem_formulas_hold_few_distinct_matrices(self):
        g = chain_of_chains(10, 4)
        xi_plus, xi_minus = build_theorem_formulas(g)
        for F in (xi_plus, xi_minus, compose_formulas(xi_plus, xi_minus)):
            strict = [phi.matrix for (y, y2), phi in F.res.items() if y != y2]
            assert len(strict) == 445
            # equal matrices are one object, and there are at most six
            assert len({id(m) for m in strict}) == len(set(strict)) <= 6

    def test_the_triangle_walk_multiplies_once_per_distinct_triple(self, monkeypatch):
        xi = build_theorem_formulas(chain_of_chains(10, 4))[0]
        counts = {"all": 0, "covers": 0}
        real_mul, real_check = Mat.mul, formula_cat._restriction_problem

        def counted_mul(a, b):
            counts["all"] += 1
            return real_mul(a, b)

        def counted_check(*args):
            before = counts["all"]
            problem = real_check(*args)
            counts["covers"] += counts["all"] - before
            return problem

        monkeypatch.setattr(Mat, "mul", counted_mul)
        monkeypatch.setattr(formula_cat, "_restriction_problem", counted_check)
        Formula(xi.target, xi.at, xi.res)
        assert len(cover_triangles(xi.target)) == 540
        # two products per distinct restriction key of the Hasse edges, and
        # one per distinct triple of matrix objects of the cover triangles
        res, at = xi.res, xi.at
        keys = {
            formula_cat._restriction_key(res[(y, y2)], at[y], at[y2])
            for y, y2 in hasse(xi.target).edges
        }
        triples = {
            (id(res[(b, c)].matrix), id(res[(a, b)].matrix), id(res[(a, c)].matrix))
            for a, b, c in cover_triangles(xi.target)
        }
        assert counts["covers"] == 2 * len(keys)
        assert counts["all"] - counts["covers"] == len(triples) <= 10

    @pytest.mark.parametrize("case", [FIGURE_ONE_PAIRS[0], (10, 4)], ids=["X1-X2", "chains-10-4"])
    def test_a_changed_non_cover_restriction_fails_at_its_first_triangle(self, case):
        g = figure_one_gluing(case)[0] if case in FIGURE_ONE_PAIRS else chain_of_chains(*case)
        xi = build_theorem_formulas(g)[0]
        edges = hasse(xi.target).edges
        triangles = cover_triangles(xi.target)
        tested = 0
        for (y, y3), phi in sorted(xi.res.items()):
            shared_with = sum(psi.matrix is phi.matrix for psi in xi.res.values())
            if y == y3 or (y, y3) in edges or shared_with < 2 or phi.is_zero():
                continue
            # a restriction that shares its matrix, with one nonzero entry doubled
            rows = phi.matrix.tolist()
            j, i = next((j, i) for j, row in enumerate(rows) for i, c in enumerate(row) if c)
            rows[j][i] *= 2
            res = {**xi.res, (y, y3): CMorphism(phi.source, phi.target, rows)}
            # the first triangle, in walk order, whose plain product differs
            a, b, c = next(
                (a, b, c)
                for a, b, c in triangles
                if res[(b, c)].matrix.mul(res[(a, b)].matrix) != res[(a, c)].matrix
            )
            with pytest.raises(CommutativityFailure) as info:
                Formula(xi.target, xi.at, res)
            assert info.value.pair == (a, c) and f"via {b!r}:" in str(info.value)
            tested += 1
            if tested == 6:
                break
        assert tested


class TestKeyedBuilds:
    """canonical_formula and compose_formulas build each distinct matrix
    once, and Formula, EpsilonTransform and the retract certificates run
    each check once per key: the results are those of the unkeyed builds,
    and a key never merges inputs that the check tells apart."""

    @pytest.mark.parametrize(
        "case", [*FIGURE_ONE_PAIRS, *range(40), (6, 3), (10, 4)], ids=_structure_id
    )
    def test_every_matrix_equals_the_unkeyed_build(self, case):
        if case in FIGURE_ONE_PAIRS:
            g = figure_one_gluing(case)[0]
        elif isinstance(case, tuple):
            g = chain_of_chains(*case)
        else:
            g = random_gluing(case)
        xi_plus, xi_minus = build_theorem_formulas(g)
        eps_pm, eps_mp = build_epsilons(g, xi_plus, xi_minus)
        for F in (xi_plus, xi_minus):
            for f in F.at.values():
                n = len(f.xi)
                assert f.D.matrix == Mat(n, n, legal_rows(f.xi, f.xi.shifted(1)))
            for (y, y2), phi in F.res.items():
                src, tgt = F.at[y].xi, F.at[y2].xi
                reference = Mat(len(tgt), len(src), legal_rows(src, tgt))
                assert phi.matrix.is_identity() if y == y2 else phi.matrix == reference
        for F, outer, inner in ((eps_pm.source, xi_plus, xi_minus), (eps_mp.target, xi_minus, xi_plus)):
            for q, f in F.at.items():
                word = [
                    (e, m + n) for p, n in outer.at[q].xi.entries for e, m in inner.at[p].xi.entries
                ]
                assert f.xi == CObject(word, inner.base)
                assert f.D.matrix == _substituted_matrix(outer.at[q].D, inner)
            for key, psi in outer.res.items():
                assert F.res[key].matrix == _substituted_matrix(psi, inner)
        for eps, sign in ((eps_pm, 1), (eps_mp, -1)):
            for y, phi in eps.components.items():
                k = len(g.Yx[y]) if y in g.X else None
                if k is None:
                    rows = [[1]]
                elif sign == 1:  # the counit's row
                    rows = [[0] * k + [1] + [1] * k]
                else:  # the unit's column
                    rows = [[c] for c in [1] * k + [-1] + [0] * k]
                assert phi.matrix == CMorphism(phi.source, phi.target, rows).matrix, y
        for F in (xi_plus, xi_minus, eps_pm.source, eps_mp.target):
            made = [f.D.matrix for f in F.at.values()]
            made += [phi.matrix for (y, y2), phi in F.res.items() if y != y2]
            # equal matrices that the builder made are one object
            assert len({id(m) for m in made}) == len(set(made))

    @pytest.mark.parametrize(
        "inner_words, inner_covers, outer_words, outer_covers",
        [
            # two values' D's apart only in the outer degrees: the raising
            # entry's sign and twist differ
            ({"u": (("z", 1), ("w", 0))}, [], {"q1": (("u", 0),), "q2": (("u", 1),)}, []),
            # two restrictions apart only in the length of the inner word
            # at an entry that psi does not select
            (
                {"u": (("z", 0),), "v1": (("z", 0),), "v2": (("z", 0), ("w", 0))},
                [],
                {
                    "q1": (("u", 0), ("v1", 0)), "r1": (("u", 0),),
                    "q2": (("u", 0), ("v2", 0)), "r2": (("u", 0),),
                },
                [("q1", "r1"), ("q2", "r2")],
            ),
            # two values' D's apart only in the degrees of the inner words,
            # which have one length and one D matrix object
            (
                {"u": (("z", 0), ("w", 0)), "u2": (("z", 1), ("w", 0))},
                [],
                {"q1": (("u", 1),), "q2": (("u2", 1),)},
                [],
            ),
            # two values' D's apart only in the inner D that the raising
            # entry selects: z < w, and v is incomparable to z
            (
                {"u": (("z", 0), ("w", 0)), "u2": (("z", 0), ("v", 0))},
                [],
                {"q1": (("u", 0),), "q2": (("u2", 0),)},
                [],
            ),
            # two restrictions apart only in the inner restriction they
            # select: [[1]] for z < w, [[0]] for z and v
            (
                {"u": (("z", 0),), "u2": (("w", 0),), "t": (("z", 0),), "t2": (("v", 0),)},
                [("u", "u2"), ("t", "t2")],
                {"q1": (("u", 0),), "r1": (("u2", 0),), "q2": (("t", 0),), "r2": (("t2", 0),)},
                [("q1", "r1"), ("q2", "r2")],
            ),
        ],
        ids=["outer-degrees", "inner-lengths", "inner-degrees", "inner-d", "inner-restriction"],
    )
    def test_a_substitution_key_tells_apart_what_its_result_does(
        self, inner_words, inner_covers, outer_words, outer_covers
    ):
        # two psi with one matrix object, with the same key but for one
        # part, whose substituted matrices differ
        B = poset_from_generators(["z", "w", "v"], [("z", "w")])
        P = poset_from_generators(list(inner_words), inner_covers)
        T = poset_from_generators(list(outer_words), outer_covers)
        inner = canonical_formula(P, B, inner_words)
        outer = canonical_formula(T, P, outer_words)
        F = compose_formulas(outer, inner)
        for q in T.elements:
            assert F.at[q].D.matrix == _substituted_matrix(outer.at[q].D, inner), q
        for key, psi in outer.res.items():
            assert F.res[key].matrix == _substituted_matrix(psi, inner), key
        psis = [outer.res[e] for e in outer_covers] or [outer.at[q].D for q in ("q1", "q2")]
        assert psis[0].matrix is psis[1].matrix
        assert _substituted_matrix(psis[0], inner) != _substituted_matrix(psis[1], inner)

    def test_a_row_is_kept_per_target_entry(self):
        # the source word at p meets the element b at degrees 0 and 2: the
        # rows differ, and the restriction to r is zero
        B = poset_from_generators(["a", "b"], [("a", "b")])
        T = poset_from_generators(["p", "q", "r"], [("p", "q"), ("p", "r")])
        F = canonical_formula(T, B, {"p": (("a", 0),), "q": (("b", 0),), "r": (("b", 2),)})
        for (y, y2), phi in F.res.items():
            src, tgt = F.at[y].xi, F.at[y2].xi
            if y != y2:
                assert phi.matrix == Mat(len(tgt), len(src), legal_rows(src, tgt)), (y, y2)
        assert F.res[("p", "r")].is_zero() and not F.res[("p", "q")].is_zero()

    def test_a_value_sharing_a_valid_d_with_other_degrees_is_rejected(self):
        # both words have the all-ones lower triangle as D, one object;
        # it is a valid D at degrees (0, 0, 0) and not at (1, 0, 0)
        C = poset_from_generators(["a", "b", "c"], [("a", "b"), ("b", "c")])
        T = poset_from_generators(["p", "q"], [])
        words = {"p": (("a", 0), ("b", 0), ("c", 0)), "q": (("a", 1), ("b", 0), ("c", 0))}
        xis = {y: CObject(w, C) for y, w in words.items()}
        assert len({Mat(3, 3, legal_rows(xi, xi.shifted(1))) for xi in xis.values()}) == 1
        problem = check_formula(FormulaToPoint(xis["q"], legal_rows(xis["q"], xis["q"].shifted(1))))
        assert problem is not None
        with pytest.raises(InternalInconsistency) as info:
            canonical_formula(T, C, words)
        assert str(info.value) == f"canonical value at 'q' is invalid: {problem}"
        assert canonical_formula(T, C, {"p": words["p"], "q": words["p"]})

    def test_a_restriction_sharing_valid_matrices_with_other_degrees_is_rejected(self):
        # two Hasse edges with one restriction matrix and one D object; the
        # second raises degree, so it is no restriction
        B = poset_from_generators(["a", "b"], [("a", "b")])
        T = poset_from_generators(["p", "q", "r", "s"], [("p", "q"), ("r", "s")])
        words = {"p": (("a", 0),), "q": (("b", 0),), "r": (("a", 0),), "s": (("b", 1),)}
        one = Mat.identity(1)
        at = {y: FormulaToPoint(CObject(w, B), one) for y, w in words.items()}
        res = {e: CMorphism(at[e[0]].xi, at[e[1]].xi, one) for e in (("p", "q"), ("r", "s"))}
        assert all(phi.matrix is one for phi in res.values())
        assert all(f.D.matrix is one for f in at.values())
        assert check_formula_morphism(res[("p", "q")], at["p"], at["q"]) is None
        problem = check_formula_morphism(res[("r", "s")], at["r"], at["s"])
        assert problem == "component 1 at (0,0) raises degree; not a restriction"
        with pytest.raises(DiagramAxiomFailure) as info:
            Formula(T, at, res)
        assert str(info.value) == f"restriction for 'r' <= 's' is invalid: {problem}"


#: Prints the pairs of every restriction dict that the builders make: the
#: theorem formulas, the composites, a translation and random draws.
_PAIR_WALKS = """
from posetglue import FIGURE_ONE_PAIRS, build_epsilons, build_theorem_formulas
from posetglue import figure_one_gluing, random_gluing, translation_formula
from posetglue.abelian_eval import random_diagram

gluings = [figure_one_gluing(pair)[0] for pair in FIGURE_ONE_PAIRS]
for g in gluings + [random_gluing(s) for s in range(10)]:
    xi_plus, xi_minus = build_theorem_formulas(g)
    eps_pm, eps_mp = build_epsilons(g, xi_plus, xi_minus)
    for F in (xi_plus, xi_minus, eps_pm.source, eps_mp.target):
        print(list(F.res))
    print(list(translation_formula(xi_plus.base, 1).res))
    for seed in range(3):
        print(list(random_diagram(xi_plus.base, seed).r))
"""


def test_related_pairs_are_walked_in_element_order_at_every_hash_seed():
    # the order of F.res decides which chain map an evaluation checks
    # first; frozenset iteration, which moves with PYTHONHASHSEED, must not
    outs = []
    for hash_seed in (1, 2):
        result = run_python(["-c", _PAIR_WALKS], hash_seed)
        assert result.returncode == 0, result.stderr
        outs.append(result.stdout)
    assert outs[0] == outs[1]
    xi_plus = build_theorem_formulas(figure_one_gluing(FIGURE_ONE_PAIRS[0])[0])[0]
    target = xi_plus.target
    pairs = sorted(target.leq, key=lambda ab: (target.index(ab[0]), target.index(ab[1])))
    assert list(xi_plus.res) == pairs
    assert list(translation_formula(target, 1).res) == pairs
    K = random_diagram(target, 0)
    support = {x for x in target.elements if K.stalk(x).dims}
    assert list(K.r) == [ab for ab in pairs if ab[0] in support and ab[1] in support]


def test_every_kind_of_formula_iterates_its_restrictions_in_pair_order():
    # one store for every formula: canonical, composite, translation,
    # shifted, and outside input given in reversed insertion order all
    # iterate res in poset_core._pairs order, as a _Restrictions
    g = figure_one_gluing(FIGURE_ONE_PAIRS[0])[0]
    xi_plus, xi_minus = build_theorem_formulas(g)
    given = dict(reversed(list(xi_plus.res.items())))
    assert list(given) != list(_pairs(xi_plus.target))
    kinds = {
        "canonical": xi_plus,
        "composite": compose_formulas(xi_plus, xi_minus),
        "translation": translation_formula(xi_plus.base, 1),
        "shift": shift(xi_minus, 2),
        "outside input": Formula(xi_plus.target, xi_plus.at, given),
    }
    for kind, F in kinds.items():
        assert type(F.res) is formula_cat._Restrictions, kind
        assert list(F.res) == list(F.res.keys()) == list(_pairs(F.target)), kind
        assert [pair for pair, _ in F.res.items()] == list(_pairs(F.target)), kind
    assert kinds["outside input"] == xi_plus
    assert all(kinds["outside input"].res[pair] is phi for pair, phi in given.items())


class TestTheoremFormulaLaws:
    """canonical_formula builds its restrictions on read and still runs
    both laws on them: the Hasse-edge and diagonal checks, and the walk of
    every cover triangle over the matrices it makes."""

    @staticmethod
    def _injected(monkeypatch, target_pair, wrong):
        # the matrix function of the next trusted formula, with the matrix
        # at target_pair replaced by wrong(correct matrix)
        real = formula_cat._trusted_formula

        def injecting(target, base, at, matrix, shift=None):
            def changed(y, y2):
                m = matrix(y, y2)
                return wrong(m) if (y, y2) == target_pair else m

            return real(target, base, at, changed, shift)

        monkeypatch.setattr(formula_cat, "_trusted_formula", injecting)

    @pytest.mark.parametrize("pair", FIGURE_ONE_PAIRS, ids="-".join)
    def test_a_wrong_non_cover_matrix_fails_at_its_triangle(self, pair, monkeypatch):
        g = figure_one_gluing(pair)[0]
        xi = build_theorem_formulas(g)[0]
        target, covers_ = xi.target, set(hasse(xi.target).edges)
        a, c = next(
            ab for ab in _pairs(target)
            if ab[0] != ab[1] and ab not in covers_ and not xi.res[ab].is_zero()
        )
        changed = {ab: phi.matrix for ab, phi in xi.res.items()}
        changed[a, c] = changed[a, c].scale(2)
        # the first triangle, in walk order, whose plain product differs
        first = next(
            (x, y, z) for x, y, z in cover_triangles(target)
            if changed[y, z].mul(changed[x, y]) != changed[x, z]
        )
        self._injected(monkeypatch, (a, c), lambda m: m.scale(2))
        with pytest.raises(CommutativityFailure) as info:
            build_theorem_formulas(g)
        assert info.value.pair == (first[0], first[2])
        assert f"via {first[1]!r}:" in str(info.value)
        assert (a, c) in {(first[0], first[2]), (first[1], first[2])}

    def test_a_wrong_hasse_edge_matrix_fails_the_edge_check(self, monkeypatch):
        # a Hasse-edge matrix with one nonzero entry zeroed that no longer
        # intertwines the two D's: the edge check names the edge before
        # any triangle is walked
        g = figure_one_gluing(FIGURE_ONE_PAIRS[0])[0]
        xi = build_theorem_formulas(g)[0]

        def zeroed(m, j, i):
            rows = m.tolist()
            rows[j][i] = 0
            return Mat(m.nrows, m.ncols, rows)

        edge, bad = next(
            ((a, b), zeroed(phi.matrix, j, i))
            for a, b in covers(xi.target)
            for phi in [xi.res[a, b]]
            for j, i in itertools.product(range(phi.matrix.nrows), range(phi.matrix.ncols))
            if phi.matrix[j, i] and check_formula_morphism(
                CMorphism(phi.source, phi.target, zeroed(phi.matrix, j, i)), xi.at[a], xi.at[b]
            )
        )
        self._injected(monkeypatch, edge, lambda m: bad)
        with pytest.raises(DiagramAxiomFailure) as info:
            build_theorem_formulas(g)
        assert type(info.value) is DiagramAxiomFailure
        assert f"restriction for {edge[0]!r} <= {edge[1]!r} is invalid" in str(info.value)
