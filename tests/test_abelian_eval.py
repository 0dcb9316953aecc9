"""Evaluation layer: complexes, cohomology, quasi-isomorphisms, functor laws.

The quasi-isomorphism verdicts are cross-checked against an independent
induced-map-on-cohomology oracle (conftest.induced_qis), and all rank
computations against fractions-based row reduction.
"""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc

import pytest

from posetglue import abelian_eval, formula_cat, harness
from posetglue.abelian_eval import (
    RATIONALS,
    ChainMap,
    DiagramMap,
    Field,
    PosetDiagram,
    VectComplex,
    cohomology,
    cohomology_table,
    cone,
    eval_formula,
    eval_formula_map,
    eval_point,
    identity_chain_map,
    is_quasi_iso,
    is_quasi_iso_diagram,
    random_diagram,
    shift_complex,
    shift_diagram,
)
from posetglue.errors import (
    BaseMismatch,
    D2NotZero,
    DiagramAxiomFailure,
    InternalInconsistency,
    InvalidChainMap,
    NaturalityFailure,
    ParseError,
    ShapeMismatch,
)
from posetglue.formula_cat import (
    TWO_CHAIN,
    CMorphism,
    CObject,
    FormulaToPoint,
    canonical_formula,
    check_formula,
    i_xi,
    negated_star_shift,
    shift,
    translation_formula,
)
from posetglue.gluing import build_minus, build_plus
from posetglue.harness import (
    FIGURE_ONE_PAIRS,
    EpsilonTransform,
    build_epsilons,
    build_theorem_formulas,
    figure_one_gluing,
    figure_one_poset,
    random_gluing,
    verify_equivalence,
    verify_two_chain,
)
from posetglue.intmat import Mat
from posetglue.poset_core import covers, hasse, poset_from_generators
from posetglue.rng import SplitMix64, derive_seed

from conftest import (
    _diagonal_eval,
    block_cone,
    chain_of_chains,
    dense_graded,
    eta_composition_holds,
    eta_naturality_holds,
    evaluation_key,
    frac_cohomology,
    frac_rank,
    glued_orders,
    induced_qis,
    matmul,
    modp_cohomology,
    null_homotopic_reference,
    qis_preservation_holds,
    restriction,
    ses_preservation_holds,
    shear_product_unimodular,
)
from generators import (
    _random_null_homotopic,
    complex_to_json,
    eval_cmorphism,
    eval_point_map,
    random_complex,
    random_qis_map,
    random_ses,
    shift_chain_map,
)

# Bytes of traced memory still held after certifying random_gluing 10-59,
# once 0-9 have run: 0 with plans kept on their morphisms, 3.5 MB with a
# module-level cache keyed by id that holds each morphism with its plan.
_PLAN_GROWTH_BOUND = 2**19

# The one-entry values of the two-chain formulas.  The package makes the
# formulas when they are read, so a test that reads them fails by its name
# if they cannot be built.
def _xi1():
    return harness.TWO_CHAIN_MINUS.at["2"]


def _xi2():
    return harness.TWO_CHAIN_PLUS.at["1"]


class TestField:
    def test_parse(self):
        assert Field.parse("q").p is None
        assert Field.parse("p:5").p == 5
        for bad in ("p:4", "p:x", "gf9", "p:-3"):
            with pytest.raises(ParseError):
                Field.parse(bad)

    def test_str_round_trip(self):
        assert str(Field(None)) == "q"
        assert str(Field(7)) == "p:7"

    def test_primality_is_exact_up_to_the_size_cap(self):
        assert Field(2**61 - 1).p == 2**61 - 1
        # a Carmichael number and the square of a prime
        for composite in (561, (2**31 - 1) ** 2):
            with pytest.raises(ParseError, match="not a prime"):
                Field(composite)
        with pytest.raises(ParseError, match="2\\*\\*64"):
            Field(2**64 + 13)
        with pytest.raises(ParseError):
            Field.parse(f"p:{2**64 + 13}")

    @pytest.mark.parametrize("p", [5.0, "5", True])
    def test_p_must_be_an_int(self, p):
        # Field(5.0) used to pass and make pow() fail in the first rank
        with pytest.raises(ParseError, match=f"p must be an int or None, got {p!r}"):
            Field(p)


class TestComplexes:
    def test_d_squared_checked(self):
        with pytest.raises(D2NotZero):
            VectComplex({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]}, check=True)

    def test_chain_map_checked(self):
        d = VectComplex({0: 1, 1: 1}, {0: [[1]]})
        zero_d = VectComplex({0: 1, 1: 1}, {0: [[0]]})
        bad = [
            (d, zero_d, {0: [[1]], 1: [[1]]}),  # only f[1]·d_S[0], nonzero
            (zero_d, d, {0: [[1]], 1: [[1]]}),  # only d_T[0]·f[0], nonzero
            (d, d, {0: [[1]], 1: [[2]]}),  # both present, unequal
        ]
        for K, L, f in bad:
            with pytest.raises(InvalidChainMap):
                ChainMap(K, L, f, check=True)
        # a one-sided product of present blocks that vanishes is accepted
        K = VectComplex({0: 1, 1: 2}, {0: [[1], [0]]})
        ChainMap(K, zero_d, {0: [[1]], 1: [[0, 1]]}, check=True)

    def test_cohomology_matches_fraction_oracle(self):
        for seed in range(60):
            K = random_complex(seed)
            assert cohomology(K) == frac_cohomology(K)

    def test_cohomology_matches_modp_oracle(self):
        for seed in range(40):
            K = random_complex(seed)
            assert cohomology(K, Field(5)) == modp_cohomology(K, 5)
            assert cohomology(K, Field(3)) == modp_cohomology(K, 3)

    @pytest.mark.parametrize("field", [RATIONALS, Field(5)])
    def test_cohomology_ranks_each_differential_once(self, monkeypatch, field):
        ranked = []

        def recording(rank):
            def wrapper(m, *args):
                ranked.append(m)
                return rank(m, *args)
            return wrapper

        monkeypatch.setattr(abelian_eval, "rank_exact", recording(abelian_eval.rank_exact))
        monkeypatch.setattr(abelian_eval, "rank_mod", recording(abelian_eval.rank_mod))
        for seed in range(20):
            K = random_complex(seed)
            for C in (K, cone(identity_chain_map(K))):
                ranked.clear()
                cohomology(C, field)
                assert sorted(map(id, ranked)) == sorted(map(id, C.d.values()))
                assert not any(m.is_zero() for m in ranked)

    def test_multiplication_by_p_separates_fields(self):
        K = VectComplex({0: 1, 1: 1}, {0: [[5]]})
        assert cohomology(K, RATIONALS) == {}
        assert cohomology(K, Field(5)) == {0: 1, 1: 1}
        assert cohomology(K, Field(3)) == {}

    def test_cone_matches_the_block_built_cone(self):
        maps = [
            f
            for X in (TWO_CHAIN, figure_one_poset("X1"))
            for seed in range(20)
            for f in random_qis_map(X, seed).components.values()
        ]
        assert any(f.source.d and f.f for f in maps)  # -d_K and f both occur
        K, zero = random_complex(7), VectComplex({}, {})
        assert K.d
        g = next(f for f in maps if f.source.d and f.target.d)
        maps += [
            identity_chain_map(K),
            ChainMap(zero, K, {}),
            ChainMap(K, zero, {}),
            shift_chain_map(g, 1),
            shift_chain_map(g, -3),
        ]
        for f in maps:
            assert cone(f) == block_cone(f)

    def test_shift_negates_differential(self):
        K = random_complex(7)
        S = shift_complex(K, 1)
        assert S.dims == {t - 1: n for t, n in K.dims.items()}
        for t, m in K.d.items():
            assert S.diff(t - 1).tolist() == m.neg().tolist()


class TestRejectedShapes:
    """The shape and base checks of complexes, chain maps, diagrams and
    diagram maps, each named by its message."""

    S, T = VectComplex({0: 1}, {}), VectComplex({0: 2}, {})

    def _diagram(self):
        # S at "1", T at "2", included as the first coordinate
        r = {("1", "2"): ChainMap(self.S, self.T, {0: [[1], [0]]})}
        return PosetDiagram(TWO_CHAIN, {"1": self.S, "2": self.T}, r)

    def test_negative_dimension(self):
        with pytest.raises(ShapeMismatch, match="negative dimension"):
            VectComplex({0: -1}, {})

    def test_degrees_and_dimensions_are_integers(self):
        # int() used to truncate: {0: 1.5, 0.7: 2} had dims {0: 2}
        with pytest.raises(ParseError, match="dimension must be an integer, got 1.5"):
            VectComplex({0: 1.5}, {})
        with pytest.raises(ParseError, match="degree must be an integer, got 0.7"):
            VectComplex({0.7: 2}, {})
        with pytest.raises(ParseError, match="degree must be an integer, got '0'"):
            VectComplex({0: 1, 1: 1}, {"0": [[1]]})
        with pytest.raises(ParseError, match="degree must be an integer, got 0.0"):
            ChainMap(self.S, self.T, {0.0: [[1], [0]]})
        with pytest.raises(ParseError, match="matrix entry must be an integer, got 0.5"):
            ChainMap(self.S, self.T, {0: [[0.5], [0]]})

    def test_dims_differentials_and_components_are_mappings(self):
        # each used to raise a raw TypeError or AttributeError
        with pytest.raises(ParseError, match="matrix rows must be sequences of integers, got 5"):
            VectComplex({0: 1}, {0: 5})
        with pytest.raises(ParseError, match=r"dims must be a mapping by degree, got \[1\]"):
            VectComplex([1], {})
        with pytest.raises(ParseError, match=r"differentials must be a mapping by degree, got \[1\]"):
            VectComplex({0: 1}, [1])
        with pytest.raises(ParseError, match=r"components must be a mapping by degree, got \[1\]"):
            ChainMap(self.S, self.T, [1])

    def test_differential_of_the_wrong_shape(self):
        with pytest.raises(ShapeMismatch, match="differential at degree 0 must be 1x1"):
            VectComplex({0: 1, 1: 1}, {0: [[1, 1]]})

    def test_chain_map_component_of_the_wrong_shape(self):
        with pytest.raises(ShapeMismatch, match="component at degree 0 must be 2x1"):
            ChainMap(self.S, self.T, {0: [[1, 0]]})

    def test_diagram_restriction_with_wrong_ends(self):
        r = {("1", "2"): identity_chain_map(self.T)}
        with pytest.raises(ShapeMismatch, match="restriction for '1' <= '2' has wrong ends"):
            PosetDiagram(TWO_CHAIN, {"1": self.S, "2": self.T}, r)

    def test_diagram_map_over_different_bases(self):
        other = random_diagram(poset_from_generators(["1", "2"], []), 1)
        with pytest.raises(BaseMismatch, match="diagram maps need a common base poset"):
            DiagramMap(self._diagram(), other, {})

    def test_diagram_map_component_with_wrong_ends(self):
        K = self._diagram()
        swapped = {"1": identity_chain_map(self.T), "2": identity_chain_map(self.S)}
        with pytest.raises(ShapeMismatch, match="component at '1' has wrong ends"):
            DiagramMap(K, K, swapped)

    def test_evaluated_d_squared_names_the_evaluation(self):
        # an unchecked value whose two degree-preserving entries compose to
        # a nonzero d·d at a stalk Z in degree 0 (check_formula rejects it)
        xi = CObject((("1", 0), ("1", -1), ("1", -2)), TWO_CHAIN)
        f = FormulaToPoint(xi, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
        assert check_formula(f) is not None
        r = {("1", "2"): identity_chain_map(self.S)}
        K = PosetDiagram(TWO_CHAIN, {"1": self.S, "2": self.S}, r)
        with pytest.raises(D2NotZero, match="evaluated differential fails to square to zero"):
            eval_point(f, K)


class TestDiagrams:
    def test_complex_at_a_stray_element_is_rejected(self):
        K = random_diagram(TWO_CHAIN, 1)
        with pytest.raises(ParseError, match="complex given at '3', which is not"):
            PosetDiagram(TWO_CHAIN, {**K.K, "3": K.K["1"]}, K.r)
        with pytest.raises(ParseError, match="no complex at element '2'"):
            PosetDiagram(TWO_CHAIN, {"1": K.K["1"]}, K.r)

    def test_restriction_for_an_unrelated_pair_is_rejected(self):
        K = random_diagram(TWO_CHAIN, 1)
        r = {**K.r, ("2", "1"): K.r[("1", "2")]}
        with pytest.raises(ParseError, match="restriction given for unrelated pair '2', '1'"):
            PosetDiagram(TWO_CHAIN, K.K, r)

    def test_a_diagonal_automorphism_is_not_the_identity(self):
        # 2·I at the maximal element "2" is a chain automorphism, so only the
        # identity check rejects it: cover_triangles has no triangle (1, 2, 2)
        K = next(
            K for K in (random_diagram(TWO_CHAIN, seed) for seed in range(20))
            if K.r[("1", "2")].f
        )
        doubled = {i: m.scale(2) for i, m in identity_chain_map(K.K["2"]).f.items()}
        r = {**K.r, ("2", "2"): ChainMap(K.K["2"], K.K["2"], doubled)}
        with pytest.raises(DiagramAxiomFailure, match=r"at \('2','2'\) is not the identity"):
            PosetDiagram(TWO_CHAIN, K.K, r)

    def test_component_at_a_stray_element_is_rejected(self):
        K = random_diagram(TWO_CHAIN, 1)
        ident = {x: identity_chain_map(K.K[x]) for x in TWO_CHAIN.elements}
        with pytest.raises(ParseError, match="component given at '3', which is not"):
            DiagramMap(K, K, {**ident, "3": ident["1"]})
        assert DiagramMap(K, K, ident).components == ident


def _support_pairs(K) -> set:
    """The related pairs of K's base whose two stalks are nonzero."""
    return {(x, x2) for x, x2 in K.base.leq if K.K[x].dims and K.K[x2].dims}


def _sparse_guard_gluings() -> list:
    return (
        [figure_one_gluing(pair)[0] for pair in FIGURE_ONE_PAIRS]
        + [random_gluing(seed) for seed in range(20)]
        + [chain_of_chains(10, 4)]
    )


class TestSparseDiagrams:
    """A diagram stores a restriction only between two nonzero stalks; the
    input may give or leave out the pairs with a zero end."""

    S, Z = VectComplex({0: 1}, {}), VectComplex({}, {})
    CHAIN = poset_from_generators(["a", "b", "c"], [("a", "b"), ("b", "c")])

    def test_dense_and_sparse_input_are_one_diagram(self):
        # random_diagram(X1, 0) is zero at "1"; given every related pair, the
        # zero maps included, it is the same diagram and evaluates the same
        g = figure_one_gluing(FIGURE_ONE_PAIRS[0])[0]
        xi_plus, _ = build_theorem_formulas(g)
        compared = 0
        for seed in range(5):
            K = random_diagram(xi_plus.base, seed)
            dense = {pair: restriction(K, *pair) for pair in K.base.leq}
            D = PosetDiagram(K.base, K.K, dense, check=True)
            compared += len(dense) - len(K.r)
            assert D == K and D.r == K.r and D.r.keys() == _support_pairs(K)
            assert eval_formula(xi_plus, D) == eval_formula(xi_plus, K)
        assert compared

    def test_a_given_pair_with_a_zero_end_has_its_ends_checked(self):
        r = {("1", "2"): ChainMap(self.S, self.S, {})}
        with pytest.raises(ShapeMismatch, match="restriction for '1' <= '2' has wrong ends"):
            PosetDiagram(TWO_CHAIN, {"1": self.Z, "2": self.S}, r)
        K = PosetDiagram(TWO_CHAIN, {"1": self.Z, "2": self.S}, {})
        assert K.r.keys() == {("2", "2")}

    def test_an_unrelated_pair_with_a_zero_end_is_rejected(self):
        r = {("2", "1"): ChainMap(self.S, self.Z, {})}
        with pytest.raises(ParseError, match="restriction given for unrelated pair '2', '1'"):
            PosetDiagram(TWO_CHAIN, {"1": self.Z, "2": self.S}, r)

    def test_a_zero_middle_stalk_asks_the_outer_restriction_to_vanish(self):
        stalks = {"a": self.S, "b": self.Z, "c": self.S}
        zero = ChainMap(self.S, self.S, {})
        assert PosetDiagram(self.CHAIN, stalks, {("a", "c"): zero}).r[("a", "c")] == zero
        r = {("a", "c"): identity_chain_map(self.S)}
        with pytest.raises(
            DiagramAxiomFailure, match="restrictions do not compose along 'a' <= 'b' <= 'c'"
        ):
            PosetDiagram(self.CHAIN, stalks, r)

    def test_a_naturality_square_with_a_zero_end_is_checked(self):
        # one stalk of the target, then of the source, is zero at an end of
        # the edge 1 < 2: the omitted restriction's side of the square is
        # zero, so the other side must vanish too
        ident, zero = identity_chain_map(self.S), ChainMap(self.S, self.S, {})
        full = PosetDiagram(TWO_CHAIN, {"1": self.S, "2": self.S}, {("1", "2"): ident})
        for source, target, omitted in (
            (full, PosetDiagram(TWO_CHAIN, {"1": self.Z, "2": self.S}, {}), "1"),
            (PosetDiagram(TWO_CHAIN, {"1": self.S, "2": self.Z}, {}), full, "2"),
        ):
            to_zero = ChainMap(source.K[omitted], target.K[omitted], {})
            kept = "2" if omitted == "1" else "1"
            with pytest.raises(NaturalityFailure) as info:
                DiagramMap(source, target, {omitted: to_zero, kept: ident})
            assert info.value.edge == ("1", "2")
            DiagramMap(source, target, {omitted: to_zero, kept: zero})

    def test_no_stored_restriction_has_a_zero_end(self):
        # the draws, shift_diagram and the evaluated unit and counit store
        # exactly the support pairs; the zero stalks make it no empty claim
        omitted = 0
        for g in _sparse_guard_gluings():
            eps_pm, eps_mp = build_epsilons(g, *build_theorem_formulas(g))
            K = random_diagram(eps_mp.source.base, 0)
            L = random_diagram(eps_pm.source.base, 0)
            unit, counit = eps_mp.evaluate(K), eps_pm.evaluate(L)
            for D in (K, L, shift_diagram(K, 2), unit.source, unit.target, counit.source,
                      counit.target):
                assert D.r.keys() == _support_pairs(D)
                omitted += len(D.base.leq) - len(D.r)
        assert omitted


class TestQuasiIso:
    def test_identity_and_cone(self):
        for seed in range(10):
            K = random_complex(seed)
            ident = identity_chain_map(K)
            assert is_quasi_iso(ident)
            assert cohomology(cone(ident)) == {}

    def test_random_qis_components_pass_both_checks(self):
        count = 0
        for X in (TWO_CHAIN, figure_one_poset("X1")):
            for seed in range(40):
                g = random_qis_map(X, seed, max_dim=2, window=(-1, 1))
                for x in X.elements:
                    f = g.components[x]
                    assert is_quasi_iso(f), seed
                    assert induced_qis(f), seed
                    count += 1
        assert count == 40 * (2 + 7)

    def test_zero_maps_agree_with_oracle(self):
        disagreements = 0
        nontrivial = 0
        for seed in range(60):
            K = random_complex(derive_seed(seed, "zk"))
            L = random_complex(derive_seed(seed, "zl"))
            zero = ChainMap(K, L, {}, check=True)
            lib = is_quasi_iso(zero)
            oracle = induced_qis(zero)
            if lib != oracle:
                disagreements += 1
            if not lib:
                nontrivial += 1
        assert disagreements == 0
        assert nontrivial > 10, "the negative branch was barely exercised"

    def test_inclusion_into_padded_sum_is_qis(self):
        K = random_complex(3)
        acyclic = VectComplex({0: 1, 1: 1}, {0: [[1]]})
        padded_dims = {
            t: K.dim(t) + acyclic.dim(t) for t in set(K.dims) | set(acyclic.dims)
        }
        d = {}
        for t in set(padded_dims) | {t - 1 for t in padded_dims}:
            rows = []
            for i in range(K.dim(t + 1)):
                rows.append(
                    list(K.diff(t).tolist()[i]) + [0] * acyclic.dim(t)
                )
            for i in range(acyclic.dim(t + 1)):
                rows.append(
                    [0] * K.dim(t) + list(acyclic.diff(t).tolist()[i])
                )
            m = Mat.from_rows(rows) if rows else Mat.zero(0, padded_dims.get(t, 0))
            if not m.is_zero():
                d[t] = m
        padded = VectComplex(padded_dims, d, check=True)
        f = {
            t: Mat.from_rows(
                [
                    [1 if i == j else 0 for j in range(K.dim(t))]
                    + [0] * 0
                    for i in range(K.dim(t))
                ]
                + [[0] * K.dim(t) for _ in range(acyclic.dim(t))]
            )
            for t in K.dims
        }
        incl = ChainMap(K, padded, f, check=True)
        assert is_quasi_iso(incl)
        assert induced_qis(incl)

    def test_field_changes_the_verdict(self):
        K = VectComplex({0: 1, 1: 1}, {0: [[5]]})
        zero_complex = VectComplex({}, {})
        to_zero = ChainMap(K, zero_complex, {}, check=True)
        assert is_quasi_iso(to_zero, RATIONALS)
        assert not is_quasi_iso(to_zero, Field(5))

    def test_a_failing_component_that_recurs_fails_the_diagram(self):
        # the zero map on a stalk with cohomology is the only component
        # object that is not a quasi-isomorphism, at "b" and again at "c"
        X = poset_from_generators(["a", "b", "c"], [])
        K = VectComplex({0: 1}, {})
        D = PosetDiagram(X, {x: K for x in X.elements}, {})
        zero = ChainMap(K, K, {})
        f = DiagramMap(D, D, {"a": identity_chain_map(K), "b": zero, "c": zero})
        assert not is_quasi_iso_diagram(f)
        assert is_quasi_iso_diagram(DiagramMap(D, D, {x: identity_chain_map(K) for x in X.elements}))

    def test_one_cone_per_distinct_component_object(self, monkeypatch):
        # trial 0 of chain_of_chains(10, 4): the unit and the counit each
        # have 50 components, but the evaluator shares them between
        # elements: 6 distinct objects in the unit and 4 in the counit
        g = chain_of_chains(10, 4)
        eps_pm, eps_mp = build_epsilons(g, *build_theorem_formulas(g))
        tseed = derive_seed(0, "trial", 0)
        unit = eps_mp.evaluate(random_diagram(eps_mp.source.base, derive_seed(tseed, "plus")))
        counit = eps_pm.evaluate(random_diagram(eps_pm.source.base, derive_seed(tseed, "minus")))
        cones = []
        monkeypatch.setattr(abelian_eval, "cone", lambda c: cones.append(c) or cone(c))
        assert is_quasi_iso_diagram(unit) and is_quasi_iso_diagram(counit)
        distinct = [{id(c) for c in m.components.values()} for m in (unit, counit)]
        assert [len(m.components) for m in (unit, counit)] == [50, 50]
        assert len(cones) == sum(map(len, distinct)) == 10
        assert {id(c) for c in cones} == distinct[0] | distinct[1]


class TestEvalFormulas:
    def test_stalk_formula_is_the_shifted_stalk(self):
        for seed in range(15):
            K = random_diagram(TWO_CHAIN, seed, max_dim=2, window=(-1, 1))
            assert eval_point(_xi1(), K) == shift_complex(K.K["1"], 1)
            assert eval_point(_xi2(), K) == K.K["2"]

    def test_arrow_formula_is_the_cone_of_the_restriction(self):
        for seed in range(25):
            K = random_diagram(TWO_CHAIN, seed, max_dim=2, window=(-1, 1))
            assert eval_point(formula_cat.XI12, K) == cone(restriction(K, "1", "2"))

    def test_translation_formula_evaluates_to_the_shift(self):
        # The general evaluator on the untagged words ((x, n),) is the
        # reference for shift_diagram, which evaluates translation_formula.
        for X in glued_orders():
            for n in range(-2, 3):
                words = canonical_formula(X, X, {x: ((x, n),) for x in X.elements})
                nu = translation_formula(X, n)
                assert words.shift is None and nu.shift == n
                for seed in range(20):
                    K = random_diagram(X, seed)
                    shifted = shift_diagram(K, n)
                    assert eval_formula(words, K) == shifted == eval_formula(nu, K), (n, seed)
                    for f in shifted.r.values():
                        ChainMap(f.source, f.target, f.f, check=True)
                    PosetDiagram(X, shifted.K, shifted.r, check=True)
                    for x in X.elements:
                        for x2 in X.elements:
                            shared = K.K[x] is K.K[x2]
                            assert shared == (shifted.K[x] is shifted.K[x2]), (n, seed)

    def test_starred_shift_evaluates_to_the_shifted_value(self):
        # the plain word shift only agrees up to the diagonal sign
        # isomorphism; the negated-star form matches on the nose.
        for seed in range(10):
            K = random_diagram(TWO_CHAIN, seed, max_dim=2, window=(-1, 1))
            for f in (_xi1(), formula_cat.XI12, formula_cat.XI212):
                assert eval_point(negated_star_shift(f), K) == shift_complex(
                    eval_point(f, K), 1
                )
                shifted = eval_point(shift(f, 1), K)
                assert shifted.dims == shift_complex(eval_point(f, K), 1).dims

    def test_i_xi_evaluates_to_an_isomorphism(self):
        for seed in range(10):
            K = random_diagram(TWO_CHAIN, seed, max_dim=2, window=(-1, 1))
            for f in (formula_cat.XI12, formula_cat.XI121):
                src, tgt = eval_point(shift(f, 1), K), eval_point(negated_star_shift(f), K)
                j = ChainMap(src, tgt, eval_cmorphism(i_xi(f), K).f, check=True)
                assert is_quasi_iso(j)
                assert induced_qis(j)
                for t in j.f:
                    m = j.at(t).tolist()
                    assert all(
                        abs(m[i][k]) == (1 if i == k else 0)
                        for i in range(len(m))
                        for k in range(len(m[i]))
                    )

    @pytest.mark.parametrize("kind", ["non-cover", "diagonal"])
    def test_unchecked_restrictions_are_proved_by_the_diagram(self, monkeypatch, kind):
        # eval_formula checks each distinct restriction as a chain map; a
        # wrong diagonal or non-cover restriction that is still a chain map
        # (twice the right one) must be rejected by PosetDiagram's identity
        # and composition checks.  The evaluator makes one set of matrices
        # per key, so the perturbation hits every restriction with the
        # chosen one's key, and the chosen key is one that no Hasse edge
        # has: the Hasse edges stay right.
        g, _, _ = figure_one_gluing(FIGURE_ONE_PAIRS[0])
        F = build_theorem_formulas(g)[0]
        covers = hasse(F.target).edges
        pairs = [
            p for p in sorted(F.target.leq)
            if (p[0] == p[1]) == (kind == "diagonal") and p not in covers
        ]
        real = abelian_eval._Evaluation.matrices

        def unchecked(ev, p):
            key = evaluation_key(ev, F.res[p])
            return key not in {evaluation_key(ev, F.res[c]) for c in covers}

        K, phi = next(
            (K, F.res[p])
            for K in (random_diagram(build_plus(g).poset, seed) for seed in range(20))
            for ev in [abelian_eval._Evaluation(K)]
            for p in pairs
            if real(ev, F.res[p]) and unchecked(ev, p)
        )
        assert list(F.res.values()).count(phi) == 1

        def perturbed(ev, psi):
            out = real(ev, psi)
            if evaluation_key(ev, psi) == evaluation_key(ev, phi):
                out = {t: m.scale(2) for t, m in out.items()}
            return out

        eval_formula(F, K)
        monkeypatch.setattr(abelian_eval._Evaluation, "matrices", perturbed)
        with pytest.raises(DiagramAxiomFailure):
            eval_formula(F, K)

    def test_euler_ledger_is_audited_where_values_are_made(self, monkeypatch):
        K = random_diagram(TWO_CHAIN, 3)
        real = abelian_eval._eval_object_dims

        def miscounted(obj, K):
            # one extra dimension in a degree no differential reaches
            dims = real(obj, K)
            dims[max(dims, default=0) + 10] = 1
            return dims

        monkeypatch.setattr(abelian_eval, "_eval_object_dims", miscounted)
        for evaluate in (
            lambda: eval_point(formula_cat.XI12, K),
            lambda: eval_formula(harness.TWO_CHAIN_PLUS, K),
            lambda: verify_two_chain(trials=1),
        ):
            with pytest.raises(InternalInconsistency, match="Euler characteristic"):
                evaluate()

    def test_formula_map_of_identityish_diagram(self):
        g = random_qis_map(TWO_CHAIN, 5, max_dim=2, window=(-1, 1))
        Fg = eval_formula_map(harness.TWO_CHAIN_PLUS, g)
        assert isinstance(Fg, DiagramMap)
        assert is_quasi_iso_diagram(Fg)

    def test_formula_map_evaluates_each_value_once_per_end(self, monkeypatch):
        calls, contexts = [], []
        plus = harness.TWO_CHAIN_PLUS
        real, real_init = abelian_eval._Evaluation.point, abelian_eval._Evaluation.__init__
        monkeypatch.setattr(
            abelian_eval._Evaluation, "point", lambda ev, f: calls.append(f) or real(ev, f)
        )
        monkeypatch.setattr(
            abelian_eval._Evaluation,
            "__init__",
            lambda ev, K: contexts.append(K) or real_init(ev, K),
        )
        g = random_qis_map(TWO_CHAIN, 5)
        eval_formula_map(plus, g)
        assert len(calls) == 2 * len(plus.at)
        # the maps are laid out on the contexts of the two ends' evaluations
        assert contexts == [g.source, g.target]


# The antichain on TWO_CHAIN's elements: a diagram over it has a stalk for
# every entry of a word over TWO_CHAIN, so only the base check rejects it.
_DISCRETE = poset_from_generators(["1", "2"], [])


def _plus_identity() -> EpsilonTransform:
    plus = harness.TWO_CHAIN_PLUS
    return EpsilonTransform(plus, plus, {"1": [[1]], "2": [[1, 0], [0, 1]]})


def _nu_identity() -> EpsilonTransform:
    nu = formula_cat.NU
    return EpsilonTransform(nu, nu, {"1": [[1]], "2": [[1]]})


_OTHER_BASE = {
    "eval_point": lambda K, g: eval_point(formula_cat.XI12, K),
    "eval_cmorphism": lambda K, g: eval_cmorphism(harness.TWO_CHAIN_PLUS.res[("1", "2")], K),
    "eval_point_map": lambda K, g: eval_point_map(formula_cat.XI12, g),
    "eval_formula": lambda K, g: eval_formula(harness.TWO_CHAIN_PLUS, K),
    "eval_formula-translation": lambda K, g: eval_formula(formula_cat.NU, K),
    "eval_formula_map": lambda K, g: eval_formula_map(harness.TWO_CHAIN_PLUS, g),
    "EpsilonTransform.evaluate": lambda K, g: _plus_identity().evaluate(K),
    "EpsilonTransform.evaluate-translation": lambda K, g: _nu_identity().evaluate(K),
}


class TestEvaluationContext:
    @pytest.mark.parametrize("entry", sorted(_OTHER_BASE))
    def test_a_diagram_over_another_poset_is_rejected_first(self, monkeypatch, entry):
        K, g = random_diagram(_DISCRETE, 1), random_qis_map(_DISCRETE, 1)
        walks, contexts = [], []
        real_entries, real_init = abelian_eval._entries, abelian_eval._Evaluation.__init__
        monkeypatch.setattr(
            abelian_eval, "_entries", lambda phi: walks.append(phi) or real_entries(phi)
        )
        monkeypatch.setattr(
            abelian_eval._Evaluation,
            "__init__",
            lambda ev, K: contexts.append(ev) or real_init(ev, K),
        )
        with pytest.raises(BaseMismatch, match="formula and diagram live over different posets"):
            _OTHER_BASE[entry](K, g)
        # no entry walked, and no layout kept
        assert walks == []
        assert contexts
        assert all(not ev.layouts for ev in contexts)

    def test_a_translation_formula_evaluates_as_its_shift(self, monkeypatch):
        shifts = []
        real = abelian_eval.shift_diagram
        monkeypatch.setattr(
            abelian_eval, "shift_diagram", lambda K, n: shifts.append(n) or real(K, n)
        )
        K = random_diagram(TWO_CHAIN, 3)
        ev = abelian_eval._Evaluation(K)
        for n in (1, 2):
            assert ev.formula(translation_formula(TWO_CHAIN, n)) == real(K, n)
        assert shifts == [1, 2]

    def test_contexts_share_no_evaluation(self):
        K = random_diagram(TWO_CHAIN, 3)
        plus = harness.TWO_CHAIN_PLUS
        first, second = eval_formula(plus, K), eval_formula(plus, K)
        assert first == second
        assert first is not second


def _exact(matrices) -> dict:
    """Degreewise matrices as their reprs, which show every entry."""
    return {t: repr(m) for t, m in matrices.items()}


def _assert_dense(F, K, T):
    """T, the evaluation of F at K, has the dense evaluator's D at every value
    and its matrices at every restriction."""
    for y, f in F.at.items():
        assert _exact(T.K[y].d) == _exact(dense_graded(f.D, K)), y
    for pair, phi in F.res.items():
        assert _exact(restriction(T, *pair).f) == _exact(dense_graded(phi, K)), pair


def _plan_diagrams(X) -> tuple:
    """random_diagram seeds 0-4 and both ends of one random_qis_map over X,
    with the map."""
    g = random_qis_map(X, 0)
    return [random_diagram(X, seed) for seed in range(5)] + [g.source, g.target], g


def _assert_point_maps(F, g):
    """Each value of F applied to the diagram map g is the block-diagonal
    map of g's shifted components."""
    for f in F.at.values():
        mapped = eval_point_map(f, g)
        for t in set(mapped.source.dims) | set(mapped.target.dims):
            assert mapped.at(t).tolist() == _diagonal_eval(f.xi, g, t)


class TestEvaluationPlans:
    @pytest.mark.parametrize(
        "case",
        [*FIGURE_ONE_PAIRS, *range(40)],
        ids=lambda c: "-".join(c) if isinstance(c, tuple) else f"random{c}",
    )
    def test_plans_match_the_dense_evaluator(self, case):
        # every D, restriction and epsilon component of the theorem
        # formulas, their composites and the translations
        g = figure_one_gluing(case)[0] if isinstance(case, tuple) else random_gluing(case)
        xi_plus, xi_minus = build_theorem_formulas(g)
        eps_pm, eps_mp = build_epsilons(g, xi_plus, xi_minus)
        # over the plus order: xi_plus, and the unit from the translation
        # to the composite; over the minus order: xi_minus and the counit
        for F, eps in ((xi_plus, eps_mp), (xi_minus, eps_pm)):
            diagrams, qis = _plan_diagrams(F.base)
            for K in diagrams:
                _assert_dense(F, K, eval_formula(F, K))
                m = eps.evaluate(K)
                _assert_dense(eps.source, K, m.source)
                _assert_dense(eps.target, K, m.target)
                for y, phi in eps.components.items():
                    assert _exact(m.components[y].f) == _exact(dense_graded(phi, K)), y
            _assert_point_maps(F, qis)

    def test_two_chain_plans_match_the_dense_evaluator(self):
        diagrams, qis = _plan_diagrams(TWO_CHAIN)
        for F in (harness.TWO_CHAIN_PLUS, harness.TWO_CHAIN_MINUS):
            for K in diagrams:
                _assert_dense(F, K, eval_formula(F, K))
            _assert_point_maps(F, qis)

    def test_signs_and_coefficients_by_hand(self):
        # K(1) = Z -> Z in degrees 1, 2; K(2) = Z --3--> Z in degrees 1, 2;
        # the restriction is 1 in degree 1 and 3 in degree 2.
        K1 = VectComplex({1: 1, 2: 1}, {1: [[1]]})
        K2 = VectComplex({1: 1, 2: 1}, {1: [[3]]})
        r = ChainMap(K1, K2, {1: [[1]], 2: [[3]]})
        K = PosetDiagram(TWO_CHAIN, {"1": K1, "2": K2}, {("1", "2"): r})
        # entries: ("1",1) -> ("2",2) raises degree from an odd m_i, c = 2;
        # ("1",1) -> ("2",1) keeps it at an odd m_i, c = -1; ("2",0) ->
        # ("2",1) raises it from an even m_i, c = -1; ("2",0) -> ("2",0)
        # keeps it, c = 2.  The other positions are not canonical.
        src = CObject((("1", 1), ("2", 0)), TWO_CHAIN)
        tgt = CObject((("2", 2), ("2", 1), ("2", 0)), TWO_CHAIN)
        phi = CMorphism(src, tgt, [[2, 0], [-1, -1], [0, 2]])
        # degree 0: rows ("2",2), ("2",1), column ("1",1): 2·(-1)·d·r = -6
        # and -1·r = -1.  Degree 1: rows ("2",1), ("2",0), columns ("1",1),
        # ("2",0): -1·r = -3, -1·d = -3 and 2.  Degree 2: 2.
        want = {0: [[-6], [-1]], 1: [[-3, -3], [0, 2]], 2: [[2]]}
        got = eval_cmorphism(phi, K)
        assert {t: m.tolist() for t, m in got.f.items()} == want
        assert _exact(got.f) == _exact(dense_graded(phi, K))

    def test_plans_do_not_accumulate(self):
        # A plan lives on its morphism and goes with it: certifying fifty
        # new gluings leaves no plan of theirs behind.
        for seed in range(10):
            verify_equivalence(random_gluing(seed), trials=1)
        gc.collect()
        tracemalloc.start()
        try:
            for seed in range(10, 60):
                verify_equivalence(random_gluing(seed), trials=1)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert growth < _PLAN_GROWTH_BOUND, growth


def _scaled_diagram(X, scale: int) -> PosetDiagram:
    """One stalk object S = k^2 -> k at every element of X, and for x <= x2
    the restriction scale**(h(x2) - h(x)) times the identity in each
    degree, h the height: many different restrictions between one pair of
    stalk objects (all zero off the diagonal when scale is 0)."""
    S = VectComplex({0: 2, 1: 1}, {0: [[1, -1]]})
    r = {}
    for x, x2 in X.leq:
        c = scale ** (X.height(x2) - X.height(x))
        r[(x, x2)] = ChainMap(S, S, {t: Mat.identity(n).scale(c) for t, n in S.dims.items()})
    return PosetDiagram(X, {x: S for x in X.elements}, r)


def _restrictions_vary_between_stalks(K) -> bool:
    """True if two restrictions of K between the same pair of stalk objects
    differ, so that no function of the stalks decides a restriction."""
    seen = {}
    for (x, x2), f in K.r.items():
        if seen.setdefault((id(K.K[x]), id(K.K[x2])), f.f) != f.f:
            return True
    return False


def _assert_per_morphism(F, K, T):
    """T, the evaluation of F at K through one context, has at every y the
    complex of a fresh eval_point of F's value, and at every pair the
    matrices of a fresh eval_cmorphism of the restriction; over Q and F5
    their cohomology agrees too."""
    values = {y: eval_point(f, K) for y, f in F.at.items()}
    for y, value in values.items():
        assert T.K[y] == value, y
    for pair, phi in F.res.items():
        assert _exact(restriction(T, *pair).f) == _exact(eval_cmorphism(phi, K).f), pair
    for field in (RATIONALS, Field(5)):
        assert cohomology_table(T, field) == {
            y: cohomology(value, field) for y, value in values.items()
        }


_KEY_GLUINGS = {
    "figure-one": lambda: [figure_one_gluing(pair)[0] for pair in FIGURE_ONE_PAIRS],
    "random-gluings": lambda: [random_gluing(seed) for seed in range(40)],
    "chain-of-chains": lambda: [chain_of_chains(10, 4)],
}


class TestEvaluationKeys:
    @pytest.mark.parametrize("gluings", sorted(_KEY_GLUINGS))
    def test_keyed_evaluation_matches_fresh_per_morphism_evaluation(self, gluings):
        # The evaluator shares matrices, values and chain maps by key; on
        # diagrams whose restrictions are no function of their stalks
        # (an evaluated diagram, and one stalk object with scaled
        # restrictions) every value, restriction and component still equals
        # a fresh evaluation of that one morphism.
        varied = 0
        for g in _KEY_GLUINGS[gluings]():
            xi_plus, xi_minus = build_theorem_formulas(g)
            eps_pm, eps_mp = build_epsilons(g, xi_plus, xi_minus)
            plus, minus = xi_plus.base, xi_minus.base
            K, L = random_diagram(plus, 1), random_diagram(minus, 1)
            sides = (
                (xi_plus, eps_mp, [K, eval_formula(xi_minus, L)]),
                (xi_minus, eps_pm, [L, eval_formula(xi_plus, K)]),
            )
            for F, eps, inputs in sides:
                inputs += [_scaled_diagram(F.base, 2), _scaled_diagram(F.base, 0)]
                varied += sum(map(_restrictions_vary_between_stalks, inputs))
                for D in inputs:
                    _assert_per_morphism(F, D, eval_formula(F, D))
                    m = eps.evaluate(D)
                    _assert_per_morphism(eps.source, D, m.source)
                    _assert_per_morphism(eps.target, D, m.target)
                    for y, phi in eps.components.items():
                        assert _exact(m.components[y].f) == _exact(eval_cmorphism(phi, D).f), y
        assert varied

    def test_one_unit_and_counit_evaluation_does_pinned_work(self, monkeypatch):
        # On chain_of_chains(10, 4), one evaluation of the unit and of the
        # counit walks the entries of a morphism per distinct key, evaluates
        # a value per distinct key of its D, checks a chain map per distinct
        # object triple, and compares each distinct triangle and square of
        # objects once.  One of each per order pair would be 1,190 entry
        # walks, 100 values, 1,090 checks, 1,080 triangles and 170 squares.
        # A diagram keeps no restriction with a zero stalk at an end, so the
        # zero maps into and out of zero stalks are neither made and checked
        # as chain maps nor compared on triangles, whose walk visits only
        # those with both outer stalks nonzero: 22 checks and 13 triangles,
        # where a restriction at every order pair took 39 and 46.
        g = chain_of_chains(10, 4)
        eps_pm, eps_mp = build_epsilons(g, *build_theorem_formulas(g))
        K = random_diagram(eps_mp.source.base, 0)
        L = random_diagram(eps_pm.source.base, 0)
        counts = dict.fromkeys(("entries", "points", "checks", "triangles", "squares"), 0)

        def counted(name, real):
            def call(*args):
                counts[name] += 1
                return real(*args)

            return call

        def walk_counted(name, walk):
            # the walk with each comparison it makes counted
            def call(*args):
                return walk(*args[:-1], counted(name, args[-1]))

            return call

        E = abelian_eval._Evaluation
        monkeypatch.setattr(abelian_eval, "_entries", counted("entries", abelian_eval._entries))
        monkeypatch.setattr(E, "point", counted("points", E.point))
        monkeypatch.setattr(ChainMap, "_check", counted("checks", ChainMap._check))
        for name, walk in (("triangles", "_failing_triangle"), ("squares", "_failing_square")):
            monkeypatch.setattr(abelian_eval, walk, walk_counted(name, getattr(abelian_eval, walk)))
        unit, counit = eps_mp.evaluate(K), eps_pm.evaluate(L)
        assert unit.source == shift_diagram(K, 1) and counit.target == shift_diagram(L, 1)
        assert len(covers(K.base)) + len(covers(L.base)) == 170
        assert counts == {"entries": 22, "points": 10, "checks": 22, "triangles": 13, "squares": 23}


def _maps_json(maps) -> dict:
    return {
        str(key): {str(t): m.tolist() for t, m in sorted(f.f.items())}
        for key, f in maps.items()
    }


def _diagram_json(K) -> dict:
    # every related pair, the omitted ones as their zero maps
    r = {pair: restriction(K, *pair) for pair in K.base.leq}
    return {"K": {x: complex_to_json(c) for x, c in K.K.items()}, "r": _maps_json(r)}


def _diagram_map_json(g) -> dict:
    return {
        "source": _diagram_json(g.source),
        "target": _diagram_json(g.target),
        "components": _maps_json(g.components),
    }


# SHA-256 of the canonical JSON of each generator's draws for seeds 0-19:
# stalks, restrictions and components, so any change to a draw shows here.
_DRAWS = {
    "diagram": lambda X, s: _diagram_json(random_diagram(X, s)),
    "qis": lambda X, s: _diagram_map_json(
        random_qis_map(X, s, max_dim=2, window=(-1, 1))
    ),
    "ses": lambda X, s: [
        _diagram_map_json(g) for g in random_ses(X, s)
    ],
}
_DRAW_DIGESTS = {
    ("diagram", "two-chain"): "7a739221d9f4e3c23c72acb74422bfafa9031ccbb5350049032f828a5ab8f337",
    ("diagram", "X1"): "556ee694fe337995d1402c8bf282c052084a45b74ec2404c1b28fc361cdb8e32",
    ("qis", "two-chain"): "f32bca40b784ae77b12ab30e159361d9cbe069d252a40a6c6c12ed2bcb7b4668",
    ("qis", "X1"): "c47993b02ea7887e45fdc393311429a1cfea0e4efa64454dfca6c8ab34adee9c",
    ("ses", "two-chain"): "3e67232ae51fd9de07dfda2567c738eef0ff4d970f6d13cf08418cdce9988354",
    ("ses", "X1"): "ab01488977175b23838f63cffe013a05240591e1d57363ec50552b451aea7388",
}


def _draw_orders() -> list:
    """The glued orders of the Figure-1 gluings and of random_gluing 0-19."""
    gluings = [figure_one_gluing(pair)[0] for pair in FIGURE_ONE_PAIRS]
    gluings += [random_gluing(seed) for seed in range(20)]
    return [build(g).poset for g in gluings for build in (build_plus, build_minus)]


class TestRandomGenerators:
    @pytest.mark.parametrize("kind, order", sorted(_DRAW_DIGESTS))
    def test_draws_are_pinned(self, kind, order):
        X = TWO_CHAIN if order == "two-chain" else figure_one_poset(order)
        doc = json.dumps([_DRAWS[kind](X, s) for s in range(20)], sort_keys=True)
        digest = hashlib.sha256(doc.encode()).hexdigest()
        assert digest == _DRAW_DIGESTS[(kind, order)]

    def test_null_homotopic_draws_its_blocks_in_ascending_degree(self):
        # S over degrees -2..0 and T one degree lower: three blocks of h,
        # in degrees whose set need not iterate in sorted order
        S = VectComplex({-2: 1, -1: 2, 0: 1}, {-2: [[1], [0]], -1: [[0, 1]]})
        T = VectComplex({-3: 1, -2: 2, -1: 1}, {-3: [[1], [0]], -2: [[0, 1]]})
        for seed in range(20):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            got = _random_null_homotopic(rng, S, T)
            assert {t: m.tolist() for t, m in got.items()} == null_homotopic_reference(
                ref, S, T
            ), seed
            assert rng._state == ref._state

    def test_unimodular_matches_the_shear_product(self):
        for n in range(1, 5):
            for seed in range(50):
                rng, ref = SplitMix64(seed), SplitMix64(seed)
                U, Uinv = abelian_eval._unimodular(n, abelian_eval._unimodular_steps(rng, n))
                assert (U, Uinv) == shear_product_unimodular(ref, n), (n, seed)
                assert U.mul(Uinv) == Mat.identity(n)
                assert rng._state == ref._state

    def test_a_draw_fixes_the_dims_and_cohomology_of_its_pieces(self):
        # The recipes of a draw, without building S: their elementary pieces
        # give the built S's dims, and their stalk pieces its cohomology over
        # every field; drawing alone leaves the generator where drawing and
        # building does.
        fields = (RATIONALS, Field(2), Field(3), Field(5))
        for X in _draw_orders():
            for seed in range(50):
                rng, ref = SplitMix64(seed), SplitMix64(seed)
                recipes = abelian_eval._draw_pieces(X, rng, 3, (-2, 2))
                pieces = abelian_eval._build_pieces(abelian_eval._draw_pieces(X, ref, 3, (-2, 2)))
                assert rng._state == ref._state, seed
                for (u, elem, _), (v, S) in zip(recipes, pieces, strict=True):
                    assert u == v
                    dims = {}
                    for kind, i in elem:
                        for t in (i, i + 1) if kind == "two" else (i,):
                            dims[t] = dims.get(t, 0) + 1
                    assert S.dims == dims
                    stalks = {}
                    for kind, i in elem:
                        if kind == "stalk":
                            stalks[i] = stalks.get(i, 0) + 1
                    assert abelian_eval._recipe_cohomology(elem) == stalks
                    for field in fields:
                        assert cohomology(S, field) == stalks, (seed, field)

    def test_random_diagram_is_deterministic_and_valid(self):
        # Every drawn diagram passes the axioms, and every random_diagram is
        # a split sum: each restriction, in each degree, is a 0/1 matrix with
        # exactly one 1 in each column and at most one in each row.
        for X in glued_orders():
            for seed in range(20):
                K = random_diagram(X, seed)
                assert K == random_diagram(X, seed)
                g = random_qis_map(X, seed)
                for D in (K, g.source, g.target):
                    for f in D.r.values():
                        ChainMap(f.source, f.target, f.f, check=True)
                    PosetDiagram(D.base, D.K, D.r, check=True)
                for (x, x2), f in K.r.items():
                    for t in f.source.dims:
                        m = f.at(t)
                        assert all(v in (0, 1) for row in m.rows for v in row), (seed, x, x2, t)
                        assert all(sum(col) == 1 for col in m.transpose().rows), (seed, x, x2, t)
                        assert all(sum(row) <= 1 for row in m.rows), (seed, x, x2, t)

    @pytest.mark.parametrize(
        "max_dim, window, message",
        [
            (0, (-2, 2), "max_dim must be at least 1, got 0"),
            (3, (2, -2), r"degree window \[2, -2\] is empty"),
            (3, (0,), r"window must be a pair of ints, got \(0,\)"),
            ("3", (-2, 2), "max_dim must be an int, got '3'"),
        ],
    )
    def test_random_diagram_rejects_bounds_out_of_range(self, max_dim, window, message):
        # the bounds of every verification run, with their messages
        with pytest.raises(ParseError, match=message):
            random_diagram(figure_one_poset("X1"), 1, max_dim, window)

    @pytest.mark.parametrize(
        "seed, message",
        [
            ("3", "seed must be an int, got '3'"),
            (1.5, "seed must be an int, got 1.5"),
            (True, "seed must be an int, got True"),
            (-1, r"seed must be in \[0, 2\*\*64\), got -1"),
            (2**64 + 1, rf"seed must be in \[0, 2\*\*64\), got {2**64 + 1}"),
        ],
    )
    def test_random_diagram_rejects_seeds_out_of_range(self, seed, message):
        # the seed bounds of every verification run, with their messages:
        # the RNG reads seeds modulo 2**64, so -1 and 2**64 + 1 would draw
        # the diagrams of other seeds
        with pytest.raises(ParseError, match=message):
            random_diagram(figure_one_poset("X1"), seed)

    def test_random_diagram_builds_each_stalk_once(self, monkeypatch):
        # one direct sum per distinct piece set {k : u_k <= x}, shared by the
        # elements that have it
        calls, drawn = [], []
        real_sum, real_pieces = abelian_eval.direct_sum_complexes, abelian_eval._build_pieces
        monkeypatch.setattr(
            abelian_eval,
            "direct_sum_complexes",
            lambda parts: calls.append(1) or real_sum(parts),
        )
        monkeypatch.setattr(
            abelian_eval,
            "_build_pieces",
            lambda *args: drawn.append(real_pieces(*args)) or drawn[-1],
        )
        shared = 0
        for X in (TWO_CHAIN, figure_one_poset("X1")):
            for seed in range(10):
                calls.clear()
                drawn.clear()
                K = random_diagram(X, seed)
                (pieces,) = drawn
                sets = {
                    x: frozenset(k for k, (u, _) in enumerate(pieces) if x in X.up_set(u))
                    for x in X.elements
                }
                assert len(calls) == len(set(sets.values())) <= len(X)
                for x in X.elements:
                    for x2 in X.elements:
                        if sets[x] == sets[x2]:
                            assert K.K[x] is K.K[x2]
                shared += len(set(sets.values())) < len(X)
        assert shared  # some draw has two elements with one piece set

    def test_random_ses_is_degreewise_exact(self):
        for seed in range(20):
            assert ses_preservation_holds(seed)

    def test_random_ses_is_exact_at_every_element_of_a_branching_order(self):
        X = figure_one_poset("X1")
        for seed in range(20):
            incl, proj = random_ses(X, seed)
            for x in X.elements:
                i, p = incl.components[x], proj.components[x]
                for t in i.target.dims:
                    A, B = i.at(t).tolist(), p.at(t).tolist()
                    assert frac_rank(A) == i.source.dim(t), (seed, x, t)
                    assert frac_rank(B) == p.target.dim(t), (seed, x, t)
                    assert not any(v for row in matmul(B, A) for v in row), (seed, x, t)
                    assert frac_rank(A) + frac_rank(B) == i.target.dim(t), (seed, x, t)

    def test_cohomology_table_shape(self):
        K = random_diagram(TWO_CHAIN, 2)
        table = cohomology_table(K)
        assert set(table) == {"1", "2"}
        assert table["1"] == frac_cohomology(K.K["1"])

    def test_cohomology_table_ranks_each_stalk_object_once(self, monkeypatch):
        # draws share stalk objects by piece set and shift_diagram keeps that
        # sharing, so a table makes one cohomology call per distinct object
        real = abelian_eval.cohomology
        calls = []
        monkeypatch.setattr(
            abelian_eval, "cohomology", lambda C, field: calls.append(C) or real(C, field)
        )
        X = figure_one_poset("X1")
        shared = 0
        for seed in range(10):
            K = random_diagram(X, seed)
            for D in (K, shift_diagram(K, 1)):
                calls.clear()
                table = cohomology_table(D)
                stalks = {id(C) for C in D.K.values()}
                assert len(calls) == len(stalks), seed
                assert table == {x: real(D.K[x]) for x in X.elements}, seed
                shared += len(stalks) < len(X.elements)
        assert shared  # the sharing occurs


class TestFunctorLaws:
    def test_eta_composition(self):
        assert all(eta_composition_holds(s) for s in range(40))

    def test_eta_naturality(self):
        assert all(eta_naturality_holds(s) for s in range(40))

    def test_qis_preservation_with_oracle_cross_check(self):
        for seed in range(25):
            assert qis_preservation_holds(seed)
        # independent oracle spot check on the evaluated maps
        for seed in range(8):
            g = random_qis_map(TWO_CHAIN, derive_seed(seed, "qis"), max_dim=2, window=(-1, 1))
            assert induced_qis(eval_point_map(formula_cat.XI121, g))
