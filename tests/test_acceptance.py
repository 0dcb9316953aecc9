"""Acceptance gate: the nine top-level criteria, one test (and one line) each.

Each test prints `criterion N (<label>): PASS` when its assertions hold, so a
verbose run shows one pass/fail line per criterion.  Numeric tolerances are
exact (integer/rational arithmetic throughout); the two stated time bounds
are asserted with wall-clock measurements.
"""

from __future__ import annotations

import time
from functools import lru_cache

import pytest

from posetglue.abelian_eval import RATIONALS, Field
from posetglue.errors import AntichainViolation
from posetglue.formula_cat import (
    ALPHA1,
    ALPHA2,
    BETA1,
    BETA2,
    H121,
    H212,
    XI12,
    XI121,
    XI212,
    check_homotopy,
    compose,
    substitute,
)
from posetglue.gluing import build_minus, build_plus, ordinal_witness, validate_gluing
from posetglue.harness import (
    FIGURE_ONE_PAIRS,
    TWO_CHAIN_MINUS,
    TWO_CHAIN_PLUS,
    counterexample_data,
    figure_one_gluing,
    random_gluing,
    verify_bgp_path,
    verify_equivalence,
    verify_two_chain,
    verify_x1z,
)
from posetglue.poset_core import (
    direct_sum,
    is_isomorphic,
    ordinal_sum,
    poset_from_generators,
)
from posetglue.rng import SplitMix64, derive_seed

from conftest import (
    eta_composition_holds,
    eta_naturality_holds,
    qis_preservation_holds,
    ses_preservation_holds,
)

SMALL = {"trials": 25, "max_dim": 2, "window": (-1, 1)}


def _report(n: int, label: str) -> None:
    print(f"criterion {n} ({label}): PASS", flush=True)


# --- shared runs (computed once, reused by the field-independence criterion) ----

@lru_cache(maxsize=None)
def _two_chain_cert(field_p):
    return verify_two_chain(trials=100, seed=0, field=Field(field_p))


@lru_cache(maxsize=None)
def _theorem_certs(field_p):
    field = Field(field_p)
    certs = []
    for pair in FIGURE_ONE_PAIRS:
        g, _, _ = figure_one_gluing(pair)
        certs.append(verify_equivalence(g, field=field, **SMALL))
    for seed in range(50):
        certs.append(verify_equivalence(random_gluing(seed), field=field, **SMALL))
    return certs


@lru_cache(maxsize=None)
def _x1z_certs(field_p):
    field = Field(field_p)
    certs = []
    for i in range(20):
        X, Z = _random_x1z_pair(i)
        certs.append(
            verify_x1z(X, Z, trials=5, field=field, max_dim=2, window=(-1, 1))
        )
    return certs


@lru_cache(maxsize=None)
def _bgp_reports(field_p):
    field = Field(field_p)
    verts = ["a", "b", "c", "d"]
    reports = []
    for base in (
        [("a", "b"), ("b", "c"), ("c", "d")],  # 3-edge path
        [("c", "a"), ("c", "b"), ("c", "d")],  # the 3-leaf star
    ):
        orientations = []
        for mask in range(8):
            edges = [
                (b, a) if (mask >> i) & 1 else (a, b)
                for i, (a, b) in enumerate(base)
            ]
            orientations.append(poset_from_generators(verts, edges))
        for p1 in orientations:
            for p2 in orientations:
                reports.append(
                    verify_bgp_path(
                        p1, p1, p2, trials=2, field=field, max_dim=2, window=(-1, 1)
                    )
                )
    return reports


def _random_x1z_pair(i: int):
    def rand_poset(seed, prefix):
        rng = SplitMix64(seed)
        n = 1 + rng.randrange(4)
        names = [f"{prefix}{k}" for k in range(n)]
        edges = [
            (names[a], names[b])
            for a in range(n)
            for b in range(a + 1, n)
            if rng.randrange(3) == 0
        ]
        return poset_from_generators(names, edges)

    return (
        rand_poset(derive_seed(i, "x"), "x"),
        rand_poset(derive_seed(i, "z"), "z"),
    )


def _trials_json(cert) -> list:
    return [t.to_json() for t in cert.trials]


def _bgp_projection(report) -> list:
    return [
        [step["vertex"], step["kind"], step["ok"], step["certificate"]["trials"]]
        for step in report["steps"]
    ]


# --- the nine criteria --------------------------------------------------------------


def test_criterion_1_counterexample_rejection():
    X, Y, Yx = counterexample_data()
    validate_check = None
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(AntichainViolation) as info:
            validate_gluing(X, Y, Yx)
        best = min(best, time.perf_counter() - start)
        validate_check = info.value
    assert validate_check.witness == "4"
    assert {validate_check.y, validate_check.y2} == {"2", "3"}
    assert best < 0.001, f"rejection took {best * 1000:.3f} ms"
    _report(1, "counterexample rejection")


def test_criterion_2_exact_homotopy_identities():
    first = check_homotopy(ALPHA1, BETA1, H212, XI212.D)
    assert first is None, first
    second = check_homotopy(ALPHA2, BETA2, H121, XI121.D)
    assert second is None, second
    assert compose(BETA1, ALPHA1).matrix.tolist() == [[1]]
    assert compose(BETA2, ALPHA2).matrix.tolist() == [[1]]
    _report(2, "exact homotopy identities")


def test_criterion_3_substitution_reproduces_composites():
    via_minus = substitute(XI12, TWO_CHAIN_MINUS)
    assert via_minus.xi.entries == XI121.xi.entries
    assert via_minus.D.matrix.tolist() == XI121.D.matrix.tolist()
    assert via_minus == XI121
    via_plus = substitute(XI12, TWO_CHAIN_PLUS)
    assert via_plus.xi.entries == XI212.xi.entries
    assert via_plus.D.matrix.tolist() == XI212.D.matrix.tolist()
    assert via_plus == XI212
    _report(3, "substitution reproduces composite words")


def test_criterion_4_two_chain_suite():
    start = time.perf_counter()
    cert = _two_chain_cert(None)
    elapsed = time.perf_counter() - start
    assert cert.ok
    assert len(cert.trials) == 100
    assert all(t.verdict for t in cert.trials)
    assert dict(cert.structural)["substitution-identities"]
    assert elapsed < 10, f"two-chain suite took {elapsed:.2f} s"
    _report(4, "two-chain suite, 100 rational trials")


def test_criterion_5_theorem_suite():
    for pair in FIGURE_ONE_PAIRS:
        g, expected_plus, expected_minus = figure_one_gluing(pair)
        assert is_isomorphic(build_plus(g).poset, expected_plus) is not None
        assert is_isomorphic(build_minus(g).poset, expected_minus) is not None
    certs = _theorem_certs(None)
    assert len(certs) == 53
    for cert in certs:
        assert cert.ok
        assert len(cert.trials) >= 25
        assert all(t.verdict for t in cert.trials)
    _report(5, "theorem suite, named and random gluings")


def test_criterion_6_ordinal_gluing_shapes():
    point = poset_from_generators(["*"], [])
    for i in range(20):
        X, Z = _random_x1z_pair(i)
        g, _, _ = ordinal_witness(X, Z)
        assert (
            is_isomorphic(build_plus(g).poset, ordinal_sum(X, ordinal_sum(point, Z)))
            is not None
        )
        assert (
            is_isomorphic(build_minus(g).poset, ordinal_sum(point, direct_sum(X, Z)))
            is not None
        )
    for cert in _x1z_certs(None):
        assert cert.ok
    _report(6, "ordinal gluing shapes and equivalences")


def test_criterion_7_tree_reflection_paths():
    reports = _bgp_reports(None)
    assert len(reports) == 128
    for report in reports:
        assert report["ok"]
        assert all(step["ok"] for step in report["steps"])
    _report(7, "tree reflection paths, all orientation pairs")


def test_criterion_8_functor_law_suite():
    for name, holds in (
        ("composition", eta_composition_holds),
        ("naturality", eta_naturality_holds),
        ("exactness preservation", ses_preservation_holds),
        ("quasi-isomorphism preservation", qis_preservation_holds),
    ):
        failures = [seed for seed in range(200) if not holds(seed)]
        assert not failures, f"{name} failed on seeds {failures}"
    _report(8, "functor laws, 200 instances per family")


def test_criterion_9_field_independence():
    assert _two_chain_cert(5).ok
    assert _trials_json(_two_chain_cert(5)) == _trials_json(_two_chain_cert(None))

    certs_q, certs_p = _theorem_certs(None), _theorem_certs(5)
    for q, p in zip(certs_q, certs_p):
        assert p.ok == q.ok
        assert _trials_json(p) == _trials_json(q)

    for q, p in zip(_x1z_certs(None), _x1z_certs(5)):
        assert p.ok == q.ok
        assert _trials_json(p) == _trials_json(q)

    for q, p in zip(_bgp_reports(None), _bgp_reports(5)):
        assert p["ok"] == q["ok"]
        assert _bgp_projection(p) == _bgp_projection(q)
    _report(9, "field independence of criteria 4-7")
