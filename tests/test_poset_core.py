"""Posets: closure, covering relation, operations, isomorphism, JSON, DOT."""

from __future__ import annotations

import functools
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetglue import harness, poset_core
from posetglue.errors import CycleError, ParseError, SizeLimit, UnknownElement
from posetglue.gluing import build_minus, build_plus
from posetglue.harness import figure_one_poset, random_gluing
from posetglue.poset_core import (
    Poset,
    _bits,
    _fans,
    _find_cycle,
    covers,
    direct_sum,
    hasse,
    is_isomorphic,
    opposite,
    ordinal_sum,
    poset_from_generators,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    product,
)
from posetglue.rng import SplitMix64

from conftest import brute_closure, chain_of_chains, cover_triangles


def random_generated(seed: int, n: int) -> Poset:
    rng = SplitMix64(seed)
    elements = [f"e{i}" for i in range(n)]
    pairs = [
        (elements[i], elements[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.randrange(3) == 0
    ]
    return poset_from_generators(elements, pairs)


def _warshall(elements, pairs):
    """The reflexive-transitive closure of pairs by Warshall's algorithm on
    bitmasks, or, when it is not antisymmetric, the cycle that
    poset_core._find_cycle gives for the first pair (i, j), i != j, in
    row-major order with each reachable from the other."""
    n, index = len(elements), {e: i for i, e in enumerate(elements)}
    reach, succ = [1 << i for i in range(n)], [[] for _ in range(n)]
    for a, b in pairs:
        reach[index[a]] |= 1 << index[b]
        if a != b:
            succ[index[a]].append(index[b])
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    for i in range(n):
        for j in range(n):
            if i != j and reach[i] >> j & 1 and reach[j] >> i & 1:
                return tuple(_find_cycle(elements, succ, i, j))
    return frozenset(
        (elements[i], elements[j]) for i in range(n) for j in range(n) if reach[i] >> j & 1
    )


class TestClosure:
    def test_matches_brute_warshall(self):
        for seed in range(40):
            rng = SplitMix64(seed)
            n = 2 + rng.randrange(5)
            elements = [f"e{i}" for i in range(n)]
            pairs = [
                (elements[i], elements[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.randrange(3) == 0
            ]
            p = poset_from_generators(elements, pairs)
            assert p.leq == brute_closure(elements, pairs)

    @pytest.mark.parametrize("cyclic", (False, True), ids=("dag", "cyclic"))
    def test_matches_the_bitmask_warshall_closure(self, cyclic):
        # the closure, or the CycleError and its path, of a Warshall
        # closure on bitmasks that meets the first cycle pair in row-major
        # order; DAGs are generated against a shuffled order, so element
        # order is not a topological order, with repeated pairs and loops
        raised = 0
        for seed in range(150):
            rng = SplitMix64(seed)
            n = 1 + rng.randrange(12)
            elements = [f"e{i}" for i in range(n)]
            rank = list(range(n))
            for i in range(n - 1, 0, -1):
                j = rng.randrange(i + 1)
                rank[i], rank[j] = rank[j], rank[i]
            pairs = []
            for _ in range(rng.randrange(2 * n + 1)):
                i, j = rng.randrange(n), rng.randrange(n)
                if cyclic or rank[i] <= rank[j]:
                    pairs.append((elements[i], elements[j]))
            expected = _warshall(elements, pairs)
            if isinstance(expected, tuple):
                with pytest.raises(CycleError) as info:
                    poset_from_generators(elements, pairs)
                assert info.value.cycle == expected, seed
                raised += 1
            else:
                assert poset_from_generators(elements, pairs).leq == expected, seed
        assert raised == (50 if cyclic else 0)

    def test_element_order_is_preserved(self):
        p = poset_from_generators(["b", "a", "c"], [("b", "c")])
        assert p.elements == ("b", "a", "c")

    def test_cycle_is_rejected_with_witness(self):
        with pytest.raises(CycleError) as info:
            poset_from_generators(["a", "b"], [("a", "b"), ("b", "a")])
        assert set(info.value.cycle) >= {"a", "b"}

    def test_unknown_element_in_pair(self):
        with pytest.raises((UnknownElement, ParseError)):
            poset_from_generators(["a"], [("a", "zz")])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    )
    def test_axioms_hold(self, n, picks):
        elements = [f"e{i}" for i in range(n)]
        pairs = [
            (elements[min(i, j) % n], elements[max(i, j) % n])
            for i, j in picks
            if i % n != j % n
        ]
        p = poset_from_generators(elements, [(a, b) for a, b in pairs if a < b])
        for e in elements:
            assert p.le(e, e)
        for a, b in p.leq:
            assert not (a != b and p.le(b, a)), "antisymmetry"
            for c in elements:
                if p.le(b, c):
                    assert p.le(a, c), "transitivity"


class TestHasse:
    def test_matches_brute_reduction(self):
        for seed in range(30):
            p = random_generated(seed, 5)
            expected = frozenset(
                (a, b)
                for a, b in p.leq
                if a != b
                and not any(
                    c not in (a, b) and p.le(a, c) and p.le(c, b) for c in p.elements
                )
            )
            assert hasse(p).edges == expected

    @pytest.mark.parametrize(
        "case", [*range(40), (10, 4)], ids=[*map("random{}".format, range(40)), "chains-10-4"]
    )
    def test_glued_orders_have_the_covers_of_the_pairwise_definition(self, case):
        # b covers a iff a < b and no c lies strictly between them, tested
        # for every c of the strict up-set of a
        g = chain_of_chains(*case) if isinstance(case, tuple) else random_gluing(case)
        for p in (build_plus(g).poset, build_minus(g).poset):
            expected = {
                (a, b)
                for a in p.elements
                for b in p.up_set(a)
                if a != b
                and not any(c != a and c != b and p.le(c, b) for c in p.up_set(a))
            }
            assert hasse(p).edges == expected

    def test_closure_of_hasse_recovers_order(self):
        for seed in range(20):
            p = random_generated(seed + 100, 6)
            assert brute_closure(p.elements, hasse(p).edges) == p.leq

    def test_cover_triangles_are_hasse_edges_times_up_sets(self):
        for seed in range(20):
            p = random_generated(seed + 200, 6)
            triangles = list(cover_triangles(p))
            assert len(triangles) == len(set(triangles))
            assert set(triangles) == {
                (a, b, c) for a, b in hasse(p).edges for c in p.up_set(b) - {b}
            }

    def test_reduction_runs_once_per_poset(self, monkeypatch):
        p = random_generated(400, 6)
        first = hasse(p)
        calls = []
        real = Poset.le
        monkeypatch.setattr(
            Poset, "le", lambda self, a, b: calls.append((a, b)) or real(self, a, b)
        )
        assert hasse(p) is first
        assert _fans(p) is _fans(p)
        assert calls == []

    def test_covers_are_one_immutable_object_per_order(self, monkeypatch):
        p = random_generated(401, 6)
        first = covers(p)
        assert isinstance(first, tuple)
        assert first == tuple(sorted(hasse(p).edges, key=lambda ab: (p.index(ab[0]), p.index(ab[1]))))
        reductions = []
        real = poset_core._strict_up
        monkeypatch.setattr(
            poset_core, "_strict_up", lambda q: reductions.append(q) or real(q)
        )
        assert covers(p) is first and cover_triangles(p)
        assert reductions == []
        # an equal order made afresh reduces its own covers, once
        q = Poset(p.elements, p.leq)
        assert covers(q) == first and covers(q) is covers(q)
        assert reductions == [q]

    def test_cover_triangles_detect_every_broken_composite(self):
        # r(a, b) = h(b) - h(a) composes on every triangle; changing one
        # non-cover value r(a, c) must break some cover triangle.
        for seed in range(20):
            p = random_generated(seed + 300, 6)
            h = {e: 3 ** i for i, e in enumerate(p.elements)}
            covers = hasse(p).edges
            for a, c in p.leq:
                if a == c or (a, c) in covers:
                    continue
                r = {(x, y): h[y] - h[x] for x, y in p.leq}
                r[(a, c)] += 1
                assert any(
                    r[(y, y2)] + r[(x, y)] != r[(x, y2)]
                    for x, y, y2 in cover_triangles(p)
                ), (a, c)


class TestOperations:
    def disjoint_pair(self, seed):
        rng = SplitMix64(seed)

        def mk(prefix):
            names = [f"{prefix}{i}" for i in range(3)]
            return poset_from_generators(
                names,
                [
                    (names[i], names[j])
                    for i in range(3)
                    for j in range(i + 1, 3)
                    if rng.randrange(2)
                ],
            )

        return mk("p"), mk("q")

    def test_ordinal_sum_membership(self):
        for seed in range(10):
            p, q = self.disjoint_pair(seed)
            s = ordinal_sum(p, q)
            assert s.elements == p.elements + q.elements
            for a in s.elements:
                for b in s.elements:
                    if a in p.elements and b in p.elements:
                        assert s.le(a, b) == p.le(a, b)
                    elif a in q.elements and b in q.elements:
                        assert s.le(a, b) == q.le(a, b)
                    elif a in p.elements:
                        assert s.le(a, b)
                    else:
                        assert not s.le(a, b)

    def test_direct_sum_membership(self):
        for seed in range(10):
            p, q = self.disjoint_pair(seed)
            s = direct_sum(p, q)
            for a in s.elements:
                for b in s.elements:
                    if a in p.elements and b in p.elements:
                        assert s.le(a, b) == p.le(a, b)
                    elif a in q.elements and b in q.elements:
                        assert s.le(a, b) == q.le(a, b)
                    else:
                        assert not s.le(a, b)

    def test_sum_relabels_on_collision(self):
        p = poset_from_generators(["a"], [])
        s = ordinal_sum(p, p)
        assert set(s.elements) == {"L.a", "R.a"}
        assert s.le("L.a", "R.a") and not s.le("R.a", "L.a")

    def test_opposite_reverses(self):
        for seed in range(10):
            p = random_generated(seed, 4)
            o = opposite(p)
            assert set(o.elements) == set(p.elements)
            for a in p.elements:
                for b in p.elements:
                    assert o.le(a, b) == p.le(b, a)
            assert opposite(o).leq == p.leq

    def test_product_membership(self):
        p = poset_from_generators(["a", "b"], [("a", "b")])
        q = poset_from_generators(["u", "v"], [])
        pr = product(p, q)
        assert len(pr) == 4
        for a1 in p.elements:
            for b1 in q.elements:
                for a2 in p.elements:
                    for b2 in q.elements:
                        assert pr.le(f"({a1},{b1})", f"({a2},{b2})") == (
                            p.le(a1, a2) and q.le(b1, b2)
                        )

    def test_product_labels_escape_delimiters(self):
        # unescaped, ("x,y", "z") and ("x", "y,z") would both be "(x,y,z)"
        p = poset_from_generators(["x,y", "x"], [("x", "x,y")])
        q = poset_from_generators(["z", "y,z"], [("z", "y,z")])
        label = {
            ("x,y", "z"): r"(x\,y,z)",
            ("x,y", "y,z"): r"(x\,y,y\,z)",
            ("x", "z"): "(x,z)",
            ("x", "y,z"): r"(x,y\,z)",
        }
        pr = product(p, q)
        assert pr.elements == tuple(label.values())
        for (a1, b1), (a2, b2) in itertools.product(label, repeat=2):
            assert pr.le(label[a1, b1], label[a2, b2]) == (p.le(a1, a2) and q.le(b1, b2))
        odd = product(poset_from_generators(["a\\", "(b)"], []), poset_from_generators(["c"], []))
        assert odd.elements == (r"(a\\,c)", r"(\(b\),c)")


class TestIsomorphism:
    def brute_iso(self, p: Poset, q: Poset) -> bool:
        if len(p) != len(q):
            return False
        for perm in itertools.permutations(q.elements):
            m = dict(zip(p.elements, perm))
            if all((m[a], m[b]) in q.leq for a, b in p.leq) and len(p.leq) == len(q.leq):
                return True
        return False

    def test_matches_brute_force(self):
        posets = [random_generated(s, 4) for s in range(12)]
        relabeled = []
        for p in posets:
            names = {e: f"z{p.index(e)}" for e in p.elements}
            relabeled.append(
                Poset(
                    [names[e] for e in reversed(p.elements)],
                    {(names[a], names[b]) for a, b in p.leq},
                )
            )
        for p in posets:
            for q in relabeled:
                got = is_isomorphic(p, q)
                assert (got is not None) == self.brute_iso(p, q)
                if got is not None:
                    assert sorted(got) == sorted(p.elements)
                    for a in p.elements:
                        for b in p.elements:
                            assert p.le(a, b) == q.le(got[a], got[b])

    def test_size_limit(self):
        big = poset_from_generators([str(i) for i in range(13)], [])
        with pytest.raises(SizeLimit):
            is_isomorphic(big, big)

    def test_chain_vs_antichain(self):
        chain = poset_from_generators(["a", "b"], [("a", "b")])
        anti = poset_from_generators(["u", "v"], [])
        assert is_isomorphic(chain, anti) is None

    def test_crowns_are_told_apart_by_the_search(self):
        # every element of the 8-crown and of two 4-crowns has the colour of
        # its level after refinement, so only backtracking tells them apart
        def crowns(*sizes):
            elements, relations = [], []
            for c, n in enumerate(sizes):
                low = [f"c{c}a{i}" for i in range(n)]
                high = [f"c{c}b{i}" for i in range(n)]
                elements += low + high
                relations += [(low[i], high[j]) for i in range(n) for j in (i, (i + 1) % n)]
            return poset_from_generators(elements, relations)

        eight, two_fours = crowns(4), crowns(2, 2)
        assert is_isomorphic(eight, two_fours) is None
        assert is_isomorphic(two_fours, eight) is None
        assert is_isomorphic(eight, crowns(4)) is not None

    def test_empty_posets_are_isomorphic(self):
        empty = poset_from_generators([], [])
        assert is_isomorphic(empty, empty) == {}


class TestSerialization:
    def test_json_round_trip(self):
        for seed in range(10):
            p = random_generated(seed, 5)
            doc = poset_to_json(p)
            assert set(doc) == {"elements", "relations"}
            q = poset_from_json(doc)
            assert q.leq == p.leq and q.elements == p.elements

    def test_json_relations_are_hasse_edges(self):
        chain = poset_from_generators(["a", "b", "c"], [("a", "b"), ("b", "c")])
        doc = poset_to_json(chain)
        assert sorted(map(tuple, doc["relations"])) == [("a", "b"), ("b", "c")]

    def test_bad_documents(self):
        for doc in [
            {},
            {"elements": "ab"},
            {"elements": ["a", "a"], "relations": []},
            {"elements": [1], "relations": []},
        ]:
            with pytest.raises(ParseError):
                poset_from_json(doc)
        for make in (Poset, poset_from_generators):
            with pytest.raises(ParseError, match="duplicate element identifier 'a'"):
                make(["a", "b", "a"], [])
        with pytest.raises(UnknownElement):
            poset_from_json({"elements": ["a"], "relations": [["a", "b"]]})

    def test_unknown_keys_are_rejected(self):
        # a misspelled 'relations' would otherwise load as an antichain
        doc = {"elements": ["a", "b"], "relation": [["a", "b"]], "extra": 1}
        with pytest.raises(ParseError, match=r"\['extra', 'relation'\]"):
            poset_from_json(doc)
        assert poset_from_json({"elements": ["a", "b"]}).leq == {("a", "a"), ("b", "b")}

    def test_dot_output(self):
        p = poset_from_generators(["a", "b", "c"], [("a", "b"), ("a", "c")])
        dot = poset_to_dot(p, "demo")
        assert dot.startswith('digraph "demo"')
        assert "rankdir=BT" in dot
        assert '"a" -> "b";' in dot and '"a" -> "c";' in dot
        assert "rank=same" in dot

    def test_dot_escapes_backslashes_and_quotes(self):
        dot = poset_to_dot(poset_from_generators(["a\\", 'b"'], [("a\\", 'b"')]))
        assert '  "a\\\\" -> "b\\"";' in dot.splitlines()


class TestQueries:
    def test_up_down_height(self):
        p = poset_from_generators(
            ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        )
        assert p.up_set("a") == frozenset("abcd")
        assert p.down_set("d") == frozenset("abcd")
        assert p.up_set("b") == frozenset({"b", "d"})
        assert [p.height(e) for e in "abcd"] == [0, 1, 1, 2]

    def test_same_order_ignores_enumeration(self):
        p = poset_from_generators(["a", "b"], [("a", "b")])
        q = Poset(["b", "a"], {("a", "a"), ("b", "b"), ("a", "b")})
        assert p.same_order(q)

    def test_equal_but_distinct_posets_compare_equal(self):
        p = poset_from_generators(["a", "b"], [("a", "b")])
        for q in (
            poset_from_generators(["a", "b"], [("a", "b")]),
            pickle.loads(pickle.dumps(p)),
        ):
            assert q is not p
            assert p == q and q == p and hash(p) == hash(q)
        assert p == p
        assert p != poset_from_generators(["a", "b"], [])
        assert p != poset_from_generators(["b", "a"], [("a", "b")])


# --- the masks against a reference made from pairs alone ---------------------

def _glued_reference(g, sign) -> tuple:
    """The elements and the pairs of a glued order by its definition: X and
    Y with x below each y above a witness (plus), or above each y below one
    (minus), closed by brute_closure."""
    cross = [
        (x, y) if sign == "plus" else (y, x)
        for x in g.X.elements
        for w in g.Yx[x]
        for y in g.Y.elements
        if ((w, y) if sign == "plus" else (y, w)) in g.Y.leq
    ]
    elements = g.X.elements + g.Y.elements
    return elements, brute_closure(elements, set(g.X.leq) | set(g.Y.leq) | set(cross))


def _oracle_cases() -> list:
    """(name, poset, elements, pairs): each poset with the pairs that its
    definition gives, made without the masks."""
    cases = []
    for seed in range(40):
        g = random_gluing(seed)
        for sign, build in (("plus", build_plus), ("minus", build_minus)):
            cases.append((f"random{seed}-{sign}", build(g).poset, *_glued_reference(g, sign)))
    for name, edges in harness._FIGURE_ONE_EDGES.items():
        elements = [str(i) for i in range(1, 8)]
        pairs = [(str(a), str(b)) for a, b in edges]
        cases.append((name, figure_one_poset(name), elements, brute_closure(elements, pairs)))
    # past 64 elements, where a mask is more than one machine word
    g = chain_of_chains(10, 9)
    for sign, build in (("plus", build_plus), ("minus", build_minus)):
        cases.append((f"chains-10-9-{sign}", build(g).poset, *_glued_reference(g, sign)))
    small = []
    for seed in range(6):
        rng = SplitMix64(seed + 500)
        n = 1 + rng.randrange(3)
        elements = [f"e{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(elements) for b in elements[i + 1:] if rng.randrange(2)]
        small.append((poset_from_generators(elements, pairs), elements, brute_closure(elements, pairs)))
    for (p, pe, pl), (q, qe, ql) in zip(small, small[1:] + small[:1]):
        cases.append(("opposite", opposite(p), pe, frozenset((b, a) for a, b in pl)))
        # the two sums relabel both sides, as the element names collide
        L, R = ["L." + e for e in pe], ["R." + e for e in qe]
        inner = {("L." + a, "L." + b) for a, b in pl} | {("R." + a, "R." + b) for a, b in ql}
        cases.append(("direct", direct_sum(p, q), L + R, frozenset(inner)))
        cases.append(
            ("ordinal", ordinal_sum(p, q), L + R, frozenset(inner | {(a, b) for a in L for b in R}))
        )
        label = {(a, b): f"({a},{b})" for a in pe for b in qe}
        pairs = frozenset(
            (label[a, b], label[a2, b2]) for a, a2 in pl for b, b2 in ql
        )
        cases.append(("product", product(p, q), [label[a, b] for a in pe for b in qe], pairs))
    return cases


_ORACLE = _oracle_cases()


class TestMaskOracle:
    @pytest.mark.parametrize("width", [1, 8, 63, 64, 65, 130, 700])
    def test_bits_are_the_set_positions_lowest_first(self, width):
        # both sides of the 64-bit switch between digit table and digit search
        rng = SplitMix64(width)
        for _ in range(40):
            positions = sorted({rng.randrange(width) for _ in range(rng.randrange(width + 1))})
            assert _bits(sum(1 << i for i in positions)) == positions
        assert _bits(0) == [] and _bits((1 << width) - 1) == list(range(width))

    @pytest.mark.parametrize("case", _ORACLE, ids=[c[0] for c in _ORACLE])
    def test_every_view_matches_the_pairs(self, case):
        _, p, elements, leq = case
        assert p.elements == tuple(elements) and p.leq == leq
        for a in elements:
            assert p.up_set(a) == {b for b in elements if (a, b) in leq}
            assert p.down_set(a) == {b for b in elements if (b, a) in leq}
            assert [p.le(a, b) for b in elements] == [(a, b) in leq for b in elements]

        @functools.cache
        def height(e):  # the longest chain that ends at e
            return max((1 + height(d) for d in elements if d != e and (d, e) in leq), default=0)

        assert [p.height(e) for e in elements] == [height(e) for e in elements]
        edges = {
            (a, b) for a, b in leq
            if a != b and not any(c not in (a, b) and (a, c) in leq and (c, b) in leq for c in elements)
        }
        position = {e: i for i, e in enumerate(elements)}
        in_order = sorted(edges, key=lambda ab: (position[ab[0]], position[ab[1]]))
        assert hasse(p).edges == edges and covers(p) == tuple(in_order)
        assert cover_triangles(p) == tuple(
            (a, b, c) for a, b in in_order for c in elements if c != b and (b, c) in leq
        )
        same = Poset(elements, leq)
        assert same == p and hash(same) == hash(p)
        for pair in sorted(leq - {(e, e) for e in elements})[:3]:
            assert Poset(elements, leq - {pair}) != p

    def test_isomorphism_answers_match_the_pairs(self):
        # by brute force over bijections, on the cases of up to six elements
        # and on a reversed relabelling of each, which is isomorphic to it
        def brute(p_elements, p_leq, q_elements, q_leq):
            if len(p_elements) != len(q_elements) or len(p_leq) != len(q_leq):
                return False
            return any(
                all((m[a], m[b]) in q_leq for a, b in p_leq)
                for m in map(dict, (zip(p_elements, perm) for perm in itertools.permutations(q_elements)))
            )

        cases = [c for c in _ORACLE if len(c[2]) <= 6]
        answers = set()
        for (_, p, pe, pl), (_, q, qe, ql) in zip(cases, cases[1:] + cases[:1]):
            found = is_isomorphic(p, q)
            assert (found is not None) == brute(pe, pl, qe, ql)
            answers.add(found is not None)
            name = {e: f"z{i}" for i, e in enumerate(pe)}
            relabelled = Poset([name[e] for e in reversed(pe)], {(name[a], name[b]) for a, b in pl})
            m = is_isomorphic(p, relabelled)
            assert m is not None and all(((m[a], m[b]) in relabelled.leq) == ((a, b) in pl)
                                         for a in pe for b in pe)
        assert answers == {True, False}
