"""Gluing data: validation, the two glued orders, witnesses, JSON forms."""

from __future__ import annotations

import json

import pytest

from posetglue.errors import (
    AntichainViolation,
    CycleError,
    GluingError,
    InternalInconsistency,
    ParseError,
    PhiMissing,
    PhiNotBijective,
    UnknownElement,
)
from posetglue.gluing import (
    GluingData,
    build_minus,
    build_plus,
    from_bgp,
    from_function,
    gluing_from_json,
    gluing_to_json,
    ordinal_witness,
    validate_gluing,
)
from posetglue.harness import (
    FIGURE_ONE_PAIRS,
    counterexample_data,
    figure_one_gluing,
    random_gluing,
)
from posetglue.poset_core import (
    Poset,
    direct_sum,
    is_isomorphic,
    opposite,
    ordinal_sum,
    poset_from_generators,
    poset_to_json,
)

from conftest import brute_closure, chain_of_chains, run_python


def chain(*names):
    return poset_from_generators(list(names), list(zip(names, names[1:])))


def antichain(*names):
    return poset_from_generators(list(names), [])


#: Gluing documents over X with a < b and c < d that fail at both pairs,
#: by the witness each must name on every run: the pair a -> b, the first
#: in element order.
_X = {"elements": ["a", "b", "c", "d"], "relations": [["a", "b"], ["c", "d"]]}
_ANTICHAIN = {"elements": ["p", "q", "r", "s"], "relations": []}
_TWO_FAILURES = {
    "PhiMissing": (
        {"X": _X, "Y": _ANTICHAIN, "Yx": {"a": ["p"], "b": ["q"], "c": ["r"], "d": ["s"]}},
        "no admissible image of 'p' when passing 'a' -> 'b'",
    ),
    "PhiNotBijective": (
        {
            "X": _X,
            "Y": _ANTICHAIN,
            "Yx": {"a": ["p"], "b": ["p", "q"], "c": ["r"], "d": ["r", "s"]},
        },
        "transfer map 'a' -> 'b' is not a bijection",
    ),
    "NotOrderPreserving": (
        {
            "X": _X,
            "Y": {"elements": ["p", "q"], "relations": [["p", "q"]]},
            "f": {"a": "q", "b": "p", "c": "q", "d": "p"},
        },
        "map is not order preserving on 'a' <= 'b'",
    ),
}
_LIBRARY_WITNESSES = """
import json, sys
from posetglue.gluing import gluing_from_json
for doc in json.loads(sys.argv[1]):
    try:
        gluing_from_json(doc)
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


class TestWitnessOrder:
    def test_library_witnesses_do_not_depend_on_the_hash_seed(self):
        docs = [doc for doc, _ in _TWO_FAILURES.values()]
        outs = set()
        for hash_seed in (0, 1):
            result = run_python(["-c", _LIBRARY_WITNESSES, json.dumps(docs)], hash_seed)
            assert result.returncode == 0, result.stderr
            outs.add(result.stdout)
        (out,) = outs
        assert out.splitlines() == [f"{n} {w}" for n, (_, w) in _TWO_FAILURES.items()]

    @pytest.mark.parametrize("name", sorted(_TWO_FAILURES))
    def test_glue_validate_witness_does_not_depend_on_the_hash_seed(self, tmp_path, name):
        doc, witness = _TWO_FAILURES[name]
        path = tmp_path / "gluing.json"
        path.write_text(json.dumps(doc))
        errs = set()
        for hash_seed in (0, 1):
            result = run_python(["-m", "posetglue.cli", "glue", "validate", str(path)], hash_seed)
            assert result.returncode == 1, result.stderr
            errs.add(result.stderr)
        (err,) = errs
        assert witness in err


class TestValidate:
    def test_empty_union_is_rejected(self):
        empty = antichain()
        with pytest.raises(GluingError, match="X ⊔ Y is empty"):
            validate_gluing(empty, empty, {})

    def test_counterexample_rejected_with_witness(self):
        X, Y, Yx = counterexample_data()
        with pytest.raises(AntichainViolation) as info:
            validate_gluing(X, Y, Yx)
        assert info.value.witness == "4"
        assert {info.value.y, info.value.y2} == {"2", "3"}

    def test_shared_down_set_rejected(self):
        X = antichain("x")
        Y = poset_from_generators(["a", "b", "c"], [("a", "b"), ("a", "c")])
        with pytest.raises(AntichainViolation) as info:
            validate_gluing(X, Y, {"x": ("b", "c")})
        assert info.value.witness == "a"
        assert info.value.side == "down"

    def test_incomparability_alone_is_not_enough(self):
        # b and c are incomparable but share both a lower and an upper bound;
        # either direction must reject.
        X = antichain("x")
        Y = poset_from_generators(
            ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        )
        with pytest.raises(AntichainViolation):
            validate_gluing(X, Y, {"x": ("b", "c")})

    def test_missing_transfer_image(self):
        X = chain("x1", "x2")
        Y = antichain("a", "b")
        with pytest.raises(PhiMissing):
            validate_gluing(X, Y, {"x1": ("a",), "x2": ("b",)})

    def test_non_bijective_transfer(self):
        X = chain("x1", "x2")
        Y = antichain("a", "b")
        with pytest.raises(PhiNotBijective):
            validate_gluing(X, Y, {"x1": ("a",), "x2": ("a", "b")})

    def test_missing_witness_set(self):
        with pytest.raises(ParseError):
            validate_gluing(antichain("x"), antichain("y"), {})

    def test_duplicate_witness(self):
        with pytest.raises(ParseError):
            validate_gluing(antichain("x"), antichain("y"), {"x": ("y", "y")})

    def test_label_collision_is_relabeled(self):
        X = antichain("a")
        Y = antichain("a")
        g = validate_gluing(X, Y, {"a": ("a",)})
        assert g.X.elements == ("L.a",)
        assert g.Y.elements == ("R.a",)
        assert g.Yx == {"L.a": ("R.a",)}

    def test_transfer_maps_compose(self):
        # The transfer map of x <= x2 sends y to the one member of Y_x2
        # above it, by its definition; validation keeps no map, so the laws
        # that the antichain test implies are checked here on every valid
        # gluing: one image, the identity at x <= x, a bijection, and the
        # cocycle along x <= x2 <= x3.
        gluings = [random_gluing(seed) for seed in range(60)]
        gluings += [figure_one_gluing(pair)[0] for pair in FIGURE_ONE_PAIRS]
        gluings += [chain_of_chains(6, 3), chain_of_chains(10, 4)]
        for g in gluings:
            phi = {}
            for x, x2 in g.X.leq:
                fwd = phi[x, x2] = {}
                for y in g.Yx[x]:
                    (fwd[y],) = [w for w in g.Yx[x2] if g.Y.le(y, w)]
                assert sorted(fwd.values()) == sorted(g.Yx[x2])
                if x == x2:
                    assert fwd == {y: y for y in g.Yx[x]}
            for x, x2 in g.X.leq:
                for x3 in g.X.up_set(x2):
                    for y in g.Yx[x]:
                        assert phi[x2, x3][phi[x, x2][y]] == phi[x, x3][y]


class TestBuild:
    def brute_plus(self, g):
        cross = {
            (x, y)
            for x in g.X.elements
            for w in g.Yx[x]
            for y in g.Y.up_set(w)
        }
        return brute_closure(
            g.X.elements + g.Y.elements, set(g.X.leq) | set(g.Y.leq) | cross
        )

    def brute_minus(self, g):
        cross = {
            (y, x)
            for x in g.X.elements
            for w in g.Yx[x]
            for y in g.Y.down_set(w)
        }
        return brute_closure(
            g.X.elements + g.Y.elements, set(g.X.leq) | set(g.Y.leq) | cross
        )

    def test_glued_orders_match_brute_closure(self):
        for seed in range(40):
            g = random_gluing(seed)
            plus = build_plus(g)
            minus = build_minus(g)
            assert plus.poset.leq == self.brute_plus(g)
            assert minus.poset.leq == self.brute_minus(g)
            assert plus.sign == "plus" and minus.sign == "minus"

    def test_restriction_to_parts_is_unchanged(self):
        for seed in range(15):
            g = random_gluing(seed + 77)
            for order in (build_plus(g), build_minus(g)):
                p = order.poset
                for a in g.X.elements:
                    for b in g.X.elements:
                        assert p.le(a, b) == g.X.le(a, b)
                for a in g.Y.elements:
                    for b in g.Y.elements:
                        assert p.le(a, b) == g.Y.le(a, b)

    def test_cross_witness_unique_and_correct(self):
        # a cross relation holds exactly when it has a witness by the
        # definition, w in Y_x with w <= y (plus) or y <= w (minus), and
        # then it has exactly one
        for seed in range(25):
            g = random_gluing(seed)
            plus, minus = build_plus(g).poset, build_minus(g).poset
            for x in g.X.elements:
                for y in g.Y.elements:
                    above = [w for w in g.Yx[x] if g.Y.le(w, y)]
                    below = [w for w in g.Yx[x] if g.Y.le(y, w)]
                    assert plus.le(x, y) == bool(above) and len(above) <= 1
                    assert minus.le(y, x) == bool(below) and len(below) <= 1
                    assert not plus.le(y, x) and not minus.le(x, y)

    def test_second_witness_is_an_internal_alarm(self):
        # unvalidated data: both witnesses lie below 4, so the cross relation
        # from the new point to 4 would have two witnesses
        X, Y, Yx = counterexample_data()
        g = GluingData(X=X, Y=Y, Yx=Yx)
        with pytest.raises(InternalInconsistency, match="two witnesses"):
            build_plus(g)

    def test_empty_witness_sets_give_disjoint_union(self):
        X = chain("x1", "x2")
        Y = chain("y1", "y2")
        g = validate_gluing(X, Y, {"x1": (), "x2": ()})
        built = build_plus(g).poset
        assert built.leq == brute_closure(
            built.elements, set(X.leq) | set(Y.leq)
        )


class TestChecksStillFire:
    """Each check of a glued order still rejects what it rejected, with the
    same exception and witness."""

    def test_shared_bounds_name_the_first_in_element_order(self):
        # two shared upper bounds, t2 listed first, and then two shared
        # lower bounds, b2 listed first: the lowest index is named
        X = antichain("x")
        Y = poset_from_generators(
            ["t2", "y1", "t1", "y2", "b"],
            [("y1", "t1"), ("y2", "t1"), ("y1", "t2"), ("y2", "t2"), ("b", "y1"), ("b", "y2")],
        )
        with pytest.raises(AntichainViolation) as info:
            validate_gluing(X, Y, {"x": ("y2", "y1")})
        shared = Y.up_set("y1") & Y.up_set("y2")
        assert info.value.witness == min(shared, key=Y.index) == "t2"
        assert str(info.value) == "elements 'y2' and 'y1' of the set at 'x' share 't2' in their up-sets"
        Y = poset_from_generators(
            ["y1", "y2", "b2", "b1"], [("b1", "y1"), ("b1", "y2"), ("b2", "y1"), ("b2", "y2")]
        )
        with pytest.raises(AntichainViolation) as info:
            validate_gluing(X, Y, {"x": ("y1", "y2")})
        assert (info.value.witness, info.value.side) == ("b2", "down")

    def test_a_generator_cycle_keeps_its_message(self):
        with pytest.raises(CycleError) as info:
            poset_from_generators(
                ["d", "c", "b", "a"],
                [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "b")],
            )
        assert str(info.value) == "not antisymmetric; cycle: d <= b <= c <= d"

    @pytest.mark.parametrize("side", ["X", "Y"])
    def test_a_prediction_with_a_transitive_pair_dropped_is_rejected(self, side):
        # unvalidated data whose X, or whose Y under the one witness, is a
        # chain of three without its pair from bottom to top: the predicted
        # glued order lacks that pair, or the cross pair through it
        chain = ["a", "b", "c"]
        dropped = Poset(chain, {(e, e) for e in chain} | {("a", "b"), ("b", "c")})
        point = antichain("p")
        if side == "X":
            g = GluingData(X=dropped, Y=point, Yx={e: ("p",) for e in chain})
        else:
            g = GluingData(X=point, Y=dropped, Yx={"p": ("a",)})
        for build in (build_plus, build_minus):
            with pytest.raises(InternalInconsistency, match="transitive closure added relations"):
                build(g)

    def test_a_predicted_cycle_is_rejected(self):
        cycle = Poset(["a", "b"], {("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")})
        g = GluingData(X=cycle, Y=antichain("p"), Yx={"a": (), "b": ()})
        with pytest.raises(InternalInconsistency) as info:
            build_plus(g)
        assert str(info.value) == (
            "glued relation is not a partial order: not antisymmetric; cycle: a <= b <= a"
        )


class TestOpposite:
    def test_opposite_data_glue_to_the_opposite_orders(self):
        # The antichain condition asks for disjoint up-sets and disjoint
        # down-sets, so it holds for the opposite data as well, and reversing
        # both orders swaps the plus and the minus construction.
        gluings = [(seed, random_gluing(seed)) for seed in range(300)] + [
            (pair, figure_one_gluing(pair)[0]) for pair in FIGURE_ONE_PAIRS
        ]
        for name, g in gluings:
            op = validate_gluing(opposite(g.X), opposite(g.Y), g.Yx)
            assert build_plus(op).poset.same_order(opposite(build_minus(g).poset)), name
            assert build_minus(op).poset.same_order(opposite(build_plus(g).poset)), name


class TestConstructors:
    def test_from_function_singleton_witnesses(self):
        X = chain("x1", "x2")
        Y = chain("a", "b", "c")
        g = from_function(X, Y, {"x1": "a", "x2": "c"})
        assert g.Yx == {"x1": ("a",), "x2": ("c",)}

    def test_from_function_rejects_non_monotone(self):
        X = chain("x1", "x2")
        Y = chain("a", "b")
        with pytest.raises(GluingError):
            from_function(X, Y, {"x1": "b", "x2": "a"})

    def test_from_bgp_star_vertex(self):
        rest = antichain("a", "b")
        g = from_bgp(rest, ("a", "b"))
        assert len(g.X) == 1
        (x,) = g.X.elements
        assert set(g.Yx[x]) == {"a", "b"}

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda X, Y: validate_gluing(X, Y, [("x", ("y",))]),
             "Yx must be a mapping by element of X, got [('x', ('y',))]"),
            (lambda X, Y: validate_gluing(X, Y, {"x": 5}),
             "the witness set at 'x' must be a collection of elements, got 5"),
            (lambda X, Y: validate_gluing(X, Y, {"x": None}),
             "the witness set at 'x' must be a collection of elements, got None"),
            (lambda X, Y: validate_gluing(X, Y, {"x": "y"}),
             "the witness set at 'x' must be a collection of elements, got 'y'"),
            (lambda X, Y: from_function(X, Y, [("x", "y", 3)]),
             "f must be a mapping by element of X, got [('x', 'y', 3)]"),
            (lambda X, Y: from_bgp(Y, 5), "Y0 must be a collection of elements, got 5"),
            (lambda X, Y: from_bgp(Y, "y"), "Y0 must be a collection of elements, got 'y'"),
            (lambda X, Y: validate_gluing(X, Y, {"x": {"y"}}),
             "the witness set at 'x' must be ordered, not a set, got {'y'}"),
            (lambda X, Y: validate_gluing(X, Y, {"x": frozenset({"y"})}),
             "the witness set at 'x' must be ordered, not a frozenset, got frozenset({'y'})"),
            (lambda X, Y: from_bgp(Y, {"y"}), "Y0 must be ordered, not a set, got {'y'}"),
            (lambda X, Y: from_bgp(Y, frozenset({"y"})),
             "Y0 must be ordered, not a frozenset, got frozenset({'y'})"),
        ],
        ids=[
            "Yx-pairs", "set-int", "set-none", "set-str", "f-triples", "Y0-int", "Y0-str",
            "set-set", "set-frozenset", "Y0-set", "Y0-frozenset",
        ],
    )
    def test_malformed_library_input_is_a_parse_error(self, build, message):
        # a str is rejected, not read one character at a time, and a set,
        # whose order depends on the hash seed, is rejected too
        with pytest.raises(ParseError) as info:
            build(antichain("x"), antichain("y"))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build",
        [
            lambda X, Y: validate_gluing(X, Y, {"x": [["y"]]}),
            lambda X, Y: from_function(X, Y, {"x": ["y"]}),
        ],
        ids=["validate", "from_function"],
    )
    def test_an_unhashable_element_is_unknown(self, build):
        with pytest.raises(UnknownElement, match=r"unknown element: \['y'\]"):
            build(antichain("x"), antichain("y"))

    def test_ordinal_witness_shapes(self):
        point = poset_from_generators(["*"], [])
        colliding = (  # '*' and 'a' in both X and Z
            poset_from_generators(["*", "a"], [("a", "*")]),
            poset_from_generators(["*", "a", "b"], [("*", "b")]),
        )
        for X, Z in ((chain("x1", "x2"), antichain("z1", "z2")), colliding):
            g, plus_expected, minus_expected = ordinal_witness(X, Z)
            assert is_isomorphic(
                plus_expected, ordinal_sum(X, ordinal_sum(point, Z))
            )
            assert is_isomorphic(
                minus_expected, ordinal_sum(point, direct_sum(X, Z))
            )
            assert build_plus(g).poset.same_order(plus_expected)
            assert build_minus(g).poset.same_order(minus_expected)


class TestJson:
    def test_round_trip_explicit_form(self):
        for seed in range(15):
            g = random_gluing(seed)
            doc = gluing_to_json(g)
            assert set(doc) == {"X", "Y", "Yx"}
            g2 = gluing_from_json(doc)
            assert g2.X.leq == g.X.leq and g2.Y.leq == g.Y.leq and g2.Yx == g.Yx

    def test_function_form(self):
        doc = {
            "X": poset_to_json(chain("x1", "x2")),
            "Y": poset_to_json(chain("a", "b")),
            "f": {"x1": "a", "x2": "b"},
        }
        g = gluing_from_json(doc)
        assert g.Yx == {"x1": ("a",), "x2": ("b",)}

    def test_point_form(self):
        doc = {"Y": poset_to_json(antichain("a", "b")), "Y0": ["a", "b"]}
        g = gluing_from_json(doc)
        assert len(g.X) == 1
        (x,) = g.X.elements
        assert set(g.Yx[x]) == {"a", "b"}

    def test_unknown_key_of_f_is_rejected(self):
        doc = {
            "X": poset_to_json(chain("x")),
            "Y": poset_to_json(chain("y")),
            "f": {"x": "y", "nope": "y"},
        }
        with pytest.raises(UnknownElement) as info:
            gluing_from_json(doc)
        assert info.value.element == "nope"

    @pytest.mark.parametrize(
        "keys",
        [("X", "Yx", "f"), ("X", "Yx", "Y0"), ("X", "f", "Y0"), ("X", "Y0"), ("Yx", "Y0")],
    )
    def test_mixed_forms_are_rejected(self, keys):
        forms = {
            "X": poset_to_json(chain("x", "q")),
            "Yx": {"x": ["y"], "q": ["y"]},
            "f": {"x": "y", "q": "y"},
            "Y0": ["y"],
        }
        doc = {"Y": poset_to_json(chain("y")), **{k: forms[k] for k in keys}}
        with pytest.raises(ParseError) as info:
            gluing_from_json(doc)
        assert all(repr(k) in str(info.value) for k in keys)

    def test_unknown_keys_are_rejected(self):
        doc = {
            "X": poset_to_json(chain("x")),
            "Y": poset_to_json(chain("y")),
            "Yx": {"x": ["y"]},
            "Yz": {},
        }
        with pytest.raises(ParseError, match=r"\['Yz'\]"):
            gluing_from_json(doc)
        doc.pop("Yz")
        doc["Y"] = {"elements": ["y"], "relatons": []}
        with pytest.raises(ParseError, match="relatons"):
            gluing_from_json(doc)

    def test_bad_documents(self):
        for doc in [{}, {"X": {}}, {"X": 3, "Y": 4, "Yx": 5}, []]:
            with pytest.raises(ParseError):
                gluing_from_json(doc)

    def test_validation_failure_propagates(self):
        X, Y, Yx = counterexample_data()
        doc = {
            "X": poset_to_json(X),
            "Y": poset_to_json(Y),
            "Yx": {x: list(ys) for x, ys in Yx.items()},
        }
        with pytest.raises(AntichainViolation):
            gluing_from_json(doc)
