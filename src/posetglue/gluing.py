"""Gluing data over a pair of posets and the two glued orders it induces.

The data consists of a poset X, a poset Y, and for each x in X a subset
Y_x of Y whose members have pairwise disjoint principal up-sets and pairwise
disjoint principal down-sets. Validation infers the connecting bijections
between the Y_x along relations of X, then :func:`build_plus` /
:func:`build_minus` produce the two orders on the disjoint union of X and Y:

* plus:  x lies below y whenever some witness w in Y_x has w <= y in Y;
* minus: y lies below x whenever some witness w in Y_x has y <= w in Y;

with no other cross relations. Both constructions check that each cross
relation has one witness and that the result is a poset with exactly the
predicted relations, raising InternalInconsistency if the algebra ever
disagrees with the prediction.  Each glued order is built and checked once
per gluing and then kept on the GluingData, so every later caller gets the
same order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .errors import (
    AntichainViolation,
    CocycleViolation,
    CycleError,
    GluingError,
    InternalInconsistency,
    NotOrderPreserving,
    ParseError,
    PhiMissing,
    PhiNotBijective,
)
from .poset_core import (
    Poset,
    _bits,
    _disjoint_labels,
    _items,
    _pairs,
    cover_triangles,
    direct_sum,
    ordinal_sum,
    point_poset,
    poset_from_json,
    poset_to_json,
)


@dataclass(frozen=True)
class GluingData:
    """Validated gluing data.

    `Yx` maps each element of X to an ordered tuple of Y-elements (the input
    order is kept: downstream matrix blocks index by it). `phi` maps each
    ordered pair (x, x2) with x <= x2 to the inferred bijection Y_x -> Y_x2,
    stored as a dict.  Its glued orders are built on first use and kept.
    """

    X: Poset
    Y: Poset
    Yx: dict
    phi: dict
    _orders: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class GluedOrder:
    """One of the two orders on X ⊔ Y induced by a gluing.  The witness of
    a cross relation x <= y (plus) or y <= x (minus) is the one w in Y_x
    with w <= y, or y <= w; it is not stored."""

    poset: Poset
    sign: str  # "plus" | "minus"


def validate_gluing(X: Poset, Y: Poset, Yx) -> GluingData:
    """Check the gluing conditions and infer the connecting bijections.

    Raises AntichainViolation when two members of some Y_x share an element
    of their up-sets or down-sets (the witness is reported), PhiMissing /
    PhiNotBijective when the connecting maps cannot be inferred (for the
    first such x <= x2 in element order), and
    CocycleViolation if the inferred maps fail to compose (cannot happen
    when inference succeeded; checked anyway as an internal alarm), and
    GluingError when X ⊔ Y is empty.  Yx must map elements of X to
    ordered collections of elements of Y, not sets (ParseError otherwise).
    """
    if not X.elements and not Y.elements:
        raise GluingError("X ⊔ Y is empty: a gluing needs at least one element")
    Yx = {
        x: _witness_set(ys, f"the witness set at {x!r}")
        for x, ys in _items(Yx, "Yx", "element of X")
    }
    for x in X.elements:
        if x not in Yx:
            raise ParseError(f"no witness set given for element {x!r}")
    for x in Yx:
        X.index(x)
    for x, ys in Yx.items():
        seen = set()
        for y in ys:
            Y.index(y)
            if y in seen:
                raise ParseError(f"duplicate element {y!r} in the set at {x!r}")
            seen.add(y)
    # Colliding element sets are relabelled; Yx follows by element position.
    X0, Y0 = X, Y
    X, Y = _disjoint_labels(X, Y)
    Yx = {
        X.elements[X0.index(x)]: tuple(Y.elements[Y0.index(y)] for y in ys)
        for x, ys in Yx.items()
    }

    # The lowest set bit of a shared mask is the first shared element.
    at = {x: [Y._index[y] for y in ys] for x, ys in Yx.items()}
    for x in X.elements:
        ys, js = Yx[x], at[x]
        for i in range(len(ys)):
            for j in range(i + 1, len(ys)):
                for masks, side in ((Y._up, "up"), (Y._down, "down")):
                    shared = masks[js[i]] & masks[js[j]]
                    if shared:
                        w = Y.elements[(shared & -shared).bit_length() - 1]
                        raise AntichainViolation(x, ys[i], ys[j], w, side)

    # phi(y), for x <= x2, is the one member of Y_x2 in the up-set of y.
    members = {x: sum(1 << j for j in js) for x, js in at.items()}
    phi = {}
    for x, x2 in _pairs(X):
        fwd = {}
        for y, j in zip(Yx[x], at[x]):
            hits = Y._up[j] & members[x2]
            if not hits:
                raise PhiMissing(x, x2, y)
            if hits & (hits - 1):
                raise InternalInconsistency(
                    f"multiple admissible images for {y!r} under {x!r} <= {x2!r}; "
                    "the antichain check should have excluded this"
                )
            fwd[y] = Y.elements[hits.bit_length() - 1]
        if len(Yx[x]) != len(Yx[x2]) or len(set(fwd.values())) != len(fwd):
            raise PhiNotBijective(x, x2)
        phi[(x, x2)] = fwd

    for x in X.elements:
        if any(phi[(x, x)][y] != y for y in Yx[x]):
            raise InternalInconsistency(f"connecting map at {x!r} is not the identity")
    for x, x2, x3 in cover_triangles(X):
        for y in Yx[x]:
            if phi[(x2, x3)][phi[(x, x2)][y]] != phi[(x, x3)][y]:
                raise CocycleViolation(x, x2, x3, y)

    return GluingData(X=X, Y=Y, Yx=Yx, phi=phi)


def _build(g: GluingData, sign: str) -> GluedOrder:
    """The glued order of the given sign, predicted as masks and checked.

    The prediction is the generators and the diagonal: X, then Y, with each
    x below the up-sets of its witnesses (plus) or above their down-sets
    (minus).  The closure of a relation is its smallest transitive
    superset, so the closure adds nothing and has no cycle exactly when the
    prediction is transitive (each up-set holds the up-sets of its members)
    and antisymmetric (no two up-sets are equal, given transitivity).  The
    witness masks of one x must be disjoint, or a cross relation has two
    witnesses; the earlier one is then the witness of x before w whose mask
    holds the shared element."""
    if sign in g._orders:
        return g._orders[sign]
    X, Y, n, plus = g.X, g.Y, len(g.X), sign == "plus"
    elements = X.elements + Y.elements
    up = [m | 1 << i for i, m in enumerate(X._up + tuple(m << n for m in Y._up))]
    down = [m | 1 << i for i, m in enumerate(X._down + tuple(m << n for m in Y._down))]
    x_side, y_side, reach = (up, down, Y._up) if plus else (down, up, Y._down)
    for i, x in enumerate(X.elements):
        seen = 0
        for w in g.Yx[x]:
            m = reach[Y.index(w)]
            if m & seen:
                j = _bits(m & seen)[0]
                earlier = next(v for v in g.Yx[x] if reach[Y.index(v)] >> j & 1)
                pair = (x, Y.elements[j]) if plus else (Y.elements[j], x)
                raise InternalInconsistency(
                    f"cross relation {pair} has two witnesses, {earlier!r} and {w!r}"
                )
            seen |= m
            for j in _bits(m):
                y_side[n + j] |= 1 << i
        x_side[i] |= seen << n
    first = {}
    for i, m in enumerate(up):
        if reduce(or_, [up[j] for j in _bits(m)]) != m:
            raise InternalInconsistency(
                "transitive closure added relations beyond the predicted glued order"
            )
        a = elements[first.setdefault(m, i)]  # an earlier element with this up-set
        if a != elements[i]:
            raise InternalInconsistency(
                f"glued relation is not a partial order: {CycleError([a, elements[i], a])}"
            )
    g._orders[sign] = GluedOrder(poset=Poset._from_masks(elements, up, down), sign=sign)
    return g._orders[sign]


def build_plus(g: GluingData) -> GluedOrder:
    """The order on X ⊔ Y with X glued below Y through the witness sets."""
    return _build(g, "plus")


def build_minus(g: GluingData) -> GluedOrder:
    """The order on X ⊔ Y with Y glued below X through the witness sets."""
    return _build(g, "minus")


def _witness_set(ys, what: str) -> tuple:
    """ys as a tuple; ParseError naming the value unless it is an iterable
    collection and not a str, which would be read one character at a time,
    nor a set or frozenset, whose order depends on the hash seed: the order
    is part of the datum, as the matrix blocks downstream index by it."""
    if isinstance(ys, (set, frozenset)):
        raise ParseError(f"{what} must be ordered, not a {type(ys).__name__}, got {ys!r}")
    if not isinstance(ys, str):
        try:
            return tuple(ys)
        except TypeError:
            pass
    raise ParseError(f"{what} must be a collection of elements, got {ys!r}")


def from_function(X: Poset, Y: Poset, f) -> GluingData:
    """Gluing data of an order-preserving map f: X -> Y (all Y_x singletons);
    NotOrderPreserving names the first pair in element order that f breaks.
    f must be a mapping (ParseError otherwise)."""
    f = dict(_items(f, "f", "element of X"))
    for x in X.elements:
        if x not in f:
            raise ParseError(f"f gives no value for element {x!r}")
        Y.index(f[x])
    for x in f:
        X.index(x)
    for x, x2 in _pairs(X):
        if not Y.le(f[x], f[x2]):
            raise NotOrderPreserving(x, x2)
    return validate_gluing(X, Y, {x: (f[x],) for x in X.elements})


def from_bgp(Y: Poset, Y0) -> GluingData:
    """Gluing of a single new point against the witness set Y0 ⊆ Y.

    In the plus order the new point '*' is a source Hasse-connected to Y0;
    in the minus order it is a sink.  Y0 must be an ordered collection of
    elements of Y, not a set (ParseError otherwise).
    """
    Y0 = _witness_set(Y0, "Y0")
    for y in Y0:
        Y.index(y)
    star = "*" if "*" not in Y else "**"
    X = point_poset(star)
    return validate_gluing(X, Y, {star: Y0})


def ordinal_witness(X: Poset, Z: Poset):
    """The constant gluing of X onto a new bottom point under Z, together
    with the two shapes the glued orders must realize.

    Returns (gluing, expected_plus, expected_minus).  The shapes are built
    from ordinal and direct sums on the gluing's own labels, so callers
    compare them with the glued orders by Poset.same_order: expected_plus
    is X below Y (X, then the point, then Z), and expected_minus is the
    point below the direct sum of X and Z.
    """
    Y = ordinal_sum(point_poset("*"), Z)
    g = validate_gluing(X, Y, {x: (Y.elements[0],) for x in X.elements})
    bottom = g.Y.elements[0]
    above = Poset(g.Y.elements[1:], {(a, b) for a, b in g.Y.leq if a != bottom})
    expected_plus = ordinal_sum(g.X, g.Y)
    expected_minus = ordinal_sum(point_poset(bottom), direct_sum(g.X, above))
    return g, expected_plus, expected_minus


# --- JSON -------------------------------------------------------------------

def gluing_to_json(g: GluingData) -> dict:
    return {
        "X": poset_to_json(g.X),
        "Y": poset_to_json(g.Y),
        "Yx": {x: list(g.Yx[x]) for x in g.X.elements},
    }


def _names(value) -> bool:
    """Whether a JSON value is a list of element names (strings)."""
    return isinstance(value, list) and all(isinstance(e, str) for e in value)


def gluing_from_json(doc) -> GluingData:
    """Accepts exactly one of three input forms, detected by their keys:

    * `{"X": .., "Y": .., "Yx": {...}}` — explicit witness sets;
    * `{"X": .., "Y": .., "f": {...}}` — an order-preserving map;
    * `{"Y": .., "Y0": [...]}` — a single new point glued against Y0.

    A document mixing forms (two of 'Yx', 'f' and 'Y0', or 'X' with 'Y0')
    or holding any other key is rejected with the keys named.
    """
    if not isinstance(doc, dict):
        raise ParseError("gluing JSON must be an object")
    unknown = sorted(set(doc) - {"X", "Y", "Yx", "f", "Y0"}, key=str)
    if unknown:
        raise ParseError(f"gluing JSON has unknown keys {unknown}")
    keys = [k for k in ("X", "Yx", "f", "Y0") if k in doc]
    if len(set(keys) - {"X"}) > 1 or {"X", "Y0"} <= set(keys):
        raise ParseError(f"gluing JSON mixes forms, keys {keys}; give exactly one")
    if "Y0" in doc:
        if "Y" not in doc:
            raise ParseError("BGP form needs keys 'Y' and 'Y0'")
        Y = poset_from_json(doc["Y"])
        if not _names(doc["Y0"]):
            raise ParseError("'Y0' must be a list of element names")
        return from_bgp(Y, doc["Y0"])
    if "X" not in doc or "Y" not in doc:
        raise ParseError("gluing JSON needs keys 'X' and 'Y'")
    X = poset_from_json(doc["X"])
    Y = poset_from_json(doc["Y"])
    if "f" in doc:
        if not isinstance(doc["f"], dict) or not _names(list(doc["f"].values())):
            raise ParseError("'f' must be an object mapping X elements to Y elements")
        return from_function(X, Y, doc["f"])
    if "Yx" in doc:
        if not isinstance(doc["Yx"], dict) or not all(
            _names(v) for v in doc["Yx"].values()
        ):
            raise ParseError("'Yx' must map each X element to a list of Y elements")
        return validate_gluing(X, Y, {x: tuple(v) for x, v in doc["Yx"].items()})
    raise ParseError("gluing JSON needs one of 'Yx', 'f', or 'Y0'")
