"""Bounded complexes of finite-dimensional vector spaces, poset diagrams of
them, and the evaluation functor that turns integer-matrix formulas into
actual complexes, chain maps, and diagram maps.

All matrices are integers; the field only enters through rank computations
(rationals via fraction-free elimination, prime fields via modular
elimination), so every construction is literally identical over every field
and any field-dependence in reported dimensions would expose a bug.

A diagram stores a restriction only between two nonzero stalks: one into or
out of a zero stalk is the zero map, and is never built, stored, checked or
walked.  Every reader takes an omitted restriction as zero: the evaluator
skips its items, the cover-triangle walk asks r(a, c) = 0 across a zero
middle stalk, and a naturality square reads its omitted side as zero.

Every random diagram is a split sum of up-set pieces P_u ⊗ S (a complex S
spread over the up-set of u) whose restrictions are the block inclusions,
so random trials never see a non-split diagram such as the cone of
P_v -> P_u.  The module holds what a certificate runs: the draw, the
evaluation and the checks.  The random maps between diagrams that the
functor-law tests use (quasi-isomorphisms twisted by piece maps, and short
exact sequences with a bent middle) are built in tests/generators.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    BaseMismatch,
    D2NotZero,
    DiagramAxiomFailure,
    InternalInconsistency,
    InvalidChainMap,
    NaturalityFailure,
    ParseError,
    ShapeMismatch,
)
from .formula_cat import CMorphism, Formula, FormulaToPoint, _degrees, _entries, _patterns
from .intmat import Mat, _as_int, block, placed, rank_exact, rank_mod
from .poset_core import (
    Poset, _failing_square, _failing_triangle, _items, _pairs, require_elements, require_relations
)
from .rng import SplitMix64, derive_seed

# Deterministic Miller-Rabin bases: the primes up to 37 decide primality
# for every n below 3.18e23, the least strong pseudoprime to all of them
# (Sorenson and Webster 2015), which is far beyond the 2**64 cap of Field.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        # n is composite unless a**d is 1 or some a**(d * 2**r), r < s, is -1
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (p is None) or the prime field with p elements."""

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        if type(self.p) is not int:  # bool is an int subclass, and rejected
            raise ParseError(f"p must be an int or None, got {self.p!r}")
        if not (self.p < 2**64 and _is_prime(self.p)):
            raise ParseError(f"{self.p} is not a prime below 2**64")

    @staticmethod
    def parse(text: str) -> "Field":
        if text == "q":
            return Field(None)
        if text.startswith("p:"):
            try:
                p = int(text[2:])
            except ValueError:
                raise ParseError(f"bad field spec {text!r}") from None
            return Field(p)
        raise ParseError(f"field must be 'q' or 'p:<prime>', got {text!r}")

    def rank(self, m: Mat) -> int:
        if self.p is None:
            return rank_exact(m)
        return rank_mod(m, self.p)

    def __str__(self):
        return "q" if self.p is None else f"p:{self.p}"


RATIONALS = Field(None)


class VectComplex:
    """A bounded complex: degree -> dimension, with integer differentials.

    Stored canonically: zero dimensions and zero matrices are dropped, so
    equality is equality of the honest data. The constructor checks that
    consecutive differentials compose to zero.
    """

    __slots__ = ("dims", "d")

    def __init__(self, dims, d, check: bool = True):
        dims = {
            _as_int(i, "degree"): _as_int(n, "dimension") for i, n in _items(dims, "dims", "degree")
        }
        self.dims = {i: n for i, n in dims.items() if n}
        if any(n < 0 for n in self.dims.values()):
            raise ShapeMismatch("negative dimension")
        dd = {}
        for i, m in _items(d, "differentials", "degree"):
            i = _as_int(i, "degree")
            if not isinstance(m, Mat):
                m = Mat.from_rows(m)
            if m.nrows != self.dim(i + 1) or m.ncols != self.dim(i):
                raise ShapeMismatch(
                    f"differential at degree {i} must be {self.dim(i + 1)}x{self.dim(i)}"
                )
            if not m.is_zero():
                dd[i] = m
        self.d = dd
        if check:
            for i, m in self.d.items():
                nxt = self.d.get(i + 1)
                if nxt is not None and not nxt.mul(m).is_zero():
                    raise D2NotZero(f"d·d != 0 between degrees {i} and {i + 2}")

    def dim(self, i: int) -> int:
        return self.dims.get(i, 0)

    def diff(self, i: int) -> Mat:
        m = self.d.get(i)
        if m is None:
            return Mat.zero(self.dim(i + 1), self.dim(i))
        return m

    def euler(self) -> int:
        return sum((-1) ** (i % 2) * n for i, n in self.dims.items())

    def __eq__(self, other):
        return self is other or (
            isinstance(other, VectComplex)
            and self.dims == other.dims
            and self.d == other.d
        )

    def __repr__(self):
        return f"VectComplex(dims={dict(sorted(self.dims.items()))})"


class ChainMap:
    """A degreewise integer map between complexes, commuting with d."""

    __slots__ = ("source", "target", "f")

    def __init__(self, source: VectComplex, target: VectComplex, f, check=True):
        self.source = source
        self.target = target
        ff = {}
        tdims, sdims = target.dims, source.dims
        for i, m in _items(f, "components", "degree"):
            i = _as_int(i, "degree")
            if not isinstance(m, Mat):
                m = Mat.from_rows(m)
            if m.nrows != tdims.get(i, 0) or m.ncols != sdims.get(i, 0):
                raise ShapeMismatch(
                    f"component at degree {i} must be {target.dim(i)}x{source.dim(i)}"
                )
            if not m.is_zero():
                ff[i] = m
        self.f = ff
        if check:
            self._check()

    def _check(self):
        """InvalidChainMap unless f[i+1]·d_S[i] == d_T[i]·f[i] in every
        degree, where an absent block is zero: only degrees with a product
        of two present blocks are tested, and a product without its
        counterpart must vanish."""
        ff, sd, td = self.f, self.source.d, self.target.d
        degrees = {i - 1 for i in ff if i - 1 in sd} | {i for i in ff if i in td}
        for i in sorted(degrees):
            f1, f0 = ff.get(i + 1), ff.get(i)
            lhs = f1.mul(sd[i]) if f1 is not None and i in sd else None
            rhs = td[i].mul(f0) if f0 is not None and i in td else None
            if lhs is None:
                ok = rhs.is_zero()
            elif rhs is None:
                ok = lhs.is_zero()
            else:
                ok = lhs == rhs
            if not ok:
                raise InvalidChainMap(f"does not commute with d at degree {i}")

    def at(self, i: int) -> Mat:
        m = self.f.get(i)
        if m is None:
            return Mat.zero(self.target.dim(i), self.source.dim(i))
        return m

    def __eq__(self, other):
        return (
            isinstance(other, ChainMap)
            and self.source == other.source
            and self.target == other.target
            and self.f == other.f
        )

    def __repr__(self):
        return f"ChainMap(degrees {sorted(self.f)})"


def identity_chain_map(K: VectComplex) -> ChainMap:
    return ChainMap(K, K, {i: Mat.identity(n) for i, n in K.dims.items()}, check=False)


def _products(g: ChainMap | None, f: ChainMap | None) -> dict:
    """The nonzero degreewise products g.f[i]·f.f[i], that is the blocks of
    the composite g·f, for chain maps whose ends are already known to
    match; None stands for a restriction a diagram omits, the zero map, and
    then there are none."""
    if g is None or f is None:
        return {}
    gf, out = g.f, {}
    for i, m in f.f.items():
        n = gf.get(i)
        if n is not None:
            nm = n.mul(m)
            if not nm.is_zero():
                out[i] = nm
    return out


def shift_complex(K: VectComplex, n: int) -> VectComplex:
    """Reindex degrees by n and twist the differentials by (-1)**n."""
    sign = -1 if n % 2 else 1
    return VectComplex(
        {i - n: m for i, m in K.dims.items()},
        {i - n: (mat if sign == 1 else mat.neg()) for i, mat in K.d.items()},
        check=False,
    )


def cone(f: ChainMap) -> VectComplex:
    """The complex with degree-i part K^{i+1} ⊕ L^i and block differential
    [[-d_K[i+1], 0], [f[i+1], d_L[i]]] over the degrees where it is
    nonzero, placed in one pass from the present blocks (-d_K as the
    coefficient -1, absent blocks left out) and checked to square to zero."""
    K, L = f.source, f.target
    degrees = set(L.dims) | {i - 1 for i in K.dims}
    dims = {i: K.dim(i + 1) + L.dim(i) for i in degrees}
    d = {}
    for i in degrees:
        parts = ((0, 0, -1, K.d.get(i + 1)), (1, 0, 1, f.f.get(i + 1)), (1, 1, 1, L.d.get(i)))
        blocks = [part for part in parts if part[3] is not None]
        if blocks:
            rows, cols = K.dim(i + 2), K.dim(i + 1)
            d[i] = placed([0, rows, rows + L.dim(i + 1)], [0, cols, dims[i]], blocks)
    return VectComplex(dims, d)


def direct_sum_complexes(parts) -> VectComplex:
    parts = list(parts)
    degrees = set()
    for p in parts:
        degrees |= set(p.dims)
    dims = {i: sum(p.dim(i) for p in parts) for i in degrees}
    d = {}
    for i in degrees:
        blocks = {(k, k): p.d[i] for k, p in enumerate(parts) if i in p.d}
        if blocks:
            d[i] = block(blocks, [p.dim(i + 1) for p in parts], [p.dim(i) for p in parts])
    return VectComplex(dims, d, check=False)


def cohomology(K: VectComplex, field: Field = RATIONALS) -> dict:
    """Dimensions of kernel-mod-image in each degree, zeros omitted: degree
    i has dim − rank(d_i) − rank(d_{i−1}), each differential of K is ranked
    once by field.rank, and an absent one has rank 0."""
    ranks = {i: field.rank(m) for i, m in K.d.items()}
    out = {}
    for i in sorted(K.dims):
        h = K.dims[i] - ranks.get(i, 0) - ranks.get(i - 1, 0)
        if h:
            out[i] = h
    return out


def is_quasi_iso(f: ChainMap, field: Field = RATIONALS) -> bool:
    """True iff the cone of f is acyclic over field."""
    return not cohomology(cone(f), field)


class PosetDiagram:
    """One complex per poset element plus compatible restriction chain maps.

    Restrictions are stored only for the related pairs whose two stalks are
    nonzero, the support pairs; a restriction into or out of a zero stalk is
    the zero map, and is never stored, checked or walked.  A missing
    diagonal restriction at a nonzero stalk is the identity.  The input may
    give the pairs with a zero end or leave them out; every support pair
    must be given (ParseError names the first one missing, in element
    order), and no unrelated pair.  As no stored map has a zero end, equal
    diagrams store equal restrictions.

    With check, the constructor checks the ends of each given restriction,
    stored or not, that each diagonal one is the identity, and closure under
    composition on cover_triangles, comparing the degreewise products with
    the stored blocks.  By the induction there this implies the general
    case; the degenerate triangles (x, x2, x2) follow from the identity
    check.  Only the triangles (x, x2, x3) with x and x3 in the support are
    walked, and one whose middle stalk is zero requires r(x, x3) = 0, what
    the product of the two zero maps requires (see
    poset_core._failing_triangle).  The comparison reads the blocks of the
    three chain maps and nothing else, so _failing_triangle compares each
    distinct triple of restriction objects once (the evaluator makes one
    chain map per object triple of its ends and matrices, the draws one per
    pair of piece sets); the first failing triangle is the witness.
    """

    __slots__ = ("base", "K", "r")

    def __init__(self, base: Poset, K: dict, r: dict, check: bool = True):
        self.base = base
        self.K = K = dict(K)
        require_elements(base, K, "complex")
        support = {x for x, C in K.items() if C.dims}
        self.r = require_relations(base, r, lambda x: identity_chain_map(K[x]), support)
        if check:
            for (x, x2), f in r.items():
                if f.source != K[x] or f.target != K[x2]:
                    raise ShapeMismatch(f"restriction for {x!r} <= {x2!r} has wrong ends")
            for x in base.elements:
                if x not in support:
                    continue
                # the ends are checked: the identity is an identity
                # block in each degree of the stalk
                f = self.r[(x, x)].f
                if f.keys() != K[x].dims.keys() or not all(m.is_identity() for m in f.values()):
                    raise DiagramAxiomFailure(f"restriction at ({x!r},{x!r}) is not the identity")
            triangle = _failing_triangle(base, self.r, lambda g, f, h: _products(g, f) == h.f)
            if triangle is not None:
                x, x2, x3 = triangle
                raise DiagramAxiomFailure(
                    f"restrictions do not compose along {x!r} <= {x2!r} <= {x3!r}"
                )

    def stalk(self, x) -> VectComplex:
        return self.K[x]

    def __eq__(self, other):
        return (
            isinstance(other, PosetDiagram)
            and self.base == other.base
            and self.K == other.K
            and self.r == other.r
        )

    def __repr__(self):
        return f"PosetDiagram(over {list(self.base.elements)})"


class DiagramMap:
    """A family of chain maps, one per element, commuting with restrictions:
    the two composites on each Hasse edge have equal degreewise products.
    A restriction that a diagram omits, into or out of a zero stalk, is the
    zero map, and its side of the square is zero (see
    poset_core._failing_square).  The comparison reads the square's four
    chain maps and nothing else, so _failing_square compares each distinct
    quadruple once; the first failing Hasse edge in element order raises
    NaturalityFailure."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: PosetDiagram, target: PosetDiagram, components):
        if source.base != target.base:
            raise BaseMismatch("diagram maps need a common base poset")
        self.source = source
        self.target = target
        self.components = dict(components)
        require_elements(source.base, self.components, "component")
        for x in source.base.elements:
            c = self.components[x]
            if c.source != source.K[x] or c.target != target.K[x]:
                raise ShapeMismatch(f"component at {x!r} has wrong ends")
        edge = _failing_square(
            source.base, target.r, self.components, source.r,
            lambda t, a, b, s: _products(t, a) == _products(b, s),
        )
        if edge is not None:
            raise NaturalityFailure(edge)


def shift_diagram(K: PosetDiagram, n: int) -> PosetDiagram:
    """K shifted by n: each stalk by shift_complex, each stored restriction
    reindexed between the shifted stalks of its pair; a shifted stalk is
    zero exactly when the stalk is, so these are the result's support
    pairs.  Each distinct stalk object is shifted once, as is each
    restriction object between one pair of stalk objects, so what K shares
    the result shares.  Shifting keeps d·d = 0, chain maps and the diagram
    axioms, so nothing is checked again.

    This is the evaluation of translation_formula(K.base, n) at K: the
    general evaluation of its words ((x, n),) puts K(x)^{t+n} in degree t,
    the differential times (-1)**n and every restriction as it is."""
    shifted, stalks, maps, r = {}, {}, {}, {}
    for x, c in K.K.items():
        if id(c) not in shifted:
            shifted[id(c)] = shift_complex(c, n)
        stalks[x] = shifted[id(c)]
    for (x, x2), f in K.r.items():
        key = id(f), id(K.K[x]), id(K.K[x2])
        if key not in maps:
            maps[key] = ChainMap(
                stalks[x], stalks[x2], {i - n: m for i, m in f.f.items()}, check=False
            )
        r[(x, x2)] = maps[key]
    return PosetDiagram(K.base, stalks, r, check=False)


def is_quasi_iso_diagram(f: DiagramMap, field: Field = RATIONALS) -> bool:
    """True iff every component is a quasi-isomorphism.

    The test of a component reads its chain map object and nothing else, so
    it runs once per distinct component object (keyed by its id; f keeps
    the objects, so the ids stay unique for the walk), which the evaluator
    shares between elements.  The walk goes in element order and stops at
    the first failing component: a repeated object has the result of its
    first test, which passed."""
    tested = set()
    for x in f.source.base.elements:
        c = f.components[x]
        if id(c) not in tested:
            if not is_quasi_iso(c, field):
                return False
            tested.add(id(c))
    return True


def cohomology_table(K: PosetDiagram, field: Field = RATIONALS) -> dict:
    """Per-element cohomology dimension tables; a stalk object that several
    elements share (draws and shift_diagram share them) is ranked once."""
    stalks = {id(C): C for C in K.K.values()}
    ranked = {key: cohomology(C, field) for key, C in stalks.items()}
    return {x: ranked[id(K.K[x])] for x in K.base.elements}


# --- evaluation of formulas ---------------------------------------------------

def _eval_object_dims(word, ev: _Evaluation) -> dict:
    """The nonzero dimensions of word evaluated at ev's diagram."""
    return {t: offsets[-1] for t, offsets in ev.layout(word).items()}


class _Evaluation:
    """The evaluation context of one call at a diagram K.  It does each
    piece of work once per distinct input, through memos that live on it
    for the call only; it is kept on nothing it makes, so it forms no
    reference cycle.  Morphisms are read only through formula_cat._entries
    and formula_cat._patterns; nothing here writes into one.

    * The record of a word (record) is its signature, the stalk object
      K(x) and the degree m of each entry (x, m), with its layout, one
      record per distinct signature (layouts), found by word object
      (words).  The layout of a word at a degree t of its support is the
      offset of each entry in the degree-t part of the word at K, then the
      total size: entry k, (x, m), spans dim K(x)^{t+m} rows or columns
      from offset k on.  The signature decides it.
    * The degreewise matrices of a word morphism phi are made once per
      key (made; see key for the proof that the key decides them).
    * Each value is evaluated once per key of its D (values; see formula).
    * Each chain map is made and checked once per object triple of its
      ends and its matrices (maps; see chain_map).
    Every id these memos hold names an object that lives for the call:
    the patterns and the matrix objects they stand for are kept by the
    pattern function, the records by layouts, the words by words, the
    stalks and restrictions by K, the matrices of a chain map by made.

    Every evaluation passes through formula or record, which reject a
    formula or word over another base than K's first (BaseMismatch), before
    any record, key or matrix is made.
    """

    __slots__ = ("K", "pattern", "words", "layouts", "made", "values", "maps")

    def __init__(self, K: PosetDiagram):
        self.K = K
        self.pattern = _patterns()
        self.words = {}
        self.layouts = {}
        self.made = {}
        self.values = {}
        self.maps = {}

    def record(self, word) -> tuple:
        """(signature, layout) of word at K, one object per distinct
        signature; the first time a word object is seen it is checked to
        live over K's base."""
        hit = self.words.get(id(word))
        if hit is None:
            if word.base != self.K.base:
                raise BaseMismatch("formula and diagram live over different posets")
            stalks, entries = self.K.K, word.entries
            signature = tuple([(id(stalks[x]), m) for x, m in entries])
            record = self.layouts.get(signature)
            if record is None:
                record = self.layouts[signature] = signature, {
                    t: list(
                        accumulate((stalks[x].dims.get(t + m, 0) for x, m in entries), initial=0)
                    )
                    for t in {s - m for x, m in entries for s in stalks[x].dims}
                }
            hit = self.words[id(word)] = word, record
        return hit[1]

    def layout(self, word) -> dict:
        """degree t -> the layout of word at t, for t in its support."""
        return self.record(word)[1]

    def key(self, phi: CMorphism, source: tuple, target: tuple) -> tuple:
        """The key of phi's evaluation at K, given the records source and
        target of its two ends: the ids of phi's pattern, of the two
        records, and of the restriction K(x_i <= x_j) that each nonzero
        entry (j, i) selects, in pattern order, where K stores one.

        It decides the degreewise matrices.  The pattern stands for phi's
        matrix object (formula_cat._patterns), so it decides the nonzero
        positions (j, i) and their coefficients; the signatures decide the
        degrees of both ends.  Together they decide every item
        (j, i, (x_i, x_j), m_i, c, raising) of _entries(phi) but the
        element pair: raising is m_j != m_i, and c is the coefficient,
        negated for a raising entry from an odd m_i.  Of the pair, an item
        reads only the restriction K(x_i <= x_j), and for a raising item the
        differential of K(x_j), the stalk of target entry j in the target's
        signature.  K omits the restriction exactly when K(x_i) or K(x_j) is
        zero, which the stalks of entries i and j in the two signatures
        decide; it is then the zero map, and the item adds nothing.  So the
        signatures decide which positions have a stored restriction, and the
        ids of those, in pattern order, decide the rest.  The signatures
        decide the layouts, where the blocks are placed.  The empty pattern,
        which every zero matrix shares, has no item, and its result is
        empty."""
        get, se, te = self.K.r.get, phi.source.entries, phi.target.entries
        positions = self.pattern(phi)
        stored = [get((se[i][0], te[j][0])) for j, i in positions]
        return (
            id(positions), id(source), id(target), *[id(f) for f in stored if f is not None]
        )

    def matrices(self, phi: CMorphism) -> dict:
        """The degreewise matrices of phi evaluated at K, nonzero degrees
        only, made once per key.  They are {} when either end evaluates to
        zero, and then no key is made.  An item (j, i, (x_i, x_j), m_i, c,
        raising) of _entries(phi) is c times the restriction K(x_i <= x_j),
        and then the differential of K(x_j) if raising, walked over the
        nonzero degrees s of the restriction to land at degree
        t = s - m_i; an item whose restriction K omits, the zero map, is
        skipped."""
        source, target = self.record(phi.source), self.record(phi.target)
        rows, cols = target[1], source[1]
        if not (rows and cols):
            return {}
        key = self.key(phi, source, target)
        out = self.made.get(key)
        if out is not None:
            return out
        stalks, get, placed_at = self.K.K, self.K.r.get, {}
        for j, i, pair, mi, c, raising in _entries(phi):
            f = get(pair)
            if f is None:
                continue
            for s, m in f.f.items():
                if raising:
                    d = stalks[pair[1]].d.get(s)
                    if d is None:
                        continue
                    m = d.mul(m)
                    if m.is_zero():
                        continue
                placed_at.setdefault(s - mi, []).append((j, i, c, m))
        out = self.made[key] = {t: placed(rows[t], cols[t], items) for t, items in placed_at.items()}
        return out

    def chain_map(self, S: VectComplex, T: VectComplex, f: dict) -> ChainMap:
        """The chain map from S to T with the degreewise matrices f, a
        result of matrices, made and checked once per object triple
        (S, T, f), and once per pair (S, T) when f is empty, the zero map.
        The map and its check read those three objects and nothing else,
        so the triple decides both.  made keeps f and the map keeps S and
        T, so the ids stay unique while the context lives."""
        key = id(S), id(T), id(f) if f else None
        m = self.maps.get(key)
        if m is None:
            m = self.maps[key] = ChainMap(S, T, f)
        return m

    def formula(self, F: Formula) -> PosetDiagram:
        """F evaluated at K (see eval_formula); a translation formula is K
        shifted.

        Each value f is evaluated once per key of its D: f's word is D's
        source, so the key's source record decides the word's layout, its
        dimensions and its Euler characteristic, and the key decides D's
        matrices, the differential; a later value with that key gets the
        first one's complex, which passed the same checks.  A restriction
        with a zero stalk at either end is the zero map, which the diagram
        omits, so it is neither read from F nor made: the related pairs of
        F's target are walked in element order (poset_core._pairs), and only
        the support pairs, whose two values are nonzero, are read.  That is
        the order of F.res on the formulas of compose_formulas and
        translation_formula, and on those of canonical_formula but for
        their diagonal identities, which come last and cannot fail; so the
        first failing chain map is the one a walk over F.res finds, the
        zero maps passing.  Every distinct restriction read is checked as a
        chain map; PosetDiagram then checks the diagram axioms."""
        if F.base != self.K.base:
            raise BaseMismatch("formula and diagram live over different posets")
        if F.shift is not None:
            return shift_diagram(self.K, F.shift)
        record, values, stalks = self.record, self.values, {}
        for y in F.target.elements:
            f = F.at[y]
            k = self.key(f.D, record(f.D.source), record(f.D.target))
            value = values.get(k)
            if value is None:
                value = values[k] = self.point(f)
            stalks[y] = value
        restrictions = {
            (y, y2): self.chain_map(stalks[y], stalks[y2], self.matrices(F.res[y, y2]))
            for y, y2 in _pairs(F.target) if stalks[y].dims and stalks[y2].dims
        }
        return PosetDiagram(F.target, stalks, restrictions, check=True)

    def point(self, f: FormulaToPoint) -> VectComplex:
        """f evaluated at K, with its checks (see eval_point)."""
        K = self.K
        dims = _eval_object_dims(f.xi, self)
        try:
            T = VectComplex(dims, self.matrices(f.D), check=True)
        except D2NotZero as exc:
            raise D2NotZero(f"evaluated differential fails to square to zero: {exc}") from exc
        expected = sum((-1) ** (m % 2) * K.K[x].euler() for x, m in f.xi.entries)
        if T.euler() != expected:
            raise InternalInconsistency(
                f"Euler characteristic of {f.xi.entries} is {T.euler()}, expected {expected}"
            )
        return T


# --- the selection kernel -----------------------------------------------------
#
# The image of a formula value at the representable diagram P_u (the field
# in degree 0 at each x >= u, zero elsewhere, identity restrictions and zero
# differential) is what _Evaluation computes at P_u: a word entry (e, m) is
# one dimension in degree -m if u <= e and nothing otherwise, and an item
# (j, i, (x_i, x_j), m_i, c, raising) of a morphism's entries is c times a
# restriction of P_u, the identity of the field in degree -m_i, if
# u <= x_i (and so u <= x_j), while a raising item vanishes, as it ends in
# a differential of P_u.  So the image reads the word's degrees and its
# selection, the positions of its entries that lie over u, and not u: the
# kernel takes those and nothing else, and morphisms are read only through
# formula_cat._entries.


def _selected_layout(degrees: tuple, selection: tuple) -> dict:
    """degree t -> the offsets of a word's entries at t, then the total size
    (see _Evaluation.layout), for the word with these degrees whose selected
    entries are one dimension each and the others zero, for t in its
    support: selected entry k of degree m counts at t = -m."""
    chosen = set(selection)
    return {
        t: list(accumulate((int(m == -t and k in chosen) for k, m in enumerate(degrees)), initial=0))
        for t in {-degrees[k] for k in selection}
    }


def _selected_matrices(phi: CMorphism, source_selection: tuple, target_selection: tuple) -> dict:
    """The degreewise matrices of phi between the selected entries of its
    ends, nonzero degrees only: each non-raising item from a selected
    source entry is its coefficient at degree -m_i.  Its target entry
    lies above the source one (x_i <= x_j), so a selection over an up-set
    keeps it too."""
    one, chosen, placed_at = Mat.identity(1), set(source_selection), {}
    for j, i, _, mi, c, raising in _entries(phi):
        if not raising and i in chosen:
            placed_at.setdefault(-mi, []).append((j, i, c, one))
    rows = _selected_layout(_degrees(phi.target), target_selection)
    cols = _selected_layout(_degrees(phi.source), source_selection)
    return {t: placed(rows[t], cols[t], items) for t, items in placed_at.items()}


def _selected_complex(f: FormulaToPoint, selection: tuple) -> VectComplex:
    """The complex of f's selected entries, with the selected part of D as
    its differential, its d·d = 0 checked.  D's target is f's word shifted
    by one, so it has the same selection."""
    dims = {t: offsets[-1] for t, offsets in _selected_layout(_degrees(f.xi), selection).items()}
    return VectComplex(dims, _selected_matrices(f.D, selection, selection), check=True)


def eval_point(f: FormulaToPoint, K: PosetDiagram) -> VectComplex:
    """Evaluate a formula to a point: the direct sum of shifted stalks with
    the differential assembled from D. The result's d·d = 0 is asserted, and
    so is its Euler characteristic: a value with entries (x_i, m_i) must have
    sum_i (-1)^{m_i} chi(K_{x_i}), else the evaluator itself is broken."""
    return _Evaluation(K).point(f)


def _point_map(f: FormulaToPoint, g: DiagramMap, src_ev, tgt_ev, src, tgt) -> ChainMap:
    """The value f applied to the diagram map g, a chain map between src
    and tgt, the evaluations of f on g's ends that the caller has already
    made through the contexts src_ev and tgt_ev: the identity entries of
    f's word, with g's components for the restrictions, on the word's
    layouts at both ends, checked to be a chain map."""
    placed_at = {}
    for i, (x, m) in enumerate(f.xi.entries):
        for s, piece in g.components[x].f.items():
            placed_at.setdefault(s - m, []).append((i, i, 1, piece))
    rows, cols = tgt_ev.layout(f.xi), src_ev.layout(f.xi)
    out = {t: placed(rows[t], cols[t], items) for t, items in placed_at.items()}
    return ChainMap(src, tgt, out, check=True)


def eval_formula(F: Formula, K: PosetDiagram) -> PosetDiagram:
    """Evaluate a poset-shaped formula to a diagram over its target poset,
    through one _Evaluation shared by all its values and restrictions."""
    return _Evaluation(K).formula(F)


def eval_formula_map(F: Formula, g: DiagramMap) -> DiagramMap:
    """Apply the functor of a formula to a diagram map, elementwise, through
    one _Evaluation at each end of g, shared by the values and the maps."""
    src_ev, tgt_ev = _Evaluation(g.source), _Evaluation(g.target)
    src, tgt = src_ev.formula(F), tgt_ev.formula(F)
    comps = {
        y: _point_map(F.at[y], g, src_ev, tgt_ev, src.K[y], tgt.K[y])
        for y in F.target.elements
    }
    return DiagramMap(src, tgt, comps)


# --- the random draw -----------------------------------------------------------

def _random_elementary(rng: SplitMix64, max_dim: int, window) -> list:
    """A list of elementary pieces ('stalk', i) or ('two', i), respecting the
    per-degree dimension cap inside the window."""
    lo, hi = window
    used = {}
    pieces = []
    for _ in range(rng.randrange(4)):
        if rng.randrange(2) and lo < hi:
            i = lo + rng.randrange(hi - lo)
            if used.get(i, 0) < max_dim and used.get(i + 1, 0) < max_dim:
                pieces.append(("two", i))
                used[i] = used.get(i, 0) + 1
                used[i + 1] = used.get(i + 1, 0) + 1
        else:
            i = lo + rng.randrange(hi - lo + 1)
            if used.get(i, 0) < max_dim:
                pieces.append(("stalk", i))
                used[i] = used.get(i, 0) + 1
    return pieces


def _elementary_slots(pieces) -> dict:
    """degree i -> the basis of the complex of the elementary pieces at i, as
    (k, part): part 0 of piece k in its degree, part 1 one degree up."""
    slots = {}
    for k, (kind, i) in enumerate(pieces):
        slots.setdefault(i, []).append((k, 0))
        if kind == "two":
            slots.setdefault(i + 1, []).append((k, 1))
    return slots


def _complex_from_elementary(pieces) -> VectComplex:
    slots = _elementary_slots(pieces)
    dims = {i: len(v) for i, v in slots.items()}
    d = {}
    for i in dims:
        if i + 1 not in dims:
            continue
        rows = []
        for kt, part_t in slots[i + 1]:
            row = []
            for ks, part_s in slots[i]:
                row.append(1 if (kt == ks and part_s == 0 and part_t == 1) else 0)
            rows.append(tuple(row))
        d[i] = Mat(dims[i + 1], dims[i], tuple(rows))
    return VectComplex(dims, d, check=False)


_UNIMODULAR_STEPS = 3

#: The coefficients c of a row operation (i, j, c) of _unimodular_steps.
_COEFFICIENTS = (-2, -1, 1, 2)


def _unimodular_steps(rng: SplitMix64, n: int) -> list:
    """The draw of a random n x n integer matrix with determinant ±1 (n >= 1,
    as complexes keep no zero dimension): at most _UNIMODULAR_STEPS
    elementary row operations, each (i, j, c), adding c times row j to row
    i, or (i, None, None), negating row i."""
    steps = []
    for _ in range(_UNIMODULAR_STEPS):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                # the one call rng.choice(_COEFFICIENTS) would make
                steps.append((i, j, _COEFFICIENTS[rng.randrange(len(_COEFFICIENTS))]))
        else:
            steps.append((rng.randrange(n), None, None))
    return steps


def _unimodular(n: int, steps) -> tuple:
    """The product U = E_s...E_1 of the row operations E of steps (see
    _unimodular_steps) on the n x n identity, plus its exact inverse: each E
    is applied as a row operation on U and its inverse as a column operation
    on U^-1."""
    U = [[int(r == s) for s in range(n)] for r in range(n)]
    Uinv = [row[:] for row in U]
    for i, j, c in steps:
        if j is None:
            U[i] = [-a for a in U[i]]
            for row in Uinv:
                row[i] = -row[i]
        else:
            # E = I + c·e_ij adds c times row j to row i; E^-1 = I - c·e_ij
            # on the right subtracts c times column i from column j
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
            for row in Uinv:
                row[j] -= c * row[i]
    return Mat(n, n, U), Mat(n, n, Uinv)


def _draw_complex(rng: SplitMix64, max_dim: int, window) -> tuple:
    """The recipe (elementary pieces, unimodular steps by degree) of a random
    complex: every random number _build_complex needs, drawn in its order."""
    elem = _random_elementary(rng, max_dim, window)
    return elem, {i: _unimodular_steps(rng, len(v)) for i, v in _elementary_slots(elem).items()}


def _build_complex(elem, steps) -> VectComplex:
    """The complex of the elementary pieces elem, conjugated in each degree
    i by the unimodular matrix of steps[i]."""
    K = _complex_from_elementary(elem)
    U = {i: _unimodular(n, steps[i]) for i, n in K.dims.items()}
    # a nonzero differential has both its degrees in K.dims
    d = {i: _times(_times(U[i + 1][0], m), U[i][1]) for i, m in K.d.items()}
    return VectComplex(K.dims, d, check=True)


def _recipe_cohomology(elem) -> dict:
    """H(S) of the complex _build_complex makes of the elementary pieces
    elem, over every field: one dimension per stalk piece in its degree.  A
    two-term piece is acyclic (its d is [[1]]), and conjugation by U in
    GL_n(Z), whose inverse is integral too, keeps every rank mod p."""
    h = {}
    for kind, i in elem:
        if kind == "stalk":
            h[i] = h.get(i, 0) + 1
    return h


def _times(a: Mat, b: Mat) -> Mat:
    """a·b, skipping an identity factor (an untouched basis change, or the
    differential of a two-term piece)."""
    return b if a.is_identity() else a if b.is_identity() else a.mul(b)


class _PieceDiagram:
    """Internal: pieces (u_k, S_k); the stalk at x is the direct sum of the
    pieces with u_k <= x, and restrictions are the block inclusions.

    Everything at x depends on x only through present[x], its piece set:
    one stalk is built per distinct piece set and shared by the elements
    that have it, as is one restriction per distinct pair of piece sets.
    Every piece is a nonzero complex, so the stalk at x is zero exactly when
    present[x] is empty, and the support, where it is nonzero, is an up-set.
    """

    def __init__(self, X: Poset, pieces):
        self.X = X
        self.pieces = list(pieces)  # list of (u, VectComplex)
        bits = [1 << X.index(u) for u, _ in self.pieces]
        self.present = {
            x: tuple(k for k, b in enumerate(bits) if down & b)
            for x, down in zip(X.elements, X._down)
        }
        self.sums = {
            p: direct_sum_complexes(self.pieces[k][1] for k in p)
            for p in dict.fromkeys(self.present.values())
        }
        self.stalks = {x: self.sums[p] for x, p in self.present.items()}

    def inclusion_blocks(self, src_present, tgt_present, t):
        """(blocks, rows, cols) at degree t of the block inclusion of the
        pieces src_present into the pieces tgt_present: the restrictions of
        every diagram, and the maps between diagrams that the tests draw
        (tests/generators.py) start from."""
        rows = [self.pieces[k][1].dim(t) for k in tgt_present]
        cols = [self.pieces[k][1].dim(t) for k in src_present]
        blocks = {
            (tgt_present.index(k), ci): Mat.identity(n)
            for ci, (k, n) in enumerate(zip(src_present, cols))
            if n
        }
        return blocks, rows, cols

    def diagram(self) -> PosetDiagram:
        """The split diagram of the pieces: the stalks, and for each support
        pair x <= x2, x with a nonzero stalk and so x2 too, the block
        inclusion in each degree, one chain map per distinct pair of piece
        sets, walked in element order.  A split sum of up-set pieces is a
        diagram by construction, so nothing is checked."""
        r, shared, present = {}, {}, self.present
        for x, x2 in _pairs(self.X):
            p = present[x]
            if p:
                key = p, present[x2]
                if key not in shared:
                    f = {t: block(*self.inclusion_blocks(*key, t)) for t in self.sums[p].dims}
                    shared[key] = ChainMap(self.sums[p], self.sums[key[1]], f, check=False)
                r[(x, x2)] = shared[key]
        return PosetDiagram(self.X, self.stalks, r, check=False)


def _draw_pieces(X: Poset, rng: SplitMix64, max_dim: int, window) -> list:
    """The recipes (u, elementary pieces, unimodular steps by degree) of the
    pieces (u, S) of a random split diagram over X, at most max_dim
    dimensions per element and degree: every random number of the draw.
    _build_pieces makes the pieces."""
    budget = {}
    recipes = []
    for _ in range(1 + rng.randrange(3)):
        u = rng.choice(X.elements)
        elem, steps = _draw_complex(rng, max_dim, window)
        dims = {i: len(v) for i, v in _elementary_slots(elem).items()}
        up = X.up_set(u)
        fits = all(budget.get((x, t), 0) + n <= max_dim for x in up for t, n in dims.items())
        if not dims or not fits:
            continue
        for x in up:
            for t, n in dims.items():
                budget[(x, t)] = budget.get((x, t), 0) + n
        recipes.append((u, elem, steps))
    if not recipes:
        lo, _hi = window
        recipes.append((rng.choice(X.elements), [("stalk", lo)], {lo: []}))
    return recipes


def _build_pieces(recipes) -> list:
    """The pieces (u, S) of the recipes of _draw_pieces."""
    return [(u, _build_complex(elem, steps)) for u, elem, steps in recipes]


def _diagram_draw(X: Poset, seed: int, max_dim: int, window) -> list:
    """The recipes of the pieces that random_diagram(X, seed, max_dim,
    window) spreads over X: the one draw of its random numbers."""
    return _draw_pieces(X, SplitMix64(derive_seed(seed, "diagram")), max_dim, window)


def random_diagram(X: Poset, seed: int, max_dim: int = 3, window=(-2, 2)) -> PosetDiagram:
    """A deterministic random diagram over X: a split sum of up-set pieces
    with block-inclusion restrictions.

    The same seed yields the same diagram regardless of the field in use —
    all entries are integers; fields only enter when ranks are computed.
    """
    return _PieceDiagram(X, _build_pieces(_diagram_draw(X, seed, max_dim, window))).diagram()
