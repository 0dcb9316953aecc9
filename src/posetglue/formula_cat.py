"""Exact integer-matrix calculus of graded poset words.

Objects are finite sequences of (element, degree) pairs over a fixed base
poset; morphisms are integer matrices supported on positions that respect
the order and raise degree by 0 or 1 (degree jumps of two or more are
quotiented away). On top of these live:

* FormulaToPoint — an object together with a square matrix D to its shift
  satisfying D*[1]·D = 0, lower triangularity, and unit diagonal;
* Formula — a poset-shaped diagram of FormulaToPoint values whose
  restrictions are CMorphisms between the value words, each preserving
  degree and intertwining the two values' D's (check_formula_morphism).

Everything here is pure integer algebra with no choice of coefficients; the
abelian_eval module turns these values into actual complexes and chain maps.
"""
from __future__ import annotations

from collections.abc import Mapping
from itertools import accumulate, compress

from .errors import (
    BaseMismatch,
    CommutativityFailure,
    DiagramAxiomFailure,
    InternalInconsistency,
    ParseError,
    ShapeMismatch,
)
from .intmat import Mat, _as_int, placed
from .poset_core import (
    Poset,
    _bits,
    _failing_triangle,
    _pairs,
    covers,
    poset_from_generators,
    require_elements,
    require_relations,
)


# --- objects and morphisms ---------------------------------------------------

class CObject:
    """A finite sequence of (element, degree) pairs over a base poset.

    Entries may repeat and their order is significant: it is the row/column
    order of every matrix attached to the object.
    """

    __slots__ = ("entries", "base")

    def __init__(self, entries, base: Poset):
        try:
            entries = tuple([(x, _as_int(m, "degree")) for x, m in entries])
        except (TypeError, ValueError):  # not iterable, or an entry is no pair
            raise ParseError(
                f"a word must be a sequence of (element, degree) pairs, got {entries!r}"
            ) from None
        for x, _ in entries:
            base.index(x)
        self.entries = entries
        self.base = base

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CObject)
            and self.entries == other.entries
            and self.base == other.base
        )

    def __repr__(self):
        return f"CObject({list(self.entries)})"

    def shifted(self, n: int) -> "CObject":
        # the elements were validated when self was made
        return _word(tuple([(x, m + n) for x, m in self.entries]), self.base)


def _word(entries: tuple, base: Poset) -> CObject:
    """The object of entries, a tuple of (element, int degree) pairs whose
    elements were validated over base when the words they come from were
    made; nothing is checked again."""
    obj = object.__new__(CObject)
    obj.entries = entries
    obj.base = base
    return obj


def _degrees(word: CObject) -> tuple:
    """The degrees of word's entries, in entry order."""
    return tuple([m for _, m in word.entries])


def _canonical(source: CObject, target: CObject, matrix: Mat) -> Mat:
    """matrix, from source to target, in canonical form.

    The canonical-position rule: entry (j, i), from source entry (x_i, m_i)
    to target entry (x_j, m_j), may be nonzero exactly when x_i <= x_j and
    m_j - m_i is 0 or 1.  Every other entry is zeroed: order violations,
    degree lowerings, and degree jumps of 2 or more (the quotient).  The
    predicate below is the one statement of the rule; Mat.masked calls it
    only at the nonzero entries, so a mostly zero matrix costs its nonzero
    entries.  The elements were validated when the objects were made."""
    src, tgt, base = source.entries, target.entries, source.base
    up, index = base._up, base._index

    def allowed(j, i):
        (xi, mi), (xj, mj) = src[i], tgt[j]
        return 0 <= mj - mi <= 1 and up[index[xi]] >> index[xj] & 1

    return matrix.masked(allowed)


class CMorphism:
    """An integer matrix between two objects, stored in canonical form.

    The constructor validates and normalizes any input: a Mat of the right
    shape (ShapeMismatch otherwise), or rows of integer entries (see Mat).
    Its entries are then put in canonical form by :func:`_canonical`, where
    the canonical-position rule is stated, tested only at the nonzero
    entries of the input: order violations and degree lowerings become zero
    and degree jumps >= 2 are quotiented away.  Equality is equality of
    canonical forms.  Matrices that are canonical by construction skip
    that pass through the private ``_trusted``, which checks nothing; each
    of its callers proves its matrix canonical in its docstring: the
    products of :func:`compose`, the sign twists of :func:`star`, the 0/1
    matrices of :func:`canonical_formula`, the [[1]] matrices of
    :func:`translation_formula`, the substituted matrices of
    :func:`_substituted_value` (for :func:`substitute` and
    :func:`compose_formulas`, see :func:`_substituted_matrix`), and the
    restrictions that :class:`_Restrictions` makes on read, whose matrices
    canonical_formula, translation_formula, compose_formulas and shift
    prove canonical.  Input from
    outside these builders (rows, JSON, the retract maps, the named
    constants) takes the constructor.
    A morphism holds its two ends and its matrix and nothing else: what a
    walk or an evaluation derives from it (its entries, its pattern) is
    kept by that call, not on the morphism.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: CObject, target: CObject, matrix):
        if source.base != target.base:
            raise BaseMismatch("source and target live over different posets")
        if not isinstance(matrix, Mat):
            matrix = Mat(len(target), len(source), matrix)
        elif (matrix.nrows, matrix.ncols) != (len(target), len(source)):
            raise ShapeMismatch(
                f"matrix must be {len(target)}x{len(source)}, "
                f"got {matrix.nrows}x{matrix.ncols}"
            )
        self.source = source
        self.target = target
        self.matrix = _canonical(source, target, matrix)

    @classmethod
    def _trusted(cls, source: CObject, target: CObject, matrix: Mat) -> "CMorphism":
        """A morphism from a Mat already canonical for these ends; nothing
        is checked."""
        m = object.__new__(cls)
        m.source = source
        m.target = target
        m.matrix = matrix
        return m

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"CMorphism({self.matrix.tolist()})"

    def is_zero(self):
        return self.matrix.is_zero()


def identity_morphism(obj: CObject) -> CMorphism:
    return CMorphism(obj, obj, Mat.identity(len(obj)))


def _quotient(product: Mat, src: tuple, tgt: tuple, rise: int = 0) -> Mat:
    """product, a product of canonical matrices from the entries src to the
    entries tgt shifted by rise, with its degree jumps of 2 zeroed.  When the
    highest target degree is less than 2 above the lowest source degree no
    entry can jump by 2, and product is returned as it is."""
    top = max((m for _, m in tgt), default=0) + rise
    if top - min((m for _, m in src), default=top) < 2:
        return product
    return product.masked(lambda k, i: tgt[k][1] + rise - src[i][1] != 2)


def compose(g: CMorphism, f: CMorphism) -> CMorphism:
    """The matrix product g·f in canonical form.

    The product needs no order test.  A nonzero entry (k, i) of g·f has a
    nonzero term g[k, j]·f[j, i].  Both factors are canonical, so
    x_i <= x_j <= x_k and each factor raises degree by 0 or 1.  Hence
    x_i <= x_k by transitivity, and the entry raises degree by
    m_k - m_i in {0, 1, 2}.  Only the jumps of 2 are quotiented away, and
    the mask is skipped when the degrees of the two ends allow none
    (see _quotient).  It is the category's composition and the tests'
    reference; no builder calls it, as substitution and the checks and walks
    multiply plain matrices (see _substituted_matrix and Formula).
    """
    if f.source.base != g.source.base:
        raise BaseMismatch("cannot compose morphisms over different posets")
    if f.target != g.source:
        raise ShapeMismatch("compose: target of the first factor != source of the second")
    product = _quotient(g.matrix.mul(f.matrix), f.source.entries, g.target.entries)
    return CMorphism._trusted(f.source, g.target, product)


def _koszul(obj: CObject) -> tuple:
    """The Koszul signs (-1)**m of obj's degrees m, in entry order."""
    return tuple([-1 if m % 2 else 1 for _, m in obj.entries])


def _starred(matrix: Mat, source: CObject, target: CObject) -> Mat:
    """matrix, from source to target, with entry (j, i) times (-1)**(m_j - m_i),
    the Koszul signs of its row and column; a shift of both ends changes none."""
    return matrix.signed(_koszul(target), _koszul(source))


def _entries(phi: CMorphism):
    """The nonzero entries c of phi, row by row, as items
    (j, i, (x_i, x_j), m_i, c, raising) for source entry (x_i, m_i) and
    target entry (x_j, m_j): how substitution and evaluation read a word
    morphism.  A degree-preserving entry stands for c times the inner map
    of x_i <= x_j; a raising one (m_j = m_i + 1, the only other canonical
    case) for c·(-1)**m_i, the c yielded, times the inner D or differential
    at x_j after that map."""
    src, tgt = phi.source.entries, phi.target.entries
    positions = range(len(src))
    for j, row in enumerate(phi.matrix.rows):
        xj, mj = tgt[j]
        for i in compress(positions, row):  # the nonzero columns, found in C
            c = row[i]
            xi, mi = src[i]
            raising = mj != mi
            yield j, i, (xi, xj), mi, -c if raising and mi % 2 else c, raising


def _positions(phi: CMorphism) -> tuple:
    """The nonzero positions (j, i) of phi's matrix, row by row: the
    positions of _entries(phi), without the element pairs and
    coefficients."""
    m = phi.matrix
    columns = range(m.ncols)
    return tuple([(j, i) for j, row in enumerate(m.rows) for i in compress(columns, row)])


def _matrix_key(phi: CMorphism) -> int:
    """The key of _positions(phi): the id of phi's matrix object, the one
    thing _positions reads."""
    return id(phi.matrix)


def _patterns():
    """A function pattern(phi) = _positions(phi), run once per matrix
    object (a _memo over _matrix_key).  So within one pattern function a
    pattern object stands for its matrix object, and a key may hold its id;
    the one exception is the empty pattern, which every zero matrix shares:
    such a matrix has no entry to evaluate or substitute, and its shape is
    that of its ends.  Its maker keeps it for one call (the evaluation
    context of abelian_eval) or as long as its result (compose_formulas,
    whose composite substitutes on read)."""
    return _memo(_matrix_key, _positions)


def star(m: CMorphism) -> CMorphism:
    """Entrywise sign twist by the parity of the degree difference.  A sign
    change keeps the zero pattern of m's canonical matrix, so the twist is
    canonical for the same ends."""
    return CMorphism._trusted(m.source, m.target, _starred(m.matrix, m.source, m.target))


# --- formulas to a point -----------------------------------------------------

class FormulaToPoint:
    """An object xi with a square matrix D: xi -> xi[1].

    Validity (checked by :func:`check_formula`, not by the constructor):
    the twisted-shifted square D*[1]·D vanishes, D is lower triangular, and
    every diagonal entry is 1.  The check returns None for a valid value and
    otherwise one message naming the first violation.
    """

    __slots__ = ("xi", "D")

    def __init__(self, xi: CObject, D):
        if not isinstance(D, CMorphism):
            D = CMorphism(xi, xi.shifted(1), D)
        if D.source != xi or D.target != xi.shifted(1):
            raise ShapeMismatch("D must map the object to its shift by one")
        self.xi = xi
        self.D = D

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FormulaToPoint)
            and self.xi == other.xi
            and self.D == other.D
        )

    def __repr__(self):
        return f"FormulaToPoint({list(self.xi.entries)}, {self.D.matrix.tolist()})"


def shift(value, n: int):
    """Shift all degrees by n; matrices are carried over unchanged.

    Accepts a CMorphism, FormulaToPoint, or Formula.  A shifted formula is
    made by _trusted_formula, each restriction on read with the matrix of
    value's: a shift of every degree changes no degree difference, so each
    matrix stays canonical, each value keeps D*[1]·D (its sign twist reads
    the parity of degree differences) and each restriction preserves degree
    and intertwines the same matrices; the identities and the triangles are
    value's, so the shift of a valid formula is valid.
    """
    if isinstance(value, CMorphism):
        return CMorphism(value.source.shifted(n), value.target.shifted(n), value.matrix)
    if isinstance(value, FormulaToPoint):
        return FormulaToPoint(value.xi.shifted(n), value.D.matrix.rows)
    if isinstance(value, Formula):
        at, res = {y: shift(f, n) for y, f in value.at.items()}, value.res
        return _trusted_formula(value.target, value.base, at, lambda y, y2: res[y, y2].matrix)
    raise TypeError(f"cannot shift {type(value).__name__}")


def check_formula(f: FormulaToPoint) -> str | None:
    """None if f satisfies the three formula conditions, otherwise a message
    naming the first violation: the nonzero square D*[1]·D, or the first
    entry of D, row by row, that breaks unit lower triangularity.

    The square is computed on the matrices: shift changes no matrix, and
    D*[1]·D maps xi to xi[2], so its jumps of 2, the entries (k, i) with
    m_k = m_i, are the ones quotiented away."""
    D, xi = f.D, f.xi
    square = _quotient(_starred(D.matrix, xi, D.target).mul(D.matrix), xi.entries, xi.entries, 2)
    if not square.is_zero():
        return f"D*[1]·D = {square.tolist()} is not zero"
    for j, row in enumerate(D.matrix.rows):
        for i, c in enumerate(row):
            if i > j and c != 0:
                return f"D is not lower triangular: entry {c} at ({j},{i})"
            if i == j and c != 1:
                return f"diagonal entry at ({i},{i}) is {c}, not 1"
    return None


def check_formula_morphism(
    phi: CMorphism, source: FormulaToPoint, target: FormulaToPoint
) -> str | None:
    """None if phi, a morphism from source's word to target's, is a
    restriction (every nonzero component preserves degree) that intertwines
    the two D's, otherwise a message naming the first degree-raising
    component or the difference phi[1]·D - D'·phi.  ShapeMismatch if phi
    does not connect the two words.  The degree test reads _entries(phi)
    and names the unsigned entry.  Both sides are plain matrix products:
    phi preserves degree once the first test passes and each D raises it by
    0 or 1, so no entry of either side jumps by 2 and none is quotiented."""
    if phi.source != source.xi or phi.target != target.xi:
        raise ShapeMismatch("phi must map the source word to the target word")
    return _restriction_problem(phi, source, target)


def _restriction_problem(
    phi: CMorphism, source: FormulaToPoint, target: FormulaToPoint
) -> str | None:
    """check_formula_morphism once phi's ends are known to be the two
    words."""
    for j, i, _, _, _, raising in _entries(phi):
        if raising:
            c = phi.matrix.rows[j][i]
            return f"component {c} at ({j},{i}) raises degree; not a restriction"
    lhs = phi.matrix.mul(source.D.matrix)
    rhs = target.D.matrix.mul(phi.matrix)
    if lhs != rhs:
        return f"intertwining fails: phi[1]·D - D'·phi = {lhs.sub(rhs).tolist()}"
    return None


def _memo(key, run):
    """A function check(*args) = run(*args) that runs once per key(*args)
    and returns that result on every later call with the same key.  Each
    key function proves in its docstring that its key decides run's result
    (_matrix_key, _value_key, _restriction_key, harness._homotopy_key).  It
    keeps the arguments of each run, so the ids in its keys cannot be
    reused while it lives; its maker keeps it for one call."""
    made = {}

    def check(*args):
        k = key(*args)
        hit = made.get(k)
        if hit is None:
            hit = made[k] = args, run(*args)
        return hit[1]

    return check


def _value_key(f: FormulaToPoint) -> tuple:
    """The key of check_formula(f): the D matrix object and the degrees of
    f's word.  The check reads nothing else: the square multiplies D's
    matrix by its sign twist, whose signs are the Koszul signs of the
    degrees of the word and of D's target, the word shifted by one (as
    FormulaToPoint requires); the quotient of the square reads those
    degrees; the triangularity test reads the matrix."""
    return id(f.D.matrix), _degrees(f.xi)


def _restriction_key(phi: CMorphism, source: FormulaToPoint, target: FormulaToPoint) -> tuple:
    """The key of _restriction_problem(phi, source, target) for phi from
    source's word to target's: the matrix objects of phi and of both D's
    and the degrees of both words.  The degree test reads phi's matrix
    and, through _entries, the degrees of phi's ends, which are the two
    words; the intertwining test multiplies the three matrices."""
    return (
        id(phi.matrix), id(source.D.matrix), id(target.D.matrix),
        _degrees(source.xi), _degrees(target.xi),
    )


def check_homotopy(
    alpha: CMorphism, beta: CMorphism, h: CMorphism, D: CMorphism
) -> str | None:
    """None if beta retracts alpha up to the homotopy h against D, otherwise
    a message naming the first of the two sides that is not the identity.

    Concretely: beta·alpha is the identity, and
    alpha·beta + h[1]·D + D*[-1]·h is the identity, all in canonical form.
    Each term is a product of two canonical matrices from a word to itself,
    so it raises degree by 0, 1 or 2; the quotient is linear, so the three
    are summed as matrices and their jumps of 2 zeroed once.
    """
    xi = D.source
    xi_small = alpha.source
    if D.target != xi.shifted(1):
        raise ShapeMismatch("D must map its object to its shift by 1")
    if alpha.target != xi or beta.source != xi or beta.target != xi_small:
        raise ShapeMismatch("alpha and beta must connect D's object with a common one")
    if h.source != xi or h.target != xi.shifted(-1):
        raise ShapeMismatch("h must map D's object to its shift by -1")
    ba = _quotient(beta.matrix.mul(alpha.matrix), xi_small.entries, xi_small.entries)
    if not ba.is_identity():
        return f"beta·alpha = {ba.tolist()} is not the identity"
    ab, hD = alpha.matrix.mul(beta.matrix), h.matrix.mul(D.matrix)
    Dh = _starred(D.matrix, xi, D.target).mul(h.matrix)
    total = _quotient(ab.add(hD).add(Dh), xi.entries, xi.entries)
    if not total.is_identity():
        return f"alpha·beta + h[1]·D + D*[-1]·h = {total.tolist()} is not the identity"
    return None


def negated_star_shift(f: FormulaToPoint) -> FormulaToPoint:
    """The formula (xi[1], -D*), isomorphic to the plain shift via i_xi."""
    return FormulaToPoint(f.xi.shifted(1), _starred(f.D.matrix, f.xi, f.D.target).neg())


def i_xi(f: FormulaToPoint) -> CMorphism:
    """The diagonal sign isomorphism from shift(f, 1) to negated_star_shift(f),
    a morphism of their common word f.xi[1].

    Its (i,i) entry is the Koszul sign (-1)**m_i of the i-th degree m_i of
    f's object; it intertwines D with -D* exactly.
    """
    word = f.xi.shifted(1)
    return CMorphism(word, word, Mat.diag(_koszul(f.xi)))


# --- poset-shaped formulas ---------------------------------------------------

class Formula:
    """A diagram over a target poset valued in formulas over a base poset.

    `at` maps each target element to a FormulaToPoint over the common base;
    `res` maps each pair (y, y2) with y <= y2 to a CMorphism from the word
    at[y].xi to the word at[y2].xi, to intertwine the two values' D's.  The
    constructor takes outside input: it checks that the values share a base
    and that the restrictions are keyed by the related pairs of the target
    (require_relations, which fills the missing diagonal identities) and
    have the two words as ends, and ends with _check_diagram.  No builder
    calls it: canonical_formula, translation_formula, compose_formulas and
    shift make their formulas by _trusted_formula.

    `res` is always a _Restrictions, iterated in element order of its pairs
    (poset_core._pairs); the constructor seeds it with the restrictions it
    is given.  Equality of formulas compares the targets, the values and
    every restriction, so it makes every restriction of both sides.
    `shift` is None except on the formulas made by translation_formula,
    which set it to their n: abelian_eval evaluates such a formula at K as
    K shifted by n, which is what the general evaluation computes for it.
    It takes no part in equality.
    """

    __slots__ = ("target", "base", "at", "res", "shift")

    def __init__(self, target: Poset, at: dict, res: dict):
        self.target = target
        self.shift = None
        self.at = at = dict(at)
        values = iter(at.values())
        first = next(values, None)
        if first is None or any(f.xi.base != first.xi.base for f in values):
            raise BaseMismatch("all values must live over one base poset")
        self.base = first.xi.base
        require_elements(target, at, "value")
        given = require_relations(target, res, lambda y: identity_morphism(at[y].xi))
        for (y, y2), phi in given.items():
            if phi.source != at[y].xi or phi.target != at[y2].xi:
                raise ShapeMismatch(f"restriction for {y!r} <= {y2!r} has wrong ends")
        self.res = _Restrictions(target, at, lambda y, y2: given[y, y2].matrix)
        self.res.made = given
        _check_diagram(self)

    def __eq__(self, other):
        return (
            isinstance(other, Formula)
            and self.target == other.target
            and self.at == other.at
            and self.res == other.res
        )

    def __repr__(self):
        return f"Formula(over {list(self.target.elements)})"


def _check_restrictions(target: Poset, at: dict, res) -> None:
    """DiagramAxiomFailure unless the restrictions res of a formula with
    the values at, whose ends are its words, are valid along the Hasse
    edges of target and the identity on its diagonal.

    Only the restrictions along Hasse edges, in element order, go through
    the test of check_formula_morphism, and the first message it returns is
    raised; by the induction in cover_triangles every other one equals a
    composite of those once the triangles hold, so it is valid too.  The
    ends are known, so the test runs once per _restriction_key, which
    decides its result.  The diagonal test reads the matrix alone, as the
    ends are the word at y twice."""
    check = _memo(_restriction_key, _restriction_problem)
    for y, y2 in covers(target):
        problem = check(res[y, y2], at[y], at[y2])
        if problem is not None:
            raise DiagramAxiomFailure(f"restriction for {y!r} <= {y2!r} is invalid: {problem}")
    for y in target.elements:
        if not res[y, y].matrix.is_identity():
            raise DiagramAxiomFailure(f"restriction at ({y!r}, {y!r}) is not the identity")


def _check_diagram(F: Formula) -> None:
    """DiagramAxiomFailure unless the restrictions of F, a formula whose
    law is not derived (one from outside input, a theorem formula), make
    it a diagram: _check_restrictions, then closure under composition on
    the cover triangles of the target, which leave out the degenerate
    triangles (y, y2, y2) that follow from the identity check.

    The walk reads one matrix per pair, made by F.res.matrix for the walk
    and dropped after it, so it makes and keeps no restriction.  Each
    triangle (a, b, c) compares the plain product r(b, c)·r(a, b) of the
    matrices with r(a, c): a < b is a Hasse edge, so r(a, b) was shown to
    preserve degree, and the canonical r(b, c) raises it by 0 or 1; no
    entry of the product jumps by 2, so compose's quotient would change
    nothing.  The comparison reads the three matrices and nothing else, so
    poset_core._failing_triangle compares each distinct triple of matrix
    objects once (the builders make equal matrices one object, and the
    dict of the walk keeps them while it runs); the first failing triangle
    raises CommutativityFailure with the difference."""
    _check_restrictions(F.target, F.at, F.res)
    matrices = {pair: F.res.matrix(*pair) for pair in _pairs(F.target)}
    triangle = _failing_triangle(F.target, matrices, lambda g, f, h: g.mul(f) == h)
    if triangle is not None:
        y, y2, y3 = triangle
        difference = matrices[y2, y3].mul(matrices[y, y2]).sub(matrices[y, y3])
        raise CommutativityFailure((y, y3), f"via {y2!r}: difference {difference.tolist()}")


class _Restrictions(Mapping):
    """The restrictions of a formula, each made on its first read and kept:
    a read-only mapping over the pairs y <= y2 of the target, iterated in
    element order (poset_core._pairs).  The restriction for y <= y2 is the
    morphism from the word at[y].xi to the word at[y2].xi with the matrix
    matrix(y, y2), taken as it is: the maker of matrix proves its matrices
    canonical for those words (canonical_formula, translation_formula,
    compose_formulas, shift), or Formula seeds made with the restrictions
    it was given and reads their matrices.  A pair that is not y <= y2
    raises KeyError and is not in the mapping; len, iteration, membership
    and equality are those of the dict of every restriction, though a
    membership test makes the restriction it finds and equality makes
    every one.  It holds the values and matrix, and matrix holds what its
    maker reads, never the formula, so no reference cycle is made."""

    __slots__ = ("target", "at", "matrix", "made")

    def __init__(self, target: Poset, at: dict, matrix):
        self.target, self.at, self.matrix, self.made = target, at, matrix, {}

    def __getitem__(self, pair):
        phi = self.made.get(pair)
        if phi is None:
            index, up = self.target._index, self.target._up
            if not (isinstance(pair, tuple) and len(pair) == 2 and pair[0] in index
                    and pair[1] in index and up[index[pair[0]]] >> index[pair[1]] & 1):
                raise KeyError(pair)
            (y, y2), at = pair, self.at
            phi = self.made[pair] = CMorphism._trusted(at[y].xi, at[y2].xi, self.matrix(y, y2))
        return phi

    def __iter__(self):
        return iter(_pairs(self.target))

    def __len__(self):
        return len(_pairs(self.target))


def _trusted_formula(target: Poset, base: Poset, at: dict, matrix, shift=None) -> Formula:
    """The formula over target, valued over base, with the values at and
    the restrictions of matrix made on read (_Restrictions), and shift;
    nothing is checked.  Each caller proves its values and matrices valid
    and canonical, and runs the checks its proof does not cover."""
    F = object.__new__(Formula)
    F.target, F.base, F.at, F.res, F.shift = target, base, at, _Restrictions(target, at, matrix), shift
    return F


def canonical_formula(target: Poset, base: Poset, words: dict) -> Formula:
    """The formula over target whose value at y has the word words[y] over
    base, and whose every matrix (each value's D and each restriction for
    y < y2) is the all-ones matrix in canonical form.  ParseError unless
    words has a word at exactly the elements of target.

    Canonical form keeps entry (j, i) only where the rule of _canonical
    allows it, so the words and the base order decide every matrix.  Its
    rows are integer bit masks over the source word's positions, made from
    two tables built once per source word (x_1, m_1) ... (x_n, m_n):
    below[z], for each element z, has bit i set when x_i <= z, filled by
    adding the bits of the positions of each element x of the word to
    below[z] for every z in up(x), read off x's up-set mask; and deg[m],
    for each degree m, has bit i set when m_i = m.  Row j, to the target
    entry (x_j, m_j), is below[x_j] & (deg[m_j] | deg[m_j - 1]).  Its bit i
    is set exactly when x_j is in up(x_i), that is x_i <= x_j, and m_i is
    m_j or m_j - 1, that is m_j - m_i is 0 or 1: the rule.  Matrices are
    shared through a dict keyed by the width and the row masks, in order:
    each distinct matrix is made once, its rows read off the binary digits
    of the masks, and no entry is visited per pair.  The rows are canonical
    by construction, so each matrix is taken as it is.  The formula is made
    by _trusted_formula: the restriction for y < y2 is made when it is
    read, from the masks of the word at y, which the formula keeps, and
    the one at (y, y) is the identity.
    Each D keeps its unit diagonal when entries of equal degree in one word
    are incomparable, as the witnesses of one element are by the antichain
    condition (see harness._build_xi).  Values are checked by check_formula
    (InternalInconsistency otherwise), once per _value_key; restrictions by
    _check_diagram, as Formula checks the restrictions it is given.
    """
    require_elements(target, words, "word")
    shared, up, index, elements = {}, base._up, base._index, base.elements

    def masks(word: CObject) -> tuple:
        """The tables below and deg of word, and its length, the width of
        every matrix from it."""
        own, deg = {}, {}
        for i, (x, m) in enumerate(word.entries):
            own[x] = own.get(x, 0) | 1 << i
            deg[m] = deg.get(m, 0) | 1 << i
        below = {}
        for x, bits in own.items():
            for z in map(elements.__getitem__, _bits(up[index[x]])):
                below[z] = below.get(z, 0) | bits
        return below, deg, len(word)

    def ones(src_masks: tuple, tgt: CObject) -> Mat:
        below, deg, width = src_masks
        key = (
            width,
            *[below.get(x, 0) & (deg.get(m, 0) | deg.get(m - 1, 0)) for x, m in tgt.entries],
        )
        m = shared.get(key)
        if m is None:
            # bit i of a mask is character width - i of its binary string
            # under a sentinel bit at position width
            rows = [tuple(map(int, format(mask | 1 << width, "b")[:0:-1])) for mask in key[1:]]
            m = shared[key] = Mat(len(tgt), width, rows)
        return m

    at, word_masks, check = {}, {}, _memo(_value_key, check_formula)
    for y in target.elements:
        xi = CObject(words[y], base)
        word_masks[y], shifted = masks(xi), xi.shifted(1)
        at[y] = FormulaToPoint(xi, CMorphism._trusted(xi, shifted, ones(word_masks[y], shifted)))
        problem = check(at[y])
        if problem is not None:
            raise InternalInconsistency(f"canonical value at {y!r} is invalid: {problem}")

    def matrix(y, y2):
        return Mat.identity(len(at[y].xi)) if y == y2 else ones(word_masks[y], at[y2].xi)

    F = _trusted_formula(target, base, at, matrix)
    _check_diagram(F)
    return F


def translation_formula(X: Poset, n: int) -> Formula:
    """The formula whose evaluation shifts every complex by n: the canonical
    formula of the words ((x, n),), tagged with n in its shift slot so that
    abelian_eval evaluates it as the shifted diagram (see Formula).

    Its shape proves it valid, so it is made by _trusted_formula and no
    check runs: each D is [[1]] from (x, n) to (x, n + 1), unit lower
    triangular with D*[1]·D one jump of 2, quotiented away; each
    restriction, made when it is read, is the one [[1]] from (x, n) to
    (x2, n), degree-preserving, intertwining ([[1]] on both sides), the
    identity on the diagonal and closed under composition.  Each [[1]]
    joins x <= x2 and raises degree by 0 or 1, so it is canonical and taken
    as it is.  Tier-1 checks it against canonical_formula on the same
    words."""
    one, words = Mat.identity(1), {x: CObject(((x, n),), X) for x in X.elements}
    at = {x: FormulaToPoint(w, CMorphism._trusted(w, w.shifted(1), one)) for x, w in words.items()}
    return _trusted_formula(X, X, at, lambda x, x2: one, n)


def substitute(outer: FormulaToPoint, inner: Formula) -> FormulaToPoint:
    """Replace each entry (p, m) of the outer formula by the inner value at p.

    The result object concatenates the inner words shifted by m, in outer
    entry order, and its D is outer.D with the inner formula substituted,
    canonical by construction (see _substituted_matrix); the result is
    checked with check_formula.
    """
    if outer.xi.base != inner.target:
        raise BaseMismatch("outer formula must live over the inner formula's target")
    return _substituted_value(outer, inner, _substituted_matrix(outer.D, inner), check_formula)


def _substituted_word(word: CObject, inner: Formula) -> CObject:
    """word with each entry (p, m) replaced by the inner word at p shifted by
    m.  Every entry comes from an inner word, whose elements were validated
    over inner.base when it was made, so none is looked up again."""
    return _word(
        tuple([(e, m + n) for p, n in word.entries for e, m in inner.at[p].xi.entries]),
        inner.base,
    )


def _substituted_value(outer: FormulaToPoint, inner: Formula, D: Mat, check) -> FormulaToPoint:
    """substitute(outer, inner) given D, the substituted matrix of outer.D,
    with the value checked by check (check_formula, or a memo of it)."""
    xi = _substituted_word(outer.xi, inner)
    result = FormulaToPoint(xi, CMorphism._trusted(xi, xi.shifted(1), D))
    problem = check(result)
    if problem is not None:
        raise InternalInconsistency(f"substitution produced an invalid formula: {problem}")
    return result


def _substituted_matrix(psi: CMorphism, inner: Formula) -> Mat:
    """The matrix of the word morphism psi with the inner formula substituted
    into both ends, for a value's D and a restriction alike.

    Each item of _entries(psi) gives block (b, a): its coefficient c times
    rho, the inner restriction from the element of source entry a to that
    of target entry b, when the entry preserves degree.  When it raises
    degree it is c, which carries the Koszul sign, times D·rho, for the
    inner D at the target element, with its jumps of 2 quotiented away and
    starred when the source degree ma is odd.  So a value's diagonal
    blocks, where rho(p, p) is the identity, are the twisted inner D's.

    The result is canonical for the substituted words, so callers take it
    as it is.  A nonzero block sits where psi's entry is canonical: pa <= pb
    and mb - ma is 0 or 1.  When it is 0, both inner words are shifted by
    the same m, so rho's canonical entries keep their order relation and
    degree rise.  When it is 1, the quotiented D·rho is canonical from the
    word at pa to the word at pb shifted by 1 (see compose), and that shift
    is the outer step mb - ma.  Scaling by c != 0 and the sign twist keep
    the zero pattern, and every other block is zero.
    """
    row_off = list(accumulate([len(inner.at[p].xi) for p, _ in psi.target.entries], initial=0))
    col_off = list(accumulate([len(inner.at[p].xi) for p, _ in psi.source.entries], initial=0))
    blocks = []
    for b, a, pair, ma, c, raising in _entries(psi):
        rho = inner.res[pair]
        mat = rho.matrix
        if raising:
            D = inner.at[pair[1]].D
            mat = _quotient(D.matrix.mul(mat), rho.source.entries, D.target.entries)
            if ma % 2:
                mat = _starred(mat, rho.source, D.target)
        blocks.append((b, a, c, mat))
    return placed(row_off, col_off, blocks)


def compose_formulas(outer: Formula, inner: Formula) -> Formula:
    """Compose two formulas: substitute the inner one into every value and
    restriction of the outer one. The result is a formula over the outer
    target valued over the inner base, and its evaluation is the composite
    of the two evaluations (outer applied after inner).  Each value is
    substituted when the result is made, and checked once per _value_key.
    Each restriction is made when it is first read (_trusted_formula),
    between its substituted ends, as the substituted matrix of
    outer.res[q, q2]; the Hasse-edge and diagonal ones are read and checked
    here (_check_restrictions), and a failure is an InternalInconsistency.
    Every matrix is canonical by construction (see _substituted_matrix).

    The cover triangles of the result are not walked: its law follows from
    those of the two formulas.  Every restriction psi of a valid formula
    preserves degree (those on Hasse edges are checked to, and every other
    one is a product of those), so each item of _entries(psi) is a plain
    coefficient c, and the substituted matrix S(psi) has block (b, a) equal
    to c_ba times rho(p_a, p_b), the inner restriction between the elements
    of the two entries.  For psi from q to q2 and psi' from q2 to q3, block
    (k, a) of S(psi')·S(psi) is the sum over b of c'_kb·c_ba times
    rho(p_b, p_k)·rho(p_a, p_b).  A nonzero term has p_a <= p_b <= p_k, by
    canonical form, and there the inner law makes the product
    rho(p_a, p_k); so the block is (psi'·psi)_ka times rho(p_a, p_k), that
    of S(psi'·psi).  A product of degree-preserving canonical matrices is
    canonical, so S(psi')·S(psi) = S(psi'·psi): substitution preserves
    composition, and the outer law psi(q2, q3)·psi(q, q2) = psi(q, q3) gives
    the same law for the result.  The theorem formulas, the outer and inner
    formulas of every certificate's composites, have their triangles walked
    by _check_diagram when they are made, and a composite of composites
    inherits the law by the same argument.  Tier-1 walks the composites'
    triangles through the checked constructor, and the evaluated
    composites of each certificate's trial 0 have their diagram axioms
    checked by PosetDiagram(check=True) in abelian_eval.

    The substituted matrix of each psi, a value's D or a restriction, is
    made only once per key, and equal ones are one object; the memo lives
    as long as the result, which reads it for its restrictions.  The key is
    psi's pattern (see _patterns), the shapes of its two ends, and the
    inner matrix objects that psi's nonzero entries select: the restriction
    for each such entry and, for a raising one, the D at its target
    element.  The shape of an outer word is its degrees and, for each of
    its entries (p, m), the degrees of the inner word at p; equal shapes
    are one object, so the key holds its id.  The key decides
    _substituted_matrix: psi runs between the outer words of its shapes
    (the outer formula made a restriction between its words, FormulaToPoint
    a D), so its pattern, which stands for its matrix object, and their
    degrees decide every item of _entries(psi) but the element pair (the
    nonzero positions, the signed coefficients, which entries raise
    degree, the parity of m_a); the lengths of the inner words decide the
    block offsets; and each block is c times the selected restriction's
    matrix or, for a raising entry, c times the selected D's matrix times
    it, masked and twisted by the degrees of the two inner words.  The
    selected objects are read at the pattern's positions, so no entry walk
    runs on a hit; a miss walks _entries(psi) in _substituted_matrix.  The
    memo, the pattern function and the two formulas keep every object
    whose id a key holds.
    """
    if outer.base != inner.target:
        raise BaseMismatch("outer formula's base must equal inner formula's target")
    inner_res, inner_at, outer_res = inner.res, inner.at, outer.res
    shapes, made, shared, pattern = {}, {}, {}, _patterns()

    def shape(word: CObject) -> tuple:
        s = (_degrees(word), *[_degrees(inner_at[p].xi) for p, _ in word.entries])
        return shapes.setdefault(s, s)

    def substituted(psi: CMorphism, source_shape: tuple, target_shape: tuple) -> Mat:
        positions = pattern(psi)
        key = [id(positions), id(source_shape), id(target_shape)]
        src, tgt = psi.source.entries, psi.target.entries
        for j, i in positions:
            (xi, mi), (xj, mj) = src[i], tgt[j]
            key.append(id(inner_res[xi, xj].matrix))
            if mj != mi:
                key.append(id(inner_at[xj].D.matrix))
        key = tuple(key)
        m = made.get(key)
        if m is None:
            m = _substituted_matrix(psi, inner)
            m = made[key] = shared.setdefault(m, m)
        return m

    check, at, at_shape = _memo(_value_key, check_formula), {}, {}
    for q in outer.target.elements:
        f = outer.at[q]
        at_shape[q] = shape(f.xi)
        D = substituted(f.D, at_shape[q], shape(f.D.target))
        at[q] = _substituted_value(f, inner, D, check)

    def matrix(q, q2):
        return substituted(outer_res[q, q2], at_shape[q], at_shape[q2])

    composite = _trusted_formula(outer.target, inner.base, at, matrix)
    try:
        _check_restrictions(composite.target, at, composite.res)
    except DiagramAxiomFailure as exc:
        raise InternalInconsistency(f"substitution produced an invalid formula: {exc}") from exc
    return composite


# --- named constants over the two-element chain ------------------------------

TWO_CHAIN = poset_from_generators(["1", "2"], [("1", "2")])

#: The names of the constants that _two_chain_constants makes.
_CONSTANTS = (
    "NU", "XI12", "XI121", "XI212", "ALPHA1", "BETA1", "ALPHA2", "BETA2", "H212", "H121",
)


def _two_chain_constants() -> dict:
    """The paper's named formulas and maps over TWO_CHAIN, made afresh, by
    name: the translation formula NU, the values XI12, XI121 and XI212, and
    the maps ALPHA1, BETA1, H212 and ALPHA2, BETA2, H121 of the two retract
    homotopies."""
    nu = translation_formula(TWO_CHAIN, 1)
    xi12 = FormulaToPoint(CObject((("1", 1), ("2", 0)), TWO_CHAIN), [[1, 0], [1, 1]])
    xi121 = FormulaToPoint(
        CObject((("1", 2), ("2", 1), ("1", 1)), TWO_CHAIN),
        [[1, 0, 0], [-1, 1, 0], [1, 0, 1]],
    )
    xi212 = FormulaToPoint(
        CObject((("2", 1), ("1", 1), ("2", 0)), TWO_CHAIN),
        [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
    )
    h = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    return {
        "NU": nu,
        "XI12": xi12,
        "XI121": xi121,
        "XI212": xi212,
        "ALPHA1": CMorphism(nu.at["1"].xi, xi212.xi, [[1], [-1], [0]]),
        "BETA1": CMorphism(xi212.xi, nu.at["1"].xi, [[0, -1, 0]]),
        "ALPHA2": CMorphism(nu.at["2"].xi, xi121.xi, [[0], [1], [0]]),
        "BETA2": CMorphism(xi121.xi, nu.at["2"].xi, [[0, 1, 1]]),
        "H212": CMorphism(xi212.xi, xi212.xi.shifted(-1), h),
        "H121": CMorphism(xi121.xi, xi121.xi.shifted(-1), h),
    }


def __getattr__(name):
    """The constants of _CONSTANTS (PEP 562), made afresh on each read, so
    that importing the module builds no formula."""
    if name in _CONSTANTS:
        return _two_chain_constants()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
