"""Construction and randomized verification of glued-order equivalences.

Given gluing data (X, Y, witness sets) this module builds the two glued
orders, the pair of formula diagrams connecting complexes over one order to
complexes over the other, and the unit/counit transformations exhibiting the
round trips as shifts.  Each construction is verified twice: symbolically
(intertwining, naturality, commutativity, retract homotopies, all exact over
the integers) and numerically, by evaluating on seeded random diagrams and
checking quasi-isomorphisms over a chosen coefficient field.

Verification runs return an :class:`EquivalenceCertificate`: a named list of
structural checks plus one record per randomized trial, JSON-ready and
deterministic for a given seed.  The certificate data is identical for every
coefficient field; a discrepancy between fields aborts the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .abelian_eval import (
    RATIONALS,
    ChainMap,
    DiagramMap,
    Field,
    PosetDiagram,
    _diagram_draw,
    _draw_bounds,
    _Evaluation,
    _recipe_cohomology,
    _selected_complex,
    _selected_matrices,
    cohomology,
    cohomology_table,
    eval_formula,
    is_quasi_iso,
    is_quasi_iso_diagram,
    random_diagram,
)
from .errors import (
    BaseMismatch,
    DiagramAxiomFailure,
    InternalInconsistency,
    NaturalityFailure,
    NoPathFound,
    NotATree,
    ParseError,
    SizeLimit,
)
from .formula_cat import (
    TWO_CHAIN,
    CMorphism,
    Formula,
    FormulaToPoint,
    _degrees,
    _memo,
    _restriction_key,
    _restriction_problem,
    _two_chain_constants,
    canonical_formula,
    check_formula,
    check_formula_morphism,
    check_homotopy,
    compose_formulas,
    shift,
    translation_formula,
)
from .gluing import (
    GluingData,
    build_minus,
    build_plus,
    from_bgp,
    from_function,
    ordinal_witness,
    validate_gluing,
)
from .intmat import Mat
from .poset_core import (
    Poset,
    _bits,
    _failing_square,
    covers,
    hasse,
    point_poset,
    poset_from_generators,
    require_elements,
)
from .rng import SplitMix64, derive_seed


# --- certificates --------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    """One randomized trial: its seed, verdict, and cohomology tables."""

    seed: int
    verdict: bool
    tables: dict

    def to_json(self) -> dict:
        return {"seed": self.seed, "verdict": self.verdict, "tables": self.tables}


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Outcome of a verification run: structural checks plus trial records.

    `structural` is a tuple of (name, passed) pairs for the symbolic checks;
    `trials` holds one :class:`TrialRecord` per randomized instance.  The
    run is considered passing when every structural check and every trial
    verdict holds.
    """

    description: str
    config: dict
    structural: tuple
    trials: tuple

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.structural) and all(
            t.verdict for t in self.trials
        )

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "config": self.config,
            "structural": [
                {"name": name, "pass": passed} for name, passed in self.structural
            ],
            "trials": [t.to_json() for t in self.trials],
            "ok": self.ok,
        }


def _run_config(trials, seed, field, max_dim, window) -> dict:
    """The run parameters as recorded in a report.  Every
    verification entry point calls this first, so bad parameters are
    rejected before any work."""
    for name, value in {"trials": trials, "seed": seed}.items():
        if type(value) is not int:  # bool is an int subclass, and rejected
            raise ParseError(f"{name} must be an int, got {value!r}")
    _draw_bounds(max_dim, window)
    if not isinstance(field, Field):
        raise ParseError(f"field must be a Field, got {field!r}")
    if not 0 <= seed < 2**64:  # the RNG reads seeds modulo 2**64
        raise ParseError(f"seed must be in [0, 2**64), got {seed}")
    if trials < 1:
        raise ParseError(f"trials must be at least 1, got {trials}")
    return {
        "trials": trials,
        "seed": seed,
        "field": str(field),
        "max_dim": max_dim,
        "window": list(window),
    }


def _row(table: dict) -> dict:
    """A cohomology dimension table as a certificate writes it."""
    return {str(i): n for i, n in sorted(table.items())}


def _table_json(K: PosetDiagram, field: Field) -> dict:
    return {x: _row(row) for x, row in cohomology_table(K, field).items()}


# --- natural transformations between formulas ---------------------------------

class EpsilonTransform:
    """A natural transformation between two formulas over a common target.

    Components are given as matrices, one per target element, and stored as
    CMorphisms from source.at[y].xi to target.at[y].xi, equal matrices as
    one object (a canonical form that masks nothing keeps its Mat).  The
    constructor checks that each component intertwines the two values' D's
    (DiagramAxiomFailure otherwise): each is made between the two words at
    y, so the test of check_formula_morphism runs once per
    _restriction_key, which decides it.  Then it checks that the components
    commute with the restrictions across every Hasse edge of the target
    (NaturalityFailure, with the first offending edge in element order and
    the difference).  Those squares are the whole of naturality: the other
    restrictions are composites of Hasse-edge ones, and squares paste.  So
    only the restrictions on Hasse edges are read, and a formula, which
    makes its restrictions on read, makes no other.
    Both sides of each square are plain matrix products: the components
    were just shown to preserve degree, and so were the restrictions along
    Hasse edges (by _check_diagram, compose_formulas, or the shape of a
    translation formula), so no entry jumps by 2 and compose's quotient
    would change nothing.  The comparison reads the square's four matrices
    and nothing else, so poset_core._failing_square compares each distinct
    quadruple of matrix objects once.
    """

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Formula, target: Formula, components: dict):
        if source.target != target.target:
            raise ParseError("source and target formulas have different shapes")
        if source.base != target.base:
            raise BaseMismatch("source and target formulas have different bases")
        require_elements(source.target, components, "component")
        self.source = source
        self.target = target
        self.components, comps, shared = {}, {}, {}
        check = _memo(_restriction_key, _restriction_problem)
        for y in source.target.elements:
            src, tgt = source.at[y].xi, target.at[y].xi
            m = components[y]
            if not isinstance(m, Mat):
                m = Mat(len(tgt), len(src), m)
            phi = CMorphism(src, tgt, shared.setdefault(m, m))
            problem = check(phi, source.at[y], target.at[y])
            if problem is not None:
                raise DiagramAxiomFailure(f"component at {y!r} is invalid: {problem}")
            self.components[y], comps[y] = phi, phi.matrix
        target_r, source_r = [{e: F.res[e].matrix for e in covers(F.target)} for F in (target, source)]
        edge = _failing_square(
            source.target, target_r, comps, source_r, lambda t, a, b, s: t.mul(a) == b.mul(s)
        )
        if edge is not None:
            a, b = edge
            left, right = target_r[a, b].mul(comps[a]), comps[b].mul(source_r[a, b])
            raise NaturalityFailure(edge, f"difference {left.sub(right).tolist()}")

    def evaluate(self, K: PosetDiagram) -> DiagramMap:
        """The evaluated transformation at a diagram, as a map of diagrams.
        Both formulas and every component are evaluated through one context
        at K, which checks K's base first.  A translation formula end (the
        unit's source, the counit's target) is K shifted, made by
        shift_diagram without the evaluator's checks; the other end, every
        component and the naturality of the result are checked.  The
        components go through the context like the restrictions: their
        matrices are made once per key, and their chain maps made and
        checked once per object triple of stalks and matrices."""
        ev = _Evaluation(K)
        src, tgt = ev.formula(self.source), ev.formula(self.target)
        comps = {
            y: ev.chain_map(src.K[y], tgt.K[y], ev.matrices(self.components[y]))
            for y in self.source.target.elements
        }
        return DiagramMap(src, tgt, comps)


# --- the theorem formulas for a gluing -----------------------------------------

def _build_xi(g: GluingData, source, target) -> Formula:
    """The formula carrying diagrams over `source` to diagrams over `target`.

    Only the words are written here: with the plus sign (xi_plus), y in Y
    gets (y, 0) and x in X gets (x, 1) followed by (w, 0) for each witness
    w; with the minus sign (xi_minus), y gets (y, 1) and x gets (w, 1) for
    each witness, then (x, 0).  canonical_formula makes every matrix the
    all-ones matrix in canonical form over the source order, and that is
    the paper's construction.  Entries of equal degree in one word are
    witnesses of one x, incomparable by the antichain condition, so each D
    keeps its unit diagonal and the extension entries between the stalk at
    x and its witnesses, and nothing else.  A restriction for a < b keeps
    exactly x -> x2 with each witness w -> phi(w), or the one entry through
    the unique witness of a cross relation: any other related pair of
    entries would give two witnesses of one element a common up-set or
    down-set element.
    """
    plus = source.sign == "plus"
    words = {y: ((y, 0 if plus else 1),) for y in g.Y.elements}
    for x in g.X.elements:
        witnesses = tuple((w, 0 if plus else 1) for w in g.Yx[x])
        words[x] = ((x, 1),) + witnesses if plus else witnesses + ((x, 0),)
    return canonical_formula(target.poset, source.poset, words)


def build_theorem_formulas(g: GluingData):
    """The pair (xi_plus, xi_minus) of formulas attached to a gluing.

    xi_plus is a diagram over the minus order valued in words over the plus
    order and xi_minus the reverse, so that each one's evaluation carries
    diagrams over one glued order to diagrams over the other.  Every value
    is checked where it is made.  canonical_formula checks the restrictions
    on covers and proves the rest by the cover triangles (_check_diagram);
    a non-commuting triangle raises CommutativityFailure with the
    difference matrix.
    """
    plus = build_plus(g)
    minus = build_minus(g)
    return _build_xi(g, plus, minus), _build_xi(g, minus, plus)


def build_epsilons(g: GluingData, xi_plus: Formula, xi_minus: Formula):
    """The counit and unit comparing the round trips with the shift.

    Returns (eps_pm, eps_mp): eps_pm maps the composite xi_plus after
    xi_minus to the shift over the minus order; eps_mp maps the shift over
    the plus order to the composite xi_minus after xi_plus.  Both are
    validated as natural transformations (NaturalityFailure carries the
    offending edge), and each component is certified a homotopy retract by
    an explicit homotopy, so both sides are quasi-isomorphisms on every
    evaluation.
    """
    plus, minus = xi_plus.base, xi_minus.base
    comp_pm = compose_formulas(xi_plus, xi_minus)
    comp_mp = compose_formulas(xi_minus, xi_plus)
    nu_plus = translation_formula(plus, 1)
    nu_minus = translation_formula(minus, 1)
    counit = {y: [[1]] for y in g.Y.elements}
    unit = dict(counit)
    retracts = []
    for x in g.X.elements:
        # both composite values at x are words (witnesses, x, witnesses):
        # the counit is a row on that layout, the unit a column, and the
        # shifted stalk sits in the middle
        k = len(g.Yx[x])
        row, column = [0] * k + [1] + [1] * k, [1] * k + [-1] + [0] * k
        middle = [0] * k + [1] + [0] * k
        counit[x], unit[x] = [row], [[c] for c in column]
        retracts.append((comp_mp.at[x], nu_plus.at[x], column, [-c for c in middle]))
        retracts.append((comp_pm.at[x], nu_minus.at[x], middle, row))
    eps_pm = EpsilonTransform(comp_pm, nu_minus, counit)
    eps_mp = EpsilonTransform(nu_plus, comp_mp, unit)
    _certify_retracts(retracts)
    return eps_pm, eps_mp


def _homotopy_key(alpha: CMorphism, beta: CMorphism, h: CMorphism, D: CMorphism) -> tuple:
    """The key of check_homotopy(alpha, beta, h, D) when the four morphisms
    have the ends it asks for: the four matrix objects and the degrees of
    alpha's source and of D's source.  With the ends right, the check reads
    nothing else: it multiplies the matrices, twists D by the Koszul signs
    of the degrees of its ends (D's source and that word shifted by one),
    and masks and compares the products by the degrees of the two words."""
    return (
        id(alpha.matrix), id(beta.matrix), id(h.matrix), id(D.matrix),
        _degrees(alpha.source), _degrees(D.source),
    )


def _certify_retracts(retracts) -> None:
    """Check, for each (value, small, alpha, beta) of retracts, that the
    shifted stalk `small` is a homotopy retract of a composite value with
    word (witnesses, x, witnesses), through the column alpha into the value
    and the row beta out of it.

    The homotopy matches the leading witness block with the trailing one;
    failure means the construction itself is wrong, hence the hard error.
    The three maps are made between the two words with the ends
    check_homotopy asks for, and equal matrices are one object, through a
    dict of this call (a canonical form that masks nothing keeps its Mat).
    So check_homotopy runs once per _homotopy_key, which decides it, and
    every retract still gets a result.
    """
    shared, check = {}, _memo(_homotopy_key, check_homotopy)

    def morphism(source, target, rows):
        m = Mat(len(target), len(source), rows)
        return CMorphism(source, target, shared.setdefault(m, m))

    for value, small, alpha, beta in retracts:
        n = len(value.xi)
        k = n // 2
        h_rows = [[int(i < k and j == k + 1 + i) for j in range(n)] for i in range(n)]
        problem = check(
            morphism(small.xi, value.xi, [[a] for a in alpha]),
            morphism(value.xi, small.xi, [beta]),
            morphism(value.xi, value.xi.shifted(-1), h_rows),
            value.D,
        )
        if problem is not None:
            raise InternalInconsistency(f"retract certificate failed: {problem}")


# --- the two-chain instance ---------------------------------------------------

#: The smallest gluing: the point "1" glued under the point "2".  Its plus
#: order is TWO_CHAIN and its minus order, _FLIPPED, is TWO_CHAIN with "1"
#: and "2" swapped, so its theorem formulas relabelled along the swap (the
#: canonical formulas of the words _SWAP, between the two orders) are the
#: two-chain instance.
_POINT_GLUING = from_function(point_poset("1"), point_poset("2"), {"1": "2"})
_FLIPPED = build_minus(_POINT_GLUING).poset
_SWAP = {"1": (("2", 0),), "2": (("1", 0),)}

#: The names of the formulas that _two_chain_formulas makes.
_TWO_CHAIN_FORMULAS = ("TWO_CHAIN_PLUS", "TWO_CHAIN_MINUS")


def _two_chain_formulas() -> tuple:
    """The point gluing's theorem formulas and the two-chain formulas made
    from them, afresh: (point_xi, plus, minus).  The plus side, over
    TWO_CHAIN, has the stalk at "2" as its value at "1" and the extension of
    both stalks as its value at "2"; the minus side is inverse to it up to
    shift."""
    point_xi = build_theorem_formulas(_POINT_GLUING)
    plus = compose_formulas(canonical_formula(TWO_CHAIN, _FLIPPED, _SWAP), point_xi[0])
    minus = compose_formulas(point_xi[1], canonical_formula(_FLIPPED, TWO_CHAIN, _SWAP))
    return point_xi, plus, minus


def __getattr__(name):
    """TWO_CHAIN_PLUS and TWO_CHAIN_MINUS (PEP 562), made afresh on each
    read by _two_chain_formulas, so that importing the module builds and
    checks no formula."""
    if name in _TWO_CHAIN_FORMULAS:
        return _two_chain_formulas()[1 + _TWO_CHAIN_FORMULAS.index(name)]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- randomized verification runs ----------------------------------------------

def _equivalence_trial(tseed, eps_pm, eps_mp, field, max_dim, window) -> TrialRecord:
    """One trial evaluated at its draws, the first of every certificate: the
    unit at a random diagram K over the plus order and the counit at one, L,
    over the minus order, with the cohomology tables of the four corners and
    the verdict that both are quasi-isomorphisms.  Every check of the
    evaluator runs here: the chain-map checks of the evaluated restrictions
    and components, the diagram axioms of the evaluated composites, the
    naturality of both diagram maps and the Euler ledger."""
    plus, minus = eps_mp.source.base, eps_pm.source.base
    K = random_diagram(plus, derive_seed(tseed, "plus"), max_dim, window)
    L = random_diagram(minus, derive_seed(tseed, "minus"), max_dim, window)
    unit = eps_mp.evaluate(K)
    counit = eps_pm.evaluate(L)
    verdict = is_quasi_iso_diagram(unit, field) and is_quasi_iso_diagram(
        counit, field
    )
    tables = {
        "plus_shift": _table_json(unit.source, field),
        "plus_round_trip": _table_json(unit.target, field),
        "minus_round_trip": _table_json(counit.source, field),
        "minus_shift": _table_json(counit.target, field),
    }
    return TrialRecord(seed=tseed, verdict=verdict, tables=tables)


class _Images:
    """The images of the representables under one epsilon, for the trials
    of one verify_equivalence call, all over one field: at an element u of
    its base, the cohomology of the source and of the target value at P_u
    at each y, and whether every component's cone at P_u is acyclic.

    The image at y is computed by the selection kernel of abelian_eval from
    its key alone: formula_cat._restriction_key of the component (the
    matrix objects of the component and of both values' D's, and the
    degrees of both words) and the selection of each word, the positions
    of its entries that lie over u (_over).  So it is made once per key
    (by_key), on the first trial that draws a piece with H(S) != 0 at a u
    that reaches the key.  Where both selections are empty the images are
    zero, the component is acyclic, and nothing is built.  The epsilon,
    which this object keeps, keeps the matrix objects, so their ids stay
    unique for the call.  Every word lives over the epsilon's base, whose
    up-sets the selections are taken in: a Formula's values share its base,
    and EpsilonTransform requires one base for its two formulas.

    The images at u are kept per u (by_element), at the y where one of
    the two is nonzero."""

    __slots__ = ("eps", "field", "words", "by_element", "by_key")

    def __init__(self, eps: EpsilonTransform, field: Field):
        self.eps = eps
        self.field = field
        self.words = []
        for y in eps.source.target.elements:
            src, tgt, phi = eps.source.at[y], eps.target.at[y], eps.components[y]
            self.words.append((y, _restriction_key(phi, src, tgt), src, tgt, phi))
        self.by_element = {}
        self.by_key = {}

    def at(self, u) -> tuple:
        """({y: (H(source at P_u)(y), H(target at P_u)(y))}, acyclic), with
        the y where both are zero left out."""
        if u not in self.by_element:
            field, memo = self.field, self.by_key
            up = self.eps.source.base.up_set(u)
            cohomologies, acyclic = {}, True
            for y, restriction_key, src, tgt, phi in self.words:
                selections = _over(src.xi, up), _over(tgt.xi, up)
                if not any(selections):
                    continue
                key = restriction_key, *selections
                if key not in memo:
                    S, T = _selected_complex(src, selections[0]), _selected_complex(tgt, selections[1])
                    component = ChainMap(S, T, _selected_matrices(phi, *selections), check=True)
                    image = cohomology(S, field), cohomology(T, field)
                    memo[key] = image, is_quasi_iso(component, field)
                image, image_acyclic = memo[key]
                if image[0] or image[1]:
                    cohomologies[y] = image
                acyclic = acyclic and image_acyclic
            self.by_element[u] = cohomologies, acyclic
        return self.by_element[u]


def _over(word, up) -> tuple:
    """The positions of the entries of word that lie over an up-set."""
    return tuple(i for i, (x, _) in enumerate(word.entries) if x in up)


def _convolved(a: dict, b: dict) -> dict:
    """The cohomology dimension table of a tensor product, for those of its
    factors a and b: degree n gets the sum of a[i]·b[n - i]."""
    out = {}
    for i, m in a.items():
        for j, n in b.items():
            out[i + j] = out.get(i + j, 0) + m * n
    return out


def _add(total: dict, table: dict) -> None:
    """Add the dimension table of a direct summand into total."""
    for i, n in table.items():
        total[i] = total.get(i, 0) + n


def _assembled_trial(tseed, counit_images, unit_images, max_dim, window) -> TrialRecord:
    """The record of _equivalence_trial at tseed, from the images of the
    representables (see verify_equivalence): the same pieces (u, S) are
    drawn, but no S is built; H(S) is read off each piece's recipe, and a
    piece with H(S) = 0 contributes nothing.

    Convolution is bilinear, so the pieces at one u are taken together:
    their H(S) are added first (_add), and each image at u is convolved
    once with the sum (_convolved), at each y where it is nonzero and at
    each end, and added into that end's table.  The verdict asks that the
    images at every drawn u with H(S) != 0 be acyclic; the sum of nonzero
    tables of dimensions is nonzero, so those are the u with a nonzero
    sum.  An element y without a total, where every image at the drawn u
    is zero, gets the empty row."""
    verdict, tables = True, {}
    sides = (
        (unit_images, "plus", ("plus_shift", "plus_round_trip")),
        (counit_images, "minus", ("minus_round_trip", "minus_shift")),
    )
    for images, side, names in sides:
        base = images.eps.source.base
        drawn = {}
        for u, elem, _ in _diagram_draw(base, derive_seed(tseed, side), max_dim, window):
            if h := _recipe_cohomology(elem):
                _add(drawn.setdefault(u, {}), h)
        totals = ({}, {})
        for u, h in drawn.items():
            cohomologies, acyclic = images.at(u)
            verdict = verdict and acyclic
            for y, image in cohomologies.items():
                for end, total in enumerate(totals):
                    _add(total.setdefault(y, {}), _convolved(image[end], h))
        for name, total in zip(names, totals):
            tables[name] = {
                y: _row(total[y]) if y in total else {} for y in images.eps.source.target.elements
            }
    return TrialRecord(seed=tseed, verdict=verdict, tables=tables)


def _first_difference(evaluated: TrialRecord, assembled: TrialRecord):
    """Where two records of one trial first differ: the verdict, or the first
    table, then element, in record order (the evaluated record's first) that
    only one record has or whose rows differ; None if they are equal."""
    if evaluated.verdict != assembled.verdict:
        return f"verdict: evaluated {evaluated.verdict}, assembled {assembled.verdict}"
    for name in {**evaluated.tables, **assembled.tables}:
        if name not in evaluated.tables or name not in assembled.tables:
            side = "evaluated" if name in evaluated.tables else "assembled"
            return f"table {name!r}, only in the {side} record"
        ours, theirs = evaluated.tables[name], assembled.tables[name]
        for y in {**ours, **theirs}:
            if y not in ours or y not in theirs:
                side = "evaluated" if y in ours else "assembled"
                return f"table {name!r} at {y!r}, only in the {side} record"
            if ours[y] != theirs[y]:
                return f"table {name!r} at {y!r}: evaluated {ours[y]}, assembled {theirs[y]}"
    return None


#: The most order pairs that the two glued orders of a gluing may have
#: together for verify_equivalence to build its formulas.  Time and memory
#: grow with that count: each theorem formula walks the cover triangles of
#: its target over one matrix per pair, made for the walk and dropped after
#: it, and every formula keeps only the restrictions that are read.  393,900
#: pairs, at 2,000 elements, peaked at 120 MB in a 1-trial certificate.
_MAX_ORDER_PAIRS = 500_000


def verify_equivalence(
    g: GluingData,
    trials: int = 100,
    seed: int = 0,
    field: Field = RATIONALS,
    max_dim: int = 3,
    window=(-2, 2),
) -> EquivalenceCertificate:
    """Build the formulas for a gluing and verify the equivalence on trials.

    Each trial draws one random diagram over each glued order, K over the
    plus order and L over the minus order.  Its record holds the cohomology
    tables of the unit at K (K shifted against the round trip) and of the
    counit at L (the round trip against L shifted), and the verdict that
    both are quasi-isomorphisms over the given field.

    Trial 0 is evaluated (_equivalence_trial), with every check of the
    evaluator, and its record is the one reported.  The other trials are
    assembled from the images of the representables (_assembled_trial):
    a draw is a split sum of pieces P_u ⊗ S, and a formula's functor is
    additive, so its value at the draw is the sum of its values at the
    pieces.  Over a field S is isomorphic to H(S) plus a contractible
    complex, and a functor keeps that splitting; so F(P_u ⊗ S) has the
    cohomology of F(P_u) ⊗ H(S), the degree convolution of H(F(P_u)) with
    H(S) (Künneth), and by naturality an epsilon's component at P_u ⊗ S is
    a quasi-isomorphism iff H(S) = 0 or its component at P_u is one.  No
    assembled trial builds S: H(S) is read off the draw (one dimension per
    stalk piece).  An image at y is computed from the matrix objects of
    both D's and of the component, the degrees of both words and the
    entries of each word that lie over u, and nothing else; so it is made
    once per call and per distinct key of those that a drawn piece with
    H(S) ≠ 0 reaches, on the first trial that reaches it (_Images).  The
    pieces drawn at one u are convolved with its images once, with the sum
    of their H(S) (_assembled_trial).  The evaluated trial 0 tests each
    distinct component object of the unit and the counit once
    (is_quasi_iso_diagram).  With more than one trial, trial 0 is also
    assembled, and a record that differs from the evaluated one raises
    InternalInconsistency naming the first table and element that differ,
    or that only one record has, before any other trial runs.  A one-trial
    run builds no image.  SizeLimit, before any formula is built, when the
    glued orders have more than _MAX_ORDER_PAIRS order pairs together.
    """
    config = _run_config(trials, seed, field, max_dim, window)
    pairs = sum(m.bit_count() for build in (build_plus, build_minus) for m in build(g).poset._up)
    if pairs > _MAX_ORDER_PAIRS:
        raise SizeLimit(
            f"the glued orders have {pairs} order pairs together, above the cap of "
            f"{_MAX_ORDER_PAIRS}"
        )
    xi_plus, xi_minus = build_theorem_formulas(g)
    structural = [("theorem-formulas", True)]
    eps_pm, eps_mp = build_epsilons(g, xi_plus, xi_minus)
    structural.append(("epsilon-naturality", True))
    structural.append(("retract-homotopies", True))

    seeds = [derive_seed(seed, "trial", i) for i in range(trials)]
    first = _equivalence_trial(seeds[0], eps_pm, eps_mp, field, max_dim, window)
    records = [first]
    if trials > 1:
        images = _Images(eps_pm, field), _Images(eps_mp, field)
        problem = _first_difference(first, _assembled_trial(seeds[0], *images, max_dim, window))
        if problem is not None:
            raise InternalInconsistency(
                f"trial {seeds[0]} assembled from the representables differs "
                f"from its evaluation, at the {problem}"
            )
        records += [_assembled_trial(tseed, *images, max_dim, window) for tseed in seeds[1:]]
    structural.append(("euler-ledger", True))

    return EquivalenceCertificate(
        description=(
            f"equivalence for a gluing of {len(g.X)} elements "
            f"against {len(g.Y)}"
        ),
        config=config,
        structural=tuple(structural),
        trials=tuple(records),
    )


def _two_chain_epsilons(point_xi, plus, minus):
    """The four comparison transformations of the two-chain instance, for
    the formulas (point_xi, plus, minus) of _two_chain_formulas.

    The counit and unit come from the point gluing: the unit as it stands
    (its plus order is TWO_CHAIN), the counit re-keyed along the swap.
    """
    counit, eps_mp = build_epsilons(_POINT_GLUING, *point_xi)
    comp_pm = compose_formulas(plus, minus)
    comp_pp = compose_formulas(plus, plus)
    comp_mm = compose_formulas(minus, minus)
    swap = (("1", "2"), ("2", "1"))
    eps_pm = EpsilonTransform(
        comp_pm,
        translation_formula(TWO_CHAIN, 1),
        {y: counit.components[z].matrix for y, z in swap},
    )
    eps_pp = EpsilonTransform(
        comp_pp, minus, {"1": [[1, 0], [0, 1]], "2": [[0, 1, 0]]}
    )
    eps_mm = EpsilonTransform(
        shift(plus, 1),
        comp_mm,
        {"1": [[0], [1], [0]], "2": [[-1, 0], [0, 1]]},
    )
    return eps_pm, eps_mp, eps_pp, eps_mm


def _two_chain_trial(tseed, plus, epsilons, field, max_dim, window) -> TrialRecord:
    """One two-chain trial at a random diagram K: the four transformations
    evaluated (the square at T1, the plus side at K), and T3, the plus side
    plus applied to K three times, compared with the square's source and,
    by its cohomology tables, with K shifted by one."""
    eps_pm, eps_mp, eps_pp, eps_mm = epsilons
    K = random_diagram(TWO_CHAIN, tseed, max_dim, window)
    counit, unit, double = eps_pm.evaluate(K), eps_mp.evaluate(K), eps_mm.evaluate(K)
    T1 = eval_formula(plus, K)
    square = eps_pp.evaluate(T1)
    T3 = eval_formula(plus, eval_formula(plus, T1))
    if square.source != T3:
        raise InternalInconsistency("composite formula disagrees with iterated evaluation")
    tables = {
        "input": _table_json(K, field),
        "input_shift": _table_json(counit.target, field),  # NU at K: K shifted by one
        "triple_plus": _table_json(T3, field),
    }
    verdict = (
        tables["triple_plus"] == tables["input_shift"]
        and is_quasi_iso_diagram(counit, field)
        and is_quasi_iso_diagram(unit, field)
        and is_quasi_iso_diagram(square, field)
        and is_quasi_iso_diagram(double, field)
    )
    return TrialRecord(seed=tseed, verdict=verdict, tables=tables)


def verify_two_chain(
    trials: int = 100,
    seed: int = 0,
    field: Field = RATIONALS,
    max_dim: int = 3,
    window=(-2, 2),
) -> EquivalenceCertificate:
    """Verify the two-chain instance, including the cube of the plus side.

    The two formulas, the counit and the unit are those of the point gluing
    of "1" under "2", relabelled onto TWO_CHAIN.  Structural checks: validity
    of their values and restrictions and of XI12, the substitution identities
    (the plus side's value at "2" is XI12, and the round trip's and the
    square's values there are XI121 and XI212), and the paper's two retract
    homotopies.  Per trial: the four comparison transformations
    (counit, unit, and the two identifying the square of one side with the
    other side) evaluate to quasi-isomorphisms, and the triple application
    of the plus side has the cohomology tables of the input shifted by one.
    """
    config = _run_config(trials, seed, field, max_dim, window)
    point_xi, plus, minus = _two_chain_formulas()
    epsilons = _two_chain_epsilons(point_xi, plus, minus)
    eps_pm, _, eps_pp, _ = epsilons
    named = (plus, minus)
    c = _two_chain_constants()
    xi12, xi121, xi212 = c["XI12"], c["XI121"], c["XI212"]
    structural = []
    structural.append(
        (
            "named-formulas-valid",
            check_formula(xi12) is None
            and all(check_formula(f) is None for F in named for f in F.at.values())
            and all(
                check_formula_morphism(F.res[("1", "2")], F.at["1"], F.at["2"]) is None
                for F in named
            ),
        )
    )
    structural.append(
        (
            "substitution-identities",
            plus.at["2"] == xi12
            and eps_pm.source.at["2"] == xi121
            and eps_pp.source.at["2"] == xi212,
        )
    )
    structural.append(
        (
            "retract-homotopy-212",
            check_homotopy(c["ALPHA1"], c["BETA1"], c["H212"], xi212.D) is None,
        )
    )
    structural.append(
        (
            "retract-homotopy-121",
            check_homotopy(c["ALPHA2"], c["BETA2"], c["H121"], xi121.D) is None,
        )
    )
    structural.append(("epsilon-naturality", True))
    seeds = [derive_seed(seed, "trial", i) for i in range(trials)]
    records = [
        _two_chain_trial(tseed, plus, epsilons, field, max_dim, window) for tseed in seeds
    ]
    structural.append(("composition-law", True))
    structural.append(("euler-ledger", True))

    return EquivalenceCertificate(
        description="two-chain equivalences and the cube of the plus side",
        config=config,
        structural=tuple(structural),
        trials=tuple(records),
    )


def verify_x1z(
    X: Poset,
    Z: Poset,
    trials: int = 25,
    seed: int = 0,
    field: Field = RATIONALS,
    max_dim: int = 2,
    window=(-1, 1),
) -> EquivalenceCertificate:
    """Verify the constant gluing of X under a point under Z.

    Structurally checks that the two glued orders equal the expected shapes
    on the gluing's labels (X, then a point, then Z on the plus side; a
    point under the disjoint union of X and Z on the minus side), then runs
    the generic equivalence verification.
    """
    _run_config(trials, seed, field, max_dim, window)
    g, expected_plus, expected_minus = ordinal_witness(X, Z)
    shape_checks = (
        ("plus-order-shape", build_plus(g).poset.same_order(expected_plus)),
        ("minus-order-shape", build_minus(g).poset.same_order(expected_minus)),
    )
    cert = verify_equivalence(g, trials, seed, field, max_dim, window)
    return EquivalenceCertificate(
        description=(
            f"ordinal gluing of {len(X)} elements over {len(Z)} elements"
        ),
        config=cert.config,
        structural=shape_checks + cert.structural,
        trials=cert.trials,
    )


# --- reflection paths between tree orientations --------------------------------

def _undirected(edges):
    return frozenset(frozenset(e) for e in edges)


def verify_bgp_path(
    tree: Poset,
    from_orient: Poset,
    to_orient: Poset,
    trials: int = 10,
    seed: int = 0,
    field: Field = RATIONALS,
    max_dim: int = 2,
    window=(-1, 1),
) -> dict:
    """Connect two orientations of a tree by vertex reflections, verifying each.

    All three posets must have the same vertices and the same underlying
    undirected edges, which must form a tree (NotATree otherwise; ParseError
    when the orientations disagree with the tree's underlying graph).  A
    shortest sequence of source/sink reflections is found by breadth-first
    search over orientations; for every step the single-vertex gluing whose
    two glued orders are the orientations before and after the flip is
    built and verified, and the results are collected into one report.
    Each step's trial seed is derived from its gluing, so equal gluings
    along the path get equal certificates.
    """
    config = _run_config(trials, seed, field, max_dim, window)
    verts = set(tree.elements)
    und = _undirected(hasse(tree).edges)
    if len(und) != len(verts) - 1 or not _connected(verts, und):
        raise NotATree(
            f"underlying graph has {len(und)} edges on {len(verts)} vertices"
        )
    if len(und) > 8:
        raise SizeLimit("reflection search capped at 8 edges")
    for name, orient in (("from", from_orient), ("to", to_orient)):
        if set(orient.elements) != verts or _undirected(hasse(orient).edges) != und:
            raise ParseError(
                f"the {name!r} orientation does not orient the given tree"
            )

    start = frozenset(hasse(from_orient).edges)
    goal = frozenset(hasse(to_orient).edges)
    path = _reflection_path(verts, start, goal)

    steps = []
    for vertex, kind, before, after in path:
        rest_elements = [e for e in tree.elements if e != vertex]
        rest_edges = [e for e in before if vertex not in e]
        rest = poset_from_generators(rest_elements, rest_edges)
        neighbors = tuple(
            u for u in rest_elements if frozenset((u, vertex)) in und
        )
        g = from_bgp(rest, neighbors)
        # both orientations on the gluing's labels, the vertex as its new point
        label = {vertex: g.X.elements[0], **dict(zip(rest.elements, g.Y.elements))}
        glued = (build_plus(g).poset, build_minus(g).poset)
        if kind == "sink":
            glued = glued[::-1]
        for order, edges in zip(glued, (before, after)):
            pairs = [(label[a], label[b]) for a, b in edges]
            if not order.same_order(poset_from_generators(label.values(), pairs)):
                raise InternalInconsistency(
                    f"reflection at {vertex!r} does not match the glued orders"
                )
        key = (tuple(rest_elements), tuple(sorted(rest.leq)), neighbors)
        cert = verify_equivalence(
            g, trials, derive_seed(seed, "bgp", repr(key)), field, max_dim, window
        )
        steps.append(
            {
                "vertex": vertex,
                "kind": kind,
                "ok": cert.ok,
                "certificate": cert.to_json(),
            }
        )

    return {
        "description": "reflection path between two tree orientations",
        "config": config,
        "path": [{"vertex": s["vertex"], "kind": s["kind"]} for s in steps],
        "path_length": len(steps),
        "steps": steps,
        "ok": all(s["ok"] for s in steps),
    }


def _connected(verts, und) -> bool:
    seen, frontier = set(), set(list(verts)[:1])
    while frontier:
        seen |= frontier
        frontier = {v for e in und if e & frontier for v in e} - seen
    return seen == set(verts)


def _reflection_path(verts, start, goal):
    """Breadth-first search through orientations by source/sink flips.

    Returns a list of (vertex, kind, edges-before, edges-after) steps; kind
    is "source" when the vertex has only outgoing edges before the flip and
    "sink" when it has only incoming ones.
    """
    order = sorted(verts)
    parent = {start: None}
    queue = [start]
    while queue:
        state = queue.pop(0)
        if state == goal:
            break
        for v in order:
            out = frozenset(e for e in state if e[0] == v)
            inc = frozenset(e for e in state if e[1] == v)
            if bool(out) == bool(inc):
                continue  # neither a source nor a sink
            kind, flipped = ("source", out) if out else ("sink", inc)
            nxt = frozenset((state - flipped) | {(b, a) for a, b in flipped})
            if nxt not in parent:
                parent[nxt] = (state, v, kind)
                queue.append(nxt)
    if goal not in parent:
        raise NoPathFound("no reflection sequence reaches the target orientation")
    path = []
    state = goal
    while parent[state] is not None:
        prev, v, kind = parent[state]
        path.append((v, kind, prev, state))
        state = prev
    path.reverse()
    return path


# --- random gluings -------------------------------------------------------------

def _random_poset(rng: SplitMix64, n: int, prefix: str) -> Poset:
    elements = [f"{prefix}{i}" for i in range(n)]
    edges = [
        (elements[i], elements[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.randrange(3) == 0
    ]
    return poset_from_generators(elements, edges)


def _random_monotone_map(rng: SplitMix64, X: Poset, Y: Poset) -> dict:
    """A random order-preserving map, built along a linear extension of X."""
    for _ in range(4):
        f = {}
        ok = True
        for x in X.elements:
            # the elements above the image of everything below x
            above = [Y._up[Y.index(f[x2])] for x2 in X.elements if x2 != x and X.le(x2, x)]
            candidates = [Y.elements[j] for j in _bits(reduce(and_, above, (1 << len(Y)) - 1))]
            if not candidates:
                ok = False
                break
            f[x] = rng.choice(candidates)
        if ok:
            return f
    top = max(Y.elements, key=lambda y: len(Y.down_set(y)))
    return {x: top for x in X.elements}


def _random_witness_set(rng: SplitMix64, Y: Poset) -> tuple:
    """A random admissible witness set: pairwise disjoint up- and down-sets."""
    chosen, up, down = [], 0, 0
    for y in rng.shuffled(Y.elements):
        i = Y.index(y)
        if not (Y._up[i] & up or Y._down[i] & down):
            chosen.append(y)
            up, down = up | Y._up[i], down | Y._down[i]
        if len(chosen) == 3:
            break
    return tuple(sorted(chosen, key=Y.index))


def random_gluing(seed: int) -> GluingData:
    """A seeded random gluing with at most 8 elements in all.

    Mixes three shapes: witness sets cut from disjoint chains at the height
    of each element (the generic case, with witness sets of size > 1), the
    gluing of an order-preserving map (singleton witness sets), and a single
    new point against an admissible witness set.
    """
    rng = SplitMix64(derive_seed(seed, "gluing"))
    kind = rng.choice(("chains", "function", "point"))
    nx = 1 if kind == "point" else 1 + rng.randrange(3)
    budget = 8 - nx
    X = _random_poset(rng, nx, "x")

    if kind == "chains":
        count = 1 + rng.randrange(min(3, budget))
        lengths = []
        left = budget
        for j in range(count):
            cap = left - (count - 1 - j)
            lengths.append(1 + rng.randrange(min(cap, 3)))
            left -= lengths[-1]
        elements = [f"c{j}x{h}" for j in range(count) for h in range(lengths[j])]
        edges = [
            (f"c{j}x{h}", f"c{j}x{h + 1}")
            for j in range(count)
            for h in range(lengths[j] - 1)
        ]
        Y = poset_from_generators(elements, edges)
        mask = 1 + rng.randrange(2**count - 1)
        chosen = [j for j in range(count) if mask >> j & 1]
        Yx = {
            x: tuple(
                f"c{j}x{min(X.height(x), lengths[j] - 1)}" for j in chosen
            )
            for x in X.elements
        }
        return validate_gluing(X, Y, Yx)

    ny = 1 + rng.randrange(budget)
    Y = _random_poset(rng, ny, "y")
    if kind == "function":
        return from_function(X, Y, _random_monotone_map(rng, X, Y))
    return from_bgp(Y, _random_witness_set(rng, Y))


# --- worked datasets ------------------------------------------------------------

_FIGURE_ONE_EDGES = {
    "X1": [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 5), (4, 6), (5, 7), (6, 7)],
    "X2": [(3, 6), (3, 1), (6, 7), (6, 4), (1, 4), (1, 2), (4, 5), (7, 2), (2, 5)],
    "X3": [(7, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 5), (4, 6)],
    "X4": [(4, 5), (4, 6), (4, 7), (5, 2), (6, 3), (7, 1), (1, 2), (1, 3)],
}

_FIGURE_ONE_GLUINGS = {
    ("X1", "X2"): ("X1", (1, 2, 4, 5), (3, 6, 7), {1: 3, 2: 7, 4: 6, 5: 7}),
    ("X1", "X3"): ("X1", (1, 2, 3, 4, 5, 6), (7,), {x: 7 for x in (1, 2, 3, 4, 5, 6)}),
    ("X3", "X4"): ("X3", (1, 2, 3, 7), (4, 5, 6), {1: 4, 7: 4, 2: 5, 3: 6}),
}

#: The pairs of worked seven-element orders related by a single gluing.
FIGURE_ONE_PAIRS = tuple(_FIGURE_ONE_GLUINGS)


def figure_one_poset(name: str) -> Poset:
    """One of the four worked seven-element orders, by name X1..X4."""
    if name not in _FIGURE_ONE_EDGES:
        raise ParseError(f"unknown worked poset {name!r}; pick one of X1..X4")
    edges = [(str(a), str(b)) for a, b in _FIGURE_ONE_EDGES[name]]
    return poset_from_generators([str(i) for i in range(1, 8)], edges)


def _induced(p: Poset, keep) -> Poset:
    keep = set(keep)
    return Poset(
        [e for e in p.elements if e in keep],
        {(a, b) for a, b in p.leq if a in keep and b in keep},
    )


def figure_one_gluing(pair):
    """The gluing relating a worked pair, with the two expected orders.

    `pair` is one of the tuples in FIGURE_ONE_PAIRS.  Returns (gluing,
    expected_plus, expected_minus); the glued orders equal the named worked
    posets as labelled orders.
    """
    if pair not in _FIGURE_ONE_GLUINGS:
        raise ParseError(f"unknown worked pair {pair!r}; pick one of {FIGURE_ONE_PAIRS}")
    ambient_name, x_part, y_part, f = _FIGURE_ONE_GLUINGS[pair]
    ambient = figure_one_poset(ambient_name)
    X = _induced(ambient, [str(e) for e in x_part])
    Y = _induced(ambient, [str(e) for e in y_part])
    g = from_function(X, Y, {str(a): str(b) for a, b in f.items()})
    return g, figure_one_poset(pair[0]), figure_one_poset(pair[1])


def counterexample_data():
    """Witness data for the necessity of the antichain condition.

    A single new element with witness set {2, 3} inside the order
    2 < 4 > 3: the two witnesses share the upper bound 4, so validation
    must reject the data (AntichainViolation with witness element 4).
    Returns (X, Y, Yx) ready to hand to validate_gluing.
    """
    X = poset_from_generators(["1"], [])
    Y = poset_from_generators(["2", "3", "4"], [("2", "4"), ("3", "4")])
    return X, Y, {"1": ("2", "3")}
