"""Maps between random diagrams, and the functor's action on raw word
morphisms and on diagram maps, for the functor-law tests (criterion 8)
and the draw pins, and a brute-force reference for the canonical-position
rule.  No certificate runs any of it.

Every generator here builds on abelian_eval's piece model: a random
diagram is a split sum of up-set pieces P_u ⊗ S with block-inclusion
restrictions (abelian_eval._PieceDiagram).  Piece maps between pieces
whose up-sets nest never change a restriction: twists conjugate the
components of a random quasi-isomorphism, after null-homotopic noise is
added to them, and bends change the middle differential of a random short
exact sequence.  Each generator makes the same RNG calls, in the same
order, as it did inside abelian_eval, so the draws stay pinned
(test_abelian_eval.test_draws_are_pinned).
"""

from __future__ import annotations

from posetglue.abelian_eval import (
    ChainMap,
    DiagramMap,
    PosetDiagram,
    VectComplex,
    _build_complex,
    _build_pieces,
    _draw_complex,
    _draw_pieces,
    _eval_object_dims,
    _Evaluation,
    _PieceDiagram,
    _point_map,
    _times,
    shift_complex,
)
from posetglue.formula_cat import CMorphism, CObject, FormulaToPoint
from posetglue.intmat import Mat, block
from posetglue.poset_core import Poset
from posetglue.rng import SplitMix64, derive_seed


def random_complex(seed: int) -> VectComplex:
    """A deterministic random bounded complex: a sum of stalk and two-term
    identity pieces in degrees -2..2, at most three per degree, conjugated
    by random unimodular basis changes."""
    rng = SplitMix64(derive_seed(seed, "complex"))
    return _build_complex(*_draw_complex(rng, 3, (-2, 2)))


def _random_null_homotopic(rng: SplitMix64, S: VectComplex, T: VectComplex) -> dict:
    """The degreewise matrices d_T·h + h·d_S of a null-homotopic chain map
    S -> T, for a random homotopy h with entries in {-1, 0, 1}; zero
    degrees are left out.  The blocks of h are drawn in ascending degree."""
    h = {}
    for t in sorted(set(S.dims) | {i + 1 for i in T.dims}):
        if S.dim(t) and T.dim(t - 1):
            rows = [[rng.randint(-1, 1) for _ in range(S.dim(t))] for _ in range(T.dim(t - 1))]
            h[t] = Mat.from_rows(rows)
    n = {}
    for t in set(S.dims) | set(T.dims):
        # an absent block of h or of a differential is zero, as is its term
        piece = None
        for a, b in ((T.d.get(t - 1), h.get(t)), (h.get(t + 1), S.d.get(t))):
            if a is not None and b is not None:
                term = a.mul(b)
                piece = term if piece is None else piece.add(term)
        if piece is not None and not piece.is_zero():
            n[t] = piece
    return n


def _nested_pairs(X: Poset, sources, targets) -> list:
    """The pairs (k, l) with u_l <= u_k, for pieces (u_k, S_k) of sources and
    (u_l, S_l) of targets: the up-set of u_k lies in that of u_l, so a map
    S_k -> S_l spread over the up-set of u_k commutes with the restrictions."""
    return [
        (k, l)
        for k, (u, _) in enumerate(sources)
        for l, (v, _) in enumerate(targets)
        if X.le(v, u)
    ]


def _random_piece_maps(rng: SplitMix64, pairs, sources, targets, count: int) -> list:
    """count random piece maps (k, l, n): a pair drawn from pairs and the
    degreewise matrices n of a null-homotopic chain map S_k -> S_l. Zero
    maps are dropped, and without pairs nothing is drawn."""
    maps = []
    for _ in range(count if pairs else 0):
        k, l = rng.choice(pairs)
        n = _random_null_homotopic(rng, sources[k][1], targets[l][1])
        if n:
            maps.append((k, l, n))
    return maps


def _sizes(pd: _PieceDiagram, present, t) -> list:
    return [pd.pieces[k][1].dim(t) for k in present]


def _place(present, t, maps, blocks) -> dict:
    """Add the degree-t matrices of the piece maps (k, l, n) with k in the
    piece set present to blocks, keyed by the positions of l and k."""
    for k, l, n in maps:
        if k in present and t in n:
            key = present.index(l), present.index(k)
            blocks[key] = blocks[key].add(n[t]) if key in blocks else n[t]
    return blocks


def _random_twists(pd: _PieceDiagram, rng: SplitMix64) -> dict:
    """(U, U^-1) by piece set p and degree t of its stalk, for a random
    unipotent diagram automorphism U = I + N of pd's diagram: N is one
    null-homotopic constant chain map from a piece k into a piece l != k
    supported on a larger up-set (none without such a pair).  N has only
    the off-diagonal blocks (l, k), so it squares to zero and U^-1 = I - N."""
    pairs = [kl for kl in _nested_pairs(pd.X, pd.pieces, pd.pieces) if kl[0] != kl[1]]
    maps = _random_piece_maps(rng, pairs, pd.pieces, pd.pieces, 1)
    twists = {}
    for p, K in pd.sums.items():
        for t, size in K.dims.items():
            U = Uinv = Mat.identity(size)
            blocks = _place(p, t, maps, {})
            if blocks:
                N = block(blocks, _sizes(pd, p, t), _sizes(pd, p, t))
                U, Uinv = U.add(N), U.sub(N)
            twists[(p, t)] = U, Uinv
    return twists


def random_qis_map(X: Poset, seed: int, max_dim: int = 3, window=(-2, 2)) -> DiagramMap:
    """A deterministic random quasi-isomorphism of diagrams over X: the
    inclusion into a sum with extra acyclic pieces, plus null-homotopic
    noise, conjugated by independent twists on both sides."""
    rng = SplitMix64(derive_seed(seed, "qis"))
    src_pieces = _build_pieces(_draw_pieces(X, rng, max_dim, window))
    lo, hi = window
    extra = []
    for _ in range(1 + rng.randrange(2)):
        u = rng.choice(X.elements)
        i = lo + rng.randrange(max(hi - lo, 1))
        extra.append((u, VectComplex({i: 1, i + 1: 1}, {i: [[1]]})))
    src_pd = _PieceDiagram(X, src_pieces)
    tgt_pd = _PieceDiagram(X, src_pieces + extra)
    src_twists, tgt_twists = _random_twists(src_pd, rng), _random_twists(tgt_pd, rng)
    source, target = src_pd.diagram(), tgt_pd.diagram()
    # Null-homotopic noise on the block inclusion; (k, k) is always a pair.
    pairs = _nested_pairs(X, src_pieces, tgt_pd.pieces)
    noise = _random_piece_maps(rng, pairs, src_pieces, tgt_pd.pieces, rng.randrange(3))
    components = {}
    for x in X.elements:
        f = {}
        p, p2 = src_pd.present[x], tgt_pd.present[x]
        for t in source.K[x].dims:
            blocks, rows, cols = tgt_pd.inclusion_blocks(p, p2, t)
            m = block(_place(p2, t, noise, blocks), rows, cols)
            f[t] = _times(_times(tgt_twists[(p2, t)][0], m), src_twists[(p, t)][1])
        components[x] = ChainMap(source.K[x], target.K[x], f, check=True)
    return DiagramMap(source, target, components)


def _bent_diagram(pd: _PieceDiagram, bends) -> PosetDiagram:
    """The diagram of pd's pieces with each stalk differential bent by the
    degree-one piece maps bends, and block-inclusion restrictions.  Bending
    can break d·d = 0, the chain maps and the axioms, so each bent stalk,
    each distinct restriction and the diagram are checked."""
    sums = {}
    for p, K in pd.sums.items():
        d = dict(K.d)
        for t in K.dims:
            blocks = _place(p, t, bends, {})
            if blocks:
                d[t] = K.diff(t).add(block(blocks, _sizes(pd, p, t + 1), _sizes(pd, p, t)))
        sums[p] = VectComplex(K.dims, d, check=True)
    r, shared = {}, {}
    for x, x2 in pd.X.leq:
        p, p2 = key = pd.present[x], pd.present[x2]
        if key not in shared:
            f = {t: block(*pd.inclusion_blocks(p, p2, t)) for t in sums[p].dims}
            shared[key] = ChainMap(sums[p], sums[p2], f, check=True)
        r[(x, x2)] = shared[key]
    return PosetDiagram(pd.X, {x: sums[p] for x, p in pd.present.items()}, r, check=True)


_SES_WINDOW = (-1, 1)


def random_ses(X: Poset, seed: int):
    """A deterministic random degreewise-split short exact sequence of
    diagrams, at most two dimensions per degree and part, in the degrees of
    _SES_WINDOW: returns (inclusion, projection) with a bent extension in
    the middle."""
    rng = SplitMix64(derive_seed(seed, "ses"))
    left_pieces = _build_pieces(_draw_pieces(X, rng, 2, _SES_WINDOW))
    right_pieces = _build_pieces(_draw_pieces(X, rng, 2, _SES_WINDOW))
    # Extension datum: piece maps from the right pieces into the left ones,
    # of degree one, bent into the middle's off-diagonal differential block.
    shifted = [(u, shift_complex(L, 1)) for u, L in left_pieces]
    pairs = _nested_pairs(X, right_pieces, left_pieces)
    count = rng.randrange(3) if pairs else 0
    bends = [
        (len(left_pieces) + k, l, {t: m.neg() for t, m in n.items()})
        for k, l, n in _random_piece_maps(rng, pairs, right_pieces, shifted, count)
    ]
    pd = _PieceDiagram(X, left_pieces + right_pieces)
    middle = _bent_diagram(pd, bends)
    left = _PieceDiagram(X, left_pieces).diagram()
    right = _PieceDiagram(X, right_pieces).diagram()
    incl_components = {}
    proj_components = {}
    for x in X.elements:
        present = pd.present[x]
        lp = [k for k in present if k < len(left_pieces)]
        rp = [k for k in present if k >= len(left_pieces)]
        fi = {}
        fp = {}
        for t in middle.K[x].dims:
            fi[t] = block(*pd.inclusion_blocks(lp, present, t))
            blocks, rows, cols = pd.inclusion_blocks(rp, present, t)
            fp[t] = block({(c, r): m for (r, c), m in blocks.items()}, cols, rows)
        incl_components[x] = ChainMap(left.K[x], middle.K[x], fi, check=True)
        proj_components[x] = ChainMap(middle.K[x], right.K[x], fp, check=True)
    return DiagramMap(left, middle, incl_components), DiagramMap(middle, right, proj_components)


def eval_cmorphism(phi: CMorphism, K: PosetDiagram) -> ChainMap:
    """Evaluate a raw morphism of graded words on a diagram.

    The carriers are the bare graded objects (zero differential) and no
    chain condition is imposed; this form exists for functor-law checks.
    """
    ev = _Evaluation(K)
    src = VectComplex(_eval_object_dims(phi.source, ev), {}, check=False)
    tgt = VectComplex(_eval_object_dims(phi.target, ev), {}, check=False)
    return ChainMap(src, tgt, ev.matrices(phi), check=False)


def eval_point_map(f: FormulaToPoint, g: DiagramMap) -> ChainMap:
    """Apply the functor of a formula to a diagram map: the diagonal map of
    shifted components, verified to be a chain map."""
    src, tgt = _Evaluation(g.source), _Evaluation(g.target)
    return _point_map(f, g, src, tgt, src.point(f), tgt.point(f))


def shift_chain_map(f: ChainMap, n: int) -> ChainMap:
    return ChainMap(
        shift_complex(f.source, n),
        shift_complex(f.target, n),
        {i - n: m for i, m in f.f.items()},
        check=False,
    )


def complex_to_json(K: VectComplex) -> dict:
    return {
        "dims": {str(i): n for i, n in sorted(K.dims.items())},
        "d": {str(i): m.tolist() for i, m in sorted(K.d.items())},
    }


def legal_rows(source: CObject, target: CObject) -> list:
    """The canonical-position rule written from its definition, as 0/1 rows:
    row j, column i is 1 exactly when source entry (x_i, m_i) may map to
    target entry (x_j, m_j), that is x_i <= x_j in the base order and
    m_j - m_i is 0 or 1.  The reference for formula_cat's predicate
    (_canonical) and masks (canonical_formula)."""
    base = source.base
    return [
        [int(base.le(xi, xj) and mj - mi in (0, 1)) for xi, mi in source.entries]
        for xj, mj in target.entries
    ]
