"""Shared oracle helpers: independent exact linear algebra over the rationals.

The library computes ranks and quasi-isomorphism verdicts its own way (integer
pivoting, mapping cones).  These helpers redo the same questions from scratch
with fractions.Fraction row reduction and induced maps on cohomology, so the
tests compare two genuinely different computations.

It also holds :func:`run_python`, which runs a child interpreter on this
package, for tests whose subject is the process itself: its entry point and
its independence of the hash seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import posetglue


def run_python(args, hash_seed=None) -> subprocess.CompletedProcess:
    """Run `python args...` in a child that imports this package from where
    this process did (which may be a path the test runner added rather than
    an install), with PYTHONHASHSEED set to hash_seed unless it is None."""
    env = dict(os.environ)
    here = str(Path(posetglue.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [here, env.get("PYTHONPATH")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def rref(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form; returns (matrix, pivot column indices)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def frac_rank(rows: list[list]) -> int:
    if not rows or not rows[0]:
        return 0
    return len(rref(rows)[1])


def nullspace(rows: list[list], ncols: int) -> list[list[Fraction]]:
    """A basis of the kernel, as column vectors of length ncols."""
    if ncols == 0:
        return []
    if not rows:
        rows = [[0] * ncols]
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


def matvec(rows: list[list], v: list) -> list[Fraction]:
    return [sum(Fraction(a) * b for a, b in zip(row, v)) for row in rows]


def matmul(a: list[list], b: list[list]) -> list[list[Fraction]]:
    if not a:
        return []
    inner = len(a[0])
    assert inner == len(b), f"shape mismatch: {len(a)}x{inner} times {len(b)}x?"
    bw = len(b[0]) if b else 0
    return [
        [sum(Fraction(row[k]) * Fraction(b[k][j]) for k in range(inner)) for j in range(bw)]
        for row in a
    ]


def columns_rank(cols: list[list]) -> int:
    """Rank of the matrix whose columns are the given vectors."""
    if not cols:
        return 0
    rows = [[col[r] for col in cols] for r in range(len(cols[0]))]
    return frac_rank(rows)


def nonzeros(rows: list[list]) -> dict:
    """Positions of nonzero entries; shape-degenerate zero matrices compare equal."""
    return {
        (i, j): v
        for i, row in enumerate(rows)
        for j, v in enumerate(row)
        if v != 0
    }


def induced_qis(f) -> bool:
    """Independent quasi-isomorphism oracle for a chain map over the rationals.

    Checks, degree by degree, that the cohomology dimensions agree and that
    the induced map on cohomology is surjective (hence bijective): the image
    of the kernel of d_K under f, together with the image of d_L, must span
    the kernel of d_L.
    """
    K, L = f.source, f.target
    for n in sorted(set(K.dims) | set(L.dims) | {d + 1 for d in set(K.dims) | set(L.dims)}):
        dK, dKprev = K.diff(n).tolist(), K.diff(n - 1).tolist()
        dL, dLprev = L.diff(n).tolist(), L.diff(n - 1).tolist()
        hK = K.dim(n) - frac_rank(dK) - frac_rank(dKprev)
        hL = L.dim(n) - frac_rank(dL) - frac_rank(dLprev)
        if hK != hL:
            return False
        if hL == 0:
            continue
        zK = nullspace(dK, K.dim(n))
        fn = f.at(n).tolist()
        image_cols = [matvec(fn, v) for v in zK]
        if dLprev and dLprev[0]:
            image_cols += [[row[j] for row in dLprev] for j in range(len(dLprev[0]))]
        dim_zL = L.dim(n) - frac_rank(dL)
        if columns_rank(image_cols) != dim_zL:
            return False
    return True


def frac_cohomology(K) -> dict:
    """Independent cohomology-dimension table of a complex, zeros omitted."""
    out = {}
    for n in sorted(K.dims):
        h = K.dim(n) - frac_rank(K.diff(n).tolist()) - frac_rank(K.diff(n - 1).tolist())
        if h:
            out[n] = h
    return out


def brute_closure(elements, pairs) -> frozenset:
    """Reflexive-transitive closure of generating pairs, by Warshall's
    algorithm on a set of pairs."""
    le = {(e, e) for e in elements} | set(pairs)
    for k in elements:
        below = [a for a in elements if (a, k) in le]
        above = [b for b in elements if (k, b) in le]
        le.update((a, b) for a in below for b in above)
    return frozenset(le)


def modp_rank(rows: list[list], p: int) -> int:
    """Rank over the prime field with p elements, by plain elimination."""
    m = [[v % p for v in row] for row in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    ncols = len(m[0])
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def modp_cohomology(K, p: int) -> dict:
    out = {}
    for n in sorted(K.dims):
        h = (
            K.dim(n)
            - modp_rank(K.diff(n).tolist(), p)
            - modp_rank(K.diff(n - 1).tolist(), p)
        )
        if h:
            out[n] = h
    return out


def restriction(K, x, x2):
    """The restriction of the diagram K for x <= x2: the chain map K stores,
    or, for a related pair with a zero stalk at an end, which K omits, the
    zero map between the two stalks."""
    from posetglue.abelian_eval import ChainMap

    f = K.r.get((x, x2))
    if f is None:
        assert K.base.le(x, x2) and not (K.K[x].dims and K.K[x2].dims), (x, x2)
        f = ChainMap(K.K[x], K.K[x2], {}, check=False)
    return f


def evaluation_key(ev, phi) -> tuple:
    """The key of phi's evaluation in the context ev, with the records of
    phi's two ends read as _Evaluation.matrices reads them."""
    return ev.key(phi, ev.record(phi.source), ev.record(phi.target))


# --- the dense evaluator, kept as the reference for the evaluation plans ---------

def dense_graded(phi, K) -> dict:
    """The degreewise matrices of the word morphism phi evaluated at the
    diagram K, degree by degree over the whole support of both words, with
    every position of phi's matrix read and a dense block matrix assembled
    per degree entry by entry.

    A degree-preserving entry c at (j, i) contributes c times the restriction
    map; a degree-raising entry contributes c times (-1)**m_i times the
    target differential composed with the restriction map.
    """
    from posetglue.intmat import Mat

    def support(obj):
        return {i - m for x, m in obj.entries for i in K.K[x].dims}

    src, tgt = phi.source, phi.target
    out = {}
    for t in support(src) | support(tgt):
        col_sizes = [K.K[x].dim(t + m) for x, m in src.entries]
        row_sizes = [K.K[x].dim(t + m) for x, m in tgt.entries]
        blocks = {}
        for j, (xj, mj) in enumerate(tgt.entries):
            for i, (xi, mi) in enumerate(src.entries):
                c = phi.matrix[j, i]
                if c == 0:
                    continue
                # absent restriction or differential blocks are zero
                r = restriction(K, xi, xj).f.get(t + mi)
                if r is None:
                    continue
                if mj == mi:
                    piece = r
                else:  # mj == mi + 1 in canonical form
                    d = K.K[xj].d.get(t + mi)
                    if d is None:
                        continue
                    piece = d.mul(r)
                    if piece.is_zero():
                        continue
                    if mi % 2:
                        piece = piece.neg()
                if c != 1:
                    piece = piece.scale(c)
                blocks[(j, i)] = piece
        if blocks:
            rows = [[0] * sum(col_sizes) for _ in range(sum(row_sizes))]
            for (j, i), piece in blocks.items():
                r0, c0 = sum(row_sizes[:j]), sum(col_sizes[:i])
                for a, row in enumerate(piece.rows):
                    for b, v in enumerate(row):
                        rows[r0 + a][c0 + b] = v
            out[t] = Mat(sum(row_sizes), sum(col_sizes), rows)
    return out


# --- block-built cone and shear-product basis change, kept as references -------

def block_cone(f):
    """The mapping cone of the chain map f assembled with intmat.block: at
    each degree i of K[1] ⊕ L, the blocks -d_K[i+1] (a negated copy),
    f[i+1] and d_L[i], absent ones as None, checked by VectComplex."""
    from posetglue.abelian_eval import VectComplex
    from posetglue.intmat import block

    K, L = f.source, f.target
    degrees = set(L.dims) | {i - 1 for i in K.dims}
    dims = {i: K.dim(i + 1) + L.dim(i) for i in degrees}
    d = {}
    for i in degrees:
        dK = K.d.get(i + 1)
        parts = {
            (0, 0): None if dK is None else dK.neg(),
            (1, 0): f.f.get(i + 1),
            (1, 1): L.d.get(i),
        }
        if any(m is not None for m in parts.values()):
            d[i] = block(parts, [K.dim(i + 2), L.dim(i + 1)], [K.dim(i + 1), L.dim(i)])
    return VectComplex(dims, d)


def shear_product_unimodular(rng, n: int):
    """A random unimodular n x n matrix U and its inverse as products of
    explicit elementary matrices: each step draws a shear I + c·e_ij (or a
    sign flip), multiplies U by it on the left and U^-1 by its inverse on
    the right, drawing from rng exactly as abelian_eval._unimodular_steps."""
    from posetglue.abelian_eval import _UNIMODULAR_STEPS
    from posetglue.intmat import Mat

    def shear(c):
        return Mat(n, n, [[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(n)]
                          for r in range(n)])

    U = Uinv = Mat.identity(n)
    for _ in range(_UNIMODULAR_STEPS):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.choice([-2, -1, 1, 2])
            E, Einv = shear(c), shear(-c)
        else:
            i = rng.randrange(n)
            E = Einv = Mat.diag([-1 if k == i else 1 for k in range(n)])
        U, Uinv = E.mul(U), Uinv.mul(Einv)
    return U, Uinv


# --- gluings and glued orders shared by several test modules ---------------------

def chain_of_chains(n: int, k: int):
    """X a chain of n elements, Y k disjoint chains of length n, and the
    witnesses of the height-i element of X the height-i elements of Y."""
    from posetglue.gluing import validate_gluing
    from posetglue.poset_core import poset_from_generators

    xs = [f"x{i}" for i in range(n)]
    ys = [[f"c{j}h{i}" for i in range(n)] for j in range(k)]
    X = poset_from_generators(xs, list(zip(xs, xs[1:])))
    Y = poset_from_generators(sum(ys, []), [p for c in ys for p in zip(c, c[1:])])
    return validate_gluing(X, Y, {x: tuple(c[i] for c in ys) for i, x in enumerate(xs)})


def cover_triangles(p) -> tuple:
    """The cover triangles (a, b, c) of p, a Hasse edge a < b and each
    c > b, in the walk order of poset_core._failing_triangle, read off the
    fans that the order keeps (poset_core._fans)."""
    from posetglue.poset_core import _fans

    return tuple((a, b, c) for a, b, above in _fans(p) for c in above)


def glued_orders() -> list:
    """TWO_CHAIN and the six glued orders of the Figure-1 gluings."""
    from posetglue.formula_cat import TWO_CHAIN
    from posetglue.gluing import build_minus, build_plus
    from posetglue.harness import FIGURE_ONE_PAIRS, figure_one_gluing

    return [TWO_CHAIN] + [
        build(figure_one_gluing(pair)[0]).poset
        for pair in FIGURE_ONE_PAIRS
        for build in (build_plus, build_minus)
    ]


def wrap_trusted(monkeypatch, observe) -> None:
    """Make every CMorphism._trusted call first pass its (source, target,
    matrix) to observe, for the rest of the test."""
    from posetglue.formula_cat import CMorphism

    real = CMorphism._trusted

    def trusted(cls, source, target, matrix):
        observe(source, target, matrix)
        return real(source, target, matrix)

    monkeypatch.setattr(CMorphism, "_trusted", classmethod(trusted))


# --- the morphism-level checks, kept as references for the matrix-level ones ----

def morphism_check_formula(f) -> str | None:
    """formula_cat.check_formula with every product rebuilt as a canonical
    morphism: D*[1]·D is composed from the shifted star of D."""
    from posetglue.formula_cat import compose, shift, star

    square = compose(shift(star(f.D), 1), f.D)
    if not square.is_zero():
        return f"D*[1]·D = {square.matrix.tolist()} is not zero"
    for j, row in enumerate(f.D.matrix.rows):
        for i, c in enumerate(row):
            if i > j and c != 0:
                return f"D is not lower triangular: entry {c} at ({j},{i})"
            if i == j and c != 1:
                return f"diagonal entry at ({i},{i}) is {c}, not 1"
    return None


def morphism_check_formula_morphism(phi, source, target) -> str | None:
    """formula_cat.check_formula_morphism comparing the two sides as
    composed canonical morphisms."""
    from posetglue.errors import ShapeMismatch
    from posetglue.formula_cat import compose, shift

    src, tgt = source.xi, target.xi
    if phi.source != src or phi.target != tgt:
        raise ShapeMismatch("phi must map the source word to the target word")
    for j, row in enumerate(phi.matrix.rows):
        for i, c in enumerate(row):
            if c != 0 and tgt.entries[j][1] != src.entries[i][1]:
                return f"component {c} at ({j},{i}) raises degree; not a restriction"
    lhs = compose(shift(phi, 1), source.D)
    rhs = compose(target.D, phi)
    if lhs != rhs:
        diff = lhs.matrix.sub(rhs.matrix).tolist()
        return f"intertwining fails: phi[1]·D - D'·phi = {diff}"
    return None


def morphism_check_homotopy(alpha, beta, h, D) -> str | None:
    """formula_cat.check_homotopy with each term composed as a canonical
    morphism, the sum canonicalized by the constructor, and both sides
    compared with identity morphisms."""
    from posetglue.errors import ShapeMismatch
    from posetglue.formula_cat import CMorphism, compose, identity_morphism, shift, star

    xi = D.source
    xi_small = alpha.source
    if alpha.target != xi or beta.source != xi or beta.target != xi_small:
        raise ShapeMismatch("alpha and beta must connect D's object with a common one")
    if h.source != xi or h.target != xi.shifted(-1):
        raise ShapeMismatch("h must map D's object to its shift by -1")
    ba = compose(beta, alpha)
    if ba != identity_morphism(xi_small):
        return f"beta·alpha = {ba.matrix.tolist()} is not the identity"
    ab = compose(alpha, beta)
    hD = compose(shift(h, 1), D)
    Dh = compose(shift(star(D), -1), h)
    total = CMorphism(xi, xi, ab.matrix.add(hD.matrix).add(Dh.matrix))
    if total != identity_morphism(xi):
        return f"alpha·beta + h[1]·D + D*[-1]·h = {total.matrix.tolist()} is not the identity"
    return None


# --- the morphism-level substitution, kept as a reference for the matrix-level one

def per_entry_star(m):
    """formula_cat.star entry by entry: entry (j, i) negated where the degree
    difference m_j - m_i is odd, through the validating constructor."""
    from posetglue.formula_cat import CMorphism

    rows = [
        [c if (mj - m.source.entries[i][1]) % 2 == 0 else -c for i, c in enumerate(row)]
        for row, (_, mj) in zip(m.matrix.rows, m.target.entries)
    ]
    return CMorphism(m.source, m.target, rows)


def twist(m, n: int):
    """m with its per-entry star negated when n is odd, m itself otherwise."""
    from posetglue.formula_cat import CMorphism

    if n % 2 == 0:
        return m
    return CMorphism(m.source, m.target, per_entry_star(m).matrix.neg())


def morphism_substituted_matrix(psi, inner):
    """formula_cat._substituted_matrix with each block built as a morphism:
    c·rho for a degree-preserving entry c of psi, and c·twist(D·rho, m_a),
    with D·rho composed, for a degree-raising one."""
    from posetglue.formula_cat import compose
    from posetglue.intmat import block

    s_entries, t_entries = psi.source.entries, psi.target.entries
    blocks = {}
    for b, (pb, mb) in enumerate(t_entries):
        for a, c in enumerate(psi.matrix.rows[b]):
            if c:
                pa, ma = s_entries[a]
                rho = inner.res[(pa, pb)]
                if mb != ma:
                    rho = twist(compose(inner.at[pb].D, rho), ma)
                blocks[(b, a)] = rho.matrix.scale(c)
    return block(
        blocks,
        [len(inner.at[p].xi) for p, _ in t_entries],
        [len(inner.at[p].xi) for p, _ in s_entries],
    )


# --- the homotopy draw, kept as a reference for generators' --------------------

def null_homotopic_reference(rng, S, T) -> dict:
    """generators._random_null_homotopic redone by hand: each block
    h_t: S_t -> T_(t-1), entries in {-1, 0, 1}, drawn row by row for t
    ascending over every integer degree, then d_T·h + h·d_S as nested lists
    in each degree where it is nonzero."""
    span = [*S.dims, *(i + 1 for i in T.dims)]
    if not span:
        return {}
    h = {}
    for t in range(min(span), max(span) + 1):
        if S.dim(t) and T.dim(t - 1):
            h[t] = [[rng.randint(-1, 1) for _ in range(S.dim(t))] for _ in range(T.dim(t - 1))]
    n = {}
    for t in range(min(span) - 1, max(span) + 1):
        total = [[0] * S.dim(t) for _ in range(T.dim(t))]
        for a, b in ((T.d.get(t - 1), h.get(t)), (h.get(t + 1), S.d.get(t))):
            if a is not None and b is not None:
                a = a if isinstance(a, list) else a.tolist()
                b = b if isinstance(b, list) else b.tolist()
                total = [[u + v for u, v in zip(r, s)] for r, s in zip(total, matmul(a, b))]
        if any(map(any, total)):
            n[t] = total
    return n


# --- random words and functor-law instances -------------------------------------

def random_cobject(rng, base, max_len: int = 3, degrees=(-1, 0, 1)):
    from posetglue.formula_cat import CObject

    n = 1 + rng.randrange(max_len)
    entries = tuple(
        (rng.choice(base.elements), rng.choice(degrees)) for _ in range(n)
    )
    return CObject(entries, base)


def random_cmorphism(rng, src, tgt):
    from posetglue.formula_cat import CMorphism

    rows = [[rng.randint(-2, 2) for _ in range(len(src))] for _ in range(len(tgt))]
    return CMorphism(src, tgt, rows)


def _law_xi(seed: int):
    from posetglue.formula_cat import XI12, XI121, XI212
    from posetglue.harness import TWO_CHAIN_MINUS, TWO_CHAIN_PLUS

    xi1, xi2 = TWO_CHAIN_MINUS.at["2"], TWO_CHAIN_PLUS.at["1"]
    return (xi1, xi2, XI12, XI121, XI212)[seed % 5]


def _carrier_degrees(obj, K) -> set:
    return {i - m for x, m in obj.entries for i in K.K[x].dims}


def _diagonal_eval(obj, g, t: int) -> list[list]:
    """The degree-t block-diagonal matrix of a diagram map on a word carrier."""
    row_sizes = [g.target.K[x].dim(t + m) for x, m in obj.entries]
    col_sizes = [g.source.K[x].dim(t + m) for x, m in obj.entries]
    out = [[0] * sum(col_sizes) for _ in range(sum(row_sizes))]
    r0 = 0
    c0 = 0
    for (x, m), nr, nc in zip(obj.entries, row_sizes, col_sizes):
        piece = g.components[x].at(t + m).tolist()
        for i in range(nr):
            for j in range(nc):
                out[r0 + i][c0 + j] = piece[i][j]
        r0 += nr
        c0 += nc
    return out


def eta_composition_holds(seed: int) -> bool:
    """Evaluating a composite of word morphisms equals composing evaluations."""
    from posetglue.abelian_eval import random_diagram
    from posetglue.formula_cat import TWO_CHAIN, compose
    from posetglue.rng import SplitMix64, derive_seed

    from generators import eval_cmorphism

    rng = SplitMix64(derive_seed(seed, "etafunc"))
    K = random_diagram(TWO_CHAIN, derive_seed(seed, "K"), max_dim=2, window=(-1, 1))
    a = random_cobject(rng, TWO_CHAIN)
    b = random_cobject(rng, TWO_CHAIN)
    c = random_cobject(rng, TWO_CHAIN)
    phi = random_cmorphism(rng, a, b)
    psi = random_cmorphism(rng, b, c)
    lhs = eval_cmorphism(compose(psi, phi), K)
    ephi = eval_cmorphism(phi, K)
    epsi = eval_cmorphism(psi, K)
    for t in set(lhs.f) | set(ephi.f) | set(epsi.f):
        want = matmul(epsi.at(t).tolist(), ephi.at(t).tolist())
        if nonzeros(lhs.at(t).tolist()) != nonzeros(want):
            return False
    return True


def eta_naturality_holds(seed: int) -> bool:
    """Evaluated word morphisms commute with diagram maps on the carriers."""
    from posetglue.formula_cat import TWO_CHAIN
    from posetglue.rng import SplitMix64, derive_seed

    from generators import eval_cmorphism, random_qis_map

    rng = SplitMix64(derive_seed(seed, "etanat"))
    g = random_qis_map(TWO_CHAIN, derive_seed(seed, "g"), max_dim=2, window=(-1, 1))
    a = random_cobject(rng, TWO_CHAIN)
    b = random_cobject(rng, TWO_CHAIN)
    phi = random_cmorphism(rng, a, b)
    at_src = eval_cmorphism(phi, g.source)
    at_tgt = eval_cmorphism(phi, g.target)
    degrees = (
        set(at_src.f)
        | set(at_tgt.f)
        | _carrier_degrees(a, g.source)
        | _carrier_degrees(a, g.target)
        | _carrier_degrees(b, g.source)
        | _carrier_degrees(b, g.target)
    )
    for t in degrees:
        left = matmul(_diagonal_eval(b, g, t), at_src.at(t).tolist())
        right = matmul(at_tgt.at(t).tolist(), _diagonal_eval(a, g, t))
        if nonzeros(left) != nonzeros(right):
            return False
    return True


def ses_preservation_holds(seed: int) -> bool:
    """A formula to a point sends a short exact sequence to one, degreewise."""
    from posetglue.formula_cat import TWO_CHAIN
    from posetglue.rng import derive_seed

    from generators import eval_point_map, random_ses

    incl, proj = random_ses(TWO_CHAIN, derive_seed(seed, "ses"))
    xi = _law_xi(seed)
    Fi = eval_point_map(xi, incl)
    Fp = eval_point_map(xi, proj)
    for t in set(Fi.source.dims) | set(Fi.target.dims) | set(Fp.target.dims):
        A = Fi.at(t).tolist()
        B = Fp.at(t).tolist()
        if frac_rank(A) != Fi.source.dim(t):
            return False
        if frac_rank(B) != Fp.target.dim(t):
            return False
        if any(v != 0 for row in matmul(B, A) for v in row):
            return False
        if frac_rank(A) + frac_rank(B) != Fi.target.dim(t):
            return False
    return True


def qis_preservation_holds(seed: int) -> bool:
    """A formula to a point sends quasi-isomorphisms to quasi-isomorphisms."""
    from posetglue.abelian_eval import is_quasi_iso
    from posetglue.formula_cat import TWO_CHAIN
    from posetglue.rng import derive_seed

    from generators import eval_point_map, random_qis_map

    g = random_qis_map(TWO_CHAIN, derive_seed(seed, "qis"), max_dim=2, window=(-1, 1))
    return is_quasi_iso(eval_point_map(_law_xi(seed), g))
