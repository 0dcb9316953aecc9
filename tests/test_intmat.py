"""Integer matrices: every operation against a fractions reference on random
shapes, n x 0 and 0 x n included, and the form every result is stored in.

The operations build their results without the validating constructor, so
each result is also checked to be a tuple of int tuples of its declared
shape that equals, and hashes like, the same rows passed through ``Mat``.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetglue.errors import ParseError, ShapeMismatch
from posetglue.intmat import Mat, _as_int, block, rank_exact, rank_mod
from posetglue.rng import SplitMix64

from conftest import frac_rank, matmul, modp_rank, nonzeros

SEEDS = range(120)


def random_mat(rng, nrows, ncols):
    return Mat(nrows, ncols, [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)])


def random_dims(rng, count):
    """Sizes 0..3, so that empty rows and columns come up often."""
    return [rng.randrange(4) for _ in range(count)]


def assert_well_formed(m, nrows, ncols):
    assert (m.nrows, m.ncols) == (nrows, ncols)
    assert type(m.rows) is tuple and len(m.rows) == nrows
    for row in m.rows:
        assert type(row) is tuple and len(row) == ncols
        assert all(type(v) is int for v in row)
    validated = Mat(m.nrows, m.ncols, m.rows)
    assert validated == m and hash(validated) == hash(m)


def reference(m):
    return [[Fraction(v) for v in row] for row in m.rows]


def test_mul_matches_reference():
    for seed in SEEDS:
        rng = SplitMix64(seed)
        n, k, m = random_dims(rng, 3)
        a, b = random_mat(rng, n, k), random_mat(rng, k, m)
        c = a.mul(b)
        assert_well_formed(c, n, m)
        # matmul cannot see the width of a 0-row right factor; compare entries
        assert nonzeros(c.tolist()) == nonzeros(matmul(reference(a), reference(b)))
        with pytest.raises(ShapeMismatch):
            a.mul(random_mat(rng, k + 1, m))


def test_elementwise_operations_match_reference():
    for seed in SEEDS:
        rng = SplitMix64(seed)
        n, m = random_dims(rng, 2)
        a, b = random_mat(rng, n, m), random_mat(rng, n, m)
        c = rng.randint(-3, 3)
        ra, rb = reference(a), reference(b)
        expected = {
            "add": [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)],
            "sub": [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)],
            "scale": [[c * x for x in p] for p in ra],
            "neg": [[-x for x in p] for p in ra],
        }
        results = {"add": a.add(b), "sub": a.sub(b), "scale": a.scale(c), "neg": a.neg()}
        for name, result in results.items():
            assert_well_formed(result, n, m)
            assert result.tolist() == expected[name], name
        for op in (a.add, a.sub):
            with pytest.raises(ShapeMismatch):
                op(random_mat(rng, n, m + 1))


def test_signed_matches_reference():
    # sizes 0..3 give 0 x n and n x 0 shapes; zero rows come up often
    for seed in SEEDS:
        rng = SplitMix64(seed)
        n, m = random_dims(rng, 2)
        a = random_mat(rng, n, m)
        if n and rng.randrange(2):
            a = Mat(n, m, [[0] * m if i == 0 else row for i, row in enumerate(a.rows)])
        rows, cols = ([rng.choice([-1, 1]) for _ in range(k)] for k in (n, m))
        s = a.signed(rows, cols)
        assert_well_formed(s, n, m)
        assert s.tolist() == [
            [rows[i] * cols[j] * a.rows[i][j] for j in range(m)] for i in range(n)
        ]
        for bad in ((rows + [1], cols), (rows, cols + [1])):
            with pytest.raises(ShapeMismatch):
                a.signed(*bad)


def test_transpose_matches_reference():
    for seed in SEEDS:
        rng = SplitMix64(seed)
        n, m = random_dims(rng, 2)
        a = random_mat(rng, n, m)
        t = a.transpose()
        assert_well_formed(t, m, n)
        assert t.tolist() == [[a.rows[i][j] for i in range(n)] for j in range(m)]
        assert t.transpose() == a


def test_zero_and_identity_match_reference():
    for n in range(5):
        for m in range(5):
            z = Mat.zero(n, m)
            assert_well_formed(z, n, m)
            assert z.tolist() == [[0] * m for _ in range(n)] and z.is_zero()
        e = Mat.identity(n)
        assert_well_formed(e, n, n)
        assert e.tolist() == [[int(i == j) for j in range(n)] for i in range(n)]


def test_block_matches_reference():
    for seed in SEEDS:
        rng = SplitMix64(seed)
        row_sizes = random_dims(rng, 1 + rng.randrange(3))
        col_sizes = random_dims(rng, 1 + rng.randrange(3))
        parts = {
            (i, j): random_mat(rng, r, c)
            for i, r in enumerate(row_sizes)
            for j, c in enumerate(col_sizes)
            if rng.randrange(2)
        }
        m = block(parts, row_sizes, col_sizes)
        assert_well_formed(m, sum(row_sizes), sum(col_sizes))
        expected = [[0] * sum(col_sizes) for _ in range(sum(row_sizes))]
        for (i, j), part in parts.items():
            r0, c0 = sum(row_sizes[:i]), sum(col_sizes[:j])
            for a, row in enumerate(part.rows):
                for b, v in enumerate(row):
                    expected[r0 + a][c0 + b] = v
        assert m.tolist() == expected
    with pytest.raises(ShapeMismatch):
        block({(0, 0): Mat.zero(1, 2)}, [1], [3])


def test_ranks_match_reference():
    for seed in SEEDS:
        rng = SplitMix64(seed)
        n, k, m = random_dims(rng, 3)
        # a product of a thin pair has rank at most k, so ranks vary
        a = random_mat(rng, n, k).mul(random_mat(rng, k, m))
        assert rank_exact(a) == frac_rank(a.tolist())
        for p in (2, 3, 5, 7):
            assert rank_mod(a, p) == modp_rank(a.tolist(), p)


def test_public_constructors_validate():
    assert Mat(1, 2, [[True, 2]]).rows == ((1, 2),)
    assert all(type(v) is int for v in Mat(1, 2, [[True, 2]]).rows[0])
    assert Mat.from_rows([[1, 2], [3, 4]]).rows == ((1, 2), (3, 4))
    assert Mat.diag([2, 3]).rows == ((2, 0), (0, 3))
    for nrows, ncols, rows in [(2, 2, [[1, 2], [3]]), (1, 2, [[1, 2], [3, 4]]), (2, 0, [])]:
        with pytest.raises(ShapeMismatch):
            Mat(nrows, ncols, rows)
    with pytest.raises(ShapeMismatch):
        Mat.from_rows([[1, 2], [3]])


def test_public_constructors_take_integers_only():
    # int() would truncate 1.5 and 2.0 and parse "1"; operator.index refuses
    # them, and the error names the value
    for bad in (1.5, 2.0, "1", "x", None):
        with pytest.raises(ParseError, match=f"matrix entry must be an integer, got {bad!r}"):
            Mat(1, 2, [[1, bad]])
        with pytest.raises(ParseError, match="must be an integer"):
            Mat.from_rows([[bad]])
        with pytest.raises(ParseError, match="must be an integer"):
            Mat.diag([1, bad])
    with pytest.raises(ParseError, match="scale factor must be an integer, got 0.5"):
        Mat.identity(2).scale(0.5)


def test_rows_that_are_not_sequences_are_refused():
    # a row that is a bare int used to raise a raw TypeError
    with pytest.raises(ParseError, match=r"matrix rows must be sequences of integers, got \[1\]"):
        Mat(1, 1, [1])
    with pytest.raises(ParseError, match=r"matrix rows must be sequences of integers, got \[1\]"):
        Mat.from_rows([1])
    with pytest.raises(ParseError, match="matrix rows must be sequences of integers, got 5"):
        Mat(1, 1, 5)


#: Entries small and large, of both signs.
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))


@st.composite
def factor_pairs(draw):
    """(a, b) with a n x k and b k x m, every size 0..4."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))

    def mat(rows, cols):
        return Mat(rows, cols, [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)])

    return mat(n, k), mat(k, m)


@settings(max_examples=300, deadline=None)
@given(factor_pairs())
def test_mul_is_the_triple_loop(pair):
    a, b = pair
    expected = [
        [sum(a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)) for j in range(b.ncols)]
        for i in range(a.nrows)
    ]
    c = a.mul(b)
    assert_well_formed(c, a.nrows, b.ncols)
    assert c.tolist() == expected


def _converted_one_by_one(nrows, ncols, rows):
    """The rows of Mat(nrows, ncols, rows) converted entry by entry with
    _as_int, the constructor's reference, with its errors."""
    try:
        rows = tuple(tuple(map(_as_int, r)) for r in rows)
    except TypeError:
        raise ParseError(f"matrix rows must be sequences of integers, got {rows!r}") from None
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ShapeMismatch(f"expected {nrows}x{ncols}, got {[len(r) for r in rows]}")
    return rows


def _outcome(make):
    """The rows made, or the error type and message, with object addresses
    (of generators) left out."""
    try:
        made = make()
    except (ParseError, ShapeMismatch) as exc:
        return type(exc), re.sub(r" at 0x[0-9a-f]+", "", str(exc))
    return made.rows if isinstance(made, Mat) else made


#: (nrows, ncols, a function making fresh rows): bad entries, rows that are
#: not iterable, rows read once, and shapes that do not match.
CONSTRUCTOR_CASES = [
    (1, 2, lambda: [[1, 1.5]]),
    (1, 2, lambda: [[1, "1"]]),
    (2, 1, lambda: [[1.5], 2]),
    (2, 1, lambda: [[1], 2]),
    (1, 1, lambda: [1]),
    (1, 1, lambda: 5),
    (1, 1, lambda: None),
    (2, 2, lambda: ([i, i + 1] for i in range(2))),
    (2, 2, lambda: ([i, 1.5] for i in range(2))),
    (2, 1, lambda: ([i] if i else 7 for i in range(2))),
    (1, 2, lambda: [iter([1.5, 2])]),
    (1, 1, lambda: [iter([1.5, 2])]),
    (1, 2, lambda: [(v for v in (1, "1"))]),
    (2, 2, lambda: [iter([1, 2]), [3, None]]),
    (2, 2, lambda: [[1, 2], [3]]),
    (1, 2, lambda: [[1, 2], [3, 4]]),
    (2, 0, lambda: []),
    (1, 2, lambda: [[True, 2]]),
    (2, 2, lambda: [range(2), (3, 4)]),
]


@pytest.mark.parametrize("nrows, ncols, make", CONSTRUCTOR_CASES)
def test_constructor_errors_are_those_of_the_one_by_one_conversion(nrows, ncols, make):
    assert _outcome(lambda: Mat(nrows, ncols, make())) == _outcome(
        lambda: _converted_one_by_one(nrows, ncols, make())
    )


@pytest.mark.parametrize("nrows, ncols, make", CONSTRUCTOR_CASES)
def test_from_rows_errors_are_those_of_the_one_by_one_conversion(nrows, ncols, make):
    def reference():
        try:
            rows = [list(r) for r in make()]
        except TypeError:
            raise ParseError(
                f"matrix rows must be sequences of integers, got {make()!r}"
            ) from None
        return _converted_one_by_one(len(rows), len(rows[0]) if rows else 0, rows)

    assert _outcome(lambda: Mat.from_rows(make())) == _outcome(reference)
