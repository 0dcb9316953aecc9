"""Dense integer matrices with explicit shapes, plus exact rank computation.

Shapes are carried explicitly because zero-row and zero-column matrices occur
all over the place here (empty index sets, zero stalks) and nested tuples
alone cannot represent an n x 0 matrix. All entries are Python ints; rank is
computed exactly (fraction-free Bareiss over the rationals, Gaussian
elimination over a prime field).

Two constructors make a Mat. The public ones, `Mat(nrows, ncols, rows)`,
`Mat.from_rows` and `Mat.diag`, validate: they convert every entry with
`operator.index`, which takes ints and bools but not what `int` would
truncate or parse (1.5, "1"; ParseError), and reject rows that do not
match the stated shape. The private `Mat._of` trusts its caller and stores
`rows` as given; it is used only in this module, by the operations (`mul`,
`add`, `sub`, `scale`, `neg`, `signed`, `transpose`, `masked`, `placed`,
`zero`, `identity`), which check the shapes of their operands and build
their results as tuples of int tuples of the right shape.  `masked` keeps
or zeroes the entries of a Mat that is already valid, so it converts and
checks nothing either.

A Mat is never changed once it is made: no operation writes into its rows,
and results share rows with their operands where they are equal.  So equal
matrices may be one shared object (the identities of `Mat.identity`, and
the matrices that the formula builders and the evaluator share by value).
"""
from __future__ import annotations

from itertools import accumulate
from operator import add as _add
from operator import index
from operator import mul as _mul
from operator import sub as _sub

from .errors import ParseError, ShapeMismatch


#: Mat.identity(n) by n.
_IDENTITIES: dict = {}


def _as_int(v, what="matrix entry") -> int:
    """v as an int: operator.index takes ints and bools (as 0 and 1) and
    refuses what int() would truncate or parse, such as 1.5 or "1"."""
    try:
        return index(v)
    except TypeError:
        raise ParseError(f"{what} must be an integer, got {v!r}") from None


def _int_row(r) -> tuple:
    """The row r as a tuple of ints.  A list or tuple is converted by
    operator.index alone; any other row, and one with an entry that is not
    an integer, goes through _as_int, which names the first bad entry (a
    row that can be read only once is read only there).  TypeError if r is
    not iterable."""
    if type(r) is tuple or type(r) is list:
        try:
            return tuple(map(index, r))
        except TypeError:
            pass
    return tuple(map(_as_int, r))


class Mat:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows):
        try:
            rows = tuple([_int_row(r) for r in rows])
        except TypeError:  # rows, or one of them, is not iterable
            raise ParseError(f"matrix rows must be sequences of integers, got {rows!r}") from None
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ShapeMismatch(f"expected {nrows}x{ncols}, got {[len(r) for r in rows]}")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def _of(cls, nrows, ncols, rows):
        """A Mat from rows that are already a tuple of nrows int tuples of
        length ncols; nothing is converted or checked."""
        m = object.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m.rows = rows
        return m

    @classmethod
    def from_rows(cls, rows):
        try:
            rows = [list(r) for r in rows]
        except TypeError:  # rows, or one of them, is not iterable
            raise ParseError(f"matrix rows must be sequences of integers, got {rows!r}") from None
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def zero(cls, nrows, ncols):
        return cls._of(nrows, ncols, ((0,) * ncols,) * nrows)

    @classmethod
    def identity(cls, n):
        """The n x n identity, one shared instance per n: no operation
        changes a Mat once it is made."""
        m = _IDENTITIES.get(n)
        if m is None:
            m = _IDENTITIES[n] = cls._of(
                n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
            )
        return m

    @classmethod
    def diag(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls(n, n, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def is_identity(self):
        return self.nrows == self.ncols and all(
            r[i] == 1 and not any(r[:i]) and not any(r[i + 1:])
            for i, r in enumerate(self.rows)
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}, {list(map(list, self.rows))})"

    def is_zero(self):
        return not any(map(any, self.rows))

    def tolist(self):
        return [list(r) for r in self.rows]

    def transpose(self):
        if not self.nrows:
            return Mat._of(self.ncols, 0, ((),) * self.ncols)
        return Mat._of(self.ncols, self.nrows, tuple(zip(*self.rows)))

    def scale(self, c):
        c = _as_int(c, "scale factor")
        return Mat._of(
            self.nrows, self.ncols, tuple(tuple([c * v for v in r]) for r in self.rows)
        )

    def neg(self):
        return self.scale(-1)

    def signed(self, row_signs, col_signs):
        """Row i and column j multiplied by their signs, each 1 or -1."""
        shape = (len(row_signs), len(col_signs))
        if shape != (self.nrows, self.ncols):
            raise ShapeMismatch(f"signed {self.nrows}x{self.ncols} by {shape[0]}x{shape[1]} signs")
        by_sign = {1: col_signs, -1: [-s for s in col_signs]}
        rows = tuple(tuple(map(_mul, r, by_sign[s])) for s, r in zip(row_signs, self.rows))
        return Mat._of(self.nrows, self.ncols, rows)

    def masked(self, keep):
        """This matrix with every nonzero entry (i, j) for which keep(i, j) is
        false replaced by 0; keep is never called on a zero entry, and rows
        that lose nothing are shared."""
        rows = list(self.rows)
        changed = False
        for i, r in enumerate(rows):
            if any(r) and not all(keep(i, j) for j, v in enumerate(r) if v):
                rows[i] = tuple([v if v and keep(i, j) else 0 for j, v in enumerate(r)])
                changed = True
        return Mat._of(self.nrows, self.ncols, tuple(rows)) if changed else self

    def add(self, other):
        return self._entrywise(other, _add, "add")

    def sub(self, other):
        return self._entrywise(other, _sub, "sub")

    def _entrywise(self, other, op, name):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch(
                f"{name} {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )
        return Mat._of(
            self.nrows, self.ncols,
            tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)),
        )

    def mul(self, other):
        """self·other, row by row: row i of the product is the sum of the
        rows k of other scaled by the nonzero entries a = self[i, k].  A
        row with one entry 1 is that row of other, shared; a row of zeros is
        one shared zero row."""
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"mul {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        zero = (0,) * other.ncols
        out = []
        for row in self.rows:
            acc = None
            for a, rk in zip(row, other.rows):
                if a:
                    if acc is None:
                        acc = rk if a == 1 else [a * b for b in rk]
                    elif a == 1:
                        acc = list(map(_add, acc, rk))
                    else:
                        acc = [v + a * b for v, b in zip(acc, rk)]
            out.append(zero if acc is None else tuple(acc))
        return Mat._of(self.nrows, other.ncols, tuple(out))


def block(parts, row_sizes, col_sizes):
    """Assemble a block matrix. parts[(i, j)] is a Mat or absent (= zero)."""
    blocks = [(i, j, 1, m) for (i, j), m in parts.items() if m is not None]
    return placed(
        list(accumulate(row_sizes, initial=0)), list(accumulate(col_sizes, initial=0)), blocks
    )


def placed(row_off, col_off, blocks):
    """The matrix with c·m in block (i, j) for each (i, j, c, m) in blocks
    and zeros elsewhere: block row i spans rows row_off[i] to row_off[i + 1],
    block column j columns col_off[j] to col_off[j + 1], and m must fill its
    block.  A lone block that fills the matrix with c = 1 is returned as it
    is."""
    nrows, ncols = row_off[-1], col_off[-1]
    out = [[0] * ncols for _ in range(nrows)]
    for i, j, c, m in blocks:
        r0, c0, c1 = row_off[i], col_off[j], col_off[j + 1]
        if (m.nrows, m.ncols) != (row_off[i + 1] - r0, c1 - c0):
            raise ShapeMismatch(
                f"block ({i},{j}) is {m.nrows}x{m.ncols}, "
                f"slot is {row_off[i + 1] - r0}x{c1 - c0}"
            )
        if len(blocks) == 1 and c == 1 and (m.nrows, m.ncols) == (nrows, ncols):
            return m
        for k, r in enumerate(m.rows, r0):
            out[k][c0:c1] = r if c == 1 else [c * v for v in r]
    return Mat._of(nrows, ncols, tuple(map(tuple, out)))


def rank_exact(m: Mat) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    rank = 0
    prev = 1
    row = 0
    for col in range(nc):
        piv = None
        for r in range(row, nr):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pv = a[row][col]
        for r in range(row + 1, nr):
            f = a[r][col]
            ar, arow = a[r], a[row]
            for c in range(col + 1, nc):
                # Exact division: standard Bareiss invariant.
                ar[c] = (pv * ar[c] - f * arow[c]) // prev
            ar[col] = 0
        prev = pv
        row += 1
        rank += 1
        if row == nr:
            break
    return rank


def rank_mod(m: Mat, p: int) -> int:
    """Rank over the prime field with p elements."""
    a = [[v % p for v in r] for r in m.rows]
    nr, nc = m.nrows, m.ncols
    rank = 0
    row = 0
    for col in range(nc):
        piv = None
        for r in range(row, nr):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], p - 2, p)
        arow = a[row]
        for c in range(col, nc):
            arow[c] = arow[c] * inv % p
        for r in range(row + 1, nr):
            f = a[r][col]
            if f:
                ar = a[r]
                for c in range(col, nc):
                    ar[c] = (ar[c] - f * arow[c]) % p
        row += 1
        rank += 1
        if row == nr:
            break
    return rank
