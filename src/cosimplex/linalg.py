"""Exact linear algebra over the Gaussian rationals.

A matrix is stored as one positive integer denominator and one dense grid of
Gaussian-integer numerators (`scalars.gauss`: a plain int exactly when the
entry is real, a `GaussInt` otherwise). The form is canonical: the
denominator and the real and imaginary parts of all numerators have gcd 1,
so a zero matrix has denominator 1, and equality and hashing compare the
pair (den, nums) directly. Real matrices run on plain ints throughout; a
complex one mixes ints and `GaussInt`s through the same operators.

A product runs row by row on its left factor (`_mm`), so its cost follows
that factor's nonzero entries: the Burau and permutation generators are the
identity outside one 2x2 block, and most of their rows only select a row of
the right factor.

Rank, kernel basis, inverse, exact solves and column-space bases use
fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) on
the numerator grid, with exact division. The reduced row echelon form is
unique, so pivots and results equal those of elimination over fractions.
`rank_kernel` returns the kernel basis as the columns of a `Matrix`; its
builder `_kernel` also turns the one row space each cohomology level keeps
into that level's basis. Rank backs the cohomology tables, and elimination
serves as an equality oracle for braid-word evaluations.

QQi values appear only at the boundary: rows given to the constructor, scale
factors, vectors given to `apply`, and what `entries`, `__getitem__` and
`apply` return are QQi; they are built only when read.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import lcm
from operator import add, mul, neg, sub
from typing import Iterable, Sequence

from .scalars import ZERO, QQi, content, from_numerator, scalar, to_numerators

Grid = tuple  # tuple of rows, each a tuple of Gaussian-integer numerators


def _mm(a: Grid, b: Grid) -> Grid:
    """The grid a * b, row by row on a (Gustavson, ACM TOMS 4, 1978): row i
    is the sum of the rows of b that the nonzero entries of row i of a
    select, each scaled by its entry unless that is 1. So a zero row gives
    a zero row, and a row whose one nonzero entry is 1 is that row of b
    itself. A row more than half full takes dot products with the columns
    of b instead, formed once per product."""
    n = len(b)
    zero = (0,) * (len(b[0]) if b else 0)
    cols = None
    out = []
    for row in a:
        if 2 * row.count(0) < n:
            if cols is None:
                cols = tuple(zip(*b))
            out.append(tuple(sum(map(mul, row, col)) for col in cols))
            continue
        acc = zero
        for j in compress(range(n), row):
            x = row[j]
            r = b[j] if x == 1 else map(mul, repeat(x), b[j])
            acc = r if acc is zero else map(add, acc, r)
        out.append(acc if type(acc) is tuple else tuple(acc))
    return tuple(out)


def _times(a: Grid, k) -> Grid:
    return a if k == 1 else tuple(tuple(k * x for x in row) for row in a)


class Matrix:
    """A dense matrix of Gaussian rationals, never changed once built (its
    hash is cached).

    The entries are nums[i][j] / den. As with a tuple of rows, a matrix
    without rows has no columns.
    """

    __slots__ = ("den", "nums", "_hash")

    def __init__(self, entries: Iterable[Iterable] = ()):
        rows = [[e if isinstance(e, QQi) else scalar(e) for e in row] for row in entries]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        den, nums = to_numerators([e for row in rows for e in row])
        cols = len(rows[0]) if rows else 0
        _fill(self, den, tuple(tuple(nums[k * cols:(k + 1) * cols]) for k in range(len(rows))))

    @property
    def rows(self) -> int:
        return len(self.nums)

    @property
    def cols(self) -> int:
        return len(self.nums[0]) if self.nums else 0

    @property
    def entries(self) -> tuple[tuple[QQi, ...], ...]:
        """The rows of QQi entries, built on each read."""
        den = self.den
        return tuple(tuple(from_numerator(n, den) for n in row) for row in self.nums)

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> Matrix:
        return Matrix(rows)

    @staticmethod
    def from_numerators(den: int, nums: Grid) -> Matrix:
        """The matrix nums / den, for a grid of Gaussian integers and den != 0."""
        return _reduced(den, nums)

    @staticmethod
    def identity(n: int) -> Matrix:
        return _new(1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> Matrix:
        return _new(1, tuple((0,) * cols for _ in range(rows)))

    def __getitem__(self, ij: tuple[int, int]) -> QQi:
        i, j = ij
        return from_numerator(self.nums[i][j], self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.den, self.nums))
        return self._hash

    def __add__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return _combine(add, self, other)

    def __sub__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return _combine(sub, self, other)

    def __neg__(self) -> Matrix:
        return _new(self.den, tuple(tuple(map(neg, row)) for row in self.nums))

    def scale(self, c: QQi) -> Matrix:
        return _reduced(self.den * c.den, _times(self.nums, c.num))

    def __mul__(self, other: Matrix) -> Matrix:
        return _product(self, other)

    def transpose(self) -> Matrix:
        return _new(self.den, tuple(zip(*self.nums)))

    def conj_transpose(self) -> Matrix:
        return _new(self.den, tuple(tuple(x.conjugate() for x in col) for col in zip(*self.nums)))

    def is_zero(self) -> bool:
        return not any(map(any, self.nums))

    def apply(self, v: Sequence[QQi]) -> tuple[QQi, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        if not v:
            return (ZERO,) * self.rows
        return tuple(row[0] for row in _product(self, Matrix([x] for x in v)).entries)

    def hstack(self, other: Matrix) -> Matrix:
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return _hstack(self, other)

    def vstack(self, other: Matrix) -> Matrix:
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        den, a, b = _common(self, other)
        return _reduced(den, a + b)

    def _same_shape(self, other: Matrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(repr(e) for e in row) for row in self.entries
        )
        return f"Matrix[{body}]"


def _fill(m: Matrix, den: int, nums: Grid) -> None:
    """Store nums/den in m in canonical form (den != 0)."""
    g = content(den, nums)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        nums = tuple(tuple(x // g for x in row) for row in nums)
    m.den, m.nums, m._hash = den, nums, None


def _new(den: int, nums: Grid) -> Matrix:
    """A matrix from a grid already in canonical form."""
    m = object.__new__(Matrix)
    m.den, m.nums, m._hash = den, nums, None
    return m


def _reduced(den: int, nums: Grid) -> Matrix:
    """A matrix from a grid over any nonzero denominator."""
    m = object.__new__(Matrix)
    _fill(m, den, nums)
    return m


def _product(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(
            f"dimension mismatch: {a.rows}x{a.cols} * {b.rows}x{b.cols}"
        )
    return _reduced(a.den * b.den, _mm(a.nums, b.nums))


def _common(a: Matrix, b: Matrix) -> tuple[int, Grid, Grid]:
    """The grids of a and b over their least common denominator."""
    den = lcm(a.den, b.den)
    return den, _times(a.nums, den // a.den), _times(b.nums, den // b.den)


def _combine(op, a: Matrix, b: Matrix) -> Matrix:
    den, x, y = _common(a, b)
    return _reduced(den, tuple(tuple(map(op, rx, ry)) for rx, ry in zip(x, y)))


def _hstack(a: Matrix, b: Matrix) -> Matrix:
    den, x, y = _common(a, b)
    return _reduced(den, tuple(rx + ry for rx, ry in zip(x, y)))


def from_columns(cols: Sequence[Sequence[QQi]]) -> Matrix:
    return Matrix.from_rows(zip(*cols))


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------

def _rref(grid: Grid) -> tuple[list[list], list[int], object]:
    """Fraction-free Gauss-Jordan elimination on a copy of a numerator grid
    (scaling every row by the denominator leaves the reduced echelon form
    alone).

    Zero rows are set aside first: they change no pivot and the reduced
    echelon form is unique, so only the other rows are eliminated (a stack
    of sparse blocks is mostly zero rows). Returns (rows, pivot columns, d)
    with one row per pivot: the reduced row echelon form without its zero
    rows is rows / d, and each pivot entry equals d. Every entry stays a
    minor of the input, so each division by the previous pivot is exact.
    """
    rows = [list(row) for row in grid if any(row)]
    n = len(rows)
    cols = len(rows[0]) if n else 0
    d = 1
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(n):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
            elif p != d:
                rows[i] = [p * x // d for x in row]
        d = p
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows[:r], pivots, d


def _quotient(rows: Sequence[Sequence], d) -> Matrix:
    """The matrix rows / d, for rows and d from _rref. A complex d is made
    real first: rows / d = rows * conj(d) / (d * conj(d))."""
    if d.imag:
        c = d.conjugate()
        return _reduced(d * c, tuple(tuple(x * c for x in row) for row in rows))
    return _reduced(d, tuple(map(tuple, rows)))


def _kernel(red: Sequence[Sequence], pivots: Sequence[int], d, cols: int) -> Matrix:
    """The right kernel of rows / d with these pivots, for rows, pivots and
    d from _rref on a grid of `cols` columns: one basis column per free
    column f, 1 at f and minus each row's entry f at that row's pivot. So
    the free rows of the basis form the identity."""
    free = [c for c in range(cols) if c not in pivots]
    kernel = [[0] * len(free) for _ in range(cols)]
    for k, f in enumerate(free):
        kernel[f][k] = d
        for r, p in enumerate(pivots):
            kernel[p][k] = -red[r][f]
    return _quotient(kernel, d)


def rank_kernel(m: Matrix) -> tuple[int, Matrix]:
    """Rank and a matrix whose columns are a basis of the right kernel;
    rank + kernel.cols == m.cols."""
    red, pivots, d = _rref(m.nums)
    return len(pivots), _kernel(red, pivots, d, m.cols)


def rank(m: Matrix) -> int:
    return len(_rref(m.nums)[1])


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("only square matrices are invertible")
    n = m.rows
    red, pivots, d = _rref(_hstack(m, Matrix.identity(n)).nums)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return _quotient([row[n:] for row in red], d)


def solve_columns(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B exactly; A must have full column rank and the system
    must be consistent. Coface matrices need no solve (their level basis is
    the identity on its free rows), so this is their oracle in the tests."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    red, pivots, d = _rref(_hstack(a, b).nums)
    if pivots[:a.cols] != list(range(a.cols)):
        raise ValueError("coefficient matrix does not have full column rank")
    if len(pivots) > a.cols:
        raise ValueError("inconsistent system")
    return _quotient([row[a.cols:] for row in red], d)


def column_space_basis(m: Matrix) -> Matrix:
    """Matrix whose columns are a basis of the column space of m."""
    _, piv, _ = _rref(m.nums)
    return _reduced(m.den, tuple(tuple(row[c] for c in piv) for row in m.nums))

