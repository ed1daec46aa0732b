"""Exact dense linear algebra over the Gaussian rationals.

A matrix is stored as one positive integer denominator and a grid of integer
numerators for the real parts, plus a second grid for the imaginary parts,
which is None when every entry is real. The form is canonical: the
denominator and all numerators have gcd 1, so a zero matrix has denominator
1, and equality and hashing compare the triple (den, re, im) directly.
Products, sums and scaling work on plain ints.

Rank, kernel basis, inverse, exact solves and column-space bases use
fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) on the
entries' Gaussian-integer numerators (`scalars.gauss`: an int exactly when
real, so real matrices eliminate on ints), with exact division. The reduced
row echelon form is unique, so pivots and results equal those of elimination
over fractions. These back the cohomology computations and serve as equality
oracles for braid-word evaluations.

QQi values appear only at the boundary: rows given to the constructor, scale
factors, vectors given to `apply`, and what `entries`, `__getitem__`, `apply`
and `rank_kernel` return are QQi; they are built only when read.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add, attrgetter, mul, neg, sub
from typing import Iterable, Optional, Sequence

from .scalars import ZERO, QQi, from_numerator, gauss, scalar, to_numerators

Grid = tuple  # tuple of rows, each a tuple of ints
_real, _imag = attrgetter("real"), attrgetter("imag")


def _mm(a: Grid, b: Grid) -> Grid:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _zip_rows(op, a: Grid, b: Grid) -> Grid:
    return tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b))


def _times(a: Grid, k: int) -> Grid:
    return a if k == 1 else tuple(tuple(k * x for x in row) for row in a)


def _negated(a: Grid) -> Grid:
    return tuple(tuple(map(neg, row)) for row in a)


def _split(rows: list[Sequence]) -> tuple[Grid, Grid]:
    """The real and the imaginary grid of rows of Gaussian integers."""
    return tuple(tuple(map(_real, r)) for r in rows), tuple(tuple(map(_imag, r)) for r in rows)


class Matrix:
    """A dense matrix of Gaussian rationals, never changed once built (its
    hash is cached).

    The entries are (re[i][j] + im[i][j] * i) / den. As with a tuple of rows,
    a matrix without rows has no columns.
    """

    __slots__ = ("den", "re", "im", "_hash")

    def __init__(self, entries: Iterable[Iterable] = ()):
        rows = [[e if isinstance(e, QQi) else scalar(e) for e in row] for row in entries]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        den, nums = to_numerators([e for row in rows for e in row])
        cols = len(rows[0]) if rows else 0
        _fill(self, den, *_split([nums[k * cols:(k + 1) * cols] for k in range(len(rows))]))

    @property
    def rows(self) -> int:
        return len(self.re)

    @property
    def cols(self) -> int:
        return len(self.re[0]) if self.re else 0

    @property
    def entries(self) -> tuple[tuple[QQi, ...], ...]:
        """The rows of QQi entries, built on each read."""
        den = self.den
        im = self.im or tuple((0,) * len(row) for row in self.re)
        return tuple(
            tuple(from_numerator(gauss(a, b), den) for a, b in zip(ra, rb))
            for ra, rb in zip(self.re, im)
        )

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> Matrix:
        return Matrix(rows)

    @staticmethod
    def from_numerators(den: int, re: Grid, im: Optional[Grid] = None) -> Matrix:
        """The matrix (re + i*im) / den, for integer grids and den != 0."""
        return _reduced(den, re, im)

    @staticmethod
    def identity(n: int) -> Matrix:
        return _new(1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), None)

    @staticmethod
    def zero(rows: int, cols: int) -> Matrix:
        return _new(1, tuple((0,) * cols for _ in range(rows)), None)

    def __getitem__(self, ij: tuple[int, int]) -> QQi:
        i, j = ij
        b = self.im[i][j] if self.im is not None else 0
        return from_numerator(gauss(self.re[i][j], b), self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.den, self.re, self.im))
        return self._hash

    def __add__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return _combine(add, self, other)

    def __sub__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return _combine(sub, self, other)

    def __neg__(self) -> Matrix:
        return _new(self.den, _negated(self.re), None if self.im is None else _negated(self.im))

    def scale(self, c: QQi) -> Matrix:
        cd, (n,) = to_numerators((c,))
        cr, ci = n.real, n.imag
        re, im = self.re, self.im
        if im is None:
            new_re, new_im = _times(re, cr), _times(re, ci)
        else:
            new_re = _zip_rows(sub, _times(re, cr), _times(im, ci))
            new_im = _zip_rows(add, _times(re, ci), _times(im, cr))
        return _reduced(self.den * cd, new_re, new_im)

    def __mul__(self, other: Matrix) -> Matrix:
        return _product(self, other)

    def transpose(self) -> Matrix:
        im = self.im
        return _new(self.den, tuple(zip(*self.re)), None if im is None else tuple(zip(*im)))

    def conj_transpose(self) -> Matrix:
        im = self.im
        return _new(self.den, tuple(zip(*self.re)), None if im is None else _negated(zip(*im)))

    def is_zero(self) -> bool:
        return self.im is None and not any(map(any, self.re))

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
        den, (ar, ai), (br, bi) = _common(self, other)
        return _reduced(den, ar + br, None if ai is None else ai + bi)

    def _same_shape(self, other: Matrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(repr(e) for e in row) for row in self.entries
        )
        return f"Matrix[{body}]"


def _fill(m: Matrix, den: int, re: Grid, im: Optional[Grid]) -> None:
    """Store re/den + i*im/den in m in canonical form (den != 0)."""
    if im is not None and not any(map(any, im)):
        im = None
    nums = chain.from_iterable(re) if im is None else chain.from_iterable(re + im)
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        re = tuple(tuple(x // g for x in row) for row in re)
        if im is not None:
            im = tuple(tuple(x // g for x in row) for row in im)
    m.den, m.re, m.im, m._hash = den, re, im, None


def _new(den: int, re: Grid, im: Optional[Grid]) -> Matrix:
    """A matrix from grids already in canonical form."""
    m = object.__new__(Matrix)
    m.den, m.re, m.im, m._hash = den, re, im, None
    return m


def _reduced(den: int, re: Grid, im: Optional[Grid]) -> Matrix:
    """A matrix from grids over any nonzero denominator."""
    m = object.__new__(Matrix)
    _fill(m, den, re, im)
    return m


def _product(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(
            f"dimension mismatch: {a.rows}x{a.cols} * {b.rows}x{b.cols}"
        )
    ar, ai, br, bi = a.re, a.im, b.re, b.im
    re = _mm(ar, br)
    if ai is None:
        im = None if bi is None else _mm(ar, bi)
    elif bi is None:
        im = _mm(ai, br)
    else:
        re = _zip_rows(sub, re, _mm(ai, bi))
        im = _zip_rows(add, _mm(ar, bi), _mm(ai, br))
    return _reduced(a.den * b.den, re, im)


def _common(a: Matrix, b: Matrix) -> tuple[int, tuple, tuple]:
    """The grids of a and b over their least common denominator; both
    imaginary grids are None when both matrices are real."""
    den = lcm(a.den, b.den)
    real = a.im is None and b.im is None

    def lift(m: Matrix) -> tuple[Grid, Optional[Grid]]:
        k = den // m.den
        if real:
            return _times(m.re, k), None
        im = m.im if m.im is not None else tuple((0,) * len(row) for row in m.re)
        return _times(m.re, k), _times(im, k)

    return den, lift(a), lift(b)


def _combine(op, a: Matrix, b: Matrix) -> Matrix:
    den, (ar, ai), (br, bi) = _common(a, b)
    return _reduced(den, _zip_rows(op, ar, br), None if ai is None else _zip_rows(op, ai, bi))


def _hstack(a: Matrix, b: Matrix) -> Matrix:
    den, (ar, ai), (br, bi) = _common(a, b)
    glue = lambda x, y: tuple(rx + ry for rx, ry in zip(x, y))
    return _reduced(den, glue(ar, br), None if ai is None else glue(ai, bi))


def from_columns(cols: Sequence[Sequence[QQi]]) -> Matrix:
    return Matrix.from_rows(zip(*cols))


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------

def _ring_rows(m: Matrix) -> list[list]:
    """The numerators of m as rows of Gaussian integers. Scaling every row by
    den leaves the reduced echelon form alone."""
    if m.im is None:
        return [list(row) for row in m.re]
    return [[gauss(a, b) for a, b in zip(ra, ia)] for ra, ia in zip(m.re, m.im)]


def _rref(rows: list[list]) -> tuple[list[list], list[int], object]:
    """Fraction-free Gauss-Jordan elimination, in place.

    Returns (rows, pivot columns, d). The reduced row echelon form is
    rows[r] / d for r < len(pivots); each pivot entry equals d and the rows
    below the rank are zero. Every entry stays a minor of the input, so each
    division by the previous pivot is exact.
    """
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
    return rows, pivots, d


def _quotient(rows: Sequence[Sequence], d) -> Matrix:
    """The matrix rows / d, for rows and d from _rref. A complex d is made
    real first: rows / d = rows * conj(d) / (d * conj(d))."""
    if d.imag:
        c = d.conjugate()
        rows, d = [[x * c for x in row] for row in rows], d * c
    return _reduced(d, *_split(rows))


def rank_kernel(m: Matrix) -> tuple[int, list[tuple[QQi, ...]]]:
    """Rank and a basis of the right kernel; rank + len(basis) == cols."""
    red, pivots, d = _rref(_ring_rows(m))
    free = [c for c in range(m.cols) if c not in pivots]
    kernel = [[0] * len(free) for _ in range(m.cols)]
    for k, f in enumerate(free):
        kernel[f][k] = d
        for r, p in enumerate(pivots):
            kernel[p][k] = -red[r][f]
    return len(pivots), list(zip(*_quotient(kernel, d).entries))


def rank(m: Matrix) -> int:
    return len(_rref(_ring_rows(m))[1])


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("only square matrices are invertible")
    n = m.rows
    red, pivots, d = _rref(_ring_rows(_hstack(m, Matrix.identity(n))))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return _quotient([row[n:] for row in red], d)


def solve_columns(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B exactly; A must have full column rank and the system
    must be consistent (this is how coface matrices are expressed in a
    subspace basis)."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    red, pivots, d = _rref(_ring_rows(_hstack(a, b)))
    if pivots != list(range(a.cols)):
        raise ValueError("coefficient matrix does not have full column rank")
    for r in range(len(pivots), a.rows):
        if any(red[r][a.cols:]):
            raise ValueError("inconsistent system")
    return _quotient([red[r][a.cols:] for r in range(a.cols)], d)


def column_space_basis(m: Matrix) -> Matrix:
    """Matrix whose columns are a basis of the column space of m."""
    _, piv, _ = _rref(_ring_rows(m))
    pick = lambda grid: tuple(tuple(row[c] for c in piv) for row in grid)
    return _reduced(m.den, pick(m.re), None if m.im is None else pick(m.im))


def random_matrix(rng, rows: int, cols: int) -> Matrix:
    """A matrix of integer entries drawn uniformly from -2..2."""
    return Matrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
    )
