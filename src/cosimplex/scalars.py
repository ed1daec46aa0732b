"""Exact Gaussian-rational scalars and Gaussian-integer numerators.

A scalar is a + b*i with a, b rational, kept exact via fractions.Fraction.
This field is closed under all four arithmetic operations and conjugation,
and it contains the parameter values used throughout the rest of the
library: every rational q, and q = ±i on the unit circle.

The integer kernels (`tl` coefficients, `linalg` matrices) keep values as
Gaussian-integer numerators over a common denominator. `gauss` makes a
numerator: a plain int exactly when it is real, a `GaussInt` otherwise.
`to_numerators` and `from_numerator` convert between the two forms, and
`content` is the gcd by which a grid of numerators is reduced.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction, str]


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclasses.dataclass(frozen=True)
class QQi:
    """A Gaussian rational, always canonically reduced (Fraction does this)."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def __add__(self, other: QQi) -> QQi:
        return QQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other: QQi) -> QQi:
        return QQi(self.re - other.re, self.im - other.im)

    def __neg__(self) -> QQi:
        return QQi(-self.re, -self.im)

    def __mul__(self, other: QQi) -> QQi:
        if self.im == 0 and other.im == 0:  # the common, purely rational case
            return QQi(self.re * other.re)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: QQi) -> QQi:
        return self * other.inverse()

    def conj(self) -> QQi:
        return QQi(self.re, -self.im)

    def inverse(self) -> QQi:
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in QQi")
        return QQi(self.re / n, -self.im / n)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


ZERO = QQi(0)
ONE = QQi(1)
I = QQi(0, 1)


def scalar(re: RationalLike, im: RationalLike = 0) -> QQi:
    """Convenience constructor accepting ints, Fractions or strings like '2/3'."""
    return QQi(re, im)


def gauss(re: int, im: int):
    """The Gaussian integer re + im*i: the int re when im == 0, else a GaussInt.

    So an exact numerator is an int exactly when it is real, and every
    GaussInt operation keeps that form."""
    return GaussInt(re, im) if im else re


class GaussInt:
    """A Gaussian integer with a nonzero imaginary part; build it with `gauss`.

    Like int it has `real`, `imag` and `conjugate()`, and its operations take
    int operands on either side, so the two kinds mix freely."""

    __slots__ = ("real", "imag")

    def __init__(self, re: int, im: int):
        self.real, self.imag = re, im

    def __add__(self, o):
        return gauss(self.real + o.real, self.imag + o.imag)

    __radd__ = __add__

    def __sub__(self, o):
        return gauss(self.real - o.real, self.imag - o.imag)

    def __rsub__(self, o):
        return gauss(o.real - self.real, o.imag - self.imag)

    def __mul__(self, o):
        a, b, c, d = self.real, self.imag, o.real, o.imag
        return gauss(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __neg__(self) -> GaussInt:
        return GaussInt(-self.real, -self.imag)

    def conjugate(self) -> GaussInt:
        return GaussInt(self.real, -self.imag)

    def __pow__(self, k: int):
        """self ** k for k >= 0."""
        acc = 1
        for _ in range(k):
            acc = self * acc
        return acc

    def __floordiv__(self, o):
        """Exact division: the caller guarantees that o divides self."""
        a, b, c, d = self.real, self.imag, o.real, o.imag
        n = c * c + d * d
        return gauss((a * c + b * d) // n, (b * c - a * d) // n)

    def __rfloordiv__(self, o):
        return o * self.conjugate() // (self * self.conjugate())

    def __eq__(self, o) -> bool:
        if not isinstance(o, (int, GaussInt)):
            return NotImplemented
        return self.real == o.real and self.imag == o.imag

    def __hash__(self) -> int:
        return hash((self.real, self.imag))

    def __repr__(self) -> str:
        return f"gauss({self.real}, {self.imag})"


def to_numerators(zs: Sequence[QQi]) -> tuple[int, list]:
    """(den, ns): the least positive common denominator of the values zs and
    their Gaussian-integer numerators, so that z = n / den for each pair."""
    den = lcm(*(x.denominator for z in zs for x in (z.re, z.im)))
    return den, [
        gauss(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
        for x, y in ((z.re, z.im) for z in zs)
    ]


_real, _imag = attrgetter("real"), attrgetter("imag")


def content(den: int, rows: Iterable[Iterable]) -> int:
    """gcd(|den|, the real and imaginary parts of every numerator in rows),
    for den != 0. Rows are read one at a time until the gcd is 1, so a grid
    over the denominator 1 is not read at all. `math.gcd` takes a row of
    ints as it is; a row holding a GaussInt is read through its parts."""
    g = abs(den)
    if g != 1:
        for row in rows:
            try:
                g = gcd(g, *row)
            except TypeError:
                g = gcd(g, *map(_real, row), *map(_imag, row))
            if g == 1:
                break
    return g


def from_numerator(n, den: int) -> QQi:
    """The value n / den of a Gaussian-integer numerator n over den != 0."""
    return QQi(Fraction(n.real, den), Fraction(n.imag, den))

