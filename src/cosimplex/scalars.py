"""Exact Gaussian-rational scalars and Gaussian-integer numerators.

A scalar is a + b*i with a, b rational. This field is closed under all four
arithmetic operations and conjugation, and it contains the parameter values
used throughout the rest of the library: every rational q, and q = ±i.

Every exact value (a `QQi`, a `tl` element, a `linalg` matrix) is kept as
Gaussian-integer numerators over one positive denominator. `gauss` makes a
numerator: a plain int exactly when it is real, a `GaussInt` otherwise.
`from_numerator` reduces a `QQi` to canonical form, `to_numerators` puts
values over a common denominator, and `content` is the gcd by which a grid
of numerators is reduced.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction, str]


class QQi:
    """A Gaussian rational num / den with den > 0 and gcd(den, num's parts) = 1,
    never changed once built; `re` and `im` are its parts as `Fraction`s."""

    __slots__ = ("num", "den")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0) -> QQi:
        re, im = Fraction(re), Fraction(im)
        n = gauss(re.numerator * im.denominator, im.numerator * re.denominator)
        return from_numerator(n, re.denominator * im.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self.num.real, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.num.imag, self.den)

    def __add__(self, other: QQi) -> QQi:
        return from_numerator(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: QQi) -> QQi:
        return from_numerator(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> QQi:
        return from_numerator(-self.num, self.den)

    def __mul__(self, other: QQi) -> QQi:
        return from_numerator(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: QQi) -> QQi:
        return self * other.inverse()

    def conj(self) -> QQi:
        return from_numerator(self.num.conjugate(), self.den)

    def inverse(self) -> QQi:
        """den / num = den * conj(num) / |num|^2."""
        return from_numerator(self.den * self.num.conjugate(), self.num * self.num.conjugate())

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QQi):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


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
        """Exact division of an int o: o conj(self) over the int norm."""
        a, b = self.real, self.imag
        n = a * a + b * b
        return gauss(o * a // n, -o * b // n)

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
    den = lcm(*(z.den for z in zs))
    return den, [z.num * (den // z.den) for z in zs]


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
    if den == 0:
        raise ZeroDivisionError("division by zero in QQi")
    g = gcd(den, n.real, n.imag)
    if den < 0:
        g = -g
    if g != 1:
        n, den = n // g, den // g
    z = object.__new__(QQi)
    z.num, z.den = n, den
    return z


ZERO = QQi(0)
ONE = QQi(1)
I = QQi(0, 1)
