"""Exact Gaussian-rational scalars.

A scalar is a + b*i with a, b rational, kept exact via fractions.Fraction.
This field is closed under all four arithmetic operations and conjugation,
and it contains the parameter values used throughout the rest of the
library: every rational q, and q = ±i on the unit circle.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, str]


class ArithmeticError_(ZeroDivisionError):
    """Raised on division by zero or inversion of zero."""


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

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> QQi:
        return QQi(_frac(re), _frac(im))

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
            raise ArithmeticError_("division by zero in QQi")
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


ZERO = QQi.of(0)
ONE = QQi.of(1)
I = QQi.of(0, 1)


def scalar(re: RationalLike, im: RationalLike = 0) -> QQi:
    """Convenience constructor accepting ints, Fractions or strings like '2/3'."""
    return QQi.of(re, im)

