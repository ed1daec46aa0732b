"""Reference arithmetic on TL coefficients a + b*delta, with delta^2 = beta.

The library multiplies integer numerators by one window of delta powers
(`tl._delta_factors`); the tests check it against these plain `Coeff`
forms, which reduce delta^p by repeated multiplication by beta."""

from cosimplex.scalars import ONE, ZERO, QQi
from cosimplex.tl import Coeff


def coeff_zero() -> Coeff:
    return Coeff(ZERO, ZERO)


def coeff_one() -> Coeff:
    return Coeff(ONE, ZERO)


def coeff_add(x: Coeff, y: Coeff) -> Coeff:
    return Coeff(x.a + y.a, x.b + y.b)


def coeff_mul(x: Coeff, y: Coeff, beta: QQi) -> Coeff:
    return Coeff(x.a * y.a + x.b * y.b * beta, x.a * y.b + x.b * y.a)


def delta_power(p: int, beta: QQi) -> Coeff:
    """delta^p reduced to the (1, delta) basis; p may be negative."""
    odd = p % 2  # 0 or 1, also for negative p
    half = (p - odd) // 2
    base = beta if half >= 0 else beta.inverse()
    acc = ONE
    for _ in range(abs(half)):
        acc = acc * base
    return Coeff(ZERO, acc) if odd else Coeff(acc, ZERO)
