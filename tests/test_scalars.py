"""Field axioms and arithmetic identities for the exact Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosimplex.scalars import I, ONE, ZERO, ArithmeticError_, QQi, scalar

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
gaussians = st.builds(QQi, rationals, rationals)


def test_basic_values():
    assert scalar(2) + scalar(3) == scalar(5)
    assert I * I == -ONE
    assert scalar("1/2") * scalar(2) == ONE
    assert scalar("2/4") == scalar("1/2")


def test_string_fractions():
    assert scalar("3/6", "-1/2") == QQi(Fraction(1, 2), Fraction(-1, 2))


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_additive_and_multiplicative_units(a):
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(gaussians)
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ArithmeticError_):
            a.inverse()
    else:
        assert a * a.inverse() == ONE


@given(gaussians, gaussians)
def test_conjugation_is_a_ring_morphism(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


@given(gaussians)
def test_norm_is_nonnegative_rational(a):
    n = a * a.conj()
    assert n.im == 0
    assert n.re >= 0


def test_division_by_zero():
    with pytest.raises(ArithmeticError_):
        ONE / ZERO
