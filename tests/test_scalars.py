"""Field axioms and arithmetic identities for the exact Gaussian rationals,
QQi against a (Fraction, Fraction) pair reference, and the Gaussian-integer
numerators against a plain (re, im) pair reference."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosimplex.scalars import I, ONE, ZERO, QQi, content, from_numerator, gauss, scalar

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
        with pytest.raises(ZeroDivisionError):
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
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


# QQi against a (Fraction, Fraction) pair reference.
rational_pairs = st.tuples(rationals, rationals)


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return x[0] / n, -x[1] / n


def assert_value(z, ref):
    """z has the value ref = (re, im) and is in canonical form: den > 0, the
    gcd of den and num's parts is 1, and num is an int exactly when real."""
    assert (z.re, z.im) == ref
    assert z.den > 0 and gcd(z.den, z.num.real, z.num.imag) == 1
    assert (type(z.num) is int) == (ref[1] == 0)


@given(rational_pairs, rational_pairs, st.integers(-6, 6).filter(bool))
def test_qqi_matches_the_fraction_pair_reference(x, y, k):
    a, b = QQi(*x), QQi(*y)
    assert_value(a, x)
    assert_value(a + b, (x[0] + y[0], x[1] + y[1]))
    assert_value(a - b, (x[0] - y[0], x[1] - y[1]))
    assert_value(a * b, ref_mul(x, y))
    assert_value(-a, (-x[0], -x[1]))
    assert_value(a.conj(), (x[0], -x[1]))
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            b.inverse()
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert_value(b.inverse(), ref_inverse(y))
        assert_value(a / b, ref_mul(x, ref_inverse(y)))
    assert (a == b) == (x == y)
    # the same value from an unreduced numerator over a negative or positive den
    same = from_numerator(a.num * k, a.den * k)
    assert_value(same, x)
    assert same == a and hash(same) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


def test_qqi_compares_equal_only_to_qqi():
    assert ONE.__eq__(1) is NotImplemented
    assert ONE != 1 and ZERO != 0 and I != gauss(0, 1) and ONE != "1"


# The reprs recorded before QQi was stored as one numerator over one denominator.
RECORDED_REPRS = {
    (0, 0): "0",
    ("-3/2", 0): "-3/2",
    (0, "1/2"): "1/2*i",
    (0, "-1/3"): "-1/3*i",
    ("2/3", "-1/2"): "2/3-1/2*i",
    ("-7/25", "24/25"): "-7/25+24/25*i",
    (5, 0): "5",
    (1, 1): "1+1*i",
    (0, 1): "1*i",
    (0, -1): "-1*i",
    (-1, -1): "-1-1*i",
    ("4/6", "6/4"): "2/3+3/2*i",
}


@pytest.mark.parametrize("parts", list(RECORDED_REPRS))
def test_qqi_repr_is_unchanged(parts):
    assert repr(QQi(*parts)) == RECORDED_REPRS[parts]


# Gaussian-integer numerators: ints and gauss(...) values, mixed freely.
small = st.integers(-60, 60)
numerators = st.one_of(small, st.builds(gauss, small, small))


@given(numerators)
def test_from_numerator_over_zero_raises(n):
    with pytest.raises(ZeroDivisionError):
        from_numerator(n, 0)


def pair(n):
    return n.real, n.imag


def pair_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def assert_is(n, ref):
    """n has the value ref and is an int exactly when it is real."""
    assert pair(n) == ref
    assert (type(n) is int) == (ref[1] == 0)


@given(numerators, numerators)
def test_gauss_ring_operations_match_the_pair_reference(x, y):
    (a, b), (c, d) = pair(x), pair(y)
    assert_is(x + y, (a + c, b + d))
    assert_is(x - y, (a - c, b - d))
    assert_is(x * y, pair_mul((a, b), (c, d)))
    assert_is(-x, (-a, -b))
    assert_is(x.conjugate(), (a, -b))


@given(numerators, st.integers(0, 6))
def test_gauss_power_matches_repeated_products(x, k):
    ref = (1, 0)
    for _ in range(k):
        ref = pair_mul(ref, pair(x))
    assert_is(x ** k, ref)


@given(numerators, numerators, small)
def test_gauss_exact_division_undoes_multiplication(x, y, k):
    if y != 0:
        assert_is((x * y) // y, pair(x))
        # an int over a Gaussian integer: k |y|^2 / y = k conj(y)
        assert_is(k * (y * y.conjugate()) // y, pair(k * y.conjugate()))


@given(small, small.filter(bool), small)
def test_int_over_gauss_matches_the_qqi_reference(a, b, k):
    # the ints that a + bi divides are the multiples of |y|^2 / gcd(|y|^2, a, b);
    # k = 0 gives the only real quotient an int can have over a non-real y
    y = gauss(a, b)
    norm = a * a + b * b
    o = k * (norm // gcd(norm, a, b))
    ref = QQi(o) / QQi(a, b)
    assert ref.den == 1
    assert_is(o // y, pair(ref.num))


@given(numerators, numerators)
def test_gauss_equality_and_hash_agree_across_kinds(x, y):
    assert (x == y) == (pair(x) == pair(y))
    same = gauss(*pair(x))
    assert same == x and hash(same) == hash(x)
    if x == y:
        assert hash(x) == hash(y)


def test_gauss_comparison_with_a_non_number():
    z = gauss(1, 2)
    assert z.__eq__("1+2i") is NotImplemented
    assert z != "1+2i" and z != None and z != QQi(1, 2)


def test_content_is_the_gcd_of_every_part():
    grids = [
        (6, [[4, 10], [8, -2]]),
        (10, [[gauss(5, 15)], [0], [gauss(-10, 5)]]),
        (7, [[0, 0], [0, 0]]),
        (-9, [[3, gauss(6, -12)]]),
        (4, [[2, 3], [gauss(8, 4)]]),
        (1, [[gauss(2, 2)]]),
        (-5, []),
    ]
    for den, rows in grids:
        assert content(den, rows) == gcd(den, *(k for row in rows for n in row for k in pair(n)))


def test_content_stops_reading_at_one():
    class Unread:
        def __iter__(self):
            raise AssertionError("a row was read after the gcd reached 1")

    assert content(4, [[2, 3], Unread()]) == 1
    assert content(-1, Unread()) == 1
