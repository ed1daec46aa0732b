"""Temperley-Lieb diagrams, the Markov trace, the braid elements, the
conjugation action, and the spreadable projection sequence."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosimplex import braid, ncprob, tl
from cosimplex.scalars import ONE, ZERO, QQi, scalar
from cosimplex.simplicial import sco_verify
from cosimplex.tl import (
    Coeff,
    ParityError,
    TlDiagram,
    TlElement,
    TlParams,
    delta_power,
    e_element,
    g_element,
    g_inverse,
    markov_trace,
    spreadable_projection,
    tl_conjugation_action,
    tl_distribution,
    tl_one,
    tl_probability_sco,
    trace_of_product,
    trace_scalar,
)

Q2 = TlParams(scalar(2))
QI = TlParams(scalar(0, 1))
Q1 = TlParams(scalar(1))


def test_params_validation_and_unitarity():
    assert Q2.beta == scalar(2) + scalar(2) + scalar(1, 0) / scalar(2)
    assert QI.beta == scalar(2)
    assert Q1.beta == scalar(4)
    assert QI.unitary and Q1.unitary and not Q2.unitary
    with pytest.raises(ValueError):
        TlParams(scalar(0))
    with pytest.raises(ValueError):
        TlParams(scalar(-1))  # beta = 0


def test_diagram_encoding():
    ident = TlDiagram.identity(3)
    assert ident.match == (3, 4, 5, 0, 1, 2)
    e1 = TlDiagram.cup_cap(1, 3)
    assert e1.match == (1, 0, 5, 4, 3, 2)
    with pytest.raises(ValueError):
        TlDiagram((1, 0, 3))  # odd point count
    with pytest.raises(ValueError):
        TlDiagram((1, 0, 2, 3))  # fixed points / broken involution
    with pytest.raises(ValueError):
        TlDiagram((3, 2, 1, 0))  # crossing strands
    with pytest.raises(ValueError):
        TlDiagram.cup_cap(3, 3)


def test_delta_power_reduction():
    beta = Q2.beta
    assert delta_power(0, beta) == Coeff(ONE, ZERO)
    assert delta_power(2, beta) == Coeff(beta, ZERO)
    assert delta_power(3, beta) == Coeff(ZERO, beta)
    assert delta_power(-1, beta) == Coeff(ZERO, beta.inverse())
    assert delta_power(-2, beta) == Coeff(beta.inverse(), ZERO)


def test_e_relations():
    for params in (Q1, Q2, QI):
        m = 5
        beta_inv = Coeff(params.beta.inverse(), ZERO)
        e = {n: e_element(n, params, m) for n in range(1, m)}
        for n in range(1, m):
            assert e[n] * e[n] == e[n]
        assert e[1] * e[2] * e[1] == e[1].scale(beta_inv)
        assert e[2] * e[1] * e[2] == e[2].scale(beta_inv)
        assert e[1] * e[3] == e[3] * e[1]
        assert e[1] * e[4] == e[4] * e[1]


def test_g_inverse_and_hecke():
    for params in (Q1, Q2, QI):
        m = 4
        one = tl_one(params, m)
        for n in range(1, m):
            g, gi = g_element(n, params, m), g_inverse(n, params, m)
            assert g * gi == one and gi * g == one
            lhs = g * g
            rhs = g.scale(Coeff(params.q - ONE, ZERO)) + one.scale(
                Coeff(params.q, ZERO)
            )
            assert lhs == rhs


def test_g_braid_relations():
    for params in (Q2, QI):
        m = 4
        g = {n: g_element(n, params, m) for n in range(1, m)}
        assert g[1] * g[2] * g[1] == g[2] * g[1] * g[2]


def test_q_one_gives_involutions():
    m = 4
    one = tl_one(Q1, m)
    for n in range(1, m):
        g = g_element(n, Q1, m)
        assert g == e_element(n, Q1, m).scale(Coeff(scalar(2), ZERO)) - one
        assert g * g == one


def test_markov_trace_basics():
    for params in (Q2, QI):
        m = 5
        beta_inv = params.beta.inverse()
        assert markov_trace(tl_one(params, m)) == Coeff(ONE, ZERO)
        for n in range(1, m):
            assert markov_trace(e_element(n, params, m)) == Coeff(beta_inv, ZERO)
        e1, e2 = e_element(1, params, m), e_element(2, params, m)
        assert markov_trace(e1 * e2) == Coeff(beta_inv * beta_inv, ZERO)


def test_trace_is_tracial_on_samples():
    m = 5
    samples = [
        e_element(1, Q2, m),
        e_element(2, Q2, m) * e_element(3, Q2, m),
        g_element(1, Q2, m),
        g_element(3, Q2, m) * e_element(1, Q2, m),
    ]
    for x, y in itertools.product(samples, repeat=2):
        assert markov_trace(x * y) == markov_trace(y * x)


def test_markov_property():
    # tr(x e_n) = tr(x) / beta for x generated by e_1 .. e_{n-1}
    m = 6
    beta_inv = Coeff(Q2.beta.inverse(), ZERO)
    for n in range(2, m):
        low = [tl_one(Q2, m)] + [e_element(j, Q2, m) for j in range(1, n)]
        for x, y in itertools.product(low, repeat=2):
            prod = x * y
            lhs = markov_trace(prod * e_element(n, Q2, m))
            rhs = tl.coeff_mul(markov_trace(prod), beta_inv, Q2.beta)
            assert lhs == rhs


def test_trace_invariance_under_conjugation():
    m = 5
    for params in (Q2, QI):
        g, gi = g_element(1, params, m), g_inverse(1, params, m)
        e1 = e_element(1, params, m)
        assert markov_trace(g * e1 * gi) == markov_trace(e1)


def test_adjoint_properties():
    m = 4
    for params in (Q2, QI):
        e1, e2 = e_element(1, params, m), e_element(2, params, m)
        assert e1.adjoint() == e1
        assert (e1 * e2).adjoint() == e2.adjoint() * e1.adjoint()
        g = g_element(1, params, m)
        expect = e1.scale(Coeff(params.q.conj() + ONE, ZERO)) - tl_one(params, m)
        assert g.adjoint() == expect


def test_unitarity_dichotomy():
    m = 4
    one_i, one_2 = tl_one(QI, m), tl_one(Q2, m)
    for n in range(1, m):
        gi_el = g_element(n, QI, m)
        assert gi_el * gi_el.adjoint() == one_i
        g2 = g_element(n, Q2, m)
        assert g2 * g2.adjoint() != one_2


def test_trace_scalar_rejects_odd_delta_power():
    # the unnormalized cup-cap has trace delta^{-1}, which has no scalar value
    raw = TlElement(Q2, 4, {TlDiagram.cup_cap(1, 4): tl.coeff_one()})
    with pytest.raises(ParityError):
        trace_scalar(raw)


def test_moment_engine_rejects_odd_delta_power(monkeypatch):
    raw = TlElement(Q2, 4, {TlDiagram.cup_cap(1, 4): tl.coeff_one()})
    assert not trace_of_product(raw, tl_one(Q2, 4)).b.is_zero()
    # the moment engine reads the last letter of a word through trace_of_product
    monkeypatch.setattr(
        tl, "spreadable_projection", lambda m0, n, params, m: raw if n == 0 else tl_one(params, m)
    )
    d = tl_distribution(Q2, 4)
    with pytest.raises(ParityError):
        d.eval_word((ncprob.Factor(0, "e"),))
    with pytest.raises(ParityError):
        d.eval_word((ncprob.Factor(0, "e"), ncprob.Factor(1, "e")))


def test_spreadable_projection_values():
    m = 8
    assert spreadable_projection(1, 0, Q2, m) == e_element(1, Q2, m)
    e11 = spreadable_projection(1, 1, Q2, m)
    g2, gi2 = g_element(2, Q2, m), g_inverse(2, Q2, m)
    assert e11 == g2 * e_element(1, Q2, m) * gi2
    e12 = spreadable_projection(1, 2, Q2, m)
    assert e12 * e12 == e12
    with pytest.raises(ValueError):
        spreadable_projection(1, 7, Q2, m)


def test_spreadable_projection_not_self_adjoint_at_q_two():
    e11 = spreadable_projection(1, 1, Q2, 6)
    assert e11.adjoint() != e11
    e11i = spreadable_projection(1, 1, QI, 6)
    assert e11i.adjoint() == e11i


def test_spreadability_instance_at_q_two():
    m = 8
    e10 = spreadable_projection(1, 0, Q2, m)
    e11 = spreadable_projection(1, 1, Q2, m)
    e12 = spreadable_projection(1, 2, Q2, m)
    assert markov_trace(e10 * e11) == markov_trace(e10 * e12)


def test_conjugation_action_and_sco():
    action = tl_conjugation_action(Q2, 6)
    assert braid.verify_braid_relations(action).passed
    assert braid.level_of(e_element(1, Q2, 6), action) == 1
    s = braid.braid_sco_build(action, 2)
    assert sco_verify(s).passed


def test_tl_distribution_moments():
    d = tl_distribution(Q2, m=6)
    assert d.eval_word(()) == ONE
    beta_inv = Q2.beta.inverse()
    assert d.eval_word((ncprob.Factor(0, "e"),)) == beta_inv
    assert d.eval_word((ncprob.Factor(0, "e"), ncprob.Factor(0, "e"))) == beta_inv
    assert not d.star_mode
    di = tl_distribution(QI, m=6)
    assert di.star_mode
    with pytest.raises(ValueError):
        d.eval_word((ncprob.Factor(0, "x"),))
    with pytest.raises(ValueError):
        tl_distribution(Q2, m=2)


def test_tl_distribution_is_spreadable_small():
    d = tl_distribution(Q2, m=6)
    assert ncprob.spreadability_check(d, degree=2, pos_bound=2).passed


def test_tl_sequence_distribution_matches_direct_moments():
    ps = tl_probability_sco(Q2, n_max=2)
    seq = ncprob.sequence_distribution(ps)
    direct = tl_distribution(Q2, m=2 + 1 + 2)
    for w in ncprob.enumerate_words(("e",), degree=2, pos_bound=2, star=False):
        assert seq.eval_word(w) == direct.eval_word(w)


def test_tl_probability_sco_strand_bound():
    with pytest.raises(ValueError):
        tl_probability_sco(Q2, n_max=3, m=5)


# ---------------------------------------------------------------------------
# The integer coefficient kernel against a plain Coeff reference
# ---------------------------------------------------------------------------

PARAMS = [TlParams(q) for q in (
    scalar(2), scalar("1/2"), scalar(0, 1), scalar(1, 1), scalar("2/3", "-1/2")
)]


@functools.lru_cache(maxsize=None)
def all_diagrams(m):
    """Every TL diagram on m strands: the closure of the identity under the
    generators."""
    gens = [TlDiagram.cup_cap(n, m) for n in range(1, m)]
    seen = [TlDiagram.identity(m)]
    for d in seen:
        for g in gens:
            nd = tl.diagram_mul(d, g)[0]
            if nd not in seen:
                seen.append(nd)
    return tuple(seen)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
scalars_ = st.one_of(
    st.just(ZERO), st.builds(QQi, small_fractions), st.builds(QQi, small_fractions, small_fractions)
)
coeffs = st.builds(Coeff, scalars_, scalars_)


def terms(m):
    return st.dictionaries(st.sampled_from(all_diagrams(m)), coeffs, max_size=6)


cases = st.tuples(st.sampled_from(PARAMS), st.integers(min_value=2, max_value=5)).flatmap(
    lambda pm: st.tuples(st.just(pm[0]), st.just(pm[1]), terms(pm[1]), terms(pm[1]), coeffs)
)


def ref_add(x, y):
    out = dict(x)
    for d, c in y.items():
        out[d] = tl.coeff_add(out.get(d, tl.coeff_zero()), c)
    return {d: c for d, c in out.items() if not c.is_zero()}


def ref_neg(x):
    return {d: Coeff(-c.a, -c.b) for d, c in x.items()}


def ref_scale(x, c, beta):
    return {d: v for d, v in ((d, tl.coeff_mul(a, c, beta)) for d, a in x.items()) if not v.is_zero()}


def ref_mul(x, y, beta):
    out = {}
    for d1, c1 in x.items():
        for d2, c2 in y.items():
            d, loops = tl.diagram_mul(d1, d2)
            c = tl.coeff_mul(tl.coeff_mul(c1, c2, beta), delta_power(loops, beta), beta)
            out[d] = tl.coeff_add(out.get(d, tl.coeff_zero()), c)
    return {d: c for d, c in out.items() if not c.is_zero()}


def ref_adjoint(x):
    return {d.flip(): Coeff(c.a.conj(), c.b.conj()) for d, c in x.items()}


def ref_trace(x, m, beta):
    out = tl.coeff_zero()
    for d, c in x.items():
        out = tl.coeff_add(out, tl.coeff_mul(c, delta_power(tl.closure_loops(d) - m, beta), beta))
    return out


def nonzero(x):
    return {d: c for d, c in x.items() if not c.is_zero()}


@settings(max_examples=150, deadline=None)
@given(cases)
def test_kernel_arithmetic_matches_reference(case):
    params, m, xt, yt, c = case
    beta = params.beta
    x, y = TlElement(params, m, xt), TlElement(params, m, yt)
    xt, yt = nonzero(xt), nonzero(yt)
    assert x.coefficients() == xt and len(x.terms) == len(xt)
    assert (x * y).coefficients() == ref_mul(xt, yt, beta)
    assert (x + y).coefficients() == ref_add(xt, yt)
    assert (x - y).coefficients() == ref_add(xt, ref_neg(yt))
    assert (-x).coefficients() == ref_neg(xt)
    assert x.scale(c).coefficients() == ref_scale(xt, c, beta)
    assert x.adjoint().coefficients() == ref_adjoint(xt)
    assert markov_trace(x) == ref_trace(xt, m, beta)


@settings(max_examples=100, deadline=None)
@given(cases)
def test_equal_elements_have_one_form(case):
    params, m, xt, yt, c = case
    x, y = TlElement(params, m, xt), TlElement(params, m, yt)
    k = Coeff(scalar(6, 2), ZERO)
    k_inv = Coeff(scalar(6, 2).inverse(), ZERO)
    for other in ((x + y) - y, x.scale(k).scale(k_inv), TlElement(params, m, x.coefficients())):
        assert other == x and hash(other) == hash(x)
        assert (other.den, other.terms, other.real) == (x.den, x.terms, x.real)
    assert x.real == all(c.a.im == 0 and c.b.im == 0 for c in x.coefficients().values())


@settings(max_examples=100, deadline=None)
@given(cases)
def test_fused_trace_matches_the_trace_of_the_product(case):
    params, m, xt, yt, _ = case
    x, y = TlElement(params, m, xt), TlElement(params, m, yt)
    assert trace_of_product(x, y) == markov_trace(x * y)


def test_trace_exponent_counts_the_closed_stack():
    for m in range(1, 6):
        for d1, d2 in itertools.product(all_diagrams(m), repeat=2):
            d, loops = tl.diagram_mul(d1, d2)
            assert tl.trace_exponent(d1, d2) == loops + tl.closure_loops(d) - m


# ---------------------------------------------------------------------------
# The moment engine against plain products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params, star", [(Q2, False), (Q2, True), (QI, False)])
def test_moments_equal_the_trace_of_the_plain_product(params, star):
    """Spreadability cannot see an error that scales every moment of length
    >= 2 alike, so the prefix products and the fused trace are checked
    against the trace of the left-to-right product."""
    m = 8
    d = tl_distribution(params, m)
    projections = {}
    for pos, s in itertools.product(range(5), (False, True) if star else (False,)):
        x = spreadable_projection(1, pos, params, m)
        projections[pos, s] = x.adjoint() if s else x
    products = {}  # left-to-right products of the word prefixes

    def product(w):
        if w not in products:
            last = projections[w[-1].pos, w[-1].star]
            products[w] = last if len(w) == 1 else product(w[:-1]) * last
        return products[w]

    for w in ncprob.enumerate_words(("e",), degree=3, pos_bound=4, star=star):
        if star and not any(f.star for f in w):
            continue  # covered by the unstarred case
        assert d.eval_word(w) == trace_scalar(product(w)), w
