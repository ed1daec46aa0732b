"""Temperley-Lieb diagrams, the Markov trace, the braid elements, the
conjugation action, and the spreadable projection sequence."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosimplex import braid, ncprob, tl
from cosimplex.scalars import ONE, ZERO, QQi, from_numerator, scalar
from cosimplex.simplicial import sco_verify
from cosimplex.tl import (
    Coeff,
    ParityError,
    TlDiagram,
    TlElement,
    TlParams,
    e_element,
    g_element,
    g_inverse,
    markov_trace,
    product_by_rows,
    spreadable_projection,
    tl_conjugation_action,
    tl_distribution,
    tl_one,
    tl_probability_sco,
    trace_of_product,
    trace_scalar,
)
from tl_reference import coeff_add, coeff_mul, coeff_one, coeff_zero, delta_power

Q2 = TlParams(scalar(2))
QI = TlParams(scalar(0, 1))
Q1 = TlParams(scalar(1))
# not unitary, with Gaussian-integer numerators and a complex beta
QZ = TlParams(scalar("2/3", "-1/2"))


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


def _planar_diagrams(m):
    """Every diagram on m strands, found by passing every perfect matching of
    the 2m points to the validating constructor."""

    def matchings(points):
        if not points:
            yield {}
            return
        p, rest = points[0], points[1:]
        for i, q in enumerate(rest):
            for match in matchings(rest[:i] + rest[i + 1:]):
                yield {p: q, q: p, **match}

    out = []
    for match in matchings(tuple(range(2 * m))):
        try:
            out.append(TlDiagram(tuple(match[p] for p in range(2 * m))))
        except ValueError:
            pass
    return out


@functools.lru_cache(maxsize=None)
def glued_product(top, bot):
    """(match, loops) of top * bot by union-find over the 4m points of the
    stack: top's points p, bot's points 2m + p, and top's bottom point m + i
    glued to bot's top point 2m + i."""
    m = top.strands
    parent = list(range(4 * m))

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    def union(p, q):
        parent[find(p)] = find(q)

    for p in range(2 * m):
        union(p, top.match[p])
        union(2 * m + p, 2 * m + bot.match[p])
    for i in range(m):
        union(m + i, 2 * m + i)
    # the result's points: top's top row, then bot's bottom row
    boundary = [*range(m), *range(3 * m, 4 * m)]
    match = tuple(
        next(j for j, q in enumerate(boundary) if q != p and find(q) == find(p))
        for p in boundary
    )
    loops = len({find(p) for p in range(4 * m)} - {find(p) for p in boundary})
    return match, loops


def ref_flip(d):
    """d reflected top-to-bottom: top point p and bottom point m + p swap."""
    m = d.strands
    swap = lambda p: p + m if p < m else p - m
    return TlDiagram(tuple(swap(d.match[swap(p)]) for p in range(2 * m)))


def ref_closure_components(d):
    """Loops of the trace closure of d, which joins top i to bottom m + i:
    the components of the graph on the 2m points with both sets of edges."""
    m = d.strands
    parent = list(range(2 * m))

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for p in range(2 * m):
        parent[find(p)] = find(d.match[p])
    for i in range(m):
        parent[find(i)] = find(m + i)
    return len({find(p) for p in range(2 * m)})


def ids(diagrams):
    return [tl.diagram_id(d.match) for d in diagrams]


@pytest.mark.parametrize("m", range(1, 7))
def test_diagram_mul_matches_a_union_find_gluing(m):
    diagrams = _planar_diagrams(m)
    assert len(diagrams) == (1, 2, 5, 14, 42, 132)[m - 1]  # the Catalan numbers
    for top, bot in itertools.product(diagrams, repeat=2):
        i, j = ids((top, bot))
        product, loops = tl.diagram_mul.__wrapped__(i, j)
        assert (tl.MATCHES[product], loops) == glued_product(top, bot)


@pytest.mark.parametrize("m", range(1, 7))
def test_products_and_flips_are_diagrams_the_validating_constructor_accepts(m):
    # products and flips intern their matchings without the constructor's
    # checks, as they are planar by construction; each must be a matching
    # the validating constructor accepts, under the id of that diagram
    diagrams = _planar_diagrams(m)
    assert len(diagrams) == (1, 2, 5, 14, 42, 132)[m - 1]  # the Catalan numbers
    for i, j in itertools.product(ids(diagrams), repeat=2):
        product, _ = tl.diagram_mul.__wrapped__(i, j)
        validated = TlDiagram(tl.MATCHES[product])
        assert tl.diagram_id(validated.match) == product
        assert type(tl.MATCHES[product]) is tuple
    for d, i in zip(diagrams, ids(diagrams)):
        flipped = tl.flip(i)
        assert TlDiagram(tl.MATCHES[flipped]) == ref_flip(d)
        assert tl.flip(flipped) == i


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


@pytest.mark.parametrize(
    "m, named", [(3, "e_1..e_2, g_1..g_2"), (5, "e_1, e_2 e_3, g_1, g_3 e_1")]
)
def test_the_relation_report_is_sampled_and_names_its_traciality_sample(m, named):
    # traciality covers only the pairs of a few elements, so the report
    # says it is sampled; the CLI prints neither the mode nor the note
    rep = tl.relation_report(Q2, m)
    assert (rep.status, rep.mode) == ("pass", "sampled")
    assert rep.notes == (f"traciality checked on the pairs of {named}",)


def test_markov_property():
    # tr(x e_n) = tr(x) / beta for x generated by e_1 .. e_{n-1}
    m = 6
    beta_inv = Coeff(Q2.beta.inverse(), ZERO)
    for n in range(2, m):
        low = [tl_one(Q2, m)] + [e_element(j, Q2, m) for j in range(1, n)]
        for x, y in itertools.product(low, repeat=2):
            prod = x * y
            lhs = markov_trace(prod * e_element(n, Q2, m))
            rhs = coeff_mul(markov_trace(prod), beta_inv, Q2.beta)
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


def test_an_element_takes_diagrams_on_its_own_strand_count_only():
    # a 3-strand identity counted against 4 strands would trace to 1/delta,
    # and its fused trace and products with 4-strand elements would run on
    with pytest.raises(ValueError, match="a diagram on 3 strands in an element on 4"):
        TlElement(Q2, 4, {TlDiagram.identity(3): coeff_one()})
    one3, one4 = tl_one(Q2, 3), tl_one(Q2, 4)
    assert markov_trace(one3) == markov_trace(one4) == coeff_one()
    assert trace_of_product(one4, one4) == markov_trace(one4 * one4) == coeff_one()
    with pytest.raises(ValueError, match="strand count"):
        one3 * one4
    with pytest.raises(ValueError, match="strand count"):
        trace_of_product(one3, one4)
    # the kernel checks the strand counts of the ids it multiplies
    three, four = ids((TlDiagram.identity(3), TlDiagram.identity(4)))
    for top, bot in ((three, four), (four, three)):
        with pytest.raises(ValueError, match="strand count mismatch"):
            tl.diagram_mul.__wrapped__(top, bot)


def test_trace_scalar_rejects_odd_delta_power():
    # the unnormalized cup-cap has trace delta^{-1}, which has no scalar value
    raw = TlElement(Q2, 4, {TlDiagram.cup_cap(1, 4): coeff_one()})
    with pytest.raises(ParityError):
        trace_scalar(raw)


def test_moment_engine_rejects_odd_delta_power(monkeypatch):
    raw = TlElement(Q2, 4, {TlDiagram.cup_cap(1, 4): coeff_one()})
    assert not trace_of_product(raw, tl_one(Q2, 4)).b.is_zero()
    # the moment engine traces a one-letter word with markov_trace and reads
    # the last letter of a longer word through trace_of_product
    monkeypatch.setattr(
        tl, "spreadable_projection", lambda m0, params, m: lambda n: raw if n == 0 else tl_one(params, m)
    )
    d = tl_distribution(Q2, 4)
    with pytest.raises(ParityError):
        d.eval_word((ncprob.Factor(0, "e"),))
    with pytest.raises(ParityError):
        d.eval_word((ncprob.Factor(0, "e"), ncprob.Factor(1, "e")))


def test_spreadable_projection_values():
    m = 8
    e = spreadable_projection(1, Q2, m)
    assert e(0) == e_element(1, Q2, m)
    g2, gi2 = g_element(2, Q2, m), g_inverse(2, Q2, m)
    assert e(1) == g2 * e_element(1, Q2, m) * gi2
    assert e(2) * e(2) == e(2)
    # a term read out of order equals the same term of a fresh chain
    assert spreadable_projection(1, Q2, m)(4) == e(4) == g_element(5, Q2, m) * e(3) * g_inverse(5, Q2, m)
    for n in (-1, 7):
        with pytest.raises(ValueError, match="need 1 <= m0 and m0 \\+ N <= 7"):
            e(n)
    with pytest.raises(ValueError, match="need 1 <= m0"):
        spreadable_projection(0, Q2, m)(0)


def test_spreadable_projection_not_self_adjoint_at_q_two():
    e11 = spreadable_projection(1, Q2, 6)(1)
    assert e11.adjoint() != e11
    e11i = spreadable_projection(1, QI, 6)(1)
    assert e11i.adjoint() == e11i


def test_spreadability_instance_at_q_two():
    e = spreadable_projection(1, Q2, 8)
    assert markov_trace(e(0) * e(1)) == markov_trace(e(0) * e(2))


def test_conjugation_action_and_sco():
    with pytest.raises(ValueError, match="no generator acts on 1 strands with offset 0: need m >= 2"):
        tl_conjugation_action(Q2, 1)
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
    scalar(2), scalar("1/2"), scalar(0, 1), scalar(1, 1), scalar("2/3", "-1/2"),
    scalar(-2),  # beta = -1/2
    scalar("-3/5", "-4/5"),  # unitary, beta = 4/5
)]


@pytest.mark.parametrize("params", PARAMS)
def test_the_integer_delta_rule_equals_the_repeated_product(params):
    beta = params.beta
    step = {1: Coeff(ZERO, ONE), -1: Coeff(ZERO, beta.inverse())}
    powers = {}
    for p in range(-9, 10):
        product = coeff_one()
        for _ in range(abs(p)):
            product = coeff_mul(product, step[1 if p > 0 else -1], beta)
        assert delta_power(p, beta) == product
        powers[p] = product
    # every window of exponents, each power over the window's one denominator
    for lo, hi in itertools.combinations_with_replacement(range(-9, 10), 2):
        den, factors = tl._delta_factors(beta, lo, hi)
        assert type(den) is int and den > 0 and len(factors) == hi // 2 - lo // 2 + 1
        for p in range(lo, hi + 1):
            z = from_numerator(factors[p // 2 - lo // 2], den)
            assert powers[p] == (Coeff(ZERO, z) if p % 2 else Coeff(z, ZERO))


@functools.lru_cache(maxsize=None)
def all_diagrams(m):
    """Every TL diagram on m strands: the closure of the identity under the
    generators."""
    gens = [TlDiagram.cup_cap(n, m) for n in range(1, m)]
    seen = [TlDiagram.identity(m)]
    for d in seen:
        for g in gens:
            nd = TlDiagram(glued_product(d, g)[0])
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
        out[d] = coeff_add(out.get(d, coeff_zero()), c)
    return {d: c for d, c in out.items() if not c.is_zero()}


def ref_neg(x):
    return {d: Coeff(-c.a, -c.b) for d, c in x.items()}


def ref_scale(x, c, beta):
    return {d: v for d, v in ((d, coeff_mul(a, c, beta)) for d, a in x.items()) if not v.is_zero()}


def ref_mul(x, y, beta):
    out = {}
    for d1, c1 in x.items():
        for d2, c2 in y.items():
            match, loops = glued_product(d1, d2)
            d = TlDiagram(match)
            c = coeff_mul(coeff_mul(c1, c2, beta), delta_power(loops, beta), beta)
            out[d] = coeff_add(out.get(d, coeff_zero()), c)
    return {d: c for d, c in out.items() if not c.is_zero()}


def ref_adjoint(x):
    return {ref_flip(d): Coeff(c.a.conj(), c.b.conj()) for d, c in x.items()}


def ref_trace(x, m, beta):
    out = coeff_zero()
    for d, c in x.items():
        loop_factor = delta_power(ref_closure_components(d) - m, beta)
        out = coeff_add(out, coeff_mul(c, loop_factor, beta))
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
    assert x.coefficients() == xt
    assert {tl.MATCHES[d] for d, _ in x.terms} == {d.match for d in xt}
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
        assert (other.den, other.terms) == (x.den, x.terms)
    for n in x.terms.values():
        assert n != 0 and (type(n) is int) == (n.imag == 0)


@settings(max_examples=100, deadline=None)
@given(cases)
def test_fused_trace_matches_the_trace_of_the_product(case):
    params, m, xt, yt, _ = case
    x, y = TlElement(params, m, xt), TlElement(params, m, yt)
    assert product_by_rows(x, y) == x * y
    assert trace_of_product(x, y) == markov_trace(x * y)


def noncrossing_diagrams(m):
    """Every diagram on m strands, built as the non-crossing pairings of the
    2m points in their order around the disk."""
    order = [*range(m), *range(2 * m - 1, m - 1, -1)]

    def pairings(points):
        if not points:
            yield ()
            return
        for k in range(1, len(points), 2):
            for inner in pairings(points[1:k]):
                for outer in pairings(points[k + 1:]):
                    yield ((points[0], points[k]), *inner, *outer)

    for pairs in pairings(order):
        match = [0] * (2 * m)
        for p, q in pairs:
            match[p], match[q] = q, p
        yield TlDiagram(tuple(match))


@pytest.mark.parametrize("params", PARAMS)
def test_markov_trace_of_single_diagrams_on_six_to_nine_strands(params):
    # a closure with one loop traces to delta^(1 - m), down to delta^-8 at m 9
    c = Coeff(scalar(2, 1), scalar(-1, 3))
    for m in range(6, 10):
        diagrams = list(noncrossing_diagrams(m))
        assert len(diagrams) == {6: 132, 7: 429, 8: 1430, 9: 4862}[m]  # Catalan
        assert min(map(ref_closure_components, diagrams)) == 1
        for d in diagrams:
            assert markov_trace(TlElement(params, m, {d: c})) == ref_trace({d: c}, m, params.beta)


def test_trace_exponent_counts_the_closed_stack():
    for m in range(1, 7):
        diagrams = all_diagrams(m)
        for d, i in zip(diagrams, ids(diagrams)):
            assert tl._closure.__wrapped__(i) + m == ref_closure_components(d)
        # the trace of a stack: the loops of the product plus its closure
        for d1, d2 in itertools.product(diagrams, repeat=2):
            match, loops = glued_product(d1, d2)
            exponent = loops + ref_closure_components(TlDiagram(match)) - m
            d, product_loops = tl.diagram_mul.__wrapped__(*ids((d1, d2)))
            assert product_loops + tl._closure.__wrapped__(d) == exponent


# Recorded reprs; the delta coefficient is printed in parentheses,
# so neither its sign nor an imaginary unit runs into the `d`.
RECORDED_REPRS = [
    (
        lambda: g_element(1, PARAMS[4], 3),
        "(0+(49/109-18/109*i)d)*(1, 0, 5, 4, 3, 2) + (-1+(0)d)*(3, 4, 5, 0, 1, 2)",
    ),
    (
        lambda: spreadable_projection(1, Q2, 3)(1),
        "(-1/3+(0)d)*(1, 0, 3, 2, 5, 4) + (0+(2/9)d)*(1, 0, 5, 4, 3, 2)"
        " + (0+(2/9)d)*(3, 2, 1, 0, 5, 4) + (-2/3+(0)d)*(5, 2, 1, 4, 3, 0)",
    ),
    (
        lambda: e_element(1, PARAMS[4], 3) * e_element(2, PARAMS[4], 3),
        "(3264/11881-198/11881*i+(0)d)*(1, 0, 3, 2, 5, 4)",
    ),
    (lambda: -e_element(1, Q2, 3), "(0+(-2/9)d)*(1, 0, 5, 4, 3, 2)"),
]


@pytest.mark.parametrize("m", range(1, 6))
def test_interning_gives_each_matching_one_id(m):
    # one id per matching, whether the matching comes from the constructor,
    # cup_cap, a product or a flip
    diagrams = all_diagrams(m)
    for d, i in zip(diagrams, ids(diagrams)):
        assert tl.MATCHES[i] == d.match and tl.diagram_id(tuple(list(d.match))) == i
        assert set(TlElement(Q2, m, {TlDiagram(d.match): coeff_one()}).terms) == {(i, 0)}
        assert tl.flip(i) == tl.diagram_id(ref_flip(d).match)
    for n in range(1, m):
        assert set(e_element(n, Q2, m).terms) == {(tl.diagram_id(TlDiagram.cup_cap(n, m).match), 1)}
    for d1, d2 in itertools.product(diagrams, repeat=2):
        product, _ = tl.diagram_mul(*ids((d1, d2)))
        assert product == tl.diagram_id(glued_product(d1, d2)[0])
    assert len(set(tl.MATCHES)) == len(tl.MATCHES)
    assert all(tl.diagram_id(match) == i for i, match in enumerate(tl.MATCHES))


@pytest.mark.parametrize("m", range(1, 8))
def test_a_diagram_is_its_two_halves(monkeypatch, m):
    # a half lists each point's partner in its row, -1 for a through strand
    diagrams = all_diagrams(m)
    splits = [tl.SPLITS[i] for i in ids(diagrams)]
    for d, (top, bottom) in zip(diagrams, splits):
        rows = d.match[:m], [q - m for q in d.match[m:]]
        assert tl.HALVES[top] == tuple(q if 0 <= q < m else -1 for q in rows[0])
        assert tl.HALVES[bottom] == tuple(q if 0 <= q < m else -1 for q in rows[1])
    # rebuilt from its halves alone, in empty tables, each matching comes back
    with monkeypatch.context() as patched:
        patched.setattr(tl, "MATCHES", [])
        patched.setattr(tl, "SPLITS", [])
        rebuilt = [tl.MATCHES[tl._joined.__wrapped__(*split)] for split in splits]
    assert rebuilt == [d.match for d in diagrams]
    # and so does its id, through the halves or the matching
    for d, i, split in zip(diagrams, ids(diagrams), splits):
        assert tl._joined(*split) == tl.diagram_id(tuple(list(d.match))) == i


def test_elements_round_trip_through_their_coefficients():
    for params in PARAMS:
        for x in (
            spreadable_projection(1, params, 6)(2),
            spreadable_projection(1, params, 6)(2).adjoint(),
            g_element(2, params, 4) * g_inverse(1, params, 4),
        ):
            y = TlElement(params, x.strands, x.coefficients())
            assert y == x and hash(y) == hash(x) and (y.den, y.terms) == (x.den, x.terms)
    for build, recorded in RECORDED_REPRS:
        assert repr(build()) == recorded


# ---------------------------------------------------------------------------
# The moment engine against plain products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "params, star", [(Q2, False), (Q2, True), (QI, False), (QZ, False), (QZ, True)]
)
def test_moments_equal_the_trace_of_the_plain_product(params, star):
    """Spreadability cannot see an error that scales every moment of length
    >= 2 alike, so the prefix products and the fused trace are checked
    against the trace of the left-to-right product."""
    m = 8
    d = tl_distribution(params, m)
    e, projections = spreadable_projection(1, params, m), {}
    for pos, s in itertools.product(range(5), (False, True) if star else (False,)):
        projections[pos, s] = e(pos).adjoint() if s else e(pos)
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


@pytest.mark.parametrize("params", PARAMS)
def test_the_incremental_form_folds_to_the_trace_of_the_plain_product(params):
    """The form's state is the product of the prefix: its fold on every
    word equals the trace of the left-to-right product of the projections,
    `eval_word` of a fresh model equals the fold, and at unitary q a
    starred letter steps to the element its plain letter steps to."""
    m, star = 6, params.unitary
    start, step, value = tl_distribution(params, m).incremental
    fresh = tl_distribution(params, m)
    e = spreadable_projection(1, params, m)
    states, products = {(): start}, {}  # by word prefix

    def product(w):
        if w not in products:
            last = e(w[-1].pos).adjoint() if w[-1].star else e(w[-1].pos)
            products[w] = last if len(w) == 1 else product(w[:-1]) * last
        return products[w]

    for w in ncprob.enumerate_words(("e",), degree=3, pos_bound=3, star=star):
        prefix, last = w[:-1], w[-1]
        folded = value(states[prefix], last)
        assert folded == trace_scalar(product(w)), w
        assert fresh.eval_word(w) == folded, w
        states[w] = step(states[prefix], last)
        if last.star:
            assert states[w] == step(states[prefix], last._replace(star=False)), w


@pytest.mark.parametrize("params", PARAMS)
def test_one_right_factor_serves_many_left_factors_in_turn(params):
    """A right factor keeps one row per left term (diagram, power of delta)
    it has met, which holds both the product and its trace, and one
    half-row per bottom half of those terms, keyed by the half's id; every
    left factor reads it cold and then warm, and both readers agree with
    the plain product."""
    m = 6
    both = TlElement(params, m, {  # one diagram on 1 and on delta
        TlDiagram.cup_cap(2, m): Coeff(scalar(1, 2), scalar("-3/4")),
        TlDiagram.identity(m): Coeff(ZERO, scalar(5)),
    })
    lefts = [
        tl_one(params, m),
        both,
        e_element(1, params, m),
        g_element(2, params, m) * e_element(4, params, m),
        spreadable_projection(1, params, m)(3),
        spreadable_projection(2, params, m)(2).adjoint(),
    ]
    rights = [
        spreadable_projection(1, params, m)(2),
        e_element(3, params, m),  # one term, on delta (s = 1)
        g_inverse(2, params, m) * e_element(1, params, m),
    ]
    assert {s for y in rights for _, s in y.terms} == {0, 1}
    assert {s for d, s in both.terms if d == tl.diagram_id(TlDiagram.cup_cap(2, m).match)} == {0, 1}
    for y in rights:
        for _ in range(2):
            for x in (*lefts, y):
                assert product_by_rows(x, y) == x * y
                assert trace_of_product(x, y) == markov_trace(x * y)
        keys = {k for x in (*lefts, y) for k in x.terms}
        assert set(y.rows) == keys | {tl.SPLITS[d][1] for d, _ in keys}


def _annihilated(n, params, m):
    """delta (1 - e_n) = delta - E_n. Under a bottom half that caps the
    points n - 1 and n, its identity term on delta and its E_n term on 1,
    which closes one loop, fall on one half-row entry whose numerators
    cancel."""
    return TlElement(params, m, {
        TlDiagram.identity(m): Coeff(ZERO, ONE), TlDiagram.cup_cap(n, m): Coeff(-ONE, ZERO)
    })


@pytest.mark.parametrize("params", PARAMS)
def test_rows_built_from_half_rows_equal_the_plain_product(params):
    """A row is built from the half-row of its left term's bottom half, so
    the left factors include one whose terms share a bottom half under
    different upper halves, on 1 and on delta, and the right factors one
    whose half-row numerators cancel. Each left factor reads each right
    factor cold and then warm."""
    for m in range(4, 9):
        zero = TlElement(params, m)
        halves = [tl.SPLITS[tl.diagram_id(TlDiagram.cup_cap(n, m).match)] for n in range(1, m)]
        shared = TlElement(params, m, {  # E_n's upper half on E_1's bottom half
            TlDiagram(tl.MATCHES[tl._joined(top, halves[0][1])]): Coeff(scalar(n), scalar(1, -n))
            for n, (top, _) in enumerate(halves, 1)
        })
        assert len({tl.SPLITS[d][0] for d, _ in shared.terms}) == m - 1
        assert {tl.SPLITS[d][1] for d, _ in shared.terms} == {halves[0][1]}
        e = spreadable_projection(1, params, m)
        lefts = [
            *(e(n) for n in range(min(4, m - 1))),
            g_element(m // 2, params, m),
            g_element(m - 2, params, m) * e(1),
            shared,
        ]
        f = spreadable_projection(1, params, m)
        rights = [f(1), f(2), _annihilated(1, params, m), _annihilated(m - 1, params, m) + f(2)]
        assert shared * rights[2] == zero and e(0) * rights[2] == zero
        for y in rights:
            assert y.rows is None
            for _ in range(2):
                for x in lefts:
                    assert product_by_rows(x, y) == x * y
                    assert trace_of_product(x, y) == markov_trace(x * y)


def test_a_filled_row_cache_leaves_the_element_unchanged():
    y = spreadable_projection(1, QZ, 6)(2)
    text, key = repr(y), hash(y)
    twin = TlElement(QZ, 6, y.coefficients())
    assert y.rows is None and twin.rows is None
    trace_of_product(g_element(3, QZ, 6), y)
    assert y.rows and twin.rows is None
    assert y == twin and twin == y and hash(y) == hash(twin) == key
    assert repr(y) == repr(twin) == text


@pytest.mark.parametrize("params", PARAMS)
def test_equal_elements_built_by_different_routes_hash_equal(params):
    # the hash is kept in a slot on first use; the constructor, the products
    # and the sums build the same canonical form, so each route hashes alike
    m = 5
    x = g_element(2, params, m) * g_inverse(2, params, m) * e_element(1, params, m)
    routes = (
        e_element(1, params, m),
        TlElement(params, m, x.coefficients()),
        (x + tl_one(params, m)) - tl_one(params, m),
        -(-x),
        x.adjoint().adjoint(),
    )
    assert x._hash is None
    key = hash(x)
    assert x._hash == key == hash(x)
    for y in routes:
        assert y._hash is None
        assert y == x and x == y and hash(y) == key
        assert repr(y) == repr(x)
    assert hash(x * x) == hash(TlElement(params, m, (x * x).coefficients()))
