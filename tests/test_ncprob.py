"""Moment words, distributions, the spreadability check, the moment-word
cofaces, and the tensor model with its SCO realization."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosimplex import ncprob
from cosimplex.ncprob import (
    Factor,
    broken_table,
    enumerate_words,
    free_coface,
    reindex_word,
    sequence_distribution,
    spreadability_check,
    star_positivity_check,
    star_spreadability_mode,
    star_word,
    subsequence_witness,
    table_distribution,
    tensor_model,
    tensor_sco,
    verify_functional_invariance,
)
from cosimplex.reports import VerificationError
from cosimplex.scalars import ONE, ZERO, QQi, scalar
from cosimplex.simplicial import nat_partial_shift
from cosimplex.tl import TlParams, tl_distribution
from conftest import reference_spreadability

W13, W23 = scalar(Fraction(1, 3)), scalar(Fraction(2, 3))
Q2, QI = TlParams(scalar(2)), TlParams(scalar(0, 1))


def tensor_d():
    return tensor_model(2, [Fraction(1, 3), Fraction(2, 3)])


def test_tensor_model_single_factor():
    d = tensor_d()
    assert d.eval_word((Factor(0, (0, 0)),)) == W13
    assert d.eval_word((Factor(0, (1, 1)),)) == W23
    assert d.eval_word((Factor(0, (0, 1)),)) == ZERO


def test_tensor_model_groups_by_position():
    # eval((0,a)(1,b)(0,c)) = phi(ac) * phi(b): the two legs commute
    d = tensor_d()
    w = (Factor(0, (0, 1)), Factor(1, (1, 1)), Factor(0, (1, 0)))
    assert d.eval_word(w) == W13 * W23


def test_tensor_model_empty_word_is_one():
    assert tensor_d().eval_word(()) == ONE


def test_tensor_model_star_transposes_units():
    d = tensor_d()
    assert d.eval_word((Factor(0, (0, 1), star=True), Factor(0, (0, 1)))) == W23


def _product_of_weights(weights, w):
    """The tensor-model moment from its definition: over the positions of w,
    the product of the state of the ordered product of the units there."""
    units = {}
    for pos, (i, j), star in w:
        if star:
            i, j = j, i
        if pos not in units:
            units[pos] = (i, j)
        elif units[pos][1] == i:
            units[pos] = (units[pos][0], j)
        else:
            return 0
    out = 1
    for i, j in units.values():
        if i != j:
            return 0
        out *= weights[i]
    return out


def _form_moments(d, degree, positions, star):
    """(word, moment) for every word of degree <= `degree` with positions <=
    `positions`, in enumerate_words order, read through the model's
    incremental form: the value of each word on the state of its prefix,
    each prefix state stepped once from its own prefix's."""
    start, step, value = d.incremental
    factors = [f for w in enumerate_words(d.alphabet, 1, positions, star) for f in w]
    level = [((), start)]
    for length in range(1, degree + 1):
        for prefix, state in level:
            for f in factors:
                yield prefix + (f,), value(state, f)
        if length < degree:
            level = [(prefix + (f,), step(state, f)) for prefix, state in level for f in factors]


# Every word of the given degree with positions <= 2, and <= 4, where the
# image states of the default request reach. With star, dim 3 stops at
# degree 3: degree 4 has 8.5 million words.
@pytest.mark.parametrize(
    "weights, star, degree, positions",
    [
        pytest.param((Fraction(1, 3), Fraction(2, 3)), False, 4, 2, id="weights0-False-4"),
        pytest.param((Fraction(1, 3), Fraction(2, 3)), True, 4, 2, id="weights1-True-4"),
        pytest.param(
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)), False, 4, 2, id="weights2-False-4"
        ),
        pytest.param(
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)), True, 3, 2, id="weights3-True-3"
        ),
        pytest.param((Fraction(1, 3), Fraction(2, 3)), True, 3, 4, id="weights4-True-3-positions4"),
        pytest.param(
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)), True, 2, 4,
            id="weights5-True-2-positions4",
        ),
    ],
)
def test_tensor_model_matches_the_product_of_weights(weights, star, degree, positions):
    d = tensor_model(len(weights), weights)
    words = enumerate_words(d.alphabet, degree, positions, star)
    for w, (v, form) in zip(words, _form_moments(d, degree, positions, star), strict=True):
        assert v == w
        val = d.eval_word(w)
        assert val.re == _product_of_weights(weights, w) and val.im == 0, w
        assert form == val, w


def test_tensor_models_keep_separate_moment_caches():
    a = tensor_model(2, [Fraction(1, 3), Fraction(2, 3)])
    b = tensor_model(2, [Fraction(1, 4), Fraction(3, 4)])
    # exponent vector (2, 1) in both models
    w = (Factor(0, (0, 0)), Factor(1, (1, 1)), Factor(2, (0, 1)), Factor(2, (1, 0)))
    for _ in range(2):
        assert a.eval_word(w) == scalar(Fraction(2, 27))
        assert b.eval_word(w) == scalar(Fraction(3, 64))


def test_tensor_model_rejects_bad_weights():
    with pytest.raises(ValueError):
        tensor_model(2, [Fraction(1, 2)])
    with pytest.raises(ValueError):
        tensor_model(2, [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        tensor_model(2, [Fraction(3, 2), Fraction(-1, 2)])


def test_tensor_model_is_spreadable():
    rep = spreadability_check(tensor_d(), degree=2, pos_bound=2)
    assert rep.passed
    assert any("degree<=2" in note for note in rep.notes)


def test_tensor_model_is_star_spreadable():
    d = star_spreadability_mode(tensor_d())
    assert spreadability_check(d, degree=2, pos_bound=2, star=True).passed


def test_broken_table_fails_with_witness():
    d = broken_table()
    rep = spreadability_check(d, degree=2, pos_bound=2)
    assert not rep.passed
    # three skips of each word of length 1 and of b_0 b_0, then two of b_0 b_1
    assert rep.checked_count == 3 * 3 + 3 + 2
    w = rep.witness
    assert w.data["word"] == (Factor(0, "b"), Factor(1, "b"))
    assert w.data["reindexing"] == "skip position 1"
    assert w.data["lhs"] == ONE
    assert w.data["rhs"] == ZERO
    # words of length 3 come after every word of length 2
    deeper = spreadability_check(d, degree=3, pos_bound=2)
    assert (deeper.checked_count, deeper.witness) == (rep.checked_count, rep.witness)


def edge_table():
    """Single letters have moment 1 at positions 0..2 and 0 beyond, so the
    first witness at pos_bound 2 is the word at position 2, skipped to 3."""
    return table_distribution({(Factor(p, "b"),): ONE for p in range(3)}, alphabet=("b",))


def tensor_d3():
    return tensor_model(3, [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])


def two_letter_table():
    """b_0 b_1 and b_1 b_2 have moment 1 and every other word 0. The prefix
    a_0 passes, and b_0 b_1, the fourth word after the prefix b_0, fails
    under skip 1 (b_0 b_2), after passing under skip 0 (b_1 b_2)."""
    b0, b1, b2 = (Factor(p, "b") for p in range(3))
    return table_distribution({(b0, b1): ONE, (b1, b2): ONE}, alphabet=("a", "b"))


def star_table():
    """broken_table with the first factor starred, read as a *-distribution."""
    b0, b1, b2 = (Factor(p, "b") for p in range(3))
    table = {(b0._replace(star=True), b1): ONE, (b1._replace(star=True), b2): ONE}
    return dataclasses.replace(table_distribution(table, alphabet=("b",)), star_mode=True)


def fold_distribution(alphabet, start, step, value, star_mode=False):
    """The distribution of an incremental form, `eval_word` its fold."""
    form = ncprob.Incremental(start, step, value)
    return ncprob.Distribution(alphabet, form.fold, star_mode, incremental=form)


def tensor_mutant():
    """The tensor model with the moment of a word ending at position 0
    dropped once the prefix occupies two positions. A skip keeps that
    count, so the first word it changes has length 3."""
    start, step, value = tensor_d().incremental

    def mutant(units, f):
        occupied = units is not None and sum(u is not None for u in units) >= 2
        return ZERO if occupied and f.pos == 0 else value(units, f)

    return fold_distribution(tensor_d().alphabet, start, step, mutant, star_mode=True)


def b_count_form():
    """The state counts the b's of the prefix, up to 2, and a skip keeps it;
    a word whose prefix holds two b's has moment 1 when it ends at position
    0, and 0 elsewhere. With positions <= 2 the first failing prefix is
    b_0 b_0, the eighth of length 2; the seven before it merge into the
    two tuples of the counts 0 and 1, so a count per tuple is not the
    count per prefix."""
    return fold_distribution(
        ("a", "b"),
        0,
        lambda n, f: min(n + (f.letter == "b"), 2),
        lambda n, f: ONE if n == 2 and f.pos == 0 else ZERO,
    )


def tl_q2():
    return tl_distribution(Q2, m=8)


def tl_qi():
    return tl_distribution(QI, m=8)


@pytest.mark.parametrize(
    "model, degree, pos_bound, star",
    [
        (broken_table, 2, 2, False),
        (broken_table, 3, 2, False),
        (broken_table, 3, 4, False),
        (edge_table, 2, 2, False),
        (edge_table, 3, 3, False),
        (two_letter_table, 2, 2, False),
        (star_table, 3, 2, True),
        (tensor_d, 3, 3, False),
        (tensor_d, 2, 3, True),
        (tensor_d3, 2, 2, True),
        (tensor_mutant, 3, 2, False),
        (tensor_mutant, 3, 2, True),
        (b_count_form, 3, 2, False),
        (b_count_form, 4, 3, False),
        (tl_q2, 3, 3, False),
        (tl_qi, 3, 3, True),
    ],
)
def test_spreadability_check_matches_the_free_coface_loop(model, degree, pos_bound, star):
    d = model()
    checked, bad = reference_spreadability(d, degree, pos_bound, star)
    rep = spreadability_check(d, degree, pos_bound, star=star)
    assert rep.checked_count == checked
    assert rep.passed == (bad is None)
    assert (rep.witness.data if rep.witness else None) == bad


def test_merged_tuples_fail_at_the_first_failing_prefix():
    assert len(spreadability_check(tensor_mutant(), 3, 2).witness.data["word"]) == 3
    rep = spreadability_check(b_count_form(), 3, 2)
    b0, a0 = Factor(0, "b"), Factor(0, "a")
    # the words of length 1 and 2 (6 + 36, 3 skips each), then the 7
    # prefixes before b_0 b_0 (6 words, 3 skips each), then its first word
    assert rep.checked_count == 3 * (6 + 36) + 7 * 6 * 3 + 1
    assert rep.witness.data["word"] == (b0, b0, a0)


def test_a_value_that_raises_raises_at_the_first_word_in_order():
    """The state is the letters of the prefix, so prefixes at different
    positions share a tuple, and no word of length 2 has a moment: the
    first in order is a_0 a_0, on the first tuple of its length."""

    def value(letters, f):
        if len(letters) == 1:
            raise ArithmeticError(f"no moment for {letters + (f.letter,)}")
        return ONE

    d = fold_distribution(("a", "b"), (), lambda s, f: s + (f.letter,), value)
    for run in (reference_spreadability, spreadability_check):
        with pytest.raises(ArithmeticError, match=r"no moment for \('a', 'a'\)"):
            run(d, 3, 2)


def test_edge_table_witness_is_a_factor_at_pos_bound():
    rep = spreadability_check(edge_table(), degree=2, pos_bound=2)
    assert not rep.passed
    assert rep.checked_count == 7  # three skips each of (0, b) and (1, b), then this one
    assert rep.witness.data == {
        "word": (Factor(2, "b"),),
        "reindexing": "skip position 0",
        "lhs": ONE,
        "rhs": ZERO,
    }


def test_spreadability_needs_hashable_states():
    listed = ncprob.Incremental([], lambda s, f: [*s, f], lambda s, f: ONE)
    d = dataclasses.replace(broken_table(), incremental=listed)
    with pytest.raises(ValueError, match="states must be hashable"):
        spreadability_check(d, degree=2, pos_bound=2)


def test_spreadability_bounds_validated():
    d = tensor_d()
    with pytest.raises(ValueError):
        spreadability_check(d, degree=0, pos_bound=2)
    plain = dataclasses.replace(d, star_mode=False)
    with pytest.raises(ValueError):
        spreadability_check(plain, degree=2, pos_bound=2, star=True)


def test_free_coface_displayed_rules():
    w = (Factor(0, "b"), Factor(1, "c"))
    assert free_coface(1, 2, w) == (Factor(0, "b"), Factor(2, "c"))
    assert free_coface(0, 2, w) == (Factor(1, "b"), Factor(2, "c"))
    assert free_coface(2, 2, w) == w


def test_free_coface_bounds():
    with pytest.raises(ValueError):
        free_coface(3, 2, ())
    with pytest.raises(ValueError):
        free_coface(0, 1, (Factor(5, "b"),))


def test_free_coface_cosimplicial_identity():
    words = list(enumerate_words(("b",), degree=2, pos_bound=2, star=False))
    for w in words:
        n = 3
        for i in range(n + 1):
            for j in range(i + 1, n + 2):
                lhs = free_coface(j, n + 1, free_coface(i, n, w))
                rhs = free_coface(i, n + 1, free_coface(j - 1, n, w))
                assert lhs == rhs


def test_subsequence_witness_examples():
    assert subsequence_witness(lambda n: [0, 3][n], (0, 1)) == [(0, 0), (1, 2)]
    assert subsequence_witness(lambda n: n, (0, 1, 2)) == [(0, 0), (1, 0), (2, 0)]
    assert subsequence_witness(lambda n: 5, (2,)) == [(2, 3)]


def test_subsequence_witness_rejects_bad_maps():
    with pytest.raises(ValueError):
        subsequence_witness(lambda n: 0, (0, 1))
    with pytest.raises(ValueError):
        subsequence_witness(lambda n: n - 1, (1,))
    with pytest.raises(ValueError):
        subsequence_witness(lambda n: n, (1, 0))
    # strictly increasing on the positions but with a shrinking gap, so no
    # total strictly increasing extension exists
    with pytest.raises(ValueError):
        subsequence_witness(lambda n: {1: 2, 3: 3}[n], (1, 3))


def test_subsequence_witness_composition_is_exhaustive():
    # every subsequence-style map on <= 3 positions drawn from {0..4} into
    # {0..7} is reproduced pointwise by the composed partial shifts
    for ns in itertools.combinations(range(5), 3):
        for imgs in itertools.combinations(range(8), 3):
            if any(i < n for n, i in zip(ns, imgs)):
                continue
            if any(
                imgs[r] - imgs[r - 1] < ns[r] - ns[r - 1] for r in range(1, 3)
            ):
                continue
            table = dict(zip(ns, imgs))
            plan = subsequence_witness(lambda n: table[n], ns)
            for n, target in table.items():
                v = n
                for m_r, power in plan:
                    for _ in range(power):
                        v = nat_partial_shift(m_r, v)
                assert v == target


def test_star_word_is_an_involution():
    w = (Factor(0, "b"), Factor(2, "c", star=True))
    assert star_word(w) == (Factor(2, "c", star=False), Factor(0, "b", star=True))
    assert star_word(star_word(w)) == w


def test_star_positivity_check_passes_on_tensor():
    d = tensor_d()
    words = list(enumerate_words(d.alphabet, 2, 1, True))[:32]
    assert star_positivity_check(d, words).passed


def test_star_spreadability_mode_rejects_negative_functional():
    bad = ncprob.Distribution(
        alphabet=("b",),
        eval_word=lambda w: ONE if not w else -ONE,
        star_mode=True,
    )
    with pytest.raises(VerificationError) as err:
        star_spreadability_mode(bad)
    assert err.value.report.witness.description == "phi(w* w) is not a nonnegative real"


def test_star_mode_required():
    d = table_distribution({}, alphabet=("b",))
    with pytest.raises(ValueError):
        star_spreadability_mode(d)
    with pytest.raises(ValueError):
        star_positivity_check(d, [])


@given(st.lists(st.tuples(st.integers(0, 6), st.booleans()), max_size=4),
       st.integers(0, 6))
def test_reindexing_words_commutes_with_shifts(factors, k):
    w = tuple(Factor(p, "b", s) for p, s in factors)
    shifted = reindex_word(w, lambda p: nat_partial_shift(k, p))
    assert [f.letter for f in shifted] == [f.letter for f in w]
    assert [f.star for f in shifted] == [f.star for f in w]
    assert all(f.pos != k for f in shifted)


def test_tensor_sco_is_a_probability_sco():
    ps = tensor_sco(2, [Fraction(1, 3), Fraction(2, 3)], 3)
    assert verify_functional_invariance(ps).passed


def test_tensor_sequence_distribution_matches_tensor_model():
    ps = tensor_sco(2, [Fraction(1, 3), Fraction(2, 3)], 3)
    seq = sequence_distribution(ps)
    direct = tensor_d()
    for w in enumerate_words(direct.alphabet, degree=2, pos_bound=2, star=True):
        assert seq.eval_word(w) == direct.eval_word(w)
    assert seq.eval_word(()) == ONE


def test_sco_to_sequence_rejects_non_invariant_functional():
    dim = 2
    ps = tensor_sco(dim, [Fraction(1, 3), Fraction(2, 3)], 2)
    # the unnormalized trace: a unit slot counts dim, not 1
    broken = dataclasses.replace(ps, functional=lambda x: QQi(dim ** x.count(None)))
    with pytest.raises(VerificationError) as err:
        ncprob.sco_to_sequence(broken)
    assert err.value.report.witness.description == "functional not preserved by coface"
