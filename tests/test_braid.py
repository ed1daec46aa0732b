"""Braid words, actions, the level filtration, and the induced SCOs."""

import dataclasses
import functools
import itertools

import pytest

from cosimplex import braid, groups, linalg, simplicial
from cosimplex.braid import (
    BraidAction,
    BraidWord,
    braid_sco_build,
    coface_word,
    diagram_identity_check,
    flip_action,
    lemma_power_check,
    level_of,
    verify_braid_relations,
    ybe_action,
    ybe_check,
)
from cosimplex.scalars import scalar
from cosimplex.reports import VerificationError
from cosimplex.simplicial import sco_verify


def z3_r(a, b):
    return ((b + 1) % 3, (a - 1) % 3)


def test_word_basics():
    w = BraidWord(((1, 1), (2, 1), (1, -1)))
    assert (w * w.inverse()).letters == ((1, 1), (2, 1), (1, -1), (1, 1), (2, -1), (1, -1))
    assert w.inverse().letters == ((1, 1), (2, -1), (1, -1))
    assert BraidWord.positive([2, 1]).letters == ((2, 1), (1, 1))
    with pytest.raises(ValueError):
        BraidWord(((0, 1),))


def test_coface_word():
    assert coface_word(1, 3) == BraidWord.positive([2, 3, 4])
    assert coface_word(3, 3).letters == ((4, 1),)
    with pytest.raises(ValueError):
        coface_word(4, 3)


def test_words_apply_right_to_left():
    # on eventually constant sequences, (s1 s2) x applies s2 first
    a = flip_action((0, 1), support=3)
    x = (0, 1, 1, 0)
    w = BraidWord.positive([1, 2])
    assert a.apply_word(w, x) == a.apply(1, a.apply(2, x))


def test_flip_action_levels_are_exact():
    a = flip_action((0, 1), support=4)
    assert level_of((0,), a) == -1
    assert level_of((0, 1), a) == 0
    assert level_of((0, 1, 0), a) == 1
    # the level is the minimal n with sigma_k x = x for all k >= n+2
    x = (0, 1, 0)
    for k in range(level_of(x, a) + 2, 8):
        assert a.apply(k, x) == x
    assert a.apply(level_of(x, a) + 1, x) != x
    # probing up to the bound finds len(y) - 2 (-1 for constants) on every
    # element, and on every coface image that an SCO up to level bound - 1 reaches
    def length_level(y):
        return len(y) - 2 if len(y) >= 2 else -1

    for support in range(1, 7):
        a = flip_action((0, 1), support)
        for x in a.elements:
            assert level_of(x, a) == length_level(x)
        for n in range(1, a.stabilization_bound):
            for x in (x for x in a.elements if length_level(x) <= n - 1):
                for k in range(n + 1):
                    y = a.apply_word(coface_word(k, n), x)
                    assert level_of(y, a) == length_level(y), (support, x, k, n)


def test_flip_braid_relations_and_sco():
    a = flip_action((0, 1), support=4)
    assert verify_braid_relations(a).passed
    s = braid_sco_build(a, 3)
    assert s.augmentation is not None
    assert sco_verify(s).passed


def test_flip_carriers_filter_by_level():
    a = flip_action((0, 1), support=3)
    s = braid_sco_build(a, 2)
    for n in range(3):
        for x in s.levels[n].elements:
            assert level_of(x, a) <= n


def test_lemma_power_on_flip():
    a = flip_action((0, 1), support=5)
    for x in a.elements:
        lv = level_of(x, a)
        for n in range(max(lv, 0), 4):
            for big_n in range(1, 5):
                assert lemma_power_check(a, x, n, big_n)


def test_lemma_power_rejects_bad_level():
    a = flip_action((0, 1), support=4)
    x = (0, 1, 0, 1)  # level 2
    with pytest.raises(ValueError):
        lemma_power_check(a, x, 1, 2)


def test_diagram_identity_on_flip():
    a = flip_action((0, 1), support=5)
    for x in a.elements:
        lv = level_of(x, a)
        for n in range(max(lv + 1, 1), 5):
            for i, j in itertools.combinations(range(n + 1), 2):
                assert diagram_identity_check(a, i, j, n, x)


def test_ybe_check_and_action():
    assert ybe_check(z3_r, range(3)).passed
    assert not ybe_check(lambda a, b: (a, (a + b) % 3), range(3)).passed
    a = ybe_action(z3_r, range(3), strands=5)
    assert verify_braid_relations(a).passed
    s = braid_sco_build(a, 3)
    assert sco_verify(s).passed


def test_ybe_action_rejects_non_solution():
    with pytest.raises(VerificationError) as err:
        ybe_action(lambda a, b: (a, (a + b) % 3), range(3), strands=4)
    assert err.value.report.witness.description == "Yang-Baxter equation fails"


def test_braid_sco_build_rejects_a_coface_that_leaves_its_level(monkeypatch):
    # the flip maps with levels that are not theirs: (1, 0) at level 5, and
    # delta^0 = sigma_1 sigma_2 sends elements of level 0 to it
    a = flip_action((0, 1), support=4)
    monkeypatch.setattr(braid, "level_of", lambda x, a: 5 if x == (1, 0) else -1)
    assert verify_braid_relations(a).passed
    with pytest.raises(VerificationError) as err:
        braid_sco_build(a, 2)
    witness = err.value.report.witness
    assert witness.description == "coface leaves its level"
    k, n, x, image_level = (witness.data[key] for key in ("k", "n", "element", "image_level"))
    assert (k, n, image_level) == (0, 1, 5)
    assert a.apply_word(coface_word(0, 1), x) == (1, 0)


def test_braid_sco_build_detects_broken_relations():
    # a deliberate non-action: sigma_1 rotates three points, others fix
    def apply(i, x):
        return (x + 1) % 3 if i == 1 else x

    bad = BraidAction(apply=apply, elements=(0, 1, 2), stabilization_bound=3)
    with pytest.raises(VerificationError):
        braid_sco_build(bad, 2)


def test_inverse_letters_need_inverse_apply():
    a = BraidAction(apply=lambda i, x: x, elements=(0,), stabilization_bound=2)
    with pytest.raises(ValueError):
        a.apply_word(BraidWord.positive([1]).inverse(), 0)


# ---------------------------------------------------------------------------
# Generator tables of the YBE action, against the slicing rule
# ---------------------------------------------------------------------------

YBE_SOLUTIONS = {"z3": (z3_r, range(3)), "swap": (lambda a, b: (b, a), range(2))}


def slicing_action(r, y_set, strands):
    """The YBE action applying r to coordinates k-1, k of the tuple itself."""

    def apply(i, x):
        if i >= len(x):
            return x
        a, b = r(x[i - 1], x[i])
        return x[: i - 1] + (a, b) + x[i + 1:]

    return BraidAction(
        apply=apply,
        elements=tuple(itertools.product(y_set, repeat=strands)),
        stabilization_bound=strands - 1,
    )


@pytest.mark.parametrize("strands", range(2, 7))
@pytest.mark.parametrize("solution", sorted(YBE_SOLUTIONS))
def test_ybe_tables_match_the_slicing_rule(solution, strands):
    r, y_set = YBE_SOLUTIONS[solution]
    a, ref = ybe_action(r, y_set, strands), slicing_action(r, y_set, strands)
    assert a.elements == ref.elements
    assert a.stabilization_bound == ref.stabilization_bound
    words = [coface_word(k, n) for n in range(strands) for k in range(n + 1)]
    words.append(BraidWord.positive([1, strands - 1, 2, 1, strands + 1]))
    for x in a.elements:
        for i in range(1, strands + 2):
            assert a.apply(i, x) == ref.apply(i, x)
        for w in words:
            assert a.apply_word(w, x) == ref.apply_word(w, x)
        assert level_of(x, a) == level_of(x, ref)


@pytest.mark.parametrize("x", [(0, 0, 3), (0, 0), (0, 0, 0, 0)])
def test_ybe_action_rejects_tuples_outside_the_carrier(x):
    a = ybe_action(z3_r, range(3), strands=3)
    for i in (1, 2, 3):
        with pytest.raises(ValueError, match="not an element of the carrier"):
            a.apply(i, x)
    with pytest.raises(ValueError, match="generator index"):
        a.apply(0, (0, 0, 0))


def test_one_wrong_table_entry_fails_the_relations_at_the_first_affected_element():
    ref = slicing_action(z3_r, range(3), 4)
    bad_x = ref.elements[40]
    wrong = ref.apply(2, ref.elements[41])

    def corrupt(i, x):
        return wrong if (i, x) == (2, bad_x) else ref.apply(i, x)

    mutant = braid._table_action(
        ref.elements, [functools.partial(corrupt, i) for i in range(1, 4)], "mutant"
    )
    assert mutant.apply(2, bad_x) == wrong != ref.apply(2, bad_x)
    rep = verify_braid_relations(mutant)
    # the same corruption applied through the slicing rule, without tables
    expected = verify_braid_relations(
        BraidAction(apply=corrupt, elements=ref.elements, stabilization_bound=3)
    )
    assert not rep.passed
    assert rep.checked_count == expected.checked_count
    assert rep.witness == expected.witness


def reference_relations(a, cap):
    """verify_braid_relations as a plain loop of apply calls: (count, witness)."""
    checked = 0
    for i, j in itertools.combinations(range(1, cap + 1), 2):
        for x in a.elements:
            checked += 1
            if j - i == 1:
                holds = a.apply(i, a.apply(j, a.apply(i, x))) == a.apply(j, a.apply(i, a.apply(j, x)))
            else:
                holds = a.apply(i, a.apply(j, x)) == a.apply(j, a.apply(i, x))
            if not holds:
                return checked, (f"braid relation {'B1' if j - i == 1 else 'B2'} violated",
                                 {"i": i, "j": j, "element": x})
    return checked, None


def one_wrong_entry(ref):
    """The generators of ref with sigma_2 of one element corrupted."""
    bad_x, wrong = ref.elements[40], ref.apply(2, ref.elements[41])

    def corrupt(i, x):
        return wrong if (i, x) == (2, bad_x) else ref.apply(i, x)

    return corrupt


def capped(a, cap):
    """a with its relations checked up to index cap (None: a's own bound)."""
    return a if cap is None else dataclasses.replace(a, stabilization_bound=cap)


def assert_report_matches_reference(a, cap=None):
    a = capped(a, cap)
    rep = verify_braid_relations(a)
    checked, bad = reference_relations(a, a.stabilization_bound)
    assert rep.checked_count == checked
    assert rep.passed == (bad is None)
    assert (rep.witness.description, rep.witness.data) == bad if bad else rep.witness is None
    return rep


@pytest.mark.parametrize("cap", [None, 0, 1, 2, 6, 9])
@pytest.mark.parametrize("strands", [2, 3, 5])
@pytest.mark.parametrize("solution", sorted(YBE_SOLUTIONS))
def test_table_relations_match_the_apply_loop(solution, strands, cap):
    r, y_set = YBE_SOLUTIONS[solution]
    a = ybe_action(r, y_set, strands)
    rep = assert_report_matches_reference(a, cap)
    # the same action checked through apply, and through the slicing rule;
    # a cap past the tables checks the identity on the later generators
    through_apply = dataclasses.replace(a, apply=lambda i, x: a.apply(i, x))
    assert verify_braid_relations(capped(through_apply, cap)) == rep
    assert verify_braid_relations(capped(slicing_action(r, y_set, strands), cap)) == rep


@pytest.mark.parametrize("cap", [None, 2, 3, 5])
def test_table_mutant_relations_match_the_apply_loop(cap):
    ref = slicing_action(z3_r, range(3), 4)
    corrupt = one_wrong_entry(ref)
    mutant = braid._table_action(
        ref.elements, [functools.partial(corrupt, i) for i in range(1, 4)], "mutant"
    )
    assert not assert_report_matches_reference(mutant, cap).passed


def test_replacing_apply_does_not_keep_checking_the_old_tables():
    a = ybe_action(z3_r, range(3), strands=4)
    assert verify_braid_relations(a).passed
    mutant = dataclasses.replace(a, apply=one_wrong_entry(a))
    rep = assert_report_matches_reference(mutant)
    assert not rep.passed
    # a copy with other elements is checked through apply too
    fewer = dataclasses.replace(a, elements=a.elements[:-1])
    assert_report_matches_reference(fewer)
    # a wrapper made with functools.wraps carries the tables of the apply it
    # wraps, but is not that apply
    corrupt = one_wrong_entry(a)
    wrapped = dataclasses.replace(a, apply=functools.wraps(a.apply)(lambda i, x: corrupt(i, x)))
    assert wrapped.apply.tables is a.apply.tables
    assert not assert_report_matches_reference(wrapped).passed


def test_an_apply_without_weak_references_is_checked_through_apply():
    # a builtin carries no generator tables
    rep = verify_braid_relations(BraidAction(apply=max, elements=(1, 2), stabilization_bound=2))
    assert rep.passed and rep.checked_count == 2


def test_cached_words_equal_freshly_built_words():
    for n in range(6):
        for k in range(n + 1):
            w = coface_word(k, n)
            assert w is coface_word(k, n)
            assert w == BraidWord.positive(range(k + 1, n + 2)) == BraidWord(w.letters)
        for big_n in range(1, 5):
            w = braid.descending_word(n, big_n)
            assert w == BraidWord.positive(range(n + big_n, n, -1)) == BraidWord(w.letters)
        for i, j in itertools.combinations(range(n + 1), 2):
            lhs, rhs = braid.diagram_words(i, j, n)
            assert lhs == BraidWord.positive(
                [*range(j + 1, n + 2), *range(i + 1, n + 2), n + 1]
            ) == BraidWord(lhs.letters)
            assert rhs == BraidWord.positive(
                [*range(i + 1, n + 2), *range(j, n + 2)]
            ) == BraidWord(rhs.letters)
    for bad in ((2, 1, 3), (0, 4, 3), (-1, 1, 3)):
        with pytest.raises(ValueError):
            braid.diagram_words(*bad)


def test_braid_sco_build_rejects_levels_past_the_stabilization_bound():
    a = ybe_action(z3_r, range(3), strands=4)  # bound 3: sound up to level 2
    assert sco_verify(braid_sco_build(a, 2)).passed
    with pytest.raises(simplicial.TruncationError, match="stabilization bound 3"):
        braid_sco_build(a, 3)


def test_conjugation_action_conjugates_inverts_and_stabilizes():
    gens = groups.burau_generators(4, scalar(2))
    invs = [linalg.inverse(g) for g in gens]
    a = braid.conjugation_action(gens, invs, gens, "burau-conjugation")
    assert (a.stabilization_bound, a.exhaustive, a.name) == (3, False, "burau-conjugation")
    assert a.elements == tuple(gens)
    for i, x in itertools.product(range(1, 6), gens):
        y = a.apply(i, x)
        assert y == (gens[i - 1] * x * invs[i - 1] if i <= 3 else x)
        assert a.inverse_apply(i, y) == x


def test_shift_word_report_takes_the_mode_of_the_action():
    gens = groups.permutation_matrix_generators(5)
    report, _ = braid.shift_word_report(groups.matrix_action(gens, gens[:3]), 2, 4)
    assert report.passed and report.mode == "sampled"
    flip_report, _ = braid.shift_word_report(flip_action((0, 1), support=3), 2, 4)
    assert flip_report.passed and flip_report.mode == "exhaustive"
