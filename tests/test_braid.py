"""Braid words, actions, the level filtration, and the induced SCOs."""

import dataclasses
import gc
import itertools
import math
import weakref

import pytest

from conftest import seeded
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
from cosimplex.cli import main, ordinal_sco
from cosimplex.scalars import scalar
from cosimplex.reports import VerificationError
from cosimplex.simplicial import Sco, sco_verify


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
        for x in s.levels[n]:
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
    # delta^0 = sigma_1 sigma_2 sends elements of level 0 to it (flip has no
    # generator tables, so the level probe runs on the elements)
    a = flip_action((0, 1), support=4)
    monkeypatch.setattr(braid, "_level", lambda x, generator, bound: 5 if x == (1, 0) else -1)
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

# z3 relabelled on a Y that is neither range(3) nor sorted: the generator
# tables read positions in Y's own order
ABC = ("c", "a", "b")


def abc_r(a, b):
    return ABC[(ABC.index(b) + 1) % 3], ABC[(ABC.index(a) - 1) % 3]


YBE_SOLUTIONS = {
    "z3": (z3_r, range(3)), "swap": (lambda a, b: (b, a), range(2)), "z3-abc": (abc_r, ABC)
}


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
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return r(a, b)

    a, ref = ybe_action(counted, y_set, strands), slicing_action(r, y_set, strands)
    assert a.elements == ref.elements
    assert a.stabilization_bound == ref.stabilization_bound
    assert a.tables == tuple(
        tuple(a.elements.index(ref.apply(i, x)) for x in a.elements)
        for i in range(1, strands)
    )
    # the Yang-Baxter check evaluates r six times per triple of Y, and the
    # seeded tables by position arithmetic once per pair of Y x Y
    assert calls == 6 * len(y_set) ** 3 + len(y_set) ** 2
    # under every cap, past strands - 1 too, the tables that tabulate builds
    # by applying each generator to each element agree
    for cap in range(strands + 3):
        assert seeded(capped(a, cap)).tables == seeded(capped(ref, cap)).tables
    words = [coface_word(k, n) for n in range(strands) for k in range(n + 1)]
    words.append(BraidWord.positive([1, strands - 1, 2, 1, strands + 1]))
    for x in a.elements:
        for i in range(1, strands + 2):
            assert a.apply(i, x) == ref.apply(i, x)
        for w in words:
            assert a.apply_word(w, x) == ref.apply_word(w, x)
        assert level_of(x, a) == level_of(x, ref)


def test_the_ybe_carrier_is_the_product_in_order():
    a, ref = ybe_action(abc_r, ABC, 4), tuple(itertools.product(ABC, repeat=4))
    assert len(a.elements) == len(ref) == 81
    assert a.elements == ref and ref == a.elements and hash(a.elements) == hash(ref)
    assert list(a.elements) == list(ref) and ref[40] in a.elements
    assert (a.elements[0], a.elements[-1]) == (ref[0], ref[-1])
    assert a.elements[3:60:7] == ref[3:60:7] and a.elements[::-1] == ref[::-1]
    assert [a.elements.index(x) for x in ref] == list(range(81))
    assert a.elements.index(ref[7], 5, 9) == 7
    with pytest.raises(ValueError):
        a.elements.index(ref[7], 8)
    assert a.elements + ref[:1] == ref + ref[:1]


def test_the_ybe_carrier_is_built_once_when_read(product_tuples, capsys):
    # the SCO's levels read the elements; the tables and the checks read
    # positions
    argv = ["verify", "--example", "ybe-z3", "--n-max", "7", "--format", "json"]
    assert main(argv) == 0
    assert '"status": "pass"' in capsys.readouterr().out
    assert product_tuples[9] == 3**9


def test_ybe_action_rejects_a_generator_index_below_1():
    a = ybe_action(z3_r, range(3), strands=3)
    for i in (0, -1):
        with pytest.raises(ValueError, match="generator index"):
            a.apply(i, (0, 0, 0))


def test_one_wrong_table_entry_fails_the_relations_at_the_first_affected_element():
    ref = slicing_action(z3_r, range(3), 4)
    bad_x = ref.elements[40]
    wrong = ref.apply(2, ref.elements[41])

    def corrupt(i, x):
        return wrong if (i, x) == (2, bad_x) else ref.apply(i, x)

    mutant = seeded(BraidAction(apply=corrupt, elements=ref.elements, stabilization_bound=3))
    assert mutant.apply(2, bad_x) == wrong != ref.apply(2, bad_x)
    rep = verify_braid_relations(mutant)
    assert mutant.tables is not None and not rep.passed
    assert (rep.checked_count, (rep.witness.description, rep.witness.data)) == reference_relations(
        mutant, 3
    )


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


def one_wrong_entry(ref, generator=2, position=40):
    """The generators of ref with sigma_generator of the element at position
    corrupted: it gets the image of the next element (of the first after
    the last)."""
    bad_x = ref.elements[position]
    wrong = ref.apply(generator, ref.elements[(position + 1) % len(ref.elements)])

    def corrupt(i, x):
        return wrong if (i, x) == (generator, bad_x) else ref.apply(i, x)

    return corrupt


def capped(a, cap):
    """a with its relations checked up to index cap (None: a's own bound)."""
    return a if cap is None else dataclasses.replace(a, stabilization_bound=cap)


def assert_report_matches_reference(a):
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
    a = capped(ybe_action(r, y_set, strands), cap)
    # a copy carries no tables and is checked through apply
    assert (a.tables is None) == (cap is not None)
    # on tables, a cap past strands - 1 indexes the later generators, the
    # identity
    tabled = seeded(a)
    assert len(tabled.tables) == a.stabilization_bound
    assert_report_matches_reference(a)
    assert_report_matches_reference(tabled)


@pytest.mark.parametrize("cap", [None, 2, 3, 5])
def test_table_mutant_relations_match_the_apply_loop(cap):
    ref = slicing_action(z3_r, range(3), 4)
    mutant = BraidAction(apply=one_wrong_entry(ref), elements=ref.elements, stabilization_bound=3)
    mutant = seeded(capped(mutant, cap))
    assert mutant.tables is not None
    assert not assert_report_matches_reference(mutant).passed


@pytest.mark.parametrize("position", [0, 80])
@pytest.mark.parametrize("generator", [1, 2, 3])
def test_a_wrong_first_or_last_table_entry_fails_like_the_apply_loop(generator, position):
    # a whole-table comparison must see a difference at either end of a table
    ref = slicing_action(z3_r, range(3), 4)
    assert len(ref.elements) == 81
    mutant = seeded(BraidAction(
        apply=one_wrong_entry(ref, generator, position), elements=ref.elements, stabilization_bound=3
    ))
    differ = [
        (i, p)
        for i, (t, u) in enumerate(zip(mutant.tables, seeded(ref).tables), 1)
        for p in range(81)
        if t[p] != u[p]
    ]
    assert differ == [(generator, position)]
    assert not assert_report_matches_reference(mutant).passed


@pytest.mark.parametrize(
    "maps, element, checked",
    [
        # sigma_1 sigma_3 and sigma_3 sigma_1 differ at the first element only
        (({0: 2}, {}, {2: 1}), 0, 4),
        # and at the last element only
        (({2: 0}, {}, {0: 1}), 2, 6),
    ],
    ids=["first", "last"],
)
def test_a_relation_failing_at_one_end_of_the_carrier_is_found_on_tables(maps, element, checked):
    # idempotent sigma_1 and sigma_3 with sigma_2 = 1 satisfy B1; only B2
    # for (1, 3) fails, at one element
    a = seeded(BraidAction(
        apply=lambda i, x: maps[i - 1].get(x, x), elements=(0, 1, 2), stabilization_bound=3
    ))
    assert a.tables is not None
    rep = assert_report_matches_reference(a)
    assert rep.checked_count == checked
    assert rep.witness.data == {"i": 1, "j": 3, "element": element}


def test_a_replaced_map_is_checked_on_its_own_maps():
    # dataclasses.replace builds an object with no tables yet: a one-entry
    # mutant of a tabulated SCO is checked on tables of its own, and one of
    # a seeded action, which gets none, through its own apply
    s = ordinal_sco(5)
    assert sco_verify(s).passed and s.tables is not None
    mutant_sco = dataclasses.replace(
        s, coface=lambda n, k, x: x + 1 if (n, k, x) == (3, 2, 1) else s.coface(n, k, x)
    )
    assert not sco_verify(mutant_sco).passed
    assert mutant_sco.tables not in (None, s.tables)
    a = ybe_action(z3_r, range(3), strands=4)
    assert verify_braid_relations(a).passed and a.tables is not None
    mutant = dataclasses.replace(a, apply=one_wrong_entry(a))
    assert not assert_report_matches_reference(mutant).passed
    assert mutant.tables is None
    # without its last element the carrier is not closed: tabulate indexes
    # nothing
    fewer = dataclasses.replace(a, elements=a.elements[:-1])
    assert seeded(fewer).tables is None
    assert_report_matches_reference(fewer)


def test_a_copy_of_the_seeded_ybe_action_is_checked_through_its_own_apply():
    # ybe_action seeds the tables it built by position arithmetic; a copy
    # made with dataclasses.replace carries none and is checked through its
    # own apply, with the count and witness of the seeded action, of the
    # tables that tabulate builds from that apply and of the reference loop
    a = ybe_action(z3_r, range(3), strands=4)
    tables = a.__dict__["tables"]
    copy = dataclasses.replace(a)
    assert copy.tables is None and seeded(copy).tables == tables
    assert assert_report_matches_reference(copy) == assert_report_matches_reference(a)
    mutant = dataclasses.replace(a, apply=one_wrong_entry(a))
    assert mutant.tables is None
    tabled = seeded(mutant)
    assert [
        (i, p) for i, (t, u) in enumerate(zip(tabled.tables, tables), 1) for p in range(81) if t[p] != u[p]
    ] == [(2, 40)]
    expected = reference_relations(mutant, 3)
    for b in (mutant, tabled):
        rep = verify_braid_relations(b)
        assert not rep.passed
        assert (rep.checked_count, (rep.witness.description, rep.witness.data)) == expected


def shelf_r(x, y):
    """A solution on {0, 1, 2} that is not invertible: (1, 0) and (2, 0)
    both go to (0, 2)."""
    return y, min(x + 1, 2)


SEEDED_YBE = {**YBE_SOLUTIONS, "shelf": (shelf_r, range(3))}


@pytest.mark.parametrize("strands", range(3, 8))
@pytest.mark.parametrize("solution", sorted(SEEDED_YBE))
def test_the_seeded_relation_decision_matches_a_copy_and_the_reference(solution, strands):
    # ybe_action seeds no failing relation family from its Yang-Baxter
    # check; a copy carries no tables and no decision, and is checked
    # through its own apply, with the count of the reference loop
    r, y_set = SEEDED_YBE[solution]
    a = ybe_action(r, y_set, strands)
    assert a.__dict__["failing"] == frozenset()
    copy = dataclasses.replace(a)
    assert copy.tables is None and copy.failing is None
    rep = verify_braid_relations(a)
    assert rep == assert_report_matches_reference(copy)
    assert rep.passed and rep.checked_count == math.comb(strands - 1, 2) * len(y_set) ** strands
    if solution == "shelf":
        assert rep.checked_count == {3: 27, 4: 243, 5: 1_458, 6: 7_290, 7: 32_805}[strands]


def repeated_element(strands):
    a = ybe_action(z3_r, range(3), strands)
    assert a.tables is not None
    return dataclasses.replace(a, elements=a.elements + a.elements[:1])


UNTABULATED_YBE = {
    # a position stands for a value: with an element listed twice, a table
    # would send its first copy to the second, and the level probe would
    # read that as a move
    "repeated element": repeated_element,
    # with a letter of Y listed twice, so is every tuple holding it
    "repeated Y": lambda strands: ybe_action(z3_r, (0, 1, 2, 0), strands),
    # the translation solution on Z sends (2, 0) to (1, 1) but (0, 2) to
    # (3, -1), out of Y
    "r leaves Y": lambda strands: ybe_action(lambda a, b: (b + 1, a - 1), range(3), strands),
}


@pytest.mark.parametrize("name", sorted(UNTABULATED_YBE))
def test_an_action_that_tabulate_cannot_index_is_checked_through_apply(name):
    a = UNTABULATED_YBE[name](4)
    # with no tables, ybe_action seeds no relation decision either
    assert "failing" not in a.__dict__
    assert a.tables is None and a.failing is None and seeded(a).tables is None
    assert_report_matches_reference(a)
    assert assert_shift_words_match_reference(a, 2, 3).passed
    sco = braid_sco_build(a, 2)
    for n in range(-1, 3):
        assert sco.level(n) == tuple(x for x in a.elements if level_of(x, a) <= n)


def test_an_apply_without_weak_references_is_checked_through_apply():
    # a builtin carries no generator tables
    rep = verify_braid_relations(BraidAction(apply=max, elements=(1, 2), stabilization_bound=2))
    assert rep.passed and rep.checked_count == 2


def test_cached_words_equal_freshly_built_words():
    for n in range(6):
        for k in range(n + 1):
            w = coface_word(k, n)
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


@pytest.mark.parametrize(
    "build, n_max",
    [(lambda: ybe_action(z3_r, range(3), 7), 5), (lambda: flip_action((0, 1), support=3), 3)],
    ids=["ybe tables", "flip memos"],
)
def test_the_checks_leave_no_cyclic_garbage(build, n_max):
    # a check's coface view is a plain dict of tables or memos, freed by
    # reference counting when the check and its SCO are dropped; a cycle
    # would hold every table until the collector runs
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        a = build()
        assert braid.shift_word_report(a, n_max, 4)[0].passed
        assert braid.verified_braid_sco(a, n_max)[1].passed
        del a
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert garbage == []


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


# ---------------------------------------------------------------------------
# Shift words of a table action, against the single identity checks
# ---------------------------------------------------------------------------

def reference_shift_words(a, n_max, big_n):
    """shift_word_report as a loop of lemma_power_check and
    diagram_identity_check, level by level: (count, witness, skipped)."""
    bound = a.stabilization_bound
    levels = {x: level_of(x, a) for x in a.elements}
    skipped = sum(
        big_n - min(big_n, bound - n)
        for x in a.elements for n in range(max(levels[x], 0), n_max + 1)
    )
    checked = 0
    for n in range(n_max + 1):
        for x in (x for x in a.elements if levels[x] <= n):
            for power in range(1, min(big_n, bound - n) + 1):
                checked += 1
                if not lemma_power_check(a, x, n, power):
                    return checked, ("shift-word identity fails", {"n": n, "N": power, "element": x}), skipped
            for i, j in itertools.combinations(range(n + 1), 2):
                checked += 1
                if not diagram_identity_check(a, i, j, n, x):
                    return checked, ("diagram identity fails", {"i": i, "j": j, "n": n, "element": x}), skipped
    return checked, None, skipped


def assert_shift_words_match_reference(a, n_max, big_n):
    report, skipped = braid.shift_word_report(a, n_max, big_n)
    witness = (report.witness.description, report.witness.data) if report.witness else None
    assert (report.checked_count, witness, skipped) == reference_shift_words(a, n_max, big_n)
    return report


@pytest.mark.parametrize("n_max, big_n", [(1, 4), (3, 2), (3, 4), (3, 6)])
def test_table_shift_words_match_the_single_identity_checks(n_max, big_n):
    a = ybe_action(z3_r, range(3), 5)
    assert assert_shift_words_match_reference(a, n_max, big_n).passed
    assert a.tables is not None


def wrong_image(ref, generator, x, y):
    """The generators of ref with sigma_generator sending x to y."""
    return lambda i, z: y if (i, z) == (generator, x) else ref.apply(i, z)


SWAP_5 = slicing_action(lambda a, b: (b, a), range(2), 5)
Z3_5 = slicing_action(z3_r, range(3), 5)
SHIFT_WORD_MUTANTS = {
    "sigma_2 at element 40": (Z3_5, one_wrong_entry(Z3_5), None),
    # a swap fixes the constant tuples, so no other element reaches the last
    # one, (1, 1, 1, 1, 1): every failing identity starts there
    "last element only": (
        SWAP_5, wrong_image(SWAP_5, 1, (1,) * 5, (0, 0, 0, 0, 1)),
        {"n": 0, "N": 3, "element": (1,) * 5},
    ),
    # every family of the levels below 3 holds; one at level 3 differs
    "level n_max only": (
        Z3_5, wrong_image(Z3_5, 3, (0, 0, 1, 1, 1), (0,) * 5),
        {"i": 0, "j": 3, "n": 3, "element": (0, 0, 0, 1, 2)},
    ),
    # sigma_4 = sigma_{n_max + 1}, the letter that every coface at level
    # n_max applies first, shared among them by the view of `_indexed`
    "sigma_{n_max + 1}": (
        Z3_5, one_wrong_entry(Z3_5, 4), {"i": 0, "j": 1, "n": 3, "element": (0, 1, 1, 2, 0)}
    ),
}


@pytest.mark.parametrize("name", sorted(SHIFT_WORD_MUTANTS))
def test_table_mutant_shift_words_match_the_single_identity_checks(name):
    ref, corrupt, witness = SHIFT_WORD_MUTANTS[name]
    mutant = seeded(BraidAction(apply=corrupt, elements=ref.elements, stabilization_bound=4))
    report = assert_shift_words_match_reference(mutant, 3, 4)
    assert not report.passed and mutant.tables is not None
    assert witness is None or report.witness.data == witness
    if name == "level n_max only":
        assert braid.shift_word_report(mutant, 2, 4)[0].passed


@pytest.mark.parametrize("generator", range(1, 5))
def test_one_entry_table_mutants_match_the_single_identity_checks(generator):
    # a sweep of one-entry mutants: a level whose tables hold for every
    # family must be one where no single identity fails
    for position in range(0, len(Z3_5.elements), 5):
        mutant = seeded(BraidAction(
            apply=one_wrong_entry(Z3_5, generator, position), elements=Z3_5.elements,
            stabilization_bound=4,
        ))
        assert_shift_words_match_reference(mutant, 3, 4)


@pytest.mark.parametrize("tabulated", [True, False])
def test_a_shift_word_witness_is_at_the_least_failing_level(tabulated):
    # sigma_1 of (0, 0, 1, 1, 2) is wrong: identities fail at levels 2 and
    # 3. That element comes first in the carrier and fails first at level 3,
    # (i, j) = (0, 1), but a later element fails at level 2, which is named
    mutant = BraidAction(
        apply=one_wrong_entry(Z3_5, 1, 14), elements=Z3_5.elements, stabilization_bound=4
    )
    assert mutant.elements[14] == (0, 0, 1, 1, 2)
    if tabulated:
        mutant = seeded(mutant)
    report = assert_shift_words_match_reference(mutant, 3, 4)
    assert (mutant.tables is not None) == tabulated
    assert report.checked_count == 177
    assert report.witness.data == {"i": 0, "j": 1, "n": 2, "element": (0, 0, 2, 0, 2)}
    assert not diagram_identity_check(mutant, 0, 1, 3, (0, 0, 1, 1, 2))


def test_a_shift_word_family_failing_alone_is_found_on_tables(monkeypatch):
    # a level probe that reads every element as fixed by all generators puts
    # elements of higher level into level 0, where no diagram identity is
    # checked: only shift-word families can fail
    monkeypatch.setattr(braid, "_level", lambda p, generator, bound: -1)
    a = ybe_action(z3_r, range(3), 5)
    report = assert_shift_words_match_reference(a, 0, 4)
    assert not report.passed and a.tables is not None
    assert report.witness.description == "shift-word identity fails"


def burau_action(q, mutant=None):
    """The action of `braid-check --action burau --n-max 3`, with no tables:
    the conjugations leave its sample. A mutant gets sigma_mutant of its
    second element wrong."""
    gens = groups.burau_generators(6, q)
    a = groups.matrix_action(gens, gens[:4])
    return dataclasses.replace(a, apply=one_wrong_entry(a, mutant, 1)) if mutant else a


BURAU_ACTIONS = {
    "q=2": (scalar(2), None),
    "q=1+i": (scalar(1, 1), None),
    "mutant": (scalar(2), 2),
    # sigma_4 = sigma_{n_max + 1} at n_max 3, shared by the level-3 cofaces
    "mutant sigma_4": (scalar(2), 4),
}


@pytest.mark.parametrize("name", sorted(BURAU_ACTIONS))
def test_memoized_relations_match_the_apply_loop(name):
    a = burau_action(*BURAU_ACTIONS[name])
    assert a.tables is None
    assert assert_report_matches_reference(a).passed == (not name.startswith("mutant"))


@pytest.mark.parametrize("name", sorted(BURAU_ACTIONS))
def test_memoized_shift_words_match_the_single_identity_checks(name):
    a = burau_action(*BURAU_ACTIONS[name])
    assert a.tables is None
    assert assert_shift_words_match_reference(a, 3, 4).passed == (not name.startswith("mutant"))


def test_shift_words_match_the_single_identity_checks():
    # the report's loop against lemma_power_check and diagram_identity_check,
    # on the action of the default `braid-check --action flip`
    a = flip_action((0, 1), support=4)
    report, skipped = braid.shift_word_report(a, 3, 4)
    checked = 0
    for x in a.elements:
        for n in range(max(level_of(x, a), 0), 4):
            for big_n in range(1, min(4, a.stabilization_bound - n) + 1):
                checked += 1
                assert lemma_power_check(a, x, n, big_n)
            for i, j in itertools.combinations(range(n + 1), 2):
                checked += 1
                assert diagram_identity_check(a, i, j, n, x)
    assert report.passed and report.checked_count == checked and skipped == 32


# ---------------------------------------------------------------------------
# The SCO of a table action, against level_of and apply_word
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_table_braid_sco_matches_the_definitions(n_max):
    a = ybe_action(z3_r, range(3), 5)
    sco, report = braid.verified_braid_sco(a, n_max)
    assert a.tables is not None and sco.tables is not None
    for n in range(-1, n_max + 1):
        assert sco.level(n) == tuple(x for x in a.elements if level_of(x, a) <= n)
    for n in range(n_max + 1):
        for x in sco.level(n - 1):
            for k in range(n + 1):
                assert sco.delta(n, k, x) == a.apply_word(coface_word(k, n), x)
    # every identity delta^j delta^i = delta^i delta^{j-1} at each source
    expected = sum(
        len(sco.level(src)) * math.comb(src + 3, 2) for src in range(-1, n_max - 1)
    )
    assert report.passed and report.checked_count == expected


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("solution", ["z3", "swap"])
def test_table_braid_sco_tables_are_those_tabulate_builds(solution, n_max):
    r, y_set = YBE_SOLUTIONS[solution]
    sco = braid_sco_build(ybe_action(r, y_set, n_max + 2), n_max)
    plain = Sco(sco.levels, sco.coface, sco.augmentation, sco.exhaustive)
    assert sco.tables is not None and sco.tables == plain.tables
    # a copy with other levels is tabulated through its coface
    assert dataclasses.replace(sco, levels=sco.levels[:-1]).tables == sco.tables[:-1]


def test_the_table_braid_sco_drops_the_coface_view(monkeypatch):
    # on tables the SCO's coface reads the SCO's own tables, so the
    # carrier-wide rows of the coface views are freed when the call returns
    views = []
    indexed = braid._indexed

    def recorded(a):
        view = indexed(a)
        views.append(weakref.ref(view[2]))
        return view

    monkeypatch.setattr(braid, "_indexed", recorded)
    a = ybe_action(z3_r, range(3), 5)
    sco, report = braid.verified_braid_sco(a, 3)
    assert report.passed and "tables" in sco.__dict__
    assert len(views) == 2 and [view() for view in views] == [None, None]
    assert sco.delta(2, 1, sco.level(1)[3]) == a.apply_word(coface_word(1, 2), sco.level(1)[3])


def test_a_table_action_reports_a_coface_leaving_its_level(monkeypatch):
    # as for flip above, with the level probe on the tables mis-measuring one
    # position: the closure check reports it as a failed check
    a = ybe_action(z3_r, range(3), strands=4)
    special = a.elements.index(a.apply_word(coface_word(0, 1), a.elements[1]))
    assert special != 1
    monkeypatch.setattr(braid, "_level", lambda p, generator, bound: 5 if p == special else -1)
    with pytest.raises(VerificationError) as err:
        braid_sco_build(a, 2)
    witness = err.value.report.witness
    assert witness.description == "coface leaves its level"
    k, n, x, image_level = (witness.data[key] for key in ("k", "n", "element", "image_level"))
    assert (n, image_level) == (1, 5)
    assert a.apply_word(coface_word(k, n), x) == a.elements[special]
