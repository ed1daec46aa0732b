"""Cosimplicial identities, partial shifts, and the correspondence between
SCOs and partial-shift systems on finite truncations."""

import collections
import dataclasses
import functools
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import seeded
from cosimplex import braid, groups, tl
from cosimplex.cli import _z3_r, ordinal_sco
from cosimplex.ncprob import tensor_sco
from cosimplex.reports import VerificationError
from cosimplex.scalars import scalar
from cosimplex.simplicial import (
    Colim,
    PartialShiftSystem,
    Sco,
    TruncationError,
    compose,
    fixed_point_filtration,
    nat_partial_shift,
    ordinal_coface,
    prop_partial_check,
    relabel,
    sco_from_shifts,
    sco_verify,
    shifts_from_sco,
    verify_partial_shifts,
)


def test_face_map_values():
    assert [ordinal_coface(4, 2, m) for m in range(4)] == [0, 1, 3, 4]
    with pytest.raises(ValueError):
        ordinal_coface(4, 2, 4)
    with pytest.raises(ValueError):
        ordinal_coface(4, 5, 0)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 20))
def test_face_map_identity_on_naturals(i, j, m):
    # delta^j delta^i = delta^i delta^{j-1} for i < j, on the shift model
    if i >= j:
        i, j = j, i + 1
    lhs = nat_partial_shift(j, nat_partial_shift(i, m))
    rhs = nat_partial_shift(i, nat_partial_shift(j - 1, m))
    assert lhs == rhs


def test_nat_partial_shift_is_injective_and_misses_k():
    values = [nat_partial_shift(3, m) for m in range(10)]
    assert len(set(values)) == 10
    assert 3 not in values


def test_ordinal_sco_verifies():
    rep = sco_verify(ordinal_sco(6))
    assert rep.passed
    assert rep.mode == "exhaustive"
    assert rep.checked_count > 0


def test_broken_coface_detected():
    base = ordinal_sco(4)
    broken = Sco(
        levels=base.levels,
        # perturbing a single coface breaks the identity with a witness
        coface=lambda n, k, x: x + 1 if (n, k) == (2, 1) else ordinal_coface(n, k, x),
    )
    rep = sco_verify(broken)
    assert not rep.passed
    assert rep.witness is not None


def test_delta_bounds():
    s = ordinal_sco(3)
    with pytest.raises(ValueError):
        s.delta(2, 3, 0)
    with pytest.raises(TruncationError):
        s.delta(4, 0, 0)


def test_shifts_round_trip_on_ordinals():
    s = ordinal_sco(5)
    p = shifts_from_sco(s)
    assert verify_partial_shifts(p).passed
    s2 = sco_from_shifts(p)
    for n in range(1, 5):
        for k in range(n + 1):
            for x in s.levels[n - 1]:
                assert s.delta(n, k, x) == s2.delta(n, k, x)


def test_partial_shift_formula():
    # alpha_k alpha_0^N mu_0 equals alpha_0^N mu_0 for N < k, else one more shift
    p = shifts_from_sco(ordinal_sco(8))
    for k in range(7):
        for n_power in range(7):
            assert prop_partial_check(p, k, n_power, 0)


def test_colimit_pushforward_equality():
    p = shifts_from_sco(ordinal_sco(4))
    a = Colim(0, 0)
    b = p.push(a, 3)
    assert b.level == 3
    assert p.colim_equal(a, b)


def test_relabel_shifts_indices():
    p = shifts_from_sco(ordinal_sco(6))
    r = relabel(p, 2)
    # relabeled alpha_0 is the original alpha_2 two levels up
    for x in p.levels[2]:
        assert r.alpha(0, 1, x) == p.alpha(2, 3, x)
    assert r.n_max == p.n_max - 2


def test_injectivity_check():
    levels = ((0, 1), (0, 1))
    collapsing = PartialShiftSystem(
        levels=levels,
        connect=lambda n, x: 0,  # both level-0 points merge downstream
        alpha=lambda k, n, x: x,
    )
    with pytest.raises(VerificationError) as err:
        sco_from_shifts(collapsing)
    assert err.value.report.witness.description == "colimit injection collides"


def test_sco_from_shifts_rejects_broken_exchange():
    levels = tuple(tuple(range(n + 1)) for n in range(4))
    bad = PartialShiftSystem(
        levels=levels,
        connect=lambda n, x: x,
        alpha=lambda k, n, x: min(x + k, n),  # not a coface family
    )
    with pytest.raises(VerificationError):
        sco_from_shifts(bad)


def test_fixed_point_filtration_from_clamped_shifts():
    # the clamped shift model on {0..9}: alpha_k(m) = min(m+1, 9) for m >= k
    carrier = tuple(range(10))
    maps = [
        (lambda k: (lambda m: m if m < k else min(m + 1, 9)))(k) for k in range(10)
    ]
    p = fixed_point_filtration(maps, carrier)
    # X_n = {x : alpha_{n+1} x = x} = {0..n} plus the clamp point 9
    for n in range(5):
        assert p.levels[n] == tuple(range(n + 1)) + (9,)
    # every shift keeps its level, so the SCO read off the system gets
    # tables; no construction derives the system's own
    assert p.tables is None and seeded(p).tables is not None
    s = sco_from_shifts(p)
    assert s.tables is not None
    assert sco_verify(s).passed


def test_fixed_point_filtration_rejects_non_commuting_maps():
    carrier = (0, 1, 2)
    maps = [lambda m: (m + 1) % 3, lambda m: m, lambda m: 2 - m]
    with pytest.raises(VerificationError) as err:
        fixed_point_filtration(maps, carrier)
    assert err.value.report.witness.description == "exchange law violated"


def test_fixed_point_filtration_reports_untruncatable_elements():
    carrier = tuple(range(10))
    maps = [
        (lambda k: (lambda m: m if m < k else m + 1 if m < 9 else 9))(k)
        for k in range(3)
    ]
    # only alpha_0, alpha_1, alpha_2 available: elements 2..8 lie outside X_1
    with pytest.raises(TruncationError):
        fixed_point_filtration(maps, carrier)


def test_augmented_verification_covers_augmentation():
    # the constant one-point SCO is augmented; the verifier must include the
    # sources at level -1 (where delta^0 sigma = delta^1 sigma is required)
    plain = Sco(
        levels=(("pt",),) * 4,
        coface=lambda n, k, x: "pt",
    )
    aug = Sco(levels=plain.levels, coface=plain.coface, augmentation=("pt",))
    assert sco_verify(aug).passed
    assert sco_verify(aug).checked_count > sco_verify(plain).checked_count


def test_ordinal_coface_keeps_the_domain_checks():
    coface = ordinal_sco(4).coface
    assert [coface(3, 1, m) for m in range(3)] == [0, 2, 3]
    for n, k, m in ((3, 4, 0), (3, -1, 0), (3, 1, 3), (3, 1, -1), (0, 0, 0)):
        with pytest.raises(ValueError):
            coface(n, k, m)


def test_a_failing_identity_is_reported_before_a_later_inner_coface_raises():
    base = ordinal_sco(4)

    def coface(n, k, x):
        if (n, k) == (1, 1):
            # first needed as the inner delta^{j-1} of (i, j) = (0, 2)
            raise RuntimeError("inner coface evaluated too early")
        if (n, k) == (2, 1):
            return x + 5  # breaks (i, j) = (0, 1) at n = 1
        return base.coface(n, k, x)

    rep = sco_verify(Sco(levels=base.levels, coface=coface))
    assert (rep.status, rep.checked_count) == ("fail", 1)
    assert rep.witness.data == {"i": 0, "j": 1, "n": 1, "element": 0}


def _reference_partial_shift_report(p):
    """verify_partial_shifts without reuse: every alpha evaluated in place."""
    ks = p.shift_indices()
    checked = 0
    for n in range(1, p.n_max):
        for k in ks:
            for x in p.levels[n - 1]:
                checked += 1
                lhs = Colim(n + 1, p.alpha(k, n + 1, p.connect(n, x)))
                if not p.colim_equal(lhs, Colim(n, p.alpha(k, n, x))):
                    return checked, ("adaptedness violated", {"k": k, "n": n, "element": x})
    for k in ks:
        if k == 0 or k > p.n_max:
            continue
        for x in p.levels[k - 1]:
            checked += 1
            if not p.colim_equal(Colim(k, p.alpha(k, k, x)), Colim(k - 1, x)):
                return checked, ("triviality violated", {"k": k, "element": x})
    for i, j in itertools.combinations(ks, 2):
        for n in range(1, p.n_max):
            for x in p.levels[n - 1]:
                checked += 1
                lhs = p.alpha(j, n + 1, p.alpha(i, n, x))
                rhs = p.alpha(i, n + 1, p.alpha(j - 1, n, x))
                if lhs != rhs:
                    return checked, (
                        "exchange law violated", {"i": i, "j": j, "n": n, "element": x}
                    )
    return checked, None


def _swapping_shift_system():
    # adapted and trivial, but alpha_2 swaps 1 and 2, which breaks
    # alpha_2 alpha_0 = alpha_0 alpha_1 first at n = 3 on the element 1
    return PartialShiftSystem(
        levels=((0,),) * 2 + ((0, 1, 2),) * 3,
        connect=lambda n, x: x,
        alpha=lambda k, n, x: (0, 2, 1)[x] if k == 2 else x,
        k_max=4,
    )


def _wrong_triviality_system():
    # the ordinal shifts with alpha_5^{(5)} sending the top element 4 of
    # level 4 to 5 instead of i_5(4) = 4; adaptedness reads alpha^{(5)} only
    # on the image of i_4, which misses 4, so triviality fails first
    p = shifts_from_sco(ordinal_sco(5))
    return PartialShiftSystem(
        p.levels, p.connect, lambda k, n, x: 5 if (k, n, x) == (5, 5, 4) else p.alpha(k, n, x)
    )


def test_a_failing_triviality_family_on_tables_is_walked_to_its_witness():
    # on tables a triviality family that holds is one block, and one that
    # fails is walked element by element, not counted as held, as through
    # the callables
    p = _wrong_triviality_system()
    for system in (p, seeded(p)):
        rep = verify_partial_shifts(system)
        # adaptedness, 7 shift indices on levels 0..3 (70); triviality,
        # k = 1..4 on levels 0..3 (10), then k = 5 up to the element 4 of
        # level 4 (5)
        assert (rep.status, rep.checked_count) == ("fail", 7 * 10 + 10 + 5)
        assert (rep.witness.description, rep.witness.data) == (
            "triviality violated", {"k": 5, "element": 4}
        )
    assert p.tables is None and seeded(p).tables is not None


def test_the_top_shift_index_applies():
    p = _swapping_shift_system()
    assert p.k_max == 4
    assert p.apply_shift(4, Colim(2, 1)) == Colim(3, 1)
    with pytest.raises(TruncationError, match="shift index 5 beyond bound 4"):
        p.apply_shift(5, Colim(2, 1))


@pytest.mark.parametrize(
    "system, tabulated",
    [
        (lambda: shifts_from_sco(ordinal_sco(7)), True),
        (
            lambda: PartialShiftSystem(
                levels=ordinal_sco(5).levels,
                connect=shifts_from_sco(ordinal_sco(5)).connect,
                alpha=lambda k, n, x: nat_partial_shift(min(k, n) + (k == 3 and n == 4), x),
            ),
            True,
        ),
        (_swapping_shift_system, True),
        (_wrong_triviality_system, True),
        # levels hold tensors of different lengths, and alpha's images carry
        # a unit slot and leave them, so alpha is evaluated through the callable
        (lambda: shifts_from_sco(tensor_sco(2, ["1/3", "2/3"], 3).sco), False),
        # levels hold unhashable lists, so alpha is evaluated through the callable
        (
            lambda: shifts_from_sco(
                Sco(
                    tuple(tuple([m] for m in range(n + 1)) for n in range(5)),
                    lambda n, k, x: [ordinal_coface(n, k, x[0])],
                )
            ),
            False,
        ),
    ],
    ids=["ordinal", "mutant-alpha", "swap", "wrong-triviality", "tensor", "unhashable"],
)
def test_partial_shift_report_matches_the_reference_loop(system, tabulated):
    # through the callables the check evaluates alpha at the same (k, n, x)
    # as the reference, only fewer times: an inner value reused at the wrong
    # level or element shows. On the tables that tabulate builds alpha is
    # evaluated once per entry, which covers every (k, n, x) of the reference
    p = system()
    calls = collections.Counter()

    def alpha(k, n, x):
        calls[k, n, repr(x)] += 1
        return p.alpha(k, n, x)

    recorded = dataclasses.replace(p, alpha=alpha)
    assert recorded.tables is None
    checked, bad = _reference_partial_shift_report(recorded)
    reference_calls = set(calls)
    calls.clear()
    results = [verify_partial_shifts(recorded)]
    assert set(calls) == reference_calls
    calls.clear()
    tabled = seeded(recorded)
    assert (tabled.tables is not None) == tabulated
    if tabulated:
        assert set(calls.values()) == {1} and set(calls) >= reference_calls
        results.append(verify_partial_shifts(tabled))
    for rep in results:
        assert rep.checked_count == checked
        assert rep.passed == (bad is None)
        if bad is not None:
            assert (rep.witness.description, rep.witness.data) == bad


def _reference_sco_report(s):
    """sco_verify without reuse: every delta evaluated in place."""
    checked = 0
    for src in range(-1 if s.augmentation is not None else 0, s.n_max - 1):
        n = src + 1
        for x in s.level(src):
            for i, j in itertools.combinations(range(n + 2), 2):
                checked += 1
                lhs = s.delta(n + 1, j, s.delta(n, i, x))
                rhs = s.delta(n + 1, i, s.delta(n, j - 1, x))
                if lhs != rhs:
                    return checked, {"i": i, "j": j, "n": n, "element": x}
    return checked, None


@pytest.mark.parametrize(
    "sco, tabulated",
    [
        (lambda: ordinal_sco(6), True),
        (lambda: tensor_sco(2, ["1/3", "2/3"], 3).sco, False),
        (
            lambda: Sco(
                levels=ordinal_sco(5).levels,
                coface=lambda n, k, x: x + 1 if (n, k, x) == (3, 2, 1) else ordinal_coface(n, k, x),
            ),
            True,
        ),
    ],
    ids=["ordinal", "tensor", "mutant"],
)
def test_sco_report_matches_the_reference_loop(sco, tabulated):
    s = sco()
    calls = collections.Counter()

    def coface(n, k, x):
        calls[n, k, repr(x)] += 1
        return s.coface(n, k, x)

    recorded = dataclasses.replace(s, coface=coface)
    checked, bad = _reference_sco_report(recorded)
    reference_calls = set(calls)
    calls.clear()
    rep = sco_verify(recorded)
    assert (recorded.tables is not None) == tabulated
    if tabulated:
        # one call per table entry, covering every (n, k, x) of the reference
        assert set(calls.values()) == {1} and set(calls) >= reference_calls
    else:
        assert set(calls) == reference_calls
    assert rep.checked_count == checked
    assert (rep.witness.data if rep.witness else None) == bad


# ---------------------------------------------------------------------------
# Position tables against the reference loops
# ---------------------------------------------------------------------------

def _one_entry_mutant(n, k, x):
    return x + 1 if (n, k, x) == (3, 2, 1) else ordinal_coface(n, k, x)


def _one_coface_mutant(n, k, x):
    return x + 1 if (n, k) == (2, 1) else ordinal_coface(n, k, x)


def _mutant_at(wrong):
    """The ordinal cofaces with wrong[n, k, x] in place of delta^k x at level n."""
    return lambda n, k, x: wrong.get((n, k, x), ordinal_coface(n, k, x))


# delta^2 : [3] -> [4] wrong at the first and at the last position of its
# table; delta^0 : [2] -> [3] fixing 0 and 2 breaks the pair (0, 2) at the
# element 0 and the earlier pair (0, 1) only at the element 1
FIRST_ENTRY, LAST_ENTRY = {(4, 2, 0): 1}, {(4, 2, 3): 3}
LATER_PAIR = {(3, 0, 0): 0, (3, 0, 2): 2}


def _one_gl_coface_mutant(n, k, m):
    # delta^1 : GL_2 -> GL_3 transposes: affine, and I + E_ab goes to I + E_b'a'
    return groups.gl_coface(k, m.transpose() if (n, k) == (2, 1) else m)


TABLE_SCOS = {
    **{f"ordinal-{n}": functools.partial(ordinal_sco, n) for n in range(2, 9)},
    **{f"sym-{n}": functools.partial(groups.sym_sco, n) for n in range(2, 5)},
    **{f"gl-{n}": functools.partial(groups.gl_sco, n) for n in range(2, 5)},
    "mutant-entry": lambda: Sco(ordinal_sco(5).levels, _one_entry_mutant),
    "mutant-coface": lambda: Sco(ordinal_sco(4).levels, _one_coface_mutant),
    "mutant-first-entry": lambda: Sco(ordinal_sco(5).levels, _mutant_at(FIRST_ENTRY)),
    "mutant-last-entry": lambda: Sco(ordinal_sco(5).levels, _mutant_at(LAST_ENTRY)),
    "mutant-later-pair": lambda: Sco(ordinal_sco(4).levels, _mutant_at(LATER_PAIR)),
    "mutant-gl-coface": lambda: dataclasses.replace(groups.gl_sco(4), coface=_one_gl_coface_mutant),
}


def _assert_sco_report_matches_reference(s):
    rep = sco_verify(s)
    checked, bad = _reference_sco_report(s)
    assert rep.checked_count == checked
    assert (rep.witness.data if rep.witness else None) == bad
    return rep


@pytest.mark.parametrize("name", sorted(TABLE_SCOS))
def test_table_checks_match_the_reference_loops(name):
    s = TABLE_SCOS[name]()
    assert s.tables is not None
    rep = _assert_sco_report_matches_reference(s)
    assert rep.passed == (not name.startswith("mutant"))
    # the shift system is seeded with the SCO's tables
    p = shifts_from_sco(s, verify=False)
    assert p.tables is not None
    rep = verify_partial_shifts(p)
    checked, bad = _reference_partial_shift_report(p)
    assert rep.checked_count == checked
    assert (rep.witness.description, rep.witness.data) == bad if bad else rep.passed


@pytest.mark.parametrize("name", sorted(TABLE_SCOS))
def test_the_shift_system_reads_its_tables_off_the_sco(name):
    s = TABLE_SCOS[name]()
    p = shifts_from_sco(s, verify=False)
    # the tables that `tabulate` builds from the same callables, each an
    # object of the SCO's tables
    assert p.tables is not None and p.tables == seeded(p).tables
    for n, row in enumerate(p.tables, 1):
        assert all(t is s.tables[n][min(k, n)] for k, t in enumerate(row[:-1]))
        assert row[-1] is s.tables[n][n]


@pytest.mark.parametrize("verified", [None, "before-shifts", "before-check"])
@pytest.mark.parametrize("name", sorted(TABLE_SCOS))
def test_seeded_shift_decisions_match_a_copy_and_the_reference(name, verified):
    # shifts_from_sco reads the failing families of its system off the
    # SCO's identity decisions, by index: exactly the families that fail at
    # some element. A copy carries no tables and is checked through its
    # callables, and the reference loop evaluates every map in place.
    # Whether and when sco_verify decides the SCO's levels is no matter
    # (ncprob verifies before building the system, the CLI after).
    s = TABLE_SCOS[name]()
    if verified == "before-shifts":
        sco_verify(s)
    p = shifts_from_sco(s, verify=False)
    if verified == "before-check":
        sco_verify(s)
    copy = dataclasses.replace(p)
    assert "failing" in p.__dict__ and copy.tables is None and copy.failing is None
    checked, bad = _reference_partial_shift_report(p)
    for system in (p, copy):
        rep = verify_partial_shifts(system)
        witness = rep.witness and (rep.witness.description, rep.witness.data)
        assert (rep.checked_count, witness) == (checked, bad)
    assert p.failing == _failing_families(p)
    assert (not p.failing[0] and not p.failing[1]) == (bad is None)


def _failing_families(p):
    """The adaptedness families (k, n) and exchange families (i, j, n) of p
    that fail at some element, every map evaluated in place."""
    ks, levels = p.shift_indices(), range(1, p.n_max)
    return frozenset(
        (k, n) for k in ks for n in levels
        if any(p.alpha(k, n + 1, p.connect(n, x)) != p.connect(n + 1, p.alpha(k, n, x))
               for x in p.levels[n - 1])
    ), frozenset(
        (i, j, n) for i, j in itertools.combinations(ks, 2) for n in levels
        if any(p.alpha(j, n + 1, p.alpha(i, n, x)) != p.alpha(i, n + 1, p.alpha(j - 1, n, x))
               for x in p.levels[n - 1])
    )


def _seeded_shift_system():
    p = shifts_from_sco(ordinal_sco(6))
    alpha = p.alpha
    # alpha_1^{(3)} sends 1 to 1 instead of 2: table 1 of level 2, entry 1
    mutant = lambda k, n, x: 1 if (k, n, x) == (1, 3, 1) else alpha(k, n, x)
    return p, {"alpha": mutant}, (2, 1, 1), verify_partial_shifts, _reference_partial_shift_report


def _seeded_braid_sco():
    sco = braid.verified_braid_sco(braid.ybe_action(_z3_r, range(3), 5), 3)[0]
    coface, x = sco.coface, sco.level(1)[3]
    # delta^1_2 sends the fourth element of level 1 to the image of the fifth
    wrong = coface(2, 1, sco.level(1)[4])
    mutant = lambda n, k, y: wrong if (n, k, y) == (2, 1, x) else coface(n, k, y)

    def reference(s):
        checked, bad = _reference_sco_report(s)
        return checked, bad and ("cosimplicial identity violated", bad)

    return sco, {"coface": mutant}, (2, 1, 3), sco_verify, reference


SEEDED = {"shifts_from_sco": _seeded_shift_system, "verified_braid_sco": _seeded_braid_sco}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_a_copy_of_a_seeded_structure_is_checked_on_its_own_callables(name):
    # the construction seeds the tables it read off its source; a copy made
    # with dataclasses.replace is a new object: an SCO tabulates its own
    # coface, and a shift system carries no tables and is checked through
    # its callables, with the count and witness of the tables that tabulate
    # builds from them and of the reference loop
    structure, change, entry, check, reference = SEEDED[name]()
    tables = structure.__dict__["tables"]
    own = (lambda s: s) if isinstance(structure, Sco) else seeded
    copy = dataclasses.replace(structure)
    assert tables is not None and own(copy).tables == tables
    assert check(copy) == check(structure)
    mutant = dataclasses.replace(structure, **change)
    assert "tables" not in mutant.__dict__
    assert isinstance(mutant, Sco) or mutant.tables is None
    tabled = own(mutant)
    assert [list(map(len, row)) for row in tabled.tables] == [list(map(len, row)) for row in tables]
    assert [
        (n, k, q)
        for n, (row, ref) in enumerate(zip(tabled.tables, tables))
        for k, (t, u) in enumerate(zip(row, ref))
        for q in range(len(t)) if t[q] != u[q]
    ] == [entry]
    for s in (mutant, tabled):
        rep = check(s)
        assert not rep.passed
        assert (rep.checked_count, (rep.witness.description, rep.witness.data)) == reference(mutant)


@pytest.mark.parametrize("wrong", [FIRST_ENTRY, LAST_ENTRY], ids=["first", "last"])
def test_a_mutant_table_differs_at_one_end(wrong):
    ((n, k, x),) = wrong
    s, ref = Sco(ordinal_sco(5).levels, _mutant_at(wrong)), ordinal_sco(5)
    assert x in (0, n - 1)
    differ = [
        (m, j, p)
        for m, (row, ref_row) in enumerate(zip(s.tables, ref.tables))
        for j, (t, u) in enumerate(zip(row, ref_row))
        for p in range(len(t))
        if t[p] != u[p]
    ]
    assert differ == [(n, k, x)]


def test_a_one_point_table_composes_to_a_one_tuple():
    # itemgetter of one item hands back the item, not a one-tuple
    assert compose((4, 6), (1,)) == (6,)
    assert compose((4, 6), ()) == ()
    # a one-element action composes its shift words and diagram identities
    # on one-point tables, a composite of which is the inner table of the
    # next
    a = seeded(braid.BraidAction(apply=lambda i, x: x, elements=(0,), stabilization_bound=3))
    assert a.tables == ((0,),) * 3
    rep = braid.verify_braid_relations(a)
    assert rep.passed and rep.checked_count == 3
    rep, skipped = braid.shift_word_report(a, 2, 3)
    assert rep.passed and (rep.checked_count, skipped) == (3 + (2 + 1) + (1 + 3), 0 + 1 + 2)


def test_the_first_witness_is_the_least_element_before_the_least_pair():
    # element-major: the pair (0, 2) fails at the element 0 of level 1,
    # before the pair (0, 1) fails at the element 1
    s = TABLE_SCOS["mutant-later-pair"]()
    assert s.tables is not None
    assert s.delta(3, 1, s.delta(2, 0, 1)) != s.delta(3, 0, s.delta(2, 0, 1))
    rep = _assert_sco_report_matches_reference(s)
    assert rep.witness.data == {"i": 0, "j": 2, "n": 2, "element": 0}
    # the 3 identities on the element of level 0, then the pairs (0, 1)
    # and (0, 2) at the element 0 of level 1
    assert rep.checked_count == 5


@pytest.mark.parametrize("name", sorted(n for n in TABLE_SCOS if not n.startswith("mutant")))
def test_sco_from_shifts_builds_the_tables_of_the_sco(name):
    s = TABLE_SCOS[name]()
    s2 = sco_from_shifts(shifts_from_sco(s))
    # s2 has no augmentation, so no table into level 0
    assert s2.tables[0] == () and s2.tables[1:] == s.tables[1:]
    _assert_sco_report_matches_reference(s2)


def test_sco_tables_call_the_coface_once_per_entry():
    calls = collections.Counter()

    def coface(n, k, x):
        calls[n, k, x] += 1
        return ordinal_coface(n, k, x)

    s = Sco(ordinal_sco(5).levels, coface)
    assert not calls  # the tables are built on first use
    assert sco_verify(s).passed
    assert set(calls.values()) == {1} and len(calls) == sum(n * (n + 1) for n in range(1, 6))
    calls.clear()
    assert sco_verify(s).passed and not calls


@pytest.mark.parametrize(
    "sco",
    [
        lambda: Sco(
            ordinal_sco(4).levels,
            lambda n, k, x: x + 5 if (n, k) == (2, 1) else ordinal_coface(n, k, x),
        ),
        lambda: Sco(
            ordinal_sco(4).levels,
            lambda n, k, x: -1 if (n, k, x) == (4, 0, 3) else ordinal_coface(n, k, x),
        ),
        # S_1 is level 0 itself: its coface lands in S_2, level 1
        lambda: Sco(
            groups.sym_sco(3).levels,
            lambda n, k, p: groups.sym_coface(k, p),
            augmentation=(groups.Permutation.identity(1),),
        ),
        lambda: Sco(
            tuple(tuple([m] for m in range(n + 1)) for n in range(4)),
            lambda n, k, x: [ordinal_coface(n, k, x[0])],
        ),
    ],
    ids=["past-the-top", "negative", "augmentation-off-level-0", "unhashable"],
)
def test_an_sco_without_tables_is_checked_through_its_coface(sco):
    s = sco()
    assert s.tables is None
    _assert_sco_report_matches_reference(s)


def _augmented_scos():
    yield groups.sym_sco(3)
    yield groups.gl_sco(3)
    yield braid.braid_sco_build(braid.flip_action((0, 1), support=3), 3)
    yield braid.braid_sco_build(braid.ybe_action(_z3_r, range(3), strands=5), 3)
    yield braid.braid_sco_build(tl.tl_conjugation_action(tl.TlParams(scalar(2)), 5), 2)


def test_every_augmented_sco_maps_its_augmentation_into_level_0():
    for s in _augmented_scos():
        assert s.augmentation
        for x in s.augmentation:
            assert s.delta(0, 0, x) in s.levels[0]
