"""End-to-end acceptance suite.

Seven checks, each exact (zero tolerance) and each finishing well under a
minute: the cosimplicial identity suites, the shift-system round trip with
the shift-composition formula, the shift-word and diagrammatic identities
for every braid action, the cochain complexes, the diagram-algebra relation
suite with the unitarity dichotomy, the spreadability checks, and mutation
sensitivity of every suite.
"""

import random
from fractions import Fraction

from cosimplex import braid, cohomology, groups, ncprob, simplicial, tl
from cosimplex.braid import (
    braid_sco_build,
    level_of,
    verify_braid_relations,
    ybe_action,
    ybe_check,
)
from cosimplex.cli import _z3_r, ordinal_sco
from cosimplex.cohomology import (
    CochainComplex,
    cochain_complex,
    cohomology_dim,
    h1_explicit,
    module_sco,
    verify_dd_zero,
)
from cosimplex.linalg import Matrix
from cosimplex.ncprob import (
    Factor,
    broken_table,
    enumerate_words,
    free_coface,
    spreadability_check,
    star_spreadability_mode,
    tensor_model,
    tensor_sco,
)
from cosimplex.scalars import ONE, ZERO, scalar
from cosimplex.simplicial import (
    Level,
    Sco,
    prop_partial_check,
    sco_from_shifts,
    sco_verify,
    shifts_from_sco,
    verify_partial_shifts,
)
from cosimplex.tl import (
    TlParams,
    e_element,
    tl_conjugation_action,
    tl_distribution,
    tl_one,
)

WEIGHTS = [Fraction(1, 3), Fraction(2, 3)]
Q2 = TlParams(scalar(2))
QI = TlParams(scalar(0, 1))
Q1 = TlParams(scalar(1))


# ---------------------------------------------------------------------------
# 1. Cosimplicial identity suites
# ---------------------------------------------------------------------------

def test_cosimplicial_identity_suites():
    rep = sco_verify(ordinal_sco(6))
    assert rep.passed and rep.mode == "exhaustive"

    tensor = tensor_sco(2, WEIGHTS, 4)  # full basis of 2x2 matrix units
    assert sco_verify(tensor.sco).passed

    assert sco_verify(groups.sym_sco(5)).passed
    assert sco_verify(groups.gl_sco(5, random.Random(0))).passed

    flip = braid.flip_action((0, 1), support=4)
    assert sco_verify(braid_sco_build(flip, 3)).passed

    ybe = ybe_action(_z3_r, range(3), strands=5)
    assert sco_verify(braid_sco_build(ybe, 3)).passed

    for params in (Q2, QI):
        action = tl_conjugation_action(params, 6)
        assert sco_verify(braid_sco_build(action, 3)).passed


# ---------------------------------------------------------------------------
# 2. Shift-system round trip and the shift-composition formula
# ---------------------------------------------------------------------------

def _assert_round_trip(s: Sco, top: int) -> None:
    p = shifts_from_sco(s)
    assert verify_partial_shifts(p).passed
    s2 = sco_from_shifts(p)
    for n in range(1, top + 1):
        for k in range(n + 1):
            for x in s.levels[n - 1].elements:
                assert s.delta(n, k, x) == s2.delta(n, k, x)
    # and back: the shifts rebuilt from the reconstructed SCO agree
    p2 = shifts_from_sco(s2, verify=False)
    for n in range(top):
        for k in range(top):
            for x in s.levels[n].elements:
                assert p.alpha(k, n + 1, x) == p2.alpha(k, n + 1, x)


def test_shift_system_round_trip_and_formula():
    _assert_round_trip(ordinal_sco(4), 4)
    small_tensor = tensor_sco(2, WEIGHTS, 4)
    _assert_round_trip(small_tensor.sco, 4)

    # alpha_k alpha_0^N mu_0 = alpha_0^N mu_0 (N < k) else alpha_0^{N+1} mu_0,
    # exhaustively on the natural-number model for k, N <= 6
    p = shifts_from_sco(ordinal_sco(8))
    for k in range(7):
        for big_n in range(7):
            for x in p.levels[0].elements:
                assert prop_partial_check(p, k, big_n, x)

    # the same formula on the tensor model over the full level-0 unit basis;
    # deep levels are only reached through the cofaces, so the carrier lists
    # above level 0 stay empty
    base = tensor_sco(2, WEIGHTS, 1)
    units0 = tuple(base.sco.levels[0].elements)
    tall = Sco(
        levels=(Level(units0),)
        + tuple(Level((), exhaustive=False) for _ in range(8)),
        coface=base.sco.coface,
    )
    pt = shifts_from_sco(tall, verify=False)
    for k in range(7):
        for big_n in range(7):
            for x in units0:
                assert prop_partial_check(pt, k, big_n, x)


# ---------------------------------------------------------------------------
# 3. Shift-word and diagrammatic identities for every action
# ---------------------------------------------------------------------------

def _all_actions():
    yield braid.flip_action((0, 1), support=5)  # bound 7: N = 4 is checked at n = 3
    ybe = ybe_action(_z3_r, range(3), strands=9)
    by_level: dict[int, list] = {}
    for x in ybe.elements:
        by_level.setdefault(level_of(x, ybe), []).append(x)
    yield braid.BraidAction(
        apply=ybe.apply,
        # every element of level <= 1, and the first few of levels 2 and 3
        elements=tuple(
            [x for lv in sorted(by_level) if lv <= 1 for x in by_level[lv]]
            + by_level[2][:9]
            + by_level[3][:9]
        ),
        stabilization_bound=ybe.stabilization_bound,
        name=ybe.name,
    )
    size = 9
    perm_gens = groups.permutation_matrix_generators(size)
    yield groups.matrix_action(perm_gens, [Matrix.identity(size)] + perm_gens[:4])
    burau_gens = groups.burau_generators(size, scalar(2))
    yield groups.matrix_action(burau_gens, [Matrix.identity(size)] + burau_gens[:4])
    tl_action = tl_conjugation_action(Q2, 9)
    yield braid.BraidAction(
        apply=tl_action.apply,
        elements=tuple(
            [tl_one(Q2, 9)] + [e_element(j, Q2, 9) for j in range(1, 5)]
        ),
        inverse_apply=tl_action.inverse_apply,
        stabilization_bound=tl_action.stabilization_bound,
        name=tl_action.name,
    )


def test_shift_word_and_diagram_identities_for_all_actions():
    for action in _all_actions():
        report, _ = braid.shift_word_report(action, 4, 4)
        assert report.passed, (action.name, report.to_json())


# ---------------------------------------------------------------------------
# 4. Cochain complexes
# ---------------------------------------------------------------------------

def _module_actions():
    yield module_sco([Matrix.identity(2)] * 6, 4)
    yield module_sco(groups.permutation_matrix_generators(7), 4)
    yield module_sco(groups.burau_generators(7, scalar(2)), 4)


def test_cochain_complexes():
    for s in _module_actions():
        c = cochain_complex(s)
        assert verify_dd_zero(c).passed
        assert cohomology_dim(c, 0) == 0
        assert cohomology_dim(c, 1) == h1_explicit(s)


# ---------------------------------------------------------------------------
# 5. Diagram-algebra relation suite and the unitarity dichotomy
# ---------------------------------------------------------------------------

def test_diagram_algebra_relations_and_dichotomy():
    for params in (Q1, Q2, QI):
        rep = tl.relation_report(params, 8)
        assert rep.passed, rep.to_json()
    assert Q1.unitary and QI.unitary and not Q2.unitary


# ---------------------------------------------------------------------------
# 6. Spreadability
# ---------------------------------------------------------------------------

def test_spreadability_tensor_and_diagram_models():
    tensor = tensor_model(2, WEIGHTS)
    assert spreadability_check(tensor, 3, 3, star=False).passed
    assert spreadability_check(
        star_spreadability_mode(tensor), 3, 3, star=True
    ).passed

    d2 = tl_distribution(Q2, m=8)
    assert not d2.star_mode  # no *-moments without unitary braid elements
    assert spreadability_check(d2, 3, 3, star=False).passed

    di = tl_distribution(QI, m=8)  # one distribution: the moment cache is shared
    assert spreadability_check(
        star_spreadability_mode(di), 3, 3, star=True
    ).passed
    assert spreadability_check(di, 3, 3, star=False).passed


def test_spreadability_broken_table_witness():
    rep = spreadability_check(broken_table(), 2, 2)
    assert not rep.passed
    data = rep.witness.data
    assert data["word"] == (Factor(0, "b"), Factor(1, "b"))
    assert data["reindexing"] == "skip position 1"
    assert data["lhs"] == ONE and data["rhs"] == ZERO


def test_spreadability_agrees_with_moment_word_cofaces():
    # the two code paths - reindexing inside spreadability_check and the
    # moment-word coface family - decide every shared instance identically
    for d, degree, pos_bound in (
        (tensor_model(2, WEIGHTS), 3, 3),
        (broken_table(), 2, 2),
    ):
        instances = []
        for w in enumerate_words(d.alphabet, degree, pos_bound, star=False):
            base = d.eval_word(w)
            for k in range(pos_bound + 1):
                image = free_coface(k, pos_bound + 1, w)
                instances.append(d.eval_word(image) == base)
        rep = spreadability_check(d, degree, pos_bound)
        assert all(instances) == rep.passed
        if not rep.passed:
            witness = rep.witness.data
            k = int(witness["reindexing"].rsplit(" ", 1)[1])
            image = free_coface(k, pos_bound + 1, witness["word"])
            assert d.eval_word(image) != d.eval_word(witness["word"])


# ---------------------------------------------------------------------------
# 7. Mutation sensitivity: one-line mutants fail with witnesses
# ---------------------------------------------------------------------------

def test_mutant_coface_fails_identity_suite():
    base = ordinal_sco(4)
    mutant = Sco(
        levels=base.levels,
        coface=lambda n, k, x: x + 1
        if (n, k) == (2, 1)
        else simplicial.ordinal_coface(n, k, x),
    )
    rep = sco_verify(mutant)
    assert not rep.passed and rep.witness is not None


def test_mutant_shift_fails_shift_verification():
    p = shifts_from_sco(ordinal_sco(4))
    mutant = simplicial.PartialShiftSystem(
        levels=p.levels,
        connect=p.connect,
        alpha=lambda k, n, x: p.alpha(k, n, x) + (1 if (k, n, x) == (1, 2, 0) else 0),
    )
    rep = verify_partial_shifts(mutant)
    assert not rep.passed and rep.witness is not None


def test_mutant_braid_action_fails_relations():
    flip = braid.flip_action((0, 1), support=3)
    mutant = braid.BraidAction(
        apply=lambda i, x: flip.apply(i + 1 if i == 1 else i, x),
        elements=flip.elements,
        stabilization_bound=flip.stabilization_bound,
    )
    rep = verify_braid_relations(mutant)
    assert not rep.passed and rep.witness is not None


def test_mutant_differential_fails_complex_check():
    c = cochain_complex(module_sco(groups.permutation_matrix_generators(6), 3))
    bump = Matrix.from_rows(
        [
            [scalar(1 if (i, j) == (0, 0) else 0) for j in range(c.diffs[1].cols)]
            for i in range(c.diffs[1].rows)
        ]
    )
    mutant = CochainComplex((c.diffs[0], c.diffs[1] + bump) + c.diffs[2:])
    rep = verify_dd_zero(mutant)
    assert not rep.passed and rep.witness is not None


def test_mutant_trace_coefficient_fails_relation_suite(monkeypatch):
    # loop factor off by one power of the loop parameter
    def mutant_trace(x):
        beta = x.params.beta
        out = tl.coeff_zero()
        for d, c in x.coefficients().items():
            out = tl.coeff_add(
                out,
                tl.coeff_mul(
                    c,
                    tl.delta_power(tl.closure_loops(d) - x.strands + 2, beta),
                    beta,
                ),
            )
        return out

    monkeypatch.setattr(tl, "markov_trace", mutant_trace)
    rep = tl.relation_report(Q2, 5)
    assert not rep.passed and rep.witness is not None


def test_mutant_moment_table_fails_spreadability():
    rep = spreadability_check(broken_table(), 2, 2)
    assert not rep.passed and rep.witness is not None


def test_mutant_yang_baxter_map_is_rejected():
    broken = lambda a, b: (a, (a + b) % 3)
    rep = ybe_check(broken, range(3))
    assert not rep.passed and rep.witness is not None
    # r12 r23 r12 sends (0, 1, 0) to (0, 1, 1), r23 r12 r23 sends it to (0, 1, 2)
    assert rep.witness.data == {"triple": (0, 1, 0)} and rep.checked_count == 4
