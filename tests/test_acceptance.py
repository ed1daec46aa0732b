"""End-to-end acceptance suite.

Seven checks, each exact (zero tolerance) and each finishing well under a
minute: the cosimplicial identity suites, the shift-system round trip with
the shift-composition formula, the shift-word and diagrammatic identities
for every braid action, the cochain complexes, the diagram-algebra relation
suite with the unitarity dichotomy, the spreadability checks, and mutation
sensitivity of every suite.
"""

import dataclasses
import functools
import operator
from fractions import Fraction

from cosimplex import braid, cohomology, groups, ncprob, reports, simplicial, tl
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
    spreadability_check,
    star_spreadability_mode,
    tensor_model,
    tensor_sco,
)
from cosimplex.scalars import ONE, ZERO, scalar
from cosimplex.simplicial import (
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
    spreadable_projection,
    tl_conjugation_action,
    tl_distribution,
    tl_one,
    trace_scalar,
)
from conftest import reference_spreadability
from tl_reference import coeff_add, coeff_mul, coeff_zero, delta_power

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
    assert sco_verify(groups.gl_sco(5)).passed

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
            for x in s.levels[n - 1]:
                assert s.delta(n, k, x) == s2.delta(n, k, x)
    # and back: the shifts rebuilt from the reconstructed SCO agree
    p2 = shifts_from_sco(s2, verify=False)
    for n in range(top):
        for k in range(top):
            for x in s.levels[n]:
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
            for x in p.levels[0]:
                assert prop_partial_check(p, k, big_n, x)

    # the same formula on the tensor model over the full level-0 unit basis;
    # deep levels are only reached through the cofaces, so the carrier lists
    # above level 0 stay empty
    base = tensor_sco(2, WEIGHTS, 1)
    units0 = base.sco.levels[0]
    tall = Sco(
        levels=(units0,) + ((),) * 8,
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

    di = tl_distribution(QI, m=8)  # one distribution: its product and trace caches are shared
    assert spreadability_check(
        star_spreadability_mode(di), 3, 3, star=True
    ).passed
    assert spreadability_check(di, 3, 3, star=False).passed


def moment_reference_report(params, m, degree, pos_bound):
    """The moments of a fresh `tl_distribution` against the trace of each
    word's left-to-right product of projections. Spreadability cannot see an
    error that scales every moment of one length alike; this check can."""
    d = tl_distribution(params, m)
    projections = list(map(spreadable_projection(1, params, m), range(pos_bound + 1)))

    def checks():
        for w in enumerate_words(("e",), degree, pos_bound, star=False):
            lhs = d.eval_word(w)
            rhs = trace_scalar(functools.reduce(operator.mul, (projections[f.pos] for f in w)))
            yield None if lhs == rhs else (
                "moment differs from the trace of the product", {"word": w, "lhs": lhs, "rhs": rhs}
            )

    return reports.run_checks(checks())


def test_spreadability_broken_table_witness():
    rep = spreadability_check(broken_table(), 2, 2)
    assert not rep.passed
    data = rep.witness.data
    assert data["word"] == (Factor(0, "b"), Factor(1, "b"))
    assert data["reindexing"] == "skip position 1"
    assert data["lhs"] == ONE and data["rhs"] == ZERO


def test_spreadability_agrees_with_moment_word_cofaces():
    # the two code paths - reindexing inside spreadability_check and the
    # moment-word coface family - decide every shared instance identically,
    # with the same count and first witness; the tensor model is checked
    # through its own incremental form and through the default one, whose
    # state is the word and which the table model uses; the TL model's
    # form has the product of the prefix as its state
    tensor = tensor_model(2, WEIGHTS)
    verdicts = []
    for d, degree, pos_bound in (
        (tensor, 3, 3),
        (dataclasses.replace(tensor, incremental=None), 3, 3),
        (broken_table(), 2, 2),
        (tl_distribution(Q2, m=8), 3, 3),
    ):
        checked, witness = reference_spreadability(d, degree, pos_bound)
        rep = spreadability_check(d, degree, pos_bound)
        assert rep.passed == (witness is None)
        assert rep.checked_count == checked
        assert (rep.witness.data if rep.witness else None) == witness
        assert rep.notes == (
            f"bounds: degree<={degree}, positions<={pos_bound}, star=False",
            "reindexings reduced to elementary skips (these generate all strictly increasing maps)",
        )
        verdicts.append(rep.passed)
    assert verdicts == [True, True, False, True]


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


def test_mutant_table_coface_fails_identity_suite():
    # one wrong entry of one coface table: the mutant keeps every level, so
    # the SCO and its shift system are checked on their position tables
    mutant = Sco(
        levels=ordinal_sco(4).levels,
        coface=lambda n, k, x: x + 1
        if (n, k, x) == (3, 2, 1)
        else simplicial.ordinal_coface(n, k, x),
    )
    rep = sco_verify(mutant)
    assert mutant.tables is not None
    assert not rep.passed and rep.witness is not None
    shifts = shifts_from_sco(mutant, verify=False)
    rep = verify_partial_shifts(shifts)
    assert shifts.tables is not None
    assert not rep.passed and rep.witness is not None


def test_mutant_affine_gl_coface_fails_the_spanning_set():
    # delta^0 copies the intersection entry from m[0, 0] instead of 1: still
    # affine in m and right at I, so only the matrices past I can see it. A
    # copy at every k would be no mutant: cofaces that all insert m[0, 0]
    # satisfy the identities too.
    def coface(n, k, m):
        img = groups.gl_coface(k, m)
        if k > 0 or m.rows == 0:
            return img
        rows = [list(row) for row in img.entries]
        rows[0][0] = m[0, 0]
        return Matrix.from_rows(rows)

    mutant = dataclasses.replace(groups.gl_sco(4), coface=coface)
    rep = sco_verify(mutant)
    assert (rep.status, rep.checked_count, rep.mode) == ("fail", 5, "exhaustive")
    assert rep.witness.data == {"i": 0, "j": 1, "n": 1, "element": Matrix.from_rows([[2]])}


def test_mutant_shift_fails_shift_verification():
    p = shifts_from_sco(ordinal_sco(4))
    mutant = simplicial.PartialShiftSystem(
        levels=p.levels,
        connect=p.connect,
        alpha=lambda k, n, x: p.alpha(k, n, x) + (1 if (k, n, x) == (1, 2, 0) else 0),
    )
    rep = verify_partial_shifts(mutant)
    assert not rep.passed and rep.witness is not None


def test_mutant_tensor_coface_fails_identity_suite():
    # delta^1_3 inserts the unit one slot late, in slot 2
    base = tensor_sco(2, WEIGHTS, 4).sco
    mutant = dataclasses.replace(
        base, coface=lambda n, k, x: base.coface(n, k + ((n, k) == (3, 1)), x)
    )
    rep = sco_verify(mutant)
    assert (rep.status, rep.checked_count) == ("fail", 13)
    assert rep.witness.data == {"i": 0, "j": 1, "n": 2, "element": ((0, 0), (0, 0))}


def test_mutant_tensor_product_fails_the_tensor_model():
    # a unit slot annihilates its partner instead of leaving it as it is
    ps = tensor_sco(2, WEIGHTS, 3)

    def multiply(x, y):
        return None if x is None or y is None or None in x + y else ps.multiply(x, y)

    mutant = ncprob.sequence_distribution(dataclasses.replace(ps, multiply=multiply))
    model = tensor_model(2, WEIGHTS)
    first = next(
        w
        for w in enumerate_words(model.alphabet, 2, 2, True)
        if mutant.eval_word(w) != model.eval_word(w)
    )
    assert first == (Factor(0, (0, 0)), Factor(1, (0, 0)))
    assert (mutant.eval_word(first), model.eval_word(first)) == (ZERO, scalar(Fraction(1, 9)))


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
        out = coeff_zero()
        for d, c in x.coefficients().items():
            out = coeff_add(
                out, coeff_mul(c, delta_power(tl._closure(tl.diagram_id(d.match)) + 2, beta), beta)
            )
        return out

    monkeypatch.setattr(tl, "markov_trace", mutant_trace)
    rep = tl.relation_report(Q2, 5)
    assert not rep.passed and rep.witness is not None


def test_mutant_shared_trace_rows_fail_the_moment_reference(monkeypatch):
    rep = moment_reference_report(Q2, 7, 3, 3)
    assert rep.passed and rep.checked_count == 4 + 16 + 64, rep.to_json()
    # trace rows keyed by the left diagram alone: a row built against one
    # right factor is read back for every other
    shared: dict = {}
    trace = tl.trace_of_product

    def mutant_trace(x, y):
        y.rows = shared
        return trace(x, y)

    monkeypatch.setattr(tl, "trace_of_product", mutant_trace)
    rep = moment_reference_report(Q2, 7, 3, 3)
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
