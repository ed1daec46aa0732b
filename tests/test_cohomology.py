"""Cochain complexes of matrix braid actions: differentials, d d = 0,
and cohomology dimensions via the exact rank oracle."""

import functools
import random

import pytest

from cosimplex import cohomology, groups, linalg
from cosimplex.cohomology import (
    CochainComplex,
    cochain_complex,
    cohomology_dim,
    cohomology_table,
    differential,
    h1_explicit,
    module_sco,
    verify_dd_zero,
)
from cosimplex.linalg import Matrix
from cosimplex.reports import VerificationError
from cosimplex.scalars import scalar
from sample_matrices import random_matrix


def trivial_sco(dim=2, n_max=4):
    return module_sco([Matrix.identity(dim)] * (n_max + 2), n_max)


def perm_sco(size=6, n_max=4):
    return module_sco(groups.permutation_matrix_generators(size), n_max)


def burau_sco(size=7, n_max=4, t=scalar(2)):
    return module_sco(groups.burau_generators(size, t), n_max)


def test_trivial_action_differentials_alternate():
    # all cofaces are the identity, so d^n = (n+1 terms of alternating signs)
    s = trivial_sco()
    for n in range(5):
        expect = Matrix.identity(2) if n % 2 == 0 else Matrix.zero(2, 2)
        assert differential(s, n) == expect


def test_d_zero_is_the_inclusion():
    # d^0 = delta^0 : V^{-1} -> V^0 is the identity in the chosen bases
    for s in (trivial_sco(), perm_sco(), burau_sco()):
        d0 = differential(s, 0)
        assert d0.rows == s.basis(0).cols and d0.cols == s.basis(-1).cols
        assert s.basis(0) * d0 == s.basis(-1)


def test_d_one_is_sigma_minus_identity():
    # on V^0 (fixed by sigma_k, k >= 2) the alternating sum collapses to
    # d^1 x = sigma_1 x - x
    for s in (perm_sco(), burau_sco()):
        p0 = s.basis(0)
        assert s.basis(1) * differential(s, 1) == s.generator(1) * p0 - p0


def test_dd_zero_for_all_actions(burau_t):
    for s in (trivial_sco(), perm_sco(), burau_sco(t=burau_t)):
        assert verify_dd_zero(cochain_complex(s)).passed


def test_trivial_action_has_vanishing_cohomology():
    c = cochain_complex(trivial_sco())
    for n in range(c.top):
        assert cohomology_dim(c, n) == 0


def test_h0_vanishes_for_all_actions():
    for s in (trivial_sco(), perm_sco(), burau_sco()):
        assert cohomology_dim(cochain_complex(s), 0) == 0


def test_h1_generic_and_explicit_descriptions_agree():
    for s in (trivial_sco(), perm_sco(), burau_sco()):
        assert cohomology_dim(cochain_complex(s), 1) == h1_explicit(s)


def test_dimension_is_basis_independent():
    # conjugating every generator by a fixed invertible matrix changes all the
    # level bases but no cohomology dimension
    rng = random.Random(5)
    size = 6
    while True:
        p = random_matrix(rng, size, size)
        if linalg.rank(p) == size:
            break
    p_inv = linalg.inverse(p)
    gens = groups.permutation_matrix_generators(size)
    a = module_sco(gens, 3)
    b = module_sco([p * g * p_inv for g in gens], 3)
    for n in range(3):
        assert cohomology_dim(cochain_complex(a), n) == cohomology_dim(
            cochain_complex(b), n
        )


def test_mutant_differential_fails_with_witness():
    c = cochain_complex(perm_sco())
    d1 = c.diffs[1]
    bumped = d1 + Matrix.from_rows(
        [
            [scalar(1 if (i, j) == (0, 0) else 0) for j in range(d1.cols)]
            for i in range(d1.rows)
        ]
    )
    mutant = CochainComplex((c.diffs[0], bumped) + c.diffs[2:])
    rep = verify_dd_zero(mutant)
    assert not rep.passed
    assert rep.witness is not None
    assert "entry" in rep.witness.data


def test_dd_zero_needs_two_consecutive_differentials():
    c = cochain_complex(trivial_sco(n_max=0))
    assert c.top == 0
    with pytest.raises(ValueError, match="need at least two consecutive differentials"):
        verify_dd_zero(c)


def test_broken_complex_raises_on_negative_dimension():
    eye = Matrix.identity(1)
    with pytest.raises(VerificationError) as err:
        cohomology_dim(CochainComplex((eye, eye)), 0)
    assert err.value.report.witness.description == "negative cohomology dimension"


def test_cohomology_table_shape():
    s = burau_sco()
    table = cohomology_table(cochain_complex(s))
    assert [row["n"] for row in table] == list(range(4))
    for row in table:
        assert row["dim_H"] == row["dim_ker_d_next"] - row["rank_d"]
    assert table[0]["dim_H"] == 0


def test_level_bases_are_nested_fixed_spaces():
    for s in (trivial_sco(), perm_sco(), burau_sco()):
        for n in range(-1, 5):
            basis = s.basis(n)
            # every basis vector is fixed by all generators of index >= n + 2
            for k in range(n + 2, len(s.gens) + 1):
                assert s.generator(k) * basis == basis
            # V^{n-1} lies in V^n: its basis adds nothing to the span of V^n's
            if n >= 0:
                assert linalg.rank(basis.hstack(s.basis(n - 1))) == basis.cols


def sign_sco(n_max=3):
    # sigma_1..sigma_3 act as -1, so V^{-1}, V^0 and V^1 are zero and V^2 is
    # the whole line; generators beyond the list act as the identity
    return module_sco([-Matrix.identity(1)] * 3, n_max)


BURAU_Q = {
    "2": scalar(2),
    "1+i": scalar(1, 1),
    "i": scalar(0, 1),
    "3/5+4i/5": scalar("3/5", "4/5"),
    "-7/25+24i/25": scalar("-7/25", "24/25"),
}


@pytest.mark.parametrize(
    "s",
    [
        *(burau_sco(13, 10, t) for t in BURAU_Q.values()),
        perm_sco(13, 10),
        trivial_sco(3, 10),
        sign_sco(),
    ],
    ids=[*(f"burau-{q}" for q in BURAU_Q), "perm", "trivial", "sign"],
)
def test_coface_chain_matches_the_word_definition(s):
    # each level is cut from the level above, and each level's cofaces come
    # from one product chain, read off the free rows of the level's basis.
    # The basis must equal the kernel of every sigma_k - I, k >= n + 2,
    # stacked at once, and each coface the word sigma_{k+1} ... sigma_{n+1}
    # applied to V^{n-1} and solved in V^n
    eye = Matrix.identity(s.dim)
    for n in range(-1, s.n_max + 1):
        blocks = [s.generator(k) - eye for k in range(n + 2, len(s.gens) + 1)]
        expect = linalg.rank_kernel(functools.reduce(Matrix.vstack, blocks))[1] if blocks else eye
        assert s.basis(n) == expect
    for n in range(s.n_max + 1):
        src, dst = s.basis(n - 1), s.basis(n)
        for k in range(n + 1):
            if src.cols == 0:
                expect = Matrix.zero(dst.cols, 0)
            else:
                expect = linalg.solve_columns(dst, s.word_matrix(k, n) * src)
            assert s.coface_matrix(n, k) == expect


def test_sign_action_has_levels_without_columns():
    # so the chain test above meets cofaces whose source basis is empty
    s = sign_sco()
    assert [s.basis(n).cols for n in range(-1, 4)] == [0, 0, 0, 1, 1]


def test_differential_range_errors():
    s = trivial_sco(n_max=2)
    with pytest.raises(ValueError):
        differential(s, 3)
    with pytest.raises(ValueError):
        s.coface_matrix(1, 2)


def test_a_coface_image_outside_its_level_is_inconsistent():
    # sigma_1 = swap and sigma_3 = diag(1, 2) do not commute, so this is no
    # braid action: V^0 = V^1 is the line of e_1 (fixed by sigma_3), and
    # delta^0_1 = sigma_1 sigma_2 sends e_1 to e_2, which sigma_3 moves
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    stretch = Matrix.from_rows([[1, 0], [0, 2]])
    s = module_sco([swap, Matrix.identity(2), stretch], 1)
    assert s.basis(0) == s.basis(1) == Matrix.from_rows([[1], [0]])
    assert s.coface_matrix(1, 1) == Matrix.identity(1)
    with pytest.raises(ValueError, match="inconsistent system"):
        s.coface_matrix(1, 0)
