"""Permutation and matrix SCOs, braid-word conjugation, and the two
braid-word equality oracles (symmetric quotient and Burau evaluation)."""

import random

import pytest

from cosimplex import groups, linalg
from cosimplex.braid import BraidWord
from cosimplex.groups import (
    Permutation,
    braid_conj_coface,
    burau_generators,
    burau_of_word,
    coxeter,
    embed,
    gl_coface,
    gl_sco,
    matrix_action,
    perm_of_word,
    permutation_matrix_generators,
    square_root_generator,
    star,
    sym_coface,
    sym_sco,
)
from cosimplex.linalg import Matrix
from cosimplex.scalars import GaussInt, scalar
from cosimplex.simplicial import sco_verify
from cosimplex.braid import verify_braid_relations
from sample_matrices import random_matrix


def test_permutation_group_axioms():
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    assert (p * q).images == tuple(p(q(i)) for i in range(3))
    assert p * p.inverse() == Permutation.identity(3)
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_cycle_and_transposition():
    c = Permutation.cycle(1, 3)
    assert c.images == (0, 2, 3, 1)
    t = Permutation.transposition(0, 2, 4)
    assert t.images == (2, 1, 0, 3)


def test_permutation_matrix_is_a_representation():
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    assert (p * q).matrix() == p.matrix() * q.matrix()


def test_sym_coface_inserts_fixed_point():
    p = Permutation((1, 0))  # the swap in S_2
    for k in range(3):
        img = sym_coface(k, p)
        assert img(k) == k
    assert sym_coface(0, p).images == (0, 2, 1)
    assert sym_coface(2, p).images == (1, 0, 2)


def test_sym_sco_verifies():
    assert sco_verify(sym_sco(4)).passed


@pytest.mark.parametrize("n_max, checked", [(2, 4), (3, 16), (4, 76), (5, 436)])
def test_sym_and_gl_scos_check_one_identity_per_augmentation_element(n_max, checked):
    # S_0 and GL_0 augment: one identity at level -1, then those of the
    # levels 0 ... n_max - 2; the GL level n - 1 holds 1 + n^2 matrices
    rep = sco_verify(sym_sco(n_max))
    assert (rep.status, rep.checked_count) == ("pass", checked)
    assert sym_sco(n_max).augmentation == (Permutation.identity(0),)
    gl = gl_sco(n_max)
    assert gl.augmentation == (Matrix.identity(0),)
    assert sco_verify(gl).checked_count == 1 + sum(
        (1 + n * n) * (n + 2) * (n + 1) // 2 for n in range(1, n_max)
    )


def test_gl_coface_inserts_unit_row_and_column():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    img = gl_coface(1, m)
    assert img == Matrix.from_rows([[1, 0, 2], [0, 1, 0], [3, 0, 4]])
    assert embed(m) == Matrix.from_rows([[1, 2, 0], [3, 4, 0], [0, 0, 1]])


def test_gl_coface_is_conjugated_corner_embedding():
    # inserting at k equals conjugating diag(m, 1) by the cycle (k .. n)
    m = random_matrix(random.Random(3), 3, 3)
    for k in range(4):
        c = Permutation.cycle(k, 3).matrix()
        assert gl_coface(k, m) == c * embed(m) * linalg.inverse(c)


def _coface_by_entries(k, m):
    """gl_coface built entry by entry through QQi: the reference."""
    n = m.rows
    return Matrix.from_rows(
        [
            [
                scalar(int(i == j)) if k in (i, j) else m[(i - (i > k), j - (j > k))]
                for j in range(n + 1)
            ]
            for i in range(n + 1)
        ]
    )


def test_gl_coface_matches_the_entrywise_construction():
    rng = random.Random(11)
    for n in range(5):
        for _ in range(3):
            real = Matrix.from_rows(
                [[scalar(f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}") for _ in range(n)] for _ in range(n)]
            )
            gauss = Matrix.from_rows(
                [
                    [scalar(f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}", rng.randint(-2, 2)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            assert all(type(x) is int for row in real.nums for x in row)
            assert n == 0 or any(isinstance(x, GaussInt) for row in gauss.nums for x in row)
            for m in (real, gauss):
                for k in range(n + 1):
                    assert gl_coface(k, m) == _coface_by_entries(k, m)


def test_gl_sco_verifies_exhaustively_on_tables():
    s = gl_sco(4)
    for n, level in enumerate(s.levels):
        # I and the I + E_ab: distinct, invertible, and affinely spanning M_{n+1}
        assert len(set(level)) == len(level) == 1 + (n + 1) ** 2
        assert all(linalg.rank(m) == n + 1 for m in level)
        steps = [[x for row in (m - level[0]).entries for x in row] for m in level[1:]]
        assert linalg.rank(Matrix.from_rows(steps)) == (n + 1) ** 2
    assert s.tables is not None
    rep = sco_verify(s)
    assert (rep.status, rep.checked_count, rep.mode) == ("pass", 137, "exhaustive")


def test_star_generator_rule():
    # delta^k gamma_N = gamma_N if N < k else gamma_{N+1}, for k >= 1
    for n in range(1, 4):
        for k in range(1, n + 2):
            g = star(n, n + 1)
            img = sym_coface(k, g)
            expect = star(n, n + 2) if n < k else star(n + 1, n + 2)
            assert img == expect


def test_coxeter_generator_rule_for_delta_zero():
    # delta^0 sigma_N = sigma_{N+1}
    for n in range(1, 4):
        assert sym_coface(0, coxeter(n, n + 1)) == coxeter(n + 1, n + 2)


def test_coxeter_quotient_of_braid_words():
    w = BraidWord.positive([1, 2, 1])
    v = BraidWord.positive([2, 1, 2])
    assert perm_of_word(w, 4) == perm_of_word(v, 4)
    assert perm_of_word(BraidWord.positive([1]), 3) == coxeter(1, 3)


def test_square_root_generator_projects_to_star():
    for n in range(1, 5):
        g = square_root_generator(n)
        assert perm_of_word(g, 6) == star(n, 6)


def test_burau_satisfies_braid_relations(burau_t):
    t = burau_t
    b1 = burau_of_word(BraidWord.positive([1, 2, 1]), 4, t)
    b2 = burau_of_word(BraidWord.positive([2, 1, 2]), 4, t)
    assert b1 == b2
    far = burau_of_word(BraidWord.positive([1, 3]), 5, t)
    raf = burau_of_word(BraidWord.positive([3, 1]), 5, t)
    assert far == raf


def test_burau_inverse_letters(burau_t):
    w = BraidWord(((2, 1), (2, -1)))
    assert burau_of_word(w, 4, burau_t) == Matrix.identity(4)


def test_braid_conj_coface_identities_via_oracles():
    # the conjugation cofaces satisfy the cosimplicial identities, certified
    # in the symmetric quotient and under Burau at t = 2
    size, t = 8, scalar(2)
    w = BraidWord.positive([1, 2])
    for n in (3, 4):
        for i in range(n + 1):
            for j in range(i + 1, n + 2):
                if j > n + 1 or i > n:
                    continue
                lhs = braid_conj_coface(j, n + 1, braid_conj_coface(i, n, w))
                rhs = braid_conj_coface(i, n + 1, braid_conj_coface(j - 1, n, w))
                assert perm_of_word(lhs, size) == perm_of_word(rhs, size)
                assert burau_of_word(lhs, size, t) == burau_of_word(rhs, size, t)


def test_braid_conj_coface_coxeter_rule_for_delta_zero():
    # delta^0 sigma_N = sigma_{N+1}, certified under both oracles
    size, t = 8, scalar(2)
    for n_gen in (1, 2, 3):
        w = BraidWord.positive([n_gen])
        img = braid_conj_coface(0, n_gen + 1, w)
        expect = BraidWord.positive([n_gen + 1])
        assert perm_of_word(img, size) == perm_of_word(expect, size)
        assert burau_of_word(img, size, t) == burau_of_word(expect, size, t)


def test_braid_conj_coface_square_root_rule():
    # delta^k gamma_N = gamma_N (N < k) or gamma_{N+1} (N >= k) for k >= 1;
    # at k = 0 the Coxeter rule delta^0 sigma_N = sigma_{N+1} applies instead
    size, t = 8, scalar(2)
    for n_gen in (1, 2, 3):
        g = square_root_generator(n_gen)
        level = n_gen + 1  # gamma_N uses generators up to index N <= level - 1
        for k in range(1, level + 1):
            img = braid_conj_coface(k, level, g)
            expect = g if n_gen < k else square_root_generator(n_gen + 1)
            assert perm_of_word(img, size) == perm_of_word(expect, size)
            assert burau_of_word(img, size, t) == burau_of_word(expect, size, t)


def test_matrix_actions_satisfy_braid_relations():
    size = 5
    for gens in (
        permutation_matrix_generators(size),
        burau_generators(size, scalar(2)),
    ):
        action = matrix_action(gens, gens[:2])
        assert verify_braid_relations(action).passed


def test_burau_rejects_zero_parameter():
    with pytest.raises(ValueError):
        groups.burau_eval(1, 3, scalar(0))
