"""Exact linear algebra: rank, kernel, inverse, and solver properties, and the
integer-grid kernel checked against a plain QQi reference."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosimplex import linalg
from cosimplex.linalg import Matrix, from_columns, rank, rank_kernel, solve_columns
from cosimplex.scalars import ONE, ZERO, GaussInt, QQi, gauss, scalar
from sample_matrices import random_matrix

small_entries = st.integers(min_value=-4, max_value=4)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(small_entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(Matrix.from_rows)


def test_known_kernel():
    # the kernel of [[1,2],[2,4]] is spanned by (2, -1) after normalization
    m = Matrix.from_rows([[1, 2], [2, 4]])
    rk, basis = rank_kernel(m)
    assert rk == 1
    assert basis.cols == 1
    assert (m * basis).is_zero()
    assert basis == from_columns([(scalar(-2), ONE)])


def test_identity_and_zero():
    assert rank(Matrix.identity(4)) == 4
    assert rank(Matrix.zero(3, 5)) == 0
    assert rank_kernel(Matrix.zero(3, 5))[1].cols == 5


@settings(max_examples=40)
@given(small_matrix(3, 4))
def test_rank_nullity(m):
    rk, basis = rank_kernel(m)
    assert rk + basis.cols == m.cols
    assert (m * basis).is_zero()


@settings(max_examples=40)
@given(small_matrix(3, 3), small_matrix(3, 3))
def test_rank_subadditive_under_product(a, b):
    assert rank(a * b) <= min(rank(a), rank(b))


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(10):
        m = random_matrix(rng, 4, 4)
        if rank(m) < 4:
            continue
        inv = linalg.inverse(m)
        assert m * inv == Matrix.identity(4)
        assert inv * m == Matrix.identity(4)


def test_inverse_of_singular_raises():
    with pytest.raises(ValueError):
        linalg.inverse(Matrix.from_rows([[1, 2], [2, 4]]))


def test_solve_columns_round_trip():
    rng = random.Random(11)
    a = random_matrix(rng, 4, 2)
    while rank(a) < 2:
        a = random_matrix(rng, 4, 2)
    x = random_matrix(rng, 2, 3)
    b = a * x
    assert solve_columns(a, b) == x


def test_solve_columns_inconsistent():
    a = Matrix.from_rows([[1], [0]])
    b = Matrix.from_rows([[0], [1]])
    with pytest.raises(ValueError, match="inconsistent system"):
        solve_columns(a, b)


def test_solve_columns_rank_deficient():
    a = Matrix.from_rows([[1, 2], [2, 4]])
    b = Matrix.from_rows([[1], [2]])
    with pytest.raises(ValueError, match="full column rank"):
        solve_columns(a, b)


def test_column_space_basis():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    basis = linalg.column_space_basis(m)
    assert basis.cols == rank(m) == 2


def test_stacking_and_transpose():
    a = Matrix.from_rows([[1, 2]])
    b = Matrix.from_rows([[3, 4]])
    assert a.vstack(b) == Matrix.from_rows([[1, 2], [3, 4]])
    assert a.hstack(b) == Matrix.from_rows([[1, 2, 3, 4]])
    assert a.transpose() == Matrix.from_rows([[1], [2]])


def test_conj_transpose():
    m = Matrix.from_rows([[scalar(1, 2)]])
    assert m.conj_transpose() == Matrix.from_rows([[scalar(1, -2)]])


def test_from_columns():
    cols = [(ONE, ZERO), (ZERO, ONE)]
    assert from_columns(cols) == Matrix.identity(2)


# ---------------------------------------------------------------------------
# The integer-grid kernel against a plain QQi reference
# ---------------------------------------------------------------------------

def ref_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)] for row in a]


def ref_rref(rows):
    """Gauss-Jordan elimination over QQi; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * e for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def ref_rank_kernel(rows, cols):
    red, pivots = ref_rref(rows)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return len(pivots), basis


def as_lists(m):
    return [list(row) for row in m.entries]


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussian = st.builds(QQi, small_fractions, small_fractions)
# zeros make rank-deficient matrices common
entries = st.one_of(st.just(ZERO), st.builds(QQi, small_fractions), gaussian)


def gaussian_matrix(rows, cols):
    # one row in four is zero, so elimination sets rows aside anywhere
    row = st.integers(0, 3).flatmap(
        lambda k: st.lists(entries, min_size=cols, max_size=cols) if k else st.just([ZERO] * cols)
    )
    return st.lists(row, min_size=rows, max_size=rows).map(Matrix.from_rows)


shapes = st.tuples(*[st.integers(min_value=1, max_value=4)] * 3)


@settings(max_examples=60, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(
    gaussian_matrix(s[0], s[1]), gaussian_matrix(s[0], s[1]), gaussian_matrix(s[1], s[2]), gaussian)))
def test_arithmetic_matches_reference(abc):
    a, a2, b, c = abc
    assert as_lists(a * b) == ref_mul(as_lists(a), as_lists(b))
    assert as_lists(a + a2) == [[x + y for x, y in zip(r, s)] for r, s in zip(a.entries, a2.entries)]
    assert as_lists(a - a2) == [[x - y for x, y in zip(r, s)] for r, s in zip(a.entries, a2.entries)]
    assert as_lists(a.scale(c)) == [[c * x for x in row] for row in a.entries]
    assert as_lists(-a) == [[-x for x in row] for row in a.entries]
    assert as_lists(a.conj_transpose()) == [[x.conj() for x in col] for col in zip(*a.entries)]
    assert a.apply(b.transpose().entries[0]) == tuple(row[0] for row in ref_mul(as_lists(a), as_lists(b)))


nonzero_numerators = st.one_of(
    st.integers(-3, 3).filter(bool), st.builds(gauss, st.integers(-3, 3), st.integers(-3, 3).filter(bool))
)


@st.composite
def sparse_matrix(draw, rows, cols):
    """A numerator grid whose rows are zero, one unit entry, one other entry,
    nonzeros in at most half the columns, or full, over a small denominator."""
    grid = []
    for _ in range(rows):
        row = [0] * cols
        kind = draw(st.sampled_from(["zero", "unit", "single", "few", "full"]))
        if kind == "full":
            picks = range(cols)
        elif kind == "few":
            picks = draw(st.sets(st.integers(0, cols - 1), min_size=1, max_size=max(1, cols // 2)))
        else:
            picks = [] if kind == "zero" else [draw(st.integers(0, cols - 1))]
        for j in picks:
            row[j] = 1 if kind == "unit" else draw(nonzero_numerators)
        grid.append(tuple(row))
    return Matrix.from_numerators(draw(st.sampled_from([1, 1, 2, 3])), tuple(grid))


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(min_value=1, max_value=7)] * 3).flatmap(
    lambda s: st.tuples(sparse_matrix(s[0], s[1]), sparse_matrix(s[1], s[2]))))
def test_sparse_products_match_reference(ab):
    a, b = ab
    assert as_lists(a * b) == ref_mul(as_lists(a), as_lists(b))


def test_unit_rows_hand_over_the_rows_they_select():
    # rows of a that hold one entry 1 cost no arithmetic: the product's rows
    # are the very rows of m that they select
    m = Matrix.from_rows([[1, 2, 3], [scalar(0, 1), 0, 5], ["1/2", 0, 0]])
    perm = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for a, order in ((Matrix.identity(3), (0, 1, 2)), (perm, (1, 2, 0))):
        product = a * m
        assert product == Matrix.from_rows([m.entries[j] for j in order])
        assert all(product.nums[i] is m.nums[j] for i, j in enumerate(order))


def assert_numerator_form(m):
    """Each numerator of m is an int exactly when its imaginary part is 0."""
    for row in m.nums:
        for n in row:
            assert type(n) is (int if n.imag == 0 else GaussInt)


@settings(max_examples=60, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(
    gaussian_matrix(s[0], s[1]), gaussian_matrix(s[0], s[1]), gaussian_matrix(s[1], s[2]), gaussian)))
def test_results_keep_the_numerator_form(abc):
    a, a2, b, c = abc
    square = a * a.conj_transpose()
    results = [
        a, a * b, a + a2, a - a2, -a, a.scale(c), a.conj_transpose(), a.hstack(a2),
        a.vstack(a2), linalg.column_space_basis(a), rank_kernel(a)[1],
    ]
    if rank(square) == square.rows:
        results += [linalg.inverse(square), solve_columns(square, a)]
    for m in results:
        assert_numerator_form(m)


@settings(max_examples=60, deadline=None)
@given(shapes.flatmap(lambda s: gaussian_matrix(s[0], s[1])))
def test_elimination_matches_reference(m):
    rk, basis = rank_kernel(m)
    ref_rk, ref_basis = ref_rank_kernel(m.entries, m.cols)
    assert rk == ref_rk
    assert basis == (from_columns(ref_basis) if ref_basis else Matrix.zero(m.cols, 0))
    assert rank(m) == rk
    _, pivots = ref_rref(m.entries)
    cols = list(zip(*m.entries))
    assert linalg.column_space_basis(m) == (
        from_columns([cols[c] for c in pivots]) if pivots else Matrix.zero(m.rows, 0)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: gaussian_matrix(n, n)))
def test_inverse_matches_reference(m):
    n = m.rows
    red, pivots = ref_rref([row + Matrix.identity(n).entries[i] for i, row in enumerate(m.entries)])
    if pivots != list(range(n)):
        with pytest.raises(ValueError):
            linalg.inverse(m)
    else:
        assert as_lists(linalg.inverse(m)) == [row[n:] for row in red]


@settings(max_examples=60, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(
    gaussian_matrix(s[0] + s[1], s[1]), gaussian_matrix(s[1], s[2]), gaussian_matrix(s[0] + s[1], s[2]))))
def test_solve_columns_matches_reference(abx):
    a, x, junk = abx
    for b in (a * x, junk):
        red, pivots = ref_rref([ra + rb for ra, rb in zip(a.entries, b.entries)])
        if pivots != list(range(a.cols)):
            with pytest.raises(ValueError):
                solve_columns(a, b)
        else:
            assert as_lists(solve_columns(a, b)) == [row[a.cols:] for row in red[: a.cols]]


@settings(max_examples=40, deadline=None)
@given(shapes.flatmap(lambda s: gaussian_matrix(s[0], s[1])), st.integers(min_value=-6, max_value=6).filter(bool))
def test_equal_matrices_have_one_form(m, k):
    same = [Matrix(m.entries), m.scale(scalar(k)).scale(scalar(Fraction(1, k))), -(-m)]
    for other in same:
        assert other == m
        assert hash(other) == hash(m)
        assert (other.den, other.nums) == (m.den, m.nums)


def test_equal_fractions_in_other_terms():
    halves = [
        Matrix.from_rows([[Fraction(2, 4), scalar(0, Fraction(-3, 6))]]),
        Matrix.from_rows([[Fraction(1, 2), scalar(0, Fraction(1, -2))]]),
        Matrix.from_rows([["1/2", scalar(0, "-1/2")]]),
        Matrix.from_rows([[2, scalar(0, -2)]]).scale(scalar(Fraction(1, 4))),
    ]
    for m in halves:
        assert m == halves[0] and hash(m) == hash(halves[0])
    assert halves[0] != Matrix.from_rows([[Fraction(1, 2), scalar(0, Fraction(1, 2))]])
    assert Matrix.from_rows([[0, 0]]).scale(scalar(3)) == Matrix.zero(1, 2)


def test_empty_shapes():
    tall = Matrix.zero(3, 0)
    assert (tall.rows, tall.cols) == (3, 0)
    assert tall.entries == ((), (), ())
    assert rank_kernel(tall) == (0, Matrix(()))
    assert tall != Matrix.zero(2, 0)
    empty = Matrix(())
    assert (empty.rows, empty.cols) == (0, 0)
    assert empty == from_columns([]) == Matrix.zero(0, 5) == tall.transpose()
    assert hash(empty) == hash(from_columns([]))
    assert rank_kernel(empty) == (0, empty)
    assert linalg.inverse(empty) == empty
    assert (tall * empty).entries == ((), (), ())
    assert empty * empty == empty
    assert Matrix.zero(2, 3) * Matrix.from_rows([[1, 2], [3, 4], [5, 6]]) == Matrix.zero(2, 2)
    assert (Matrix.from_rows([[1, 2], [0, 0]]) * Matrix.zero(2, 0)).entries == ((), ())
    assert tall.apply(()) == (ZERO, ZERO, ZERO)
    assert linalg.column_space_basis(Matrix.zero(3, 2)) == tall
    assert solve_columns(Matrix.identity(2), Matrix.zero(2, 0)) == Matrix.zero(2, 0)


def column(*xs):
    return Matrix.from_rows([x] for x in xs)


first_zero = Matrix.from_rows([[0, 0], [1, 2], [3, 4]])
zeros_between = Matrix.from_rows(
    [[1, 2, 0], [0, 0, 0], [0, 0, 0], [0, scalar(0, 1), 3], [0, 0, 0], [2, 0, 1]]
)
singular = Matrix.from_rows([[1, 2, 3], [0, 0, 0], [4, 5, 7]])


@pytest.mark.parametrize("m, b, outcome", [
    pytest.param(first_zero, first_zero * column(1, 2), "solved", id="zero first row"),
    pytest.param(zeros_between, zeros_between * column(1, -1, scalar(2, 1)), "solved",
                 id="zero rows between pivot rows"),
    pytest.param(Matrix.zero(3, 3), column(0, 0, 0), "full column rank", id="all zero"),
    pytest.param(singular, column(1, 0, 4), "full column rank", id="singular by a zero row"),
    pytest.param(Matrix.from_rows([[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]]), column(1, 2, 0, 0, 5),
                 "inconsistent system", id="inconsistent after zero rows"),
])
def test_zero_rows_match_reference(m, b, outcome):
    ref_rk, ref_basis = ref_rank_kernel(m.entries, m.cols)
    assert rank(m) == ref_rk
    assert rank_kernel(m) == (ref_rk, from_columns(ref_basis) if ref_basis else Matrix.zero(m.cols, 0))
    _, pivots = ref_rref(m.entries)
    cols = list(zip(*m.entries))
    assert linalg.column_space_basis(m) == (
        from_columns([cols[c] for c in pivots]) if pivots else Matrix.zero(m.rows, 0)
    )
    if m.rows == m.cols:
        # every square case here has a zero row
        with pytest.raises(ValueError, match="singular"):
            linalg.inverse(m)
    red, pivots = ref_rref([ra + rb for ra, rb in zip(m.entries, b.entries)])
    ref_outcome = (
        "full column rank" if pivots[: m.cols] != list(range(m.cols))
        else "inconsistent system" if len(pivots) > m.cols
        else "solved"
    )
    assert ref_outcome == outcome
    if outcome == "solved":
        assert as_lists(solve_columns(m, b)) == [row[m.cols:] for row in red[: m.cols]]
    else:
        with pytest.raises(ValueError, match=outcome):
            solve_columns(m, b)
