"""Semi-cosimplicial groups: permutation-conjugation cofaces on GL, checked
on a set that affinely spans each level, symmetric groups with Coxeter/star
generators, and braid self-conjugation checked through representations.

Braid-word identities are never solved symbolically; equality of words is
certified by evaluating both sides in the symmetric-group quotient and in the
unreduced Burau representation at an invertible parameter. Both evaluations
satisfy the braid relations, which is what qualifies them as oracles.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Sequence

from . import linalg
from .braid import BraidAction, BraidWord, conjugation_action
from .linalg import Matrix
from .scalars import ONE, ZERO, QQi
from .simplicial import Sco


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition (self after other)."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.size)))

    def inverse(self) -> Permutation:
        inv = [0] * self.size
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    @staticmethod
    def identity(size: int) -> Permutation:
        return Permutation(tuple(range(size)))

    @staticmethod
    def transposition(i: int, j: int, size: int) -> Permutation:
        images = list(range(size))
        images[i], images[j] = j, i
        return Permutation(tuple(images))

    @staticmethod
    def cycle(k: int, n: int) -> Permutation:
        """The cycle (k  k+1 ... n) inside S_{n+1}."""
        images = list(range(n + 1))
        for m in range(k, n):
            images[m] = m + 1
        images[n] = k
        return Permutation(tuple(images))

    def matrix(self) -> Matrix:
        # column j of the matrix is e_{images[j]}, so M e_j = e_{p(j)}
        return Matrix.from_rows(
            [
                [ONE if self.images[j] == i else ZERO for j in range(self.size)]
                for i in range(self.size)
            ]
        )


def coxeter(n_gen: int, size: int) -> Permutation:
    """sigma_N = (N-1  N)."""
    return Permutation.transposition(n_gen - 1, n_gen, size)


def star(n_gen: int, size: int) -> Permutation:
    """gamma_N = (0  N)."""
    return Permutation.transposition(0, n_gen, size)


def sym_coface(k: int, p: Permutation) -> Permutation:
    """Insert a fixed point at position k: the image of p under conjugation of
    its one-point extension by the cycle (k ... n)."""
    n = p.size  # p acts on {0..n-1}, result on {0..n}
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    skip = lambda m: m if m < k else m + 1
    images = list(range(n + 1))
    for i in range(n):
        images[skip(i)] = skip(p(i))
    images[k] = k
    return Permutation(tuple(images))


def gl_coface(k: int, m: Matrix) -> Matrix:
    """Insert a k-th row and column with a 1 at the intersection."""
    n = m.rows
    if m.cols != n:
        raise ValueError("matrix must be square")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")

    rows = [row[:k] + (0,) + row[k:] for row in m.nums]
    rows.insert(k, (0,) * k + (m.den,) + (0,) * (n - k))
    return Matrix.from_numerators(m.den, tuple(rows))


def embed(m: Matrix) -> Matrix:
    """The plain corner embedding diag(m, 1)."""
    return gl_coface(m.rows, m)


def sym_sco(n_max: int) -> Sco:
    """The symmetric groups S_{n+1} as a semi-cosimplicial group, exhaustively,
    augmented by S_0."""
    levels = []
    for n in range(n_max + 1):
        perms = tuple(Permutation(t) for t in itertools.permutations(range(n + 1)))
        levels.append(perms)
    return Sco(
        tuple(levels),
        lambda n, k, p: sym_coface(k, p),
        augmentation=(Permutation.identity(0),),
    )


def gl_sco(n_max: int) -> Sco:
    """GL over the rationals with permutation-conjugation cofaces, augmented
    by GL_0; level n is I and the I + E_ab (0 <= a, b <= n) in GL_{n+1}.

    The check is complete. delta^k m = J m J^T + E_kk, with J the inclusion
    that skips coordinate k, is affine in m (pinned by
    `test_gl_coface_matches_the_entrywise_construction`). So the two sides
    of each identity are affine maps, which agree on all of M_{n+1} once
    they agree on a set that affinely spans it, as the level does: its
    matrices are invertible and differ from I by the E_ab. A coface sends
    I + E_ab to I + E_a'b' one level up, so the levels index as tables."""
    levels = tuple(
        (Matrix.identity(size), *(
            Matrix.from_rows([[int(i == j) + ((i, j) == (a, b)) for j in range(size)] for i in range(size)])
            for a, b in itertools.product(range(size), repeat=2)
        ))
        for size in range(1, n_max + 2)
    )
    return Sco(levels, lambda n, k, m: gl_coface(k, m), augmentation=(Matrix.identity(0),))


# ---------------------------------------------------------------------------
# Braid self-conjugation (checked through representations)
# ---------------------------------------------------------------------------

def braid_conj_coface(k: int, n: int, w: BraidWord) -> BraidWord:
    """delta^k on braid words, returned unsimplified.

    The self-conjugation SCO uses the action where sigma acts on a word by
    x -> sigma^-1 x sigma, applied right to left along the word
    sigma_{k+1} ... sigma_n. As a single product this is C^-1 w C with C the
    descending word sigma_n ... sigma_{k+1}; delta^n is the literal inclusion.
    The top generator sigma_{n+1} is omitted from the conjugator because it
    commutes with every admissible w, so evaluations are unchanged while the
    output stays a valid word one level up. This is the convention under
    which both generator rules hold representation-wise: delta^0 maps the
    Coxeter generator sigma_N to sigma_{N+1}, and for k >= 1 the square-root
    generators transform by gamma_N -> gamma_N (N < k) or gamma_{N+1}
    (N >= k); it is also the convention whose symmetric-group quotient is
    the insert-a-fixed-point coface."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    for idx, _ in w.letters:
        if idx > n - 1:
            raise ValueError(f"generator index {idx} exceeds level {n}")
    if k == n:
        return w
    descending = BraidWord.positive(range(n, k, -1))
    return descending.inverse() * w * descending


def square_root_generator(n_gen: int) -> BraidWord:
    """gamma_N = (s1 ... s_{N-1}) s_N (s_{N-1}^-1 ... s1^-1)."""
    pre = BraidWord.positive(range(1, n_gen))
    return pre * BraidWord.positive([n_gen]) * pre.inverse()


def perm_of_word(w: BraidWord, size: int) -> Permutation:
    """Evaluate a braid word in the symmetric-group quotient."""
    out = Permutation.identity(size)
    for idx, _ in w.letters:  # transpositions are self-inverse
        out = out * Permutation.transposition(idx - 1, idx, size)
    return out


def burau_eval(g: int, size: int, t: QQi) -> Matrix:
    """The unreduced Burau matrix of sigma_g on `size` strands."""
    if t.is_zero():
        raise ValueError("Burau parameter t must be nonzero")
    if not 1 <= g <= size - 1:
        raise ValueError(f"generator index {g} out of range for {size} strands")
    rows = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    one = ONE
    rows[g - 1][g - 1] = one - t
    rows[g - 1][g] = t
    rows[g][g - 1] = one
    rows[g][g] = ZERO
    return Matrix.from_rows(rows)


def burau_of_word(w: BraidWord, size: int, t: QQi) -> Matrix:
    out = Matrix.identity(size)
    for idx, sign in w.letters:
        m = burau_eval(idx, size, t)
        out = out * (m if sign == 1 else linalg.inverse(m))
    return out


def matrix_action(generators: Sequence[Matrix], elements: Sequence[Matrix]) -> BraidAction:
    """Conjugation action of braid generators realized as invertible matrices:
    sigma_k acts by g_k x g_k^{-1} (see `braid.conjugation_action`)."""
    invs = [linalg.inverse(g) for g in generators]
    return conjugation_action(generators, invs, elements, "matrix-conjugation")


def permutation_matrix_generators(size: int) -> list[Matrix]:
    """sigma_i as the permutation matrix of the transposition (i-1, i)."""
    return [
        Permutation.transposition(i - 1, i, size).matrix() for i in range(1, size)
    ]


def burau_generators(size: int, t: QQi) -> list[Matrix]:
    return [burau_eval(g, size, t) for g in range(1, size)]
