"""Standard semi-cosimplicial cohomology for finite-dimensional module actions.

A module action is a braid action by invertible matrices on a fixed space V.
The level spaces V^n are the joint fixed subspaces of the generators with
index >= n+2; the cofaces are the ascending generator words expressed in
the level bases, and the differentials are their alternating sums.
Cohomology is reported as a dimension over the scalar field (over a field,
ker/im is determined by dimension).

The levels are nested: V^n is V^{n+1} cut by sigma_{n+2} - I, so each level
keeps one row space, its equations in reduced echelon form, and its basis is
their kernel, the identity on its free rows.

The cofaces of one level are one product chain: delta^k_n is sigma_{k+1}
after delta^(k+1)_n, so the images of the basis of V^{n-1} are built from
k = n down to 0, one generator product each. An image that satisfies the
equations of V^n is the basis times its free rows, so a coface matrix is
read off the image without a solve.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

from . import linalg, reports
from .linalg import Matrix, rank_kernel
from .reports import CheckReport


@dataclasses.dataclass(frozen=True, eq=False)
class ModuleSco:
    """Per-level fixed subspaces of a matrix braid action, with coface matrices.

    Levels run from -1 (fixed by every generator) to n_max. Generators beyond
    the supplied list act as the identity. The level caches key on the
    object itself, so a lookup hashes no matrix.
    """

    gens: tuple[Matrix, ...]
    n_max: int

    @property
    def dim(self) -> int:
        return self.gens[0].rows

    def generator(self, k: int) -> Matrix:
        if k < 1:
            raise ValueError("generator indices start at 1")
        return self.gens[k - 1] if k <= len(self.gens) else Matrix.identity(self.dim)

    @functools.lru_cache(maxsize=None)
    def equations(self, n: int) -> tuple:
        """The equations sigma_k x = x, k >= n+2, of V^n in reduced echelon
        form, as `linalg._rref` returns them: level n + 1's rows, made
        canonical (raw Bareiss rows grow level after level), eliminated with
        sigma_{n+2} - I."""
        if n + 2 > len(self.gens):
            return [], [], 1
        red, _, d = self.equations(n + 1)
        block = self.generator(n + 2) - Matrix.identity(self.dim)
        return linalg._rref(linalg._quotient(red, d).nums + block.nums)

    @functools.lru_cache(maxsize=None)
    def basis(self, n: int) -> Matrix:
        """Columns form a basis of V^n = joint fixed space of sigma_k, k >= n+2:
        the kernel of its equations, so its free rows form the identity."""
        if n < -1:
            raise ValueError("levels start at -1")
        red, pivots, d = self.equations(n)
        return linalg._kernel(red, pivots, d, self.dim)

    def word_matrix(self, k: int, n: int) -> Matrix:
        """The matrix of sigma_{k+1} ... sigma_{n+1} acting on V."""
        out = Matrix.identity(self.dim)
        for idx in range(k + 1, n + 2):
            out = out * self.generator(idx)
        return out

    @functools.lru_cache(maxsize=None)
    def image(self, k: int, n: int) -> Matrix:
        """word_matrix(k, n) * basis(n - 1), as sigma_{k+1} times image(k + 1, n)."""
        return self.generator(k + 1) * (self.basis(n - 1) if k == n else self.image(k + 1, n))

    @functools.lru_cache(maxsize=None)
    def coface_matrix(self, n: int, k: int) -> Matrix:
        """delta^k : V^{n-1} -> V^n expressed in the level bases: the free
        rows of the level's product chain `image`, once the image is checked
        to satisfy V^n's equations."""
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        if n > self.n_max:
            raise ValueError(f"level {n} beyond truncation bound {self.n_max}")
        src, dst = self.basis(n - 1), self.basis(n)
        if src.cols == 0:
            return Matrix.zero(dst.cols, 0)
        image = self.image(k, n)
        red, pivots, _ = self.equations(n)
        if any(map(any, linalg._mm(red, image.nums))):
            raise ValueError("inconsistent system")
        free = [c for c in range(self.dim) if c not in pivots]
        return Matrix.from_numerators(image.den, tuple(image.nums[f] for f in free))


def module_sco(gens: Sequence[Matrix], n_max: int) -> ModuleSco:
    return ModuleSco(tuple(gens), n_max)


def differential(s: ModuleSco, n: int) -> Matrix:
    """d^n = sum over k of (-1)^k delta^k : V^{n-1} -> V^n."""
    if not 0 <= n <= s.n_max:
        raise ValueError(f"level {n} out of range")
    out = s.coface_matrix(n, 0)
    for k in range(1, n + 1):
        term = s.coface_matrix(n, k)
        out = out + term if k % 2 == 0 else out - term
    return out


@dataclasses.dataclass(frozen=True)
class CochainComplex:
    """Differentials d^n : V^{n-1} -> V^n for n in a truncation range."""

    diffs: tuple[Matrix, ...]  # diffs[n] is d^n

    @property
    def top(self) -> int:
        return len(self.diffs) - 1


def cochain_complex(s: ModuleSco) -> CochainComplex:
    return CochainComplex(tuple(differential(s, n) for n in range(s.n_max + 1)))


def verify_dd_zero(c: CochainComplex) -> CheckReport:
    if c.top < 1:
        raise ValueError("need at least two consecutive differentials")

    def products():
        for n in range(c.top):
            prod = c.diffs[n + 1] * c.diffs[n]
            if prod.is_zero():
                yield None
                continue
            bad = next(
                (i, j) for i in range(prod.rows) for j in range(prod.cols) if prod[(i, j)]
            )
            yield "d d != 0", {"n": n, "entry": bad, "value": prod[bad]}

    return reports.run_checks(products())


def _h_dim(n: int, dim_ker: int, rk: int) -> int:
    """dim_ker - rk; a negative value means dd != 0 upstream (VerificationError)."""
    out = dim_ker - rk
    bad = ("negative cohomology dimension", {"n": n, "dim_ker": dim_ker, "rank": rk})
    reports.require(reports.run_checks([None if out >= 0 else bad]))
    return out


def cohomology_dim(c: CochainComplex, n: int) -> int:
    """dim H^n = dim ker(d^{n+1}) - rank(d^n)."""
    if not 0 <= n <= c.top - 1:
        raise ValueError(f"need d^{n} and d^{n + 1} in range")
    _, kernel = rank_kernel(c.diffs[n + 1])
    return _h_dim(n, kernel.cols, linalg.rank(c.diffs[n]))


def h1_explicit(s: ModuleSco) -> int:
    """The direct description of H^1: solutions of (sigma_2 - sigma_1 sigma_2)x = x
    inside V^1, modulo coboundaries sigma_1 y - y from V^0."""
    if s.n_max < 2:
        raise ValueError("need levels up to 2")
    eye = Matrix.identity(s.dim)
    s1, s2 = s.generator(1), s.generator(2)
    p1, p0 = s.basis(1), s.basis(0)
    cond = (s2 - s.word_matrix(0, 1) - eye) * p1
    _, kernel = rank_kernel(cond)
    cobound = (s1 - eye) * p0
    return kernel.cols - linalg.rank(cobound)


def cohomology_table(c: CochainComplex) -> list[dict]:
    """The CLI table: per level, carrier dimension, rank, kernel, H dimension.

    Each differential is eliminated once; d^n maps into V^n, so its row count
    is dim V^n, and its kernel dimension is its column count minus its rank.
    """
    ranks = [linalg.rank(d) for d in c.diffs]
    rows = []
    for n in range(c.top):
        dim_ker = c.diffs[n + 1].cols - ranks[n + 1]
        rows.append(
            {
                "n": n,
                "dim_V": c.diffs[n].rows,
                "rank_d": ranks[n],
                "dim_ker_d_next": dim_ker,
                "dim_H": _h_dim(n, dim_ker, ranks[n]),
            }
        )
    return rows
