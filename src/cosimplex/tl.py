"""The Temperley-Lieb diagram algebra with Markov trace and braid elements.

A diagram on m strands is a perfect non-crossing matching of 2m boundary
points: top points 0..m-1 and bottom points m..2m-1, both left to right.
Multiplication x*y stacks x above y, gluing x's bottom row to y's top row;
each closed loop contributes a factor of the formal loop parameter.

The loop parameter delta is kept formal with the eager reduction
delta^2 -> beta, so coefficients live in the rank-2 module over the Gaussian
rationals spanned by 1 and delta. Moments of words in the normalized
projections and braid elements always land in the delta-free part; a residual
delta component on a trace evaluation is an internal error and is reported
loudly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Iterable, Optional

from . import reports
from .braid import BraidAction, braid_sco_build
from .ncprob import Distribution, ProbabilitySco
from .reports import CheckReport
from .scalars import ONE, ZERO, QQi, scalar


class ParityError(Exception):
    """A moment evaluation left a residual odd power of the loop parameter."""


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TlParams:
    """q together with beta = 2 + q + 1/q; delta is formal with delta^2 = beta."""

    q: QQi

    def __post_init__(self) -> None:
        if self.q.is_zero():
            raise ValueError("q must be nonzero")
        if self.beta.is_zero():
            raise ValueError("beta = 2 + q + 1/q must be nonzero")

    @property
    def beta(self) -> QQi:
        return scalar(2) + self.q + self.q.inverse()

    @property
    def unitary(self) -> bool:
        return self.q * self.q.conj() == ONE


@dataclasses.dataclass(frozen=True)
class Coeff:
    """a + b*delta with delta^2 = beta; the coefficient ring for diagrams."""

    a: QQi
    b: QQi

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()


def coeff_zero() -> Coeff:
    return Coeff(ZERO, ZERO)


def coeff_one() -> Coeff:
    return Coeff(ONE, ZERO)


def coeff_add(x: Coeff, y: Coeff) -> Coeff:
    return Coeff(x.a + y.a, x.b + y.b)


def coeff_neg(x: Coeff) -> Coeff:
    return Coeff(-x.a, -x.b)


def coeff_mul(x: Coeff, y: Coeff, beta: QQi) -> Coeff:
    # coefficients are almost always concentrated in one component; skipping
    # the zero factors saves most of the exact-arithmetic volume
    a = b = ZERO
    if x.a:
        if y.a:
            a = x.a * y.a
        if y.b:
            b = x.a * y.b
    if x.b:
        if y.b:
            a = a + x.b * y.b * beta
        if y.a:
            b = b + x.b * y.a
    return Coeff(a, b)


def coeff_conj(x: Coeff) -> Coeff:
    # delta is a formal positive square root, fixed by conjugation
    return Coeff(x.a.conj(), x.b.conj())


def delta_power(p: int, beta: QQi) -> Coeff:
    """delta^p reduced to the (1, delta) basis; p may be negative."""
    odd = p % 2  # 0 or 1, also for negative p
    half = (p - odd) // 2
    base = beta if half >= 0 else beta.inverse()
    acc = ONE
    for _ in range(abs(half)):
        acc = acc * base
    return Coeff(ZERO, acc) if odd else Coeff(acc, ZERO)


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TlDiagram:
    """A planar perfect matching of 2m boundary points, encoded as match[p] = partner."""

    match: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.match)
        if n % 2:
            raise ValueError("need an even number of boundary points")
        for p, q in enumerate(self.match):
            if not 0 <= q < n or q == p or self.match[q] != p:
                raise ValueError(f"not an involution without fixed points: {self.match}")
        if not self._planar():
            raise ValueError(f"matching has crossings: {self.match}")

    @property
    def strands(self) -> int:
        return len(self.match) // 2

    def _planar(self) -> bool:
        m = self.strands
        # boundary order around the disk: top left-to-right, bottom right-to-left
        order = list(range(m)) + list(range(2 * m - 1, m - 1, -1))
        stack: list[int] = []
        for p in order:
            if stack and stack[-1] == self.match[p]:
                stack.pop()
            else:
                stack.append(p)
        return not stack

    @staticmethod
    def identity(m: int) -> TlDiagram:
        return TlDiagram(tuple(list(range(m, 2 * m)) + list(range(m))))

    @staticmethod
    def cup_cap(n: int, m: int) -> TlDiagram:
        """The generator diagram E_n: cap joining top n-1, n and cup joining
        bottom m+n-1, m+n; through strands elsewhere."""
        if not 1 <= n <= m - 1:
            raise ValueError(f"need 1 <= n <= {m - 1}, got {n}")
        match = list(range(m, 2 * m)) + list(range(m))
        match[n - 1], match[n] = n, n - 1
        match[m + n - 1], match[m + n] = m + n, m + n - 1
        return TlDiagram(tuple(match))

    def flip(self) -> TlDiagram:
        """Reflect top-to-bottom (the diagrammatic adjoint)."""
        m = self.strands
        relabel = lambda p: p + m if p < m else p - m
        out = [0] * (2 * m)
        for p, q in enumerate(self.match):
            out[relabel(p)] = relabel(q)
        return TlDiagram(tuple(out))


@functools.lru_cache(maxsize=None)
def diagram_mul(top: TlDiagram, bot: TlDiagram) -> tuple[TlDiagram, int]:
    """Stack `top` above `bot`; returns the resulting diagram and the number
    of closed loops removed."""
    m = top.strands
    if bot.strands != m:
        raise ValueError("strand count mismatch")
    # result boundary: top row of `top` (0..m-1), bottom row of `bot` (m..2m-1)
    result = [-1] * (2 * m)
    seen_bridge = [False] * m  # bridge i joins top's m+i with bot's i

    def walk(start_diag: str, start_pt: int) -> tuple[str, int]:
        diag, pt = start_diag, start_pt
        while True:
            if diag == "top":
                q = top.match[pt]
                if q < m:
                    return ("top", q)
                seen_bridge[q - m] = True
                diag, pt = "bot", q - m
            else:
                q = bot.match[pt]
                if q >= m:
                    return ("bot", q)
                seen_bridge[q] = True
                diag, pt = "top", q + m

    for p in range(m):  # result top points, labels already 0..m-1 or m..2m-1
        _, result[p] = walk("top", p)
    for p in range(m, 2 * m):  # result bottom points
        _, result[p] = walk("bot", p)

    loops = 0
    for i in range(m):
        if seen_bridge[i]:
            continue
        # a closed loop alternates bot edges, bridges, and top edges
        loops += 1
        j = i
        while True:
            seen_bridge[j] = True
            j2 = bot.match[j]  # < m along a loop
            seen_bridge[j2] = True
            j = top.match[m + j2] - m  # next bridge
            if seen_bridge[j]:
                break
    return TlDiagram(tuple(result)), loops


def closure_loops(d: TlDiagram) -> int:
    """Loops of the trace closure, which joins top i to bottom m+i."""
    m = d.strands
    seen = [False] * (2 * m)
    loops = 0
    for start in range(2 * m):
        if seen[start]:
            continue
        loops += 1
        p = start
        while not seen[p]:
            seen[p] = True
            q = d.match[p]
            seen[q] = True
            p = q + m if q < m else q - m  # closure edge
    return loops


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class TlElement:
    """A formal linear combination of diagrams on a fixed strand count."""

    __slots__ = ("params", "strands", "terms")

    def __init__(self, params: TlParams, strands: int, terms: Optional[dict] = None):
        self.params = params
        self.strands = strands
        self.terms: dict[TlDiagram, Coeff] = {}
        if terms:
            for d, c in terms.items():
                if not c.is_zero():
                    self.terms[d] = c

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TlElement)
            and self.strands == other.strands
            and self.params == other.params
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.params, self.strands, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c.a}+{c.b}d)*{d.match}" for d, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].match))

    def __add__(self, other: TlElement) -> TlElement:
        self._compatible(other)
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = coeff_add(out.get(d, coeff_zero()), c)
        return TlElement(self.params, self.strands, out)

    def __neg__(self) -> TlElement:
        return TlElement(
            self.params, self.strands, {d: coeff_neg(c) for d, c in self.terms.items()}
        )

    def __sub__(self, other: TlElement) -> TlElement:
        return self + (-other)

    def scale(self, c: Coeff) -> TlElement:
        beta = self.params.beta
        return TlElement(
            self.params,
            self.strands,
            {d: coeff_mul(x, c, beta) for d, x in self.terms.items()},
        )

    def __mul__(self, other: TlElement) -> TlElement:
        self._compatible(other)
        beta = self.params.beta
        out: dict[TlDiagram, Coeff] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d, loops = diagram_mul(d1, d2)
                c = coeff_mul(c1, c2, beta)
                if loops:
                    c = coeff_mul(c, delta_power(loops, beta), beta)
                acc = out.get(d)
                out[d] = c if acc is None else coeff_add(acc, c)
        return TlElement(self.params, self.strands, out)

    def adjoint(self) -> TlElement:
        """Conjugate-linear reflection; e_n is self-adjoint."""
        return TlElement(
            self.params,
            self.strands,
            {d.flip(): coeff_conj(c) for d, c in self.terms.items()},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def _compatible(self, other: TlElement) -> None:
        if self.strands != other.strands or self.params != other.params:
            raise ValueError("strand count or parameter mismatch")


def tl_one(params: TlParams, m: int) -> TlElement:
    return TlElement(params, m, {TlDiagram.identity(m): coeff_one()})


def e_element(n: int, params: TlParams, m: int) -> TlElement:
    """The normalized projection e_n = E_n / delta."""
    return TlElement(
        params, m, {TlDiagram.cup_cap(n, m): delta_power(-1, params.beta)}
    )


def g_element(n: int, params: TlParams, m: int) -> TlElement:
    """g_n = q e_n - (1 - e_n) = (q+1) e_n - 1."""
    return e_element(n, params, m).scale(Coeff(params.q + ONE, ZERO)) - tl_one(params, m)


def g_inverse(n: int, params: TlParams, m: int) -> TlElement:
    """g_n^{-1} = q^{-1} e_n - (1 - e_n)."""
    return e_element(n, params, m).scale(Coeff(params.q.inverse() + ONE, ZERO)) - tl_one(
        params, m
    )


def markov_trace(x: TlElement) -> Coeff:
    """tr(D) = delta^{loops(closure) - m}, extended linearly; tr(1) = 1."""
    beta = x.params.beta
    out = coeff_zero()
    for d, c in x.terms.items():
        out = coeff_add(out, coeff_mul(c, delta_power(closure_loops(d) - x.strands, beta), beta))
    return out


def trace_scalar(x: TlElement) -> QQi:
    """The Markov trace as a pure scalar; a residual delta part is an error."""
    t = markov_trace(x)
    if not t.b.is_zero():
        raise ParityError(f"trace has residual loop-parameter component: {t}")
    return t.a


def relation_report(params: TlParams, m: int) -> CheckReport:
    """The relation suite on m strands: idempotent e_n, invertible g_n with
    the Hecke quadratic, tr(e_n) = 1/beta, the TL and braid relations, the
    Markov property, traciality on sample pairs, and the unitarity dichotomy
    (g g* = 1 exactly when q lies on the unit circle)."""
    e = {n: e_element(n, params, m) for n in range(1, m)}
    g = {n: g_element(n, params, m) for n in range(1, m)}
    one = tl_one(params, m)
    beta = params.beta
    beta_inv = Coeff(beta.inverse(), ZERO)
    q, q_minus_1 = Coeff(params.q, ZERO), Coeff(params.q - ONE, ZERO)

    def relations():
        for n in range(1, m):
            yield None if e[n] * e[n] == e[n] else ("e_n^2 != e_n", {"n": n})
            yield None if g[n] * g_inverse(n, params, m) == one else (
                "g_n g_n^-1 != 1", {"n": n}
            )
            yield None if g[n] * g[n] == g[n].scale(q_minus_1) + one.scale(q) else (
                "Hecke quadratic fails", {"n": n}
            )
            yield None if markov_trace(e[n]) == beta_inv else ("tr(e_n) != 1/beta", {"n": n})
            for k in range(1, m):
                if abs(n - k) == 1:
                    yield None if e[n] * e[k] * e[n] == e[n].scale(beta_inv) else (
                        "e_n e_k e_n != e_n / beta", {"n": n, "k": k}
                    )
                elif abs(n - k) >= 2:
                    yield None if e[n] * e[k] == e[k] * e[n] else (
                        "distant e's do not commute", {"n": n, "k": k}
                    )
                    yield None if g[n] * g[k] == g[k] * g[n] else (
                        "distant g's do not commute", {"n": n, "k": k}
                    )
            if n + 1 < m:
                yield None if g[n] * g[n + 1] * g[n] == g[n + 1] * g[n] * g[n + 1] else (
                    "g braid relation fails", {"n": n}
                )
        # Markov property: tr(x e_n) = tr(x) / beta for x in the span below strand n
        for n in range(2, m):
            low = [one] + [e[j] for j in range(1, n)]
            for x, y in itertools.product(low, repeat=2):
                prod = x * y
                yield None if markov_trace(prod * e[n]) == coeff_mul(
                    markov_trace(prod), beta_inv, beta
                ) else ("Markov property fails", {"n": n})
        samples = (
            [e[1], e[2] * e[3], g[1], g[3] * e[1]] if m >= 4 else [*e.values(), *g.values()]
        )
        for x, y in itertools.product(samples, repeat=2):
            yield None if markov_trace(x * y) == markov_trace(y * x) else (
                "trace is not tracial", {}
            )
        for n in range(1, m):
            yield None if (g[n] * g[n].adjoint() == one) == params.unitary else (
                "unitarity dichotomy violated", {"n": n}
            )

    return reports.run_checks(relations())


# ---------------------------------------------------------------------------
# The conjugation action and the spreadable projections
# ---------------------------------------------------------------------------

def tl_conjugation_action(
    params: TlParams, m: int, offset: int = 0, elements: Optional[Iterable[TlElement]] = None
) -> BraidAction:
    """sigma_k acts by x -> g_{k+offset} x g_{k+offset}^{-1} on m strands.

    Generators mapping beyond the strand bound act as the identity; the
    stabilization bound is m - 1 - offset."""
    gs = {n: g_element(n, params, m) for n in range(1, m)}
    gis = {n: g_inverse(n, params, m) for n in range(1, m)}

    def apply(i: int, x: TlElement) -> TlElement:
        n = i + offset
        if n >= m:
            return x
        return gs[n] * x * gis[n]

    def inverse_apply(i: int, x: TlElement) -> TlElement:
        n = i + offset
        if n >= m:
            return x
        return gis[n] * x * gs[n]

    if elements is None:
        elements = [tl_one(params, m)] + [
            e_element(n, params, m) for n in range(1, m)
        ]
    return BraidAction(
        apply=apply,
        elements=tuple(elements),
        inverse_apply=inverse_apply,
        stabilization_bound=m - 1 - offset,
        exhaustive=False,
        name=f"tl-conjugation(q={params.q}, m={m}, offset={offset})",
    )


def spreadable_projection(m0: int, big_n: int, params: TlParams, m: int) -> TlElement:
    """e_{m0, N} = g_{m0+N} ... g_{m0+1} e_{m0} g_{m0+1}^{-1} ... g_{m0+N}^{-1}."""
    if m0 < 1 or m0 + big_n > m - 1:
        raise ValueError(f"need 1 <= m0 and m0 + N <= {m - 1}")
    x = e_element(m0, params, m)
    for n in range(m0 + 1, m0 + big_n + 1):
        x = g_element(n, params, m) * x * g_inverse(n, params, m)
    return x


# ---------------------------------------------------------------------------
# The induced moment distribution and the probability SCO
# ---------------------------------------------------------------------------

def tl_distribution(params: TlParams, m: int, m0: int = 1) -> Distribution:
    """Moments of the projection sequence N -> e_{m0, N} under the Markov trace.

    Positions up to m - 1 - m0 fit on m strands; the *-mode is available
    exactly when the braid elements are unitary (otherwise the conjugations do
    not commute with the adjoint and starred moments are not spreadable)."""
    if m0 < 1 or m0 + 1 > m - 1:
        raise ValueError(f"need 1 <= m0 <= {m - 2}")
    projections: dict[tuple[int, bool], TlElement] = {}
    moments: dict[tuple, QQi] = {}

    def proj(n_pos: int, star: bool) -> TlElement:
        key = (n_pos, star)
        if key not in projections:
            x = spreadable_projection(m0, n_pos, params, m)
            if params.unitary and x.adjoint() != x:
                raise AssertionError(
                    "unitary conjugation must give self-adjoint projections"
                )
            if star:
                x = x.adjoint()
            projections[key] = x
        return projections[key]

    def eval_word(w) -> QQi:
        if not w:
            return ONE
        for f in w:
            if f.letter != "e":
                raise ValueError(f"unknown letter {f.letter!r}")
        # with unitary braid elements the projections are self-adjoint, so
        # star flags do not change the product and words merge in the cache
        key = tuple((f.pos, False if params.unitary else f.star) for f in w)
        if key not in moments:
            prod = proj(w[0].pos, w[0].star and not params.unitary)
            for f in w[1:]:
                prod = prod * proj(f.pos, f.star and not params.unitary)
            moments[key] = trace_scalar(prod)
        return moments[key]

    return Distribution(
        alphabet=("e",),
        eval_word=eval_word,
        star_mode=params.unitary,
        name=f"tl(q={params.q}, m={m}, m0={m0})",
    )


def tl_probability_sco(
    params: TlParams, n_max: int, m: Optional[int] = None, m0: int = 1
) -> ProbabilitySco:
    """The SCO of the m0-shifted conjugation action, as an SCO of probability
    spaces under the Markov trace; its induced sequence is N -> e_{m0, N}."""
    if m is None:
        m = m0 + n_max + 2
    if m0 + n_max + 2 > m:
        raise ValueError(f"need m >= {m0 + n_max + 2} strands for levels up to {n_max}")
    # e_{m-1} is excluded: its level under the truncated action would be
    # mis-measured, since sigma with index m - 1 has no strands to act on
    elements = [tl_one(params, m)] + [e_element(j, params, m) for j in range(1, m - 1)]
    action = tl_conjugation_action(params, m, offset=m0, elements=elements)
    sco = braid_sco_build(action, n_max)
    adjoint = (lambda n, x: x.adjoint()) if params.unitary else None
    return ProbabilitySco(
        sco=sco,
        multiply=lambda n, x, y: x * y,
        functional=lambda n, x: trace_scalar(x),
        embed=lambda letter: e_element(m0, params, m),
        alphabet=("e",),
        adjoint=adjoint,
    )
