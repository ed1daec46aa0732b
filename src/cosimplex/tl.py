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

Design of the moment engine:

- Interned diagrams and halves. A diagram is named by its id, the index of
  its matching in one process-wide table, and is the pair of its halves,
  interned as ints: per row, each point's partner in that row or -1 for a
  through strand, the through strands joining the rows in order. Terms,
  products, flips and traces run on ids; `TlDiagram` appears only in the
  constructor, `coefficients` and `repr`. A flip swaps the two halves.
- Products by their middles. Stacking changes only the middle, where the
  upper diagram's bottom half meets the lower one's top half: `_middle`
  walks each such pair of halves once, for its loops and the through
  strands it joins on each side, and the outer halves keep their arcs. So
  a product d1 * d2 depends on d1's bottom half only through the middle,
  and the upper diagrams with one bottom half share the middle's work.
- Coefficient grid. An element stores one positive integer denominator and
  its terms on the basis {d, d*delta}: per key (diagram, s), with s the
  power of delta (0 or 1), one nonzero Gaussian-integer numerator
  (`scalars.gauss`), in canonical form (gcd 1). A numerator is a plain int
  exactly when it is real, so real parameters run on ints throughout. A
  product multiplies each pair of terms by the integer factor of delta^p,
  with p the loops removed plus the two powers of delta, and reduces by the
  gcd once at the end; `scale` is the product with c times the identity.
  `Coeff` and `QQi` appear only at the boundary: the constructor,
  `coefficients` and the traces.
- Products as states. The state of `tl_distribution`'s incremental form is
  the product of the prefix's projections, so words with equal products
  (e_N e_N = e_N) share their products and traces: one product and one
  trace per distinct (product, letter), a one-letter prefix being its
  projection. The projections come from one conjugation chain
  (`spreadable_projection`), each e_{m0, N} conjugated once from
  e_{m0, N-1}.
- One delta rule. `_delta_factors` gives delta^p = beta^(p >> 1) *
  delta^(p & 1), negative p included, as integers over one denominator for
  both products and traces, built once per window.
- One trace kernel. `_closure` counts the power of delta in the trace of
  a diagram once per diagram, and `markov_trace(x)` sums x's numerators by
  it. A right factor y keeps one row per left term (d1, s1) it meets
  (`TlElement.rows`): the product d1 * delta^s1 * y, summed by (diagram,
  power of delta) with the delta power folded into `_delta_factors`'
  integers, and that product's trace as one even and one odd numerator,
  each product diagram closed by `_closure`. A row is built from y's
  half-row for d1's bottom half, kept with the rows: y's terms merged by
  what the middle leaves of them, the caps it joins on d1's side, the
  lower half with its cups joined and the power of delta, with one
  `_middle` lookup per term of y. The row then caps d1's upper half and
  joins it to each entry's lower half. `product_by_rows(x, y)`
  equals `x * y` and `trace_of_product(x, y)` equals `markov_trace(x * y)`;
  each term of x multiplies its row once. A projection of
  `tl_distribution` is the right factor of every product and every trace
  that ends in it, so it walks its terms once per bottom half of its left
  terms, and every word of two letters or more reads its last letter this
  way. A trace adds its even and its odd numerators into one each, so it
  builds two `QQi`. `TlElement.__mul__` keeps its direct loop for one-off
  products, where a row would not be read again.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from math import lcm
from typing import Callable, Iterable, Optional

from . import reports
from .braid import BraidAction, braid_sco_build, conjugation_action
from .ncprob import Distribution, Factor, Incremental, ProbabilitySco
from .reports import CheckReport
from .scalars import ONE, ZERO, QQi, content, from_numerator, scalar, to_numerators


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

    @functools.cached_property
    def beta(self) -> QQi:
        return scalar(2) + self.q + self.q.inverse()

    @functools.cached_property
    def unitary(self) -> bool:
        return self.q * self.q.conj() == ONE


@dataclasses.dataclass(frozen=True)
class Coeff:
    """a + b*delta with delta^2 = beta; the coefficient ring for diagrams."""

    a: QQi
    b: QQi

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()


@functools.cache
def _delta_factors(beta: QQi, lo: int, hi: int) -> tuple[int, tuple]:
    """(den, f): delta^p = f[(p >> 1) - (lo >> 1)] * delta^(p & 1) / den for
    lo <= p <= hi, with den > 0 an int and each f a Gaussian integer. With
    beta = bn / bd and h0 = lo >> 1, beta^(h0 + j) = beta^h0 * bn^j / bd^j,
    and a negative power of beta uses 1/beta = bd * conj(bn) / |bn|^2."""
    bn, bd = beta.num, beta.den
    h0, k = lo >> 1, (hi >> 1) - (lo >> 1)
    if h0 < 0:
        n0, d0 = (bd * bn.conjugate()) ** -h0, (bn * bn.conjugate()) ** -h0
    else:
        n0, d0 = bn ** h0, bd ** h0
    return d0 * bd ** k, tuple(n0 * bn ** j * bd ** (k - j) for j in range(k + 1))


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, order=True)
class TlDiagram:
    """A planar perfect matching of 2m boundary points, encoded as match[p] = partner."""

    match: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.match)
        m = n // 2
        if n % 2:
            raise ValueError("need an even number of boundary points")
        # around the disk: the top row left to right, the bottom row right to left
        stack: list[int] = []
        for p in (*range(m), *range(n - 1, m - 1, -1)):
            q = self.match[p]
            if not 0 <= q < n or q == p or self.match[q] != p:
                raise ValueError(f"not an involution without fixed points: {self.match}")
            if stack and stack[-1] == q:
                stack.pop()
            else:
                stack.append(p)
        if stack:
            raise ValueError(f"matching has crossings: {self.match}")

    @property
    def strands(self) -> int:
        return len(self.match) // 2

    @staticmethod
    @functools.cache
    def identity(m: int) -> TlDiagram:
        return TlDiagram((*range(m, 2 * m), *range(m)))

    @staticmethod
    @functools.cache
    def cup_cap(n: int, m: int) -> TlDiagram:
        """The generator diagram E_n: cap joining top n-1, n and cup joining
        bottom m+n-1, m+n; through strands elsewhere."""
        if not 1 <= n <= m - 1:
            raise ValueError(f"need 1 <= n <= {m - 1}, got {n}")
        match = [*range(m, 2 * m), *range(m)]
        for p in (n - 1, m + n - 1):
            match[p], match[p + 1] = p + 1, p
        return TlDiagram(tuple(match))


# MATCHES[d] is the matching of the diagram with id d. A matching's length
# fixes its strand count, so an id names one diagram across all strand counts.
# SPLITS[d] holds the ids of its top and bottom halves: HALVES[h] lists, for
# each point of a row, its partner in that row, or -1 for a through strand,
# and ENDS[h] the points of the through strands, which join the two rows in
# order. The caches of `_half` and `_joined` are the tables that intern
# halves and diagrams, so they are never cleared; _PRODUCTS interns the
# (diagram, loops) pairs of products.
MATCHES, SPLITS, HALVES, ENDS = [], [], [], []
_PRODUCTS = {}


@functools.cache
def _half(half: tuple[int, ...]) -> int:
    HALVES.append(half)
    ENDS.append(tuple(p for p, q in enumerate(half) if q < 0))
    return len(HALVES) - 1


@functools.cache
def _joined(top: int, bottom: int) -> int:
    """The id of the diagram with these halves, interned on first use: its
    matching joins the through strands of the two rows in order."""
    m = len(HALVES[top])
    match = [*HALVES[top], *(q + m for q in HALVES[bottom])]
    for p, q in zip(ENDS[top], ENDS[bottom]):
        match[p], match[q + m] = q + m, p
    MATCHES.append(tuple(match))
    SPLITS.append((top, bottom))
    return len(MATCHES) - 1


@functools.cache
def diagram_id(match: tuple[int, ...]) -> int:
    """The id of a planar matching, interned with its halves on first use."""
    m = len(match) // 2
    top = _half(tuple(q if q < m else -1 for q in match[:m]))
    return _joined(top, _half(tuple(q - m if q >= m else -1 for q in match[m:])))


def flip(d: int) -> int:
    """The id of diagram d reflected top-to-bottom (the diagrammatic adjoint):
    its halves swapped."""
    return _joined(*reversed(SPLITS[d]))


def _loops(rows: tuple, seen: list) -> int:
    """The loops through the points not marked in `seen` of two rows of
    partners, each loop alternating the rows."""
    loops = 0
    for p in range(len(seen)):
        # a point not seen yet starts one more loop, walked from row 0
        loops, s = loops + (not seen[p]), 0
        while not seen[p]:
            seen[p] = True
            p, s = rows[s][p], 1 - s
    return loops


@functools.cache
def _middle(bottom: int, top: int) -> tuple:
    """Glue an upper diagram's bottom half onto a lower diagram's top half.
    Returns the loops and, per side, the pairs (o, o2) of through strands,
    by ordinal, that the middle joins on that side."""
    rows = HALVES[bottom], HALVES[top]
    if len(rows[0]) != len(rows[1]):
        raise ValueError("strand count mismatch")
    joins, seen = ([], []), [False] * len(rows[0])
    for side, ends in enumerate((ENDS[bottom], ENDS[top])):
        for o, p in enumerate(ends):
            # walk from this end to the far end of its path, unless the
            # path was walked from that end already
            s, q = side, p
            while q >= 0 and not seen[q]:
                p, s = q, 1 - s
                seen[p] = True
                q = rows[s][p]
            if s == side and q < 0:
                joins[side].append((o, ends.index(p)))
    return _loops(rows, seen), *map(tuple, joins)


@functools.cache
def _capped(h: int, joins: tuple) -> int:
    """Half h with the through strands of each pair of ordinals joined."""
    half, ends = list(HALVES[h]), ENDS[h]
    for o, o2 in joins:
        half[ends[o]], half[ends[o2]] = ends[o2], ends[o]
    return _half(tuple(half))


@functools.cache
def diagram_mul(top: int, bot: int) -> tuple[int, int]:
    """Stack diagram `top` above diagram `bot`; returns the id of the
    resulting diagram and the number of closed loops removed, as a pair
    shared by every product with that result. Only the middle changes: the
    outer halves keep their arcs and join the through strands that the
    middle joins."""
    (upper, t), (b, lower) = SPLITS[top], SPLITS[bot]
    loops, caps, cups = _middle(t, b)
    if caps:
        upper = _capped(upper, caps)
    if cups:
        lower = _capped(lower, cups)
    product = _joined(upper, lower), loops
    return _PRODUCTS.setdefault(product, product)


@functools.cache
def _closure(d: int) -> int:
    """The power of delta in tr(d): the loops of its closure, the matching
    glued to the identity's, minus m."""
    m = len(MATCHES[d]) // 2
    return _loops((MATCHES[d], TlDiagram.identity(m).match), [False] * (2 * m)) - m


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class TlElement:
    """A formal linear combination of diagrams on a fixed strand count.

    The element is the sum of n * delta^s * d / den over terms[(d, s)] = n,
    on the basis {d, d*delta}: d a diagram id, s 0 or 1, n a nonzero
    Gaussian-integer numerator (`scalars.gauss`) and den a positive int. The
    form is canonical: den and all numerators have gcd 1, so equality and
    hashing compare the stored form directly. The constructor takes a `Coeff`
    a + b*delta per diagram; `coefficients` gives them back. `rows` holds the
    rows of `product_by_rows` and `trace_of_product` with this element on
    the right, by left term (a pair), and the half-rows they are built
    from, by bottom half (an int), None until the first, and `_hash` the hash,
    None until the first; neither takes part in equality or repr. No code
    changes `den` or `terms` after construction.
    """

    __slots__ = ("params", "strands", "den", "terms", "rows", "_hash")

    def __init__(
        self, params: TlParams, strands: int, terms: Optional[dict[TlDiagram, Coeff]] = None
    ):
        parts = {
            (d, s): z
            for d, c in (terms or {}).items()
            for s, z in enumerate((c.a, c.b))
            if not z.is_zero()
        }
        for d, _ in parts:
            if d.strands != strands:
                raise ValueError(f"a diagram on {d.strands} strands in an element on {strands}")
        self.params, self.strands = params, strands
        self.den, nums = to_numerators(list(parts.values()))
        self.terms = dict(zip(((diagram_id(d.match), s) for d, s in parts), nums))
        self.rows = self._hash = None

    def coefficients(self) -> dict[TlDiagram, Coeff]:
        """The coefficient of each diagram, built on each call."""
        parts: dict[int, list] = {}
        for (d, s), n in self.terms.items():
            parts.setdefault(d, [ZERO, ZERO])[s] = from_numerator(n, self.den)
        return {TlDiagram(MATCHES[d]): Coeff(*ab) for d, ab in parts.items()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TlElement)
            and self.strands == other.strands
            and self.params == other.params
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.params, self.strands, self.den, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        terms = sorted(self.coefficients().items())
        return " + ".join(f"({c.a}+({c.b})d)*{d.match}" for d, c in terms) or "0"

    def __add__(self, other: TlElement) -> TlElement:
        self._compatible(other)
        den = lcm(self.den, other.den)
        kx, ky = den // self.den, den // other.den
        terms = {k: n * kx for k, n in self.terms.items()}
        for k, n in other.terms.items():
            terms[k] = terms.get(k, 0) + n * ky
        return _element(self.params, self.strands, den, terms)

    def __sub__(self, other: TlElement) -> TlElement:
        return self + -other

    def __neg__(self) -> TlElement:
        return _element(
            self.params, self.strands, self.den, {k: -n for k, n in self.terms.items()}
        )

    def scale(self, c: Coeff) -> TlElement:
        """self * c, the product with c times the identity diagram."""
        return self * TlElement(self.params, self.strands, {TlDiagram.identity(self.strands): c})

    def __mul__(self, other: TlElement) -> TlElement:
        self._compatible(other)
        # p, the loops removed plus the two powers of delta, is at most 2 + m // 2
        den, factors = _delta_factors(self.params.beta, 0, 2 + self.strands // 2)
        terms: dict = {}
        for (d1, s1), n1 in self.terms.items():
            row = [n1 * f for f in factors]
            for (d2, s2), n2 in other.terms.items():
                d, loops = diagram_mul(d1, d2)
                p = s1 + s2 + loops
                key = (d, p & 1)
                terms[key] = terms.get(key, 0) + row[p >> 1] * n2
        return _element(self.params, self.strands, self.den * other.den * den, terms)

    def adjoint(self) -> TlElement:
        """Conjugate-linear reflection; e_n is self-adjoint. delta is a formal
        positive square root, fixed by conjugation."""
        terms = {(flip(d), s): n.conjugate() for (d, s), n in self.terms.items()}
        return _element(self.params, self.strands, self.den, terms)

    def _compatible(self, other: TlElement) -> None:
        if self.strands != other.strands or self.params != other.params:
            raise ValueError("strand count or parameter mismatch")


def _element(params: TlParams, strands: int, den: int, terms: dict) -> TlElement:
    """The canonical element with numerators terms[(d, s)] over den > 0: zero
    terms are dropped and the gcd is divided out."""
    terms = {k: n for k, n in terms.items() if n}
    g = content(den, (terms.values(),))
    if g != 1:
        den //= g
        terms = {k: n // g for k, n in terms.items()}
    x = object.__new__(TlElement)
    x.params, x.strands, x.den, x.terms = params, strands, den, terms
    x.rows = x._hash = None
    return x


def tl_one(params: TlParams, m: int) -> TlElement:
    return TlElement(params, m, {TlDiagram.identity(m): Coeff(ONE, ZERO)})


def e_element(n: int, params: TlParams, m: int) -> TlElement:
    """The normalized projection e_n = E_n / delta."""
    return TlElement(params, m, {TlDiagram.cup_cap(n, m): Coeff(ZERO, params.beta.inverse())})


def g_element(n: int, params: TlParams, m: int) -> TlElement:
    """g_n = q e_n - (1 - e_n) = (q+1) e_n - 1."""
    return e_element(n, params, m).scale(Coeff(params.q + ONE, ZERO)) - tl_one(params, m)


def g_inverse(n: int, params: TlParams, m: int) -> TlElement:
    """g_n^{-1} = q^{-1} e_n - (1 - e_n)."""
    return e_element(n, params, m).scale(Coeff(params.q.inverse() + ONE, ZERO)) - tl_one(
        params, m
    )


def _delta_sum(powers: dict, den: int, beta: QQi) -> Coeff:
    """sum over p of powers[p] * delta^p / den, for Gaussian-integer values:
    the even and the odd exponents add into one numerator each."""
    lo = min(powers, default=0)
    fden, factors = _delta_factors(beta, lo, max(powers, default=0))
    parts = [0, 0]
    for p, n in powers.items():
        parts[p & 1] += n * factors[(p >> 1) - (lo >> 1)]
    return Coeff(from_numerator(parts[0], den * fden), from_numerator(parts[1], den * fden))


def markov_trace(x: TlElement) -> Coeff:
    """tr(D) = delta^{loops(closure) - m}, extended linearly; tr(1) = 1."""
    powers: dict[int, object] = {}
    for (d, s), n in x.terms.items():
        e = _closure(d) + s
        powers[e] = powers.get(e, 0) + n
    return _delta_sum(powers, x.den, x.params.beta)


def _row_windows(params: TlParams, m: int) -> tuple:
    """The `_delta_factors` windows that rows on m strands read: the
    product's, 0 .. 2 + m // 2, as in `TlElement.__mul__`, and the trace's,
    from -2 (m // 2) to 1, which holds each power of delta plus a closure
    exponent, 1 - m .. 0."""
    beta = params.beta
    return _delta_factors(beta, 0, 2 + m // 2), _delta_factors(beta, -2 * (m // 2), 1)


def _rows(y: TlElement) -> dict:
    """y's rows by left term and half-rows by bottom half, kept with y from
    the first read."""
    if y.rows is None:
        y.rows = {}
    return y.rows


def _half_row(y: TlElement, bottom: int) -> dict:
    """y's terms as an upper diagram with this bottom half sees them: a
    product d1 * d2 depends on d1's bottom half only through the middle, so
    each term (d2, s2) of y is keyed by the caps the middle joins on the
    upper side, d2's lower half with the middle's cups joined and the power
    of delta s2 plus the loops, and the numerators of equal keys added."""
    half: dict = {}
    for (d2, s2), n2 in y.terms.items():
        top, lower = SPLITS[d2]
        loops, caps, cups = _middle(bottom, top)
        k = (caps, _capped(lower, cups) if cups else lower, s2 + loops)
        half[k] = half.get(k, 0) + n2
    return {k: n for k, n in half.items() if n}


def _row(y: TlElement, key: tuple) -> tuple:
    """Build y's row for the left term key = (d1, s1) and keep it in y.rows:
    the terms of d1 * delta^s1 * y, numerators by (diagram, s) over y.den
    times the product window's denominator, then the even and the odd
    numerator of their trace over that times the trace window's. The terms
    come from the half-row of d1's bottom half, built on its first read, by
    capping d1's upper half and joining it to each entry's lower half."""
    d1, s1 = key
    upper, bottom = SPLITS[d1]
    (_, factors), (_, powers) = _row_windows(y.params, y.strands)
    rows, terms = _rows(y), {}
    half = rows.get(bottom)
    if half is None:
        half = rows[bottom] = _half_row(y, bottom)
    for (caps, lower, p), n in half.items():
        p += s1
        k = (_joined(_capped(upper, caps) if caps else upper, lower), p & 1)
        terms[k] = terms.get(k, 0) + factors[p >> 1] * n
    trace, h = [0, 0], y.strands // 2
    for (d, s), n in terms.items():
        e = s + _closure(d)
        trace[e & 1] += n * powers[(e >> 1) + h]
    row = rows[key] = ({k: n for k, n in terms.items() if n}, *trace)
    return row


def product_by_rows(x: TlElement, y: TlElement) -> TlElement:
    """x * y, formed from y's rows: each term of x adds its numerator times
    its row's terms. It equals `x * y`, and pays when many left factors
    share one right factor."""
    x._compatible(y)
    rows, terms = _rows(y), {}
    for k, n1 in x.terms.items():
        for key, n in (rows.get(k) or _row(y, k))[0].items():
            terms[key] = terms.get(key, 0) + n1 * n
    (den, _), _ = _row_windows(x.params, x.strands)
    return _element(x.params, x.strands, x.den * y.den * den, terms)


def trace_of_product(x: TlElement, y: TlElement) -> Coeff:
    """markov_trace(x * y), without forming x * y: each term of x multiplies
    the even and the odd trace numerator of its row in y once."""
    x._compatible(y)
    rows, even, odd = _rows(y), 0, 0
    for k, n1 in x.terms.items():
        _, e, o = rows.get(k) or _row(y, k)
        even += n1 * e
        odd += n1 * o
    (pden, _), (tden, _) = _row_windows(x.params, x.strands)
    den = x.den * y.den * pden * tden
    return Coeff(from_numerator(even, den), from_numerator(odd, den))


def _scalar_part(t: Coeff) -> QQi:
    if not t.b.is_zero():
        raise ParityError(f"trace has residual loop-parameter component: {t}")
    return t.a


def trace_scalar(x: TlElement) -> QQi:
    """The Markov trace as a pure scalar; a residual delta part is an error."""
    return _scalar_part(markov_trace(x))


def relation_report(params: TlParams, m: int) -> CheckReport:
    """The relation suite on m strands: idempotent e_n, invertible g_n with
    the Hecke quadratic, tr(e_n) = 1/beta, the TL and braid relations, the
    Markov property, traciality on sample pairs, and the unitarity dichotomy
    (g g* = 1 exactly when q lies on the unit circle). The traciality
    sample makes the report sampled, and its note names the sample."""
    e = {n: e_element(n, params, m) for n in range(1, m)}
    g = {n: g_element(n, params, m) for n in range(1, m)}
    one = tl_one(params, m)
    inv = params.beta.inverse()
    beta_inv = Coeff(inv, ZERO)
    q, q_minus_1 = Coeff(params.q, ZERO), Coeff(params.q - ONE, ZERO)
    if m >= 4:
        samples, named = [e[1], e[2] * e[3], g[1], g[3] * e[1]], "e_1, e_2 e_3, g_1, g_3 e_1"
    else:
        samples, named = [*e.values(), *g.values()], f"e_1..e_{m - 1}, g_1..g_{m - 1}"

    def relations():
        """(holds, description, data) for each relation in turn."""
        for n in range(1, m):
            at = {"n": n}
            yield e[n] * e[n] == e[n], "e_n^2 != e_n", at
            yield g[n] * g_inverse(n, params, m) == one, "g_n g_n^-1 != 1", at
            yield g[n] * g[n] == g[n].scale(q_minus_1) + one.scale(q), "Hecke quadratic fails", at
            yield markov_trace(e[n]) == beta_inv, "tr(e_n) != 1/beta", at
            for k in range(1, m):
                nk = {"n": n, "k": k}
                if abs(n - k) == 1:
                    holds = e[n] * e[k] * e[n] == e[n].scale(beta_inv)
                    yield holds, "e_n e_k e_n != e_n / beta", nk
                elif abs(n - k) >= 2:
                    yield e[n] * e[k] == e[k] * e[n], "distant e's do not commute", nk
                    yield g[n] * g[k] == g[k] * g[n], "distant g's do not commute", nk
            if n + 1 < m:
                holds = g[n] * g[n + 1] * g[n] == g[n + 1] * g[n] * g[n + 1]
                yield holds, "g braid relation fails", at
        # Markov property: tr(x e_n) = tr(x) / beta for x in the span below strand n
        for n in range(2, m):
            low = [one] + [e[j] for j in range(1, n)]
            for x, y in itertools.product(low, repeat=2):
                prod = x * y
                tr = markov_trace(prod)
                holds = markov_trace(prod * e[n]) == Coeff(tr.a * inv, tr.b * inv)
                yield holds, "Markov property fails", {"n": n}
        for x, y in itertools.product(samples, repeat=2):
            yield markov_trace(x * y) == markov_trace(y * x), "trace is not tracial", {}
        for n in range(1, m):
            holds = (g[n] * g[n].adjoint() == one) == params.unitary
            yield holds, "unitarity dichotomy violated", {"n": n}

    return reports.run_checks(
        (None if holds else (name, at) for holds, name, at in relations()),
        exhaustive=False,
        notes=(f"traciality checked on the pairs of {named}",),
    )


# ---------------------------------------------------------------------------
# The conjugation action and the spreadable projections
# ---------------------------------------------------------------------------

def tl_conjugation_action(
    params: TlParams, m: int, offset: int = 0, elements: Optional[Iterable[TlElement]] = None
) -> BraidAction:
    """sigma_k acts by x -> g_{k+offset} x g_{k+offset}^{-1} on m strands.

    Generators mapping beyond the strand bound act as the identity; the
    stabilization bound is m - 1 - offset, and at least one generator must
    act."""
    if m - 1 - offset < 1:
        raise ValueError(
            f"no generator acts on {m} strands with offset {offset}: need m >= {offset + 2}"
        )
    acting = range(offset + 1, m)
    if elements is None:
        elements = [tl_one(params, m)] + [
            e_element(n, params, m) for n in range(1, m)
        ]
    return conjugation_action(
        [g_element(n, params, m) for n in acting],
        [g_inverse(n, params, m) for n in acting],
        elements,
        f"tl-conjugation(q={params.q}, m={m}, offset={offset})",
    )


def spreadable_projection(m0: int, params: TlParams, m: int) -> Callable[[int], TlElement]:
    """The projection sequence N -> e_{m0, N} on m strands, where
    e_{m0, 0} = e_{m0} and e_{m0, N} = g_{m0+N} e_{m0, N-1} g_{m0+N}^{-1}.
    Each term is built on first use, conjugated once from the one before,
    so each g_n and g_n^{-1} is built once."""
    chain: list[TlElement] = []

    def term(big_n: int) -> TlElement:
        if m0 < 1 or big_n < 0 or m0 + big_n > m - 1:
            raise ValueError(f"need 1 <= m0 and m0 + N <= {m - 1}")
        while len(chain) <= big_n:
            n = m0 + len(chain)
            chain.append(
                g_element(n, params, m) * chain[-1] * g_inverse(n, params, m)
                if chain else e_element(m0, params, m)
            )
        return chain[big_n]

    return term


# ---------------------------------------------------------------------------
# The induced moment distribution and the probability SCO
# ---------------------------------------------------------------------------

def tl_distribution(params: TlParams, m: int, m0: int = 1) -> Distribution:
    """Moments of the projection sequence N -> e_{m0, N} under the Markov trace.

    Positions up to m - 1 - m0 fit on m strands; the *-mode is available
    exactly when the braid elements are unitary (otherwise the conjugations do
    not commute with the adjoint and starred moments are not spreadable).
    At unitary q each projection must be self-adjoint; one that is not
    raises VerificationError with its position N.

    The incremental form's state is the product of the prefix's
    projections, None for the empty prefix, so words with equal products
    share their work: `step` multiplies by the factor's projection and
    `value` traces that product without forming it. Both are cached by
    (state, letter), and at unitary q a starred letter is its plain one.
    `eval_word` is the fold of the form."""
    if m0 < 1 or m0 + 1 > m - 1:
        raise ValueError(f"need 1 <= m0 <= {m - 2}")
    projection = spreadable_projection(m0, params, m)

    @functools.cache
    def proj(n_pos: int, star: bool) -> TlElement:
        x = projection(n_pos)
        if params.unitary:
            reports.require(reports.run_checks([None if x.adjoint() == x else (
                "unitary conjugation gave a projection that is not self-adjoint", {"N": n_pos}
            )]))
        return x.adjoint() if star else x

    def letter(f: Factor) -> tuple:
        if f.letter != "e":
            raise ValueError(f"unknown letter {f.letter!r}")
        # with unitary braid elements the projections are self-adjoint, so
        # a star flag does not change a product or its trace
        return f.pos, f.star and not params.unitary

    @functools.cache
    def times(x: Optional[TlElement], key: tuple) -> TlElement:
        last = proj(*key)
        return last if x is None else product_by_rows(x, last)

    @functools.cache
    def trace(x: Optional[TlElement], key: tuple) -> QQi:
        last = proj(*key)
        return _scalar_part(markov_trace(last) if x is None else trace_of_product(x, last))

    form = Incremental(None, lambda x, f: times(x, letter(f)), lambda x, f: trace(x, letter(f)))
    return Distribution(
        alphabet=("e",),
        eval_word=form.fold,
        star_mode=params.unitary,
        incremental=form,
    )


def tl_probability_sco(
    params: TlParams, n_max: int, m: Optional[int] = None, m0: int = 1
) -> ProbabilitySco:
    """The SCO of the m0-shifted conjugation action, as an SCO of probability
    spaces under the Markov trace; its induced sequence is N -> e_{m0, N}."""
    m = m0 + n_max + 2 if m is None else m
    if m0 + n_max + 2 > m:
        raise ValueError(f"need m >= {m0 + n_max + 2} strands for levels up to {n_max}")
    # e_{m-1} is excluded: its level under the truncated action would be
    # mis-measured, since sigma with index m - 1 has no strands to act on
    elements = [tl_one(params, m)] + [e_element(j, params, m) for j in range(1, m - 1)]
    return ProbabilitySco(
        sco=braid_sco_build(tl_conjugation_action(params, m, offset=m0, elements=elements), n_max),
        multiply=lambda x, y: x * y,
        functional=trace_scalar,
        embed=lambda letter: e_element(m0, params, m),
        alphabet=("e",),
        adjoint=TlElement.adjoint if params.unitary else None,
    )
