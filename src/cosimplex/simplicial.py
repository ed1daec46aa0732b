"""Semi-cosimplicial objects, partial shifts, and the correspondence between them.

An Sco is a finite truncation: per-level test carriers plus coface morphisms
delta^k : F^{n-1} -> F^n, with the identities delta^j delta^i = delta^i delta^{j-1}
(i < j) checked pointwise, never assumed. A PartialShiftSystem is a filtration
with connecting maps i_n and level restrictions alpha_k^{(n)} of adapted
endomorphisms; the inductive limit is realized as a tagged union of levels,
elements compared by pushing forward along the connecting maps (all examples
here have injective connecting maps, so this is a faithful model).

A level, and an augmentation, is a tuple of test elements. Each structure
says once, by its `exhaustive` flag, whether its levels are finite bases
(exhaustive checking) or sampled element lists, and every report records
which mode was used. Elements are compared with `==`: every carrier here
has a canonical form with an exact equality.

On a finite carrier the cofaces, connecting maps and shifts are maps between
finite sets. `tabulate` is the one builder of position tables: it indexes
each map as the positions of its images, calling it once per element. An
SCO gets tables (`Sco.tables`, built on first use) exactly when its
elements are hashable and distinct and every coface sends its level into
the next without raising; a `PartialShiftSystem` has tables only when
`shifts_from_sco` seeds it with the table objects of its SCO (`_seed`).
Otherwise the checks evaluate the callables, one identity at a time. The
SCO of `braid.verified_braid_sco` is seeded with the re-indexed coface
view. A copy made with `dataclasses.replace` starts with no tables: an SCO
tabulates its own callables, and a system is checked through them.

On tables a check decides a whole family at once: the two sides of one
identity over every element of a level are composed tables (`compose`, or
a `composer` getter built once for an inner table that several outer
tables meet), and one `==` between them hands `reports.run_checks` a block
of identities that hold. Only a family whose sides differ is walked
element by element, in the loop that also serves the callables, so the
count and the first witness are those of checking every identity in turn.
Each composite is formed at most once: an SCO decides each level once
(`Sco.failing`, the pairs whose sides differ; a level whose points and
whose next level's fit in a byte, at most 256 each, is composed on `bytes`
by `bytes.translate`, the byte case of `composer`), and the system of
`shifts_from_sco` reads its failing adaptedness and exchange families off
those decisions by index (`PartialShiftSystem.failing`). The exchange law
is one block when it holds.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from . import reports
from .reports import CheckReport


class TruncationError(ValueError):
    """A computation would need a level beyond the system's truncation bound."""


# ---------------------------------------------------------------------------
# Ordinal face maps and the basic shift on the natural numbers
# ---------------------------------------------------------------------------

def ordinal_coface(n: int, k: int, m: int) -> int:
    """delta^k : [n-1] -> [n] at m: the strictly increasing map whose image
    omits k, with the signature of Sco.coface."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not 0 <= m <= n - 1:
        raise ValueError(f"m={m} outside domain [{n - 1}]")
    return m if m < k else m + 1


def nat_partial_shift(k: int, m: int) -> int:
    """The injection of N0 into itself missing the position k."""
    return m if m < k else m + 1


# ---------------------------------------------------------------------------
# Maps indexed like tables
# ---------------------------------------------------------------------------

def tabulate(rows: Iterable[tuple[Sequence, Sequence, Iterable[Callable]]]) -> Optional[tuple]:
    """Maps between finite carriers as position tables: for each row
    (source, target, maps), the table of each map, which lists over the
    points x of source the position of f(x) in target, with one call of f
    per point. A position stands for its value under `==`, so the result
    is None at the first target with an unhashable or repeated element,
    and at the first map that raises or sends a point outside its target.
    The rows and maps are read in turn, and none after a None. A check that
    gets None evaluates the maps itself, in its own order, so that an
    identity failing before a map raises is reported."""
    tables = []
    for source, target, maps in rows:
        try:
            index = {x: p for p, x in enumerate(target)}
        except TypeError:
            return None
        if len(index) != len(target):
            return None
        try:
            tables.append(tuple(tuple(map(index.__getitem__, map(f, source))) for f in maps))
        except Exception:
            return None
    return tuple(tables)


def composer(inner: Sequence[int]) -> Callable[[Sequence[int]], Sequence[int]]:
    """The map from a table outer to the table of outer after inner,
    outer[inner[p]] for each position p: one `itemgetter` over inner, so a
    caller that composes many outer tables with one inner builds it once.
    A `bytes` inner gives `inner.translate`, whose outer is a 256-byte
    translation table and whose composite is `bytes`: the byte case, for
    tables whose positions fit in a byte (`Sco.failing`)."""
    if isinstance(inner, bytes):
        return inner.translate
    if len(inner) > 1:
        return itemgetter(*inner)
    return lambda outer: tuple(outer[p] for p in inner)  # itemgetter of one item is no tuple


def compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """The table of outer after inner, through `composer`."""
    return composer(inner)(outer)


def _seed(structure: Any, **cached: Any) -> Any:
    """structure, with each value that is not None stored under its name:
    over the None class default of a `PartialShiftSystem` or a
    `braid.BraidAction`, or in the cache of an `Sco`'s
    `functools.cached_property`. Only a construction that read it off its
    source seeds it. A copy, even an unmodified one, is a new object: an
    `Sco` tabulates its own callables, and the other two have none."""
    structure.__dict__.update((name, v) for name, v in cached.items() if v is not None)
    return structure


class _Images:
    """f(*args, x) indexed like a table by x, evaluated on every lookup."""

    __slots__ = ("f", "args")

    def __init__(self, f: Callable, *args: Any):
        self.f, self.args = f, args

    def __getitem__(self, x: Any) -> Any:
        return self.f(*self.args, x)


class _LazyImages(dict):
    """f(key) indexed like a table by key, evaluated on first use and kept."""

    __slots__ = ("f",)

    def __init__(self, f: Callable[[Any], Any]):
        super().__init__()
        self.f = f

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.f(key)
        return value


# ---------------------------------------------------------------------------
# SCO truncations
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Sco:
    """A truncated semi-cosimplicial object.

    levels[n] holds the test elements of F^n. coface(n, k, x) applies
    delta^k : F^{n-1} -> F^n; for an augmented SCO the call coface(0, 0, x)
    is the augmentation map F^{-1} -> F^0. exhaustive says whether every
    level is a full basis or a sample.
    """

    levels: tuple[tuple, ...]
    coface: Callable[[int, int, Any], Any]
    augmentation: Optional[tuple] = None
    exhaustive: bool = True

    @property
    def n_max(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> Optional[tuple]:
        if n == -1:
            return self.augmentation
        return self.levels[n]

    def delta(self, n: int, k: int, x: Any) -> Any:
        if not 0 <= k <= n:
            raise ValueError(f"delta^{k} undefined at level transition {n-1}->{n}")
        if n > self.n_max:
            raise TruncationError(f"level {n} beyond truncation bound {self.n_max}")
        return self.coface(n, k, x)

    @functools.cached_property
    def tables(self) -> Optional[tuple]:
        """tables[n][k] lists, over the elements of level n - 1 (of the
        augmentation at n = 0, empty without one), the positions in level n
        of their images under delta^k, for 0 <= k <= n <= n_max; None unless
        `tabulate` indexes every coface."""
        return tabulate(
            ((), (), ()) if source is None else (
                source, self.levels[n], [functools.partial(self.coface, n, k) for k in range(n + 1)]
            )
            for n, source in enumerate((self.augmentation, *self.levels[:-1]))
        )

    @functools.cached_property
    def failing(self) -> Optional[dict]:
        """With tables, failing[n] is the set of pairs (i, j), i < j <= n + 1,
        whose composed tables delta^j delta^i and delta^i delta^(j-1) differ
        on level n - 1, decided on first read and empty when the level
        holds; None without tables. A level builds one `composer` getter
        per inner coface delta^k_n and applies it to the outer cofaces, so
        each of its (n + 2)(n + 1) composites is formed once. When levels
        n and n + 1 both have at most 256 points, the size of a byte, the
        level's tables are converted once to `bytes`, each outer one padded
        to a 256-byte translation table, and composed by `bytes.translate`
        (the byte case of `composer`); larger levels compose tuples.
        `sco_verify` reads it, and the system of `shifts_from_sco` its
        families."""
        tables = self.tables
        if tables is None:
            return None
        sizes = tuple(map(len, self.levels))

        def decide(n: int) -> frozenset:
            outer, inner = tables[n + 1], tables[n]
            if sizes[n + 1] <= 256 and sizes[n] <= 256:
                outer, inner = [bytes(t).ljust(256) for t in outer], map(bytes, inner)
            inner = tuple(map(composer, inner))
            return frozenset(
                (i, j) for i, j in itertools.combinations(range(n + 2), 2)
                if inner[i](outer[j]) != inner[j - 1](outer[i])
            )

        return _LazyImages(decide)


def sco_verify(s: Sco) -> CheckReport:
    """Check delta^j delta^i = delta^i delta^{j-1} on all test elements.

    Sources run over levels n-1 (including the augmentation when present) with
    headroom for a double application within the truncation.

    Each coface is indexed like a table. With `s.tables` the points are
    positions and each coface is its table, and a level with no pair in
    `s.failing` is one block of identities that hold.
    Otherwise, and on a level with a failing pair, the identities are walked
    element by element with the pairs inside, so the first witness is the
    least (element, pair) in that order. Without tables the cofaces are
    evaluated through `delta`, and an inner coface delta^k out of a level
    is indexed by the position of x and evaluated once per (k, position),
    on first use, so that an identity failing early is reported before a
    later inner coface raises. The count and the first witness are the
    same either way."""
    start = -1 if s.augmentation is not None else 0
    tables, failing = s.tables, s.failing
    if tables is not None:
        inner = lambda n, points: tables[n]
        outer = lambda n, k: tables[n][k]
    else:
        delta = s.delta

        def inner(n: int, points: tuple) -> list:
            return [_LazyImages(lambda pos, k=k: delta(n, k, points[pos])) for k in range(n + 1)]

        outer = functools.partial(_Images, delta)

    def identities():
        for n in range(start + 1, s.n_max):
            points = s.level(n - 1)
            if not points:
                continue
            if tables is not None and not failing[n]:
                yield len(points) * math.comb(n + 2, 2)
                continue
            pairs = tuple(itertools.combinations(range(n + 2), 2))
            first, then = inner(n, points), [outer(n + 1, k) for k in range(n + 2)]
            for pos, x in enumerate(points):
                for i, j in pairs:
                    yield None if then[j][first[i][pos]] == then[i][first[j - 1][pos]] else (
                        "cosimplicial identity violated",
                        {"i": i, "j": j, "n": n, "element": x},
                    )

    return reports.run_checks(identities(), s.exhaustive)


# ---------------------------------------------------------------------------
# Partial shift systems on the tagged-union colimit
# ---------------------------------------------------------------------------

class Colim(NamedTuple):
    """An inductive-limit element, tagged by the level of its representative."""

    level: int
    value: Any


@dataclasses.dataclass(frozen=True)
class PartialShiftSystem:
    """A filtration with connecting maps and adapted-endomorphism restrictions.

    connect(n, x) is i_n : F_{n-1} -> F_n (1 <= n <= n_max);
    alpha(k, n, x) is alpha_k^{(n)} : F_{n-1} -> F_n. k_max bounds the shift
    indices available (None = all k). levels and exhaustive are as in `Sco`.

    `tables` and `failing` are None unless `shifts_from_sco` seeds them
    from its SCO (`_seed`); any other system, a `dataclasses.replace` copy
    included, is checked through its callables.
    """

    tables = None
    failing = None

    levels: tuple[tuple, ...]
    connect: Callable[[int, Any], Any]
    alpha: Callable[[int, int, Any], Any]
    k_max: Optional[int] = None
    exhaustive: bool = True

    @property
    def n_max(self) -> int:
        return len(self.levels) - 1

    def mu(self, n: int, x: Any) -> Colim:
        return Colim(n, x)

    def push(self, c: Colim, target: int) -> Colim:
        if target > self.n_max:
            raise TruncationError(f"level {target} beyond truncation {self.n_max}")
        v = c.value
        for n in range(c.level + 1, target + 1):
            v = self.connect(n, v)
        return Colim(target, v)

    def colim_equal(self, a: Colim, b: Colim) -> bool:
        t = max(a.level, b.level)
        return self.push(a, t).value == self.push(b, t).value

    def apply_shift(self, k: int, c: Colim) -> Colim:
        """Apply the adapted endomorphism alpha_k to a colimit element."""
        if self.k_max is not None and k > self.k_max:
            raise TruncationError(f"shift index {k} beyond bound {self.k_max}")
        n = c.level + 1
        if n > self.n_max:
            raise TruncationError(f"level {n} beyond truncation {self.n_max}")
        return Colim(n, self.alpha(k, n, c.value))

    def shift_indices(self) -> range:
        """The shift indices that the checks visit: 0 .. n_max + 1, capped
        at k_max."""
        top = self.n_max + 1 if self.k_max is None else min(self.n_max + 1, self.k_max)
        return range(top + 1)


def verify_partial_shifts(p: PartialShiftSystem) -> CheckReport:
    """Check adaptedness, triviality below the index, and the exchange law.

    Colimit elements are compared at the higher of their two levels. Each
    alpha^{(n)} and connecting map is indexed like a table, as in
    `sco_verify`: by `p.tables` when it is not None, and otherwise through
    the callables. On tables each family, one (k, n) of adaptedness, one
    k of triviality or one (i, j, n) of the exchange law, is a block when
    it holds, by `p.failing` or by one `==` of the triviality tables, and
    is walked element by element when it fails. Adaptedness is one block
    when every family of it holds, and so is the exchange law. Otherwise
    the exchange families that hold are one block up to the first that
    fails, which is walked, in the (i, j)-then-n order of the callables.
    Through the callables a map out of level n-1, the inner one of a
    composite, is indexed by the position of x and evaluated once per
    (k, n, position), on first use, for all three families."""
    ks = p.shift_indices()
    tables, failing = p.tables, p.failing
    if tables is not None:
        inner_alpha = outer_alpha = lambda k, n: tables[n - 1][k]
        inner_connect = outer_connect = lambda n: tables[n - 1][-1]
    else:
        @functools.cache
        def inner_alpha(k: int, n: int) -> _LazyImages:
            return _LazyImages(lambda pos: p.alpha(k, n, p.levels[n - 1][pos]))

        @functools.cache
        def inner_connect(n: int) -> _LazyImages:
            return _LazyImages(lambda pos: p.connect(n, p.levels[n - 1][pos]))

        outer_alpha = functools.partial(_Images, p.alpha)
        outer_connect = functools.partial(_Images, p.connect)

    def identities():
        # adaptedness: mu_{n+1} alpha^{(n+1)} i_n = mu_n alpha^{(n)}, at level
        # n+1: alpha^{(n+1)} i_n x = i_{n+1} alpha^{(n)} x
        if tables is not None and not failing[0]:
            yield len(ks) * sum(map(len, p.levels[:p.n_max - 1]))
        else:
            for n in range(1, p.n_max):
                into, up = inner_connect(n), outer_connect(n + 1)
                for k in ks:
                    below, above = inner_alpha(k, n), outer_alpha(k, n + 1)
                    if tables is not None and (k, n) not in failing[0]:
                        yield len(into)
                        continue
                    for pos, x in enumerate(p.levels[n - 1]):
                        yield None if above[into[pos]] == up[below[pos]] else (
                            "adaptedness violated", {"k": k, "n": n, "element": x}
                        )

        # triviality: alpha_k mu_{k-1} = mu_{k-1}
        for k in ks:
            if k == 0 or k > p.n_max:
                continue
            shift, into = inner_alpha(k, k), inner_connect(k)
            if tables is not None and shift == into:
                yield len(into)
                continue
            for pos, x in enumerate(p.levels[k - 1]):
                yield None if shift[pos] == into[pos] else (
                    "triviality violated", {"k": k, "element": x}
                )

        # exchange law: alpha_j alpha_i = alpha_i alpha_{j-1}
        pairs = tuple(itertools.combinations(ks, 2))
        if tables is not None and not failing[1]:
            yield len(pairs) * sum(map(len, p.levels[:p.n_max - 1]))
            return
        held = 0
        for i, j in pairs:
            for n in range(1, p.n_max):
                if tables is not None and (i, j, n) not in failing[1]:
                    held += len(p.levels[n - 1])
                    continue
                if held:
                    yield held
                    held = 0
                first_i, first_j = inner_alpha(i, n), inner_alpha(j - 1, n)
                then_j, then_i = outer_alpha(j, n + 1), outer_alpha(i, n + 1)
                for pos, x in enumerate(p.levels[n - 1]):
                    yield None if then_j[first_i[pos]] == then_i[first_j[pos]] else (
                        "exchange law violated", {"i": i, "j": j, "n": n, "element": x}
                    )

    return reports.run_checks(identities(), p.exhaustive)


def shifts_from_sco(s: Sco, verify: bool = True) -> PartialShiftSystem:
    """The canonically associated system: alpha_k^{(n)} is delta^k for k <= n,
    delta^n beyond, and the connecting maps are i_n = delta^n.

    When s has tables the system is seeded with them and with its failing
    families, with no coface call and no `compose`: tables[n - 1] holds
    s.tables[n][min(k, n)] for each k, then s.tables[n][n] for i_n, the
    SCO's own objects. So the exchange family (i, j, n) with i <= n is the
    SCO's pair (i, min(j, n + 1)) at level n, the adaptedness family (k, n)
    with k <= n its pair (k, n + 1) with the sides swapped, and a family
    with i or k >= n + 1 compares one composite with itself. Otherwise the
    system has neither, and is checked through its callables."""
    if verify:
        reports.require(sco_verify(s))
    coface = s.coface
    p = PartialShiftSystem(
        s.levels, lambda n, x: coface(n, n, x), lambda k, n, x: coface(n, min(k, n), x),
        exhaustive=s.exhaustive,
    )
    tables = s.tables
    if tables is None:
        return p
    ks = p.shift_indices()
    adapted, exchanged = set(), set()
    for n in range(1, p.n_max):
        for i, j in s.failing[n]:
            if j <= n:
                exchanged.add((i, j, n))
            else:
                adapted.add((i, n))
                exchanged.update((i, top, n) for top in ks[n + 1:])
    return _seed(p, tables=tuple(
        (*(tables[n][min(k, n)] for k in ks), tables[n][n]) for n in range(1, p.n_max + 1)
    ), failing=(frozenset(adapted), frozenset(exchanged)))


def sco_from_shifts(p: PartialShiftSystem) -> Sco:
    """Read the cofaces off a partial shift system (the monic direction), and
    verify the SCO.

    Injectivity of the colimit injections is checked on the test elements
    only; this is a partial guarantee, recorded by the caller's reports.
    """
    top = p.n_max

    def injections():
        for n, points in enumerate(p.levels):
            for x, y in itertools.combinations(points, 2):
                # push to the deepest truncated level: a collision anywhere
                # downstream already falsifies injectivity into the colimit
                xs, ys = (p.push(Colim(n, z), top).value for z in (x, y))
                yield None if x == y or xs != ys else (
                    "colimit injection collides", {"level": n, "x": x, "y": y}
                )

    reports.require(reports.run_checks(injections(), p.exhaustive))

    def coface(n: int, k: int, x: Any) -> Any:
        return p.alpha(k, n, x)

    s = Sco(p.levels, coface, exhaustive=p.exhaustive)
    reports.require(sco_verify(s))
    return s


def prop_partial_check(p: PartialShiftSystem, k: int, n_power: int, x: Any) -> bool:
    """Check alpha_k (alpha_0)^N mu_0 = (alpha_0)^N mu_0 (N < k) respectively
    (alpha_0)^{N+1} mu_0 (N >= k) at a single level-0 element."""
    c = p.mu(0, x)
    for _ in range(n_power):
        c = p.apply_shift(0, c)
    lhs = p.apply_shift(k, c)
    rhs = c if n_power < k else p.apply_shift(0, c)
    return p.colim_equal(lhs, rhs)


def relabel(p: PartialShiftSystem, offset: int) -> PartialShiftSystem:
    """The system (alpha_k)_{k >= offset} relabeled by k -> k - offset, with the
    filtration shifted accordingly."""
    if offset < 0 or offset > p.n_max:
        raise ValueError("offset outside filtration range")
    return PartialShiftSystem(
        levels=p.levels[offset:],
        connect=lambda n, x: p.connect(n + offset, x),
        alpha=lambda k, n, x: p.alpha(k + offset, n + offset, x),
        k_max=None if p.k_max is None else p.k_max - offset,
        exhaustive=p.exhaustive,
    )


def fixed_point_filtration(
    maps: Sequence[Callable[[Any], Any]], carrier: Sequence
) -> PartialShiftSystem:
    """Canonical filtration by fixed point sets X_n = {x : alpha_{n+1} x = x}.

    The exchange law is verified on the whole carrier first; elements outside
    the top fixed-point set (i.e. outside the truncated union of the X_n) are
    reported, mirroring the replacement of X by X_infinity.
    """
    top = len(maps) - 1  # largest available shift index
    if top < 1:
        raise ValueError("need at least alpha_0 and alpha_1")

    def exchange_law():
        for i, j in itertools.combinations(range(top + 1), 2):
            for x in carrier:
                yield None if maps[j](maps[i](x)) == maps[i](maps[j - 1](x)) else (
                    "exchange law violated", {"i": i, "j": j, "element": x}
                )

    reports.require(reports.run_checks(exchange_law()))

    fixed = [
        tuple(x for x in carrier if maps[n + 1](x) == x) for n in range(top)
    ]
    for n in range(1, top):
        for x in fixed[n - 1]:
            if x not in fixed[n]:
                # ruled out by the exchange law already verified above
                raise AssertionError(f"fixed-point containment fails at level {n}: {x!r}")
    outside = [x for x in carrier if x not in fixed[-1]]
    if outside:
        raise TruncationError(
            f"elements outside the truncated union of fixed-point sets: {outside!r}"
        )
    return PartialShiftSystem(
        levels=tuple(fixed),
        connect=lambda n, x: x,
        alpha=lambda k, n, x: maps[k](x),
        k_max=top,
    )
