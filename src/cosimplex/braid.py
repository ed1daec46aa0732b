"""Braid words, braid-monoid actions, and the SCOs they induce.

An action provides apply(i, x) for the Artin generator with index i >= 1
(and optionally inverse_apply for group actions). Every action declares a
stabilization bound K: generators above K act as the identity on the
carrier. The bound is all an action says about levels. Words are applied
right-to-left, i.e. (gh)x = g(hx).

The filtration X^n consists of the elements fixed by all generators with
index >= n+2; the cofaces are the ascending words sigma_{k+1} ... sigma_{n+1}.
`level_of` finds the level of one element by probing the generators from K
down. The checks find the members of every level at once, top-down
(`_members`): X^(K-1) is the whole carrier, and X^n is the part of X^(n+1)
that sigma_{n+2} fixes, one filter of a list per level, so a generator reads
exactly the elements that the probe would read with it.
`shift_word_report` checks the shift-word and diagram identities behind the
cofaces, with the shift powers capped by the bound.

Elements are compared with `==`: every carrier (tuples, matrices, TL
elements) has a canonical form and a hash. Only `ybe_action` gives an
action tables: it seeds `BraidAction.tables` with the generators up to the
bound as tables of image positions, gathered by slices from one table of
r on Y x Y (`simplicial.tabulate`) when a check first reads an entry, and
builds its carrier of tuples only when a check reads an element. The
checks read the generators through `BraidAction.generators` (the tables,
or a memo of `apply` per generator) and the cofaces through one view per
check (`_indexed`), in which delta^k_n is sigma_{k+1} after delta^(k+1)_n,
built once. So each generator is evaluated at most once per element, and
only `lemma_power_check` and `diagram_identity_check` call `apply_word`.
On tables each family of identities (a braid relation, a shift word, a
diagram identity) is checked over all its points as two composed tables
(`simplicial.compose`) compared with one `==`, and a check forms each
composite once: the descending word of power 1 is sigma_{n+1} on the
points, which the diagram identities read, and their inner composites are
formed once per i and once per j; a level that holds the whole carrier
reads the tables as they are. `ybe_action` seeds the decision of its
relation families (`BraidAction.failing`) from its Yang-Baxter check, so
its relations compose nothing and read no table. Only a family that
differs, or a level of `shift_word_report` holding one, is walked element
by element, in the order and with the witness of the walk without tables:
the least failing level, then the least element.
`verified_braid_sco` gathers each level's elements from the carrier at
once, seeds its SCO with tables that re-index the coface view by level,
reads the closure of its levels off them, and hands back the
`sco_verify` report of that SCO; its coface reads those tables, not the
view. An action that `ybe_action` did not build, a copy made with
`dataclasses.replace` included, is checked through `apply`.
A construction that relies on a check (`verified_braid_sco`, `ybe_action`)
raises `reports.VerificationError` with the failed report.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import itertools
import math
import operator
from typing import Any, Callable, Iterable, Optional, Sequence

from . import reports
from .reports import CheckReport
from .simplicial import (
    Sco, TruncationError, _Images, _LazyImages, _seed, compose, composer, sco_verify, tabulate
)


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A finite word in signed Artin generators; empty word is the unit."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for idx, sign in self.letters:
            if idx < 1 or sign not in (1, -1):
                raise ValueError(f"bad letter ({idx}, {sign})")

    @staticmethod
    def positive(indices: Iterable[int]) -> BraidWord:
        return BraidWord(tuple((i, 1) for i in indices))

    def __mul__(self, other: BraidWord) -> BraidWord:
        return BraidWord(self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(tuple((idx, -sign) for idx, sign in reversed(self.letters)))


@dataclasses.dataclass(frozen=True)
class BraidAction:
    """An action of the braid monoid (or group) on a carrier with exact equality.

    `tables` and `failing` are None unless `ybe_action` seeds them
    (`simplicial._seed`); any other action, a `dataclasses.replace` copy
    included, is checked through `apply`."""

    tables = None
    failing = None

    apply: Callable[[int, Any], Any]
    elements: tuple
    stabilization_bound: int
    inverse_apply: Optional[Callable[[int, Any], Any]] = None
    exhaustive: bool = True
    name: str = ""

    def apply_word(self, word: BraidWord, x: Any) -> Any:
        for idx, sign in reversed(word.letters):
            if sign == 1:
                x = self.apply(idx, x)
            else:
                if self.inverse_apply is None:
                    raise ValueError("action has no inverses; word must be positive")
                x = self.inverse_apply(idx, x)
        return x

    @functools.cached_property
    def generators(self) -> tuple:
        """generators[i] is sigma_i indexed like a table, for
        1 <= i <= stabilization_bound + 1: with `tables`, on positions, and
        the identity past the bound; otherwise on elements, each image
        computed by `apply` on first use and kept with the action."""
        if self.tables is not None:
            return (None, *self.tables, range(len(self.elements)))
        return (None, *(
            _LazyImages(functools.partial(self.apply, i))
            for i in range(1, self.stabilization_bound + 2)
        ))


def conjugation_action(
    gens: Sequence, invs: Sequence, elements: Iterable, name: str
) -> BraidAction:
    """sigma_i acts by x -> gens[i-1] x invs[i-1] (invs[i-1] inverts gens[i-1])
    and as the identity for i > len(gens), the stabilization bound. The
    elements are a sample, so reports say "sampled"."""
    bound = len(gens)

    def apply(i: int, x: Any) -> Any:
        return x if i > bound else gens[i - 1] * x * invs[i - 1]

    def inverse_apply(i: int, x: Any) -> Any:
        return x if i > bound else invs[i - 1] * x * gens[i - 1]

    return BraidAction(
        apply=apply, elements=tuple(elements), inverse_apply=inverse_apply,
        stabilization_bound=bound, exhaustive=False, name=name,
    )


def coface_word(k: int, n: int) -> BraidWord:
    """The positive word sigma_{k+1} ... sigma_{n+1} implementing delta^k at level n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return BraidWord.positive(range(k + 1, n + 2))


def descending_word(n: int, big_n: int) -> BraidWord:
    """The positive word sigma_{n+N} ... sigma_{n+1}."""
    return BraidWord.positive(range(n + big_n, n, -1))


def diagram_words(i: int, j: int, n: int) -> tuple[BraidWord, BraidWord]:
    """The two sides of the diagram identity at level n, for 0 <= i < j <= n."""
    if not 0 <= i < j <= n:
        raise ValueError(f"need 0 <= i < j <= n, got i={i}, j={j}, n={n}")
    lhs = (
        BraidWord.positive(range(j + 1, n + 2))
        * BraidWord.positive(range(i + 1, n + 2))
        * BraidWord.positive([n + 1])
    )
    rhs = BraidWord.positive(range(i + 1, n + 2)) * BraidWord.positive(range(j, n + 2))
    return lhs, rhs


def check_level_bound(a: BraidAction, n_max: int) -> None:
    """Raise TruncationError unless the cofaces up to level n_max are sound.

    The level-n cofaces use sigma_{n+1}, and every generator past the
    action's stabilization bound acts as the identity, so levels above
    bound - 1 would see a truncated map that is no braid action."""
    bound = a.stabilization_bound
    if n_max + 1 > bound:
        raise TruncationError(
            f"level {n_max} needs sigma_{n_max + 1}, past the stabilization bound "
            f"{bound} of {a.name or 'the action'}; use n_max <= {bound - 1}"
        )


def level_of(x: Any, a: BraidAction) -> int:
    """Minimal n >= -1 with sigma_k x = x for all k >= n+2.

    Every generator past the action's stabilization bound acts as the
    identity, so probing the generators from the bound down decides it.
    The checks find the levels of all their points at once (`_members`)."""
    return _level(x, functools.partial(_Images, a.apply), a.stabilization_bound)


def _level(point: Any, generator: Callable[[int], Any], bound: int) -> int:
    """`level_of` on a point, with generator(k) sigma_k indexed like a table:
    for `level_of` and for the images that the closure walk of
    `verified_braid_sco` probes."""
    for k in range(bound, 0, -1):
        if generator(k)[point] != point:
            return k - 1
    return -1


def _members(points: Sequence, generator: Callable[[int], Any], bound: int, lowest: int) -> list:
    """members[n - lowest] lists the points of level <= n, in carrier order,
    for lowest <= n <= bound - 1, with generator(k) sigma_k indexed like a
    table.

    They are found top-down: level bound - 1 holds all the points, and
    level n those of level n + 1 that sigma_{n+2} fixes, one filter of the
    list per level. So sigma_k reads exactly the points of level <= k - 1,
    the points that `_level` probes with it, generator by generator rather
    than point by point."""
    held = list(points)
    members = [held]
    for k in range(bound, lowest + 1, -1):
        images = composer(held)(generator(k))  # sigma_k read at the points held
        held = list(itertools.compress(held, map(operator.eq, images, held)))
        members.append(held)
    members.reverse()
    return members


def _indexed(a: BraidAction) -> tuple[Sequence, Callable[[int], Any], Callable[[int, int], Any]]:
    """(points, generator, coface): the points of a, its generators and its
    cofaces indexed like tables: generator(i)[p] is sigma_i p (from
    `a.generators`) and coface(k, n)[p] is delta^k_n p.

    delta^n_n is sigma_{n+1}, and delta^k_n is sigma_{k+1} after
    delta^(k+1)_n, built on first use and kept until the caller drops the
    view. With `a.tables` the points are positions and each coface is a
    carrier table, one `compose`; otherwise the points are the elements
    and each coface is a memo over the generators' memos."""
    generators = a.generators
    tabulated = a.tables is not None
    points = range(len(a.elements)) if tabulated else a.elements
    rows: dict[int, list] = {}  # level n -> [delta^n_n, delta^(n-1)_n, ...]

    def coface(k: int, n: int) -> Any:
        row = rows.setdefault(n, [generators[n + 1]])
        while len(row) <= n - k:
            g, inner = generators[n + 1 - len(row)], row[-1]
            row.append(
                compose(g, inner) if tabulated
                else _LazyImages(lambda p, g=g, inner=inner: g[inner[p]])
            )
        return row[n - k]

    return points, generators.__getitem__, coface


def verify_braid_relations(a: BraidAction) -> CheckReport:
    """Check (B1) and (B2) for generator indices up to the stabilization bound.

    The relations are checked on positions when the action has tables, and
    otherwise on its elements. When `a.failing` is seeded a pair (i, j)
    outside it is one block of identities that hold, with no `apply` or
    `compose` call; a failing pair, and every pair of an action without
    it, is walked element by element through `a.generators`, which are
    read only then. So a seeded decision that holds gathers no table and
    builds no carrier."""
    cap = a.stabilization_bound
    points = a.elements if a.tables is None else range(len(a.elements))
    failing = a.failing

    def relations():
        for i, j in itertools.combinations(range(1, cap + 1), 2):
            if failing is not None and (i, j) not in failing:
                yield len(points)
                continue
            gi, gj = a.generators[i], a.generators[j]
            adjacent = j - i == 1
            for p, x in zip(points, a.elements):
                if adjacent:
                    holds = gi[gj[gi[p]]] == gj[gi[gj[p]]]
                else:
                    holds = gi[gj[p]] == gj[gi[p]]
                yield None if holds else (
                    f"braid relation {'B1' if adjacent else 'B2'} violated",
                    {"i": i, "j": j, "element": x},
                )

    return reports.run_checks(relations(), a.exhaustive)


def braid_sco_build(a: BraidAction, n_max: int) -> Sco:
    """The SCO of `verified_braid_sco`, without its report."""
    return verified_braid_sco(a, n_max)[0]


def verified_braid_sco(a: BraidAction, n_max: int) -> tuple[Sco, CheckReport]:
    """The augmented SCO with carriers X^n and cofaces the ascending words,
    and the passing `sco_verify` report of it, so that no caller verifies
    it again.

    The levels are the `_members` of the points of `_indexed`. On an action
    with tables each level's elements are one gather from the built
    carrier, and the SCO is seeded with tables that read the carrier
    tables of the coface view at the positions of each level and rank the
    images in the level above, with no coface call; a level that holds the
    whole carrier reads them as they are. Its coface reads those tables, so
    the view goes when the call returns. Without them the coface reads the
    view. A coface image lies in its level exactly when the SCO's tables can
    index it, so the closure of the levels is read off them: with tables
    each level n is one block. Only when they are None (an image outside its
    level, or a carrier that `tabulate` cannot index) is each level walked
    element by element, probing the level of each image with `_level`.

    Raises VerificationError when the braid relations fail, a coface leaves
    its level, or the cosimplicial identities fail."""
    check_level_bound(a, n_max)
    reports.require(verify_braid_relations(a))
    bound = a.stabilization_bound
    points, generator, coface = _indexed(a)
    tabulated = a.tables is not None
    # members[n + 1] lists the points of level <= n, -1 <= n <= n_max
    members = _members(points, generator, bound, -1)[:n_max + 2]
    if not tabulated:
        levels = tuple(map(tuple, members))
        sco = Sco(levels[1:], lambda n, k, x: coface(k, n)[x], levels[0], a.exhaustive)
        tables = sco.tables
    else:
        def reader(at: Sequence) -> Callable[[Sequence], Sequence]:
            """A table read at the positions at: as it is at every position."""
            return (lambda table: table) if len(at) == len(points) else composer(at)

        carrier = tuple(a.elements)
        levels = tuple(reader(m)(carrier) for m in members)
        # the table of delta^k_n reads the view's carrier table at the
        # positions of level n - 1 and ranks each image in level n; an
        # image outside its level has no rank, and the closure walk reports
        # it before the SCO is used
        tables = []
        try:
            for n, (source, target) in enumerate(zip(members, members[1:])):
                read = reader(source)
                images = [read(coface(k, n)) for k in range(n + 1)]
                if len(target) < len(points):
                    rank = dict(zip(target, itertools.count())).__getitem__
                    images = [tuple(map(rank, image)) for image in images]
                tables.append(tuple(images))
            tables = tuple(tables)
        except KeyError:
            tables = None
        # ranks[n] ranks the elements of level n - 1, on first use
        ranks = _LazyImages(lambda n: dict(zip(levels[n], itertools.count())))
        sco = _seed(Sco(
            levels[1:], lambda n, k, x: levels[n + 1][tables[n][k][ranks[n][x]]],
            levels[0], a.exhaustive,
        ), tables=tables)

    # coface images must stay within the target level's fixed-point set;
    # a violation means the supplied maps are not a braid action
    def closure():
        for n in range(1, n_max + 1):
            if tables is not None:
                yield len(members[n]) * (n + 1)
                continue
            for p in members[n]:
                x = a.elements[p] if tabulated else p
                for k in range(n + 1):
                    lv = _level(coface(k, n)[p], generator, bound)
                    yield None if lv <= n else (
                        "coface leaves its level",
                        {"k": k, "n": n, "element": x, "image_level": lv},
                    )

    reports.require(reports.run_checks(closure(), a.exhaustive))
    return sco, reports.require(sco_verify(sco))


def lemma_power_check(a: BraidAction, x: Any, n: int, big_n: int) -> bool:
    """Compare the N-fold canonical shift alpha_n with the single descending
    word sigma_{n+N} ... sigma_{n+1} on an element of level <= n."""
    if big_n < 1:
        raise ValueError("power must be >= 1")
    if level_of(x, a) > n:
        raise ValueError("element level exceeds n")
    lhs = x
    for t in range(big_n):
        # alpha_n^{(level+1)} with current level n+t is delta^n, the ascending word
        lhs = a.apply_word(coface_word(n, n + t + 1), lhs)
    rhs = a.apply_word(descending_word(n, big_n), x)
    return lhs == rhs


def diagram_identity_check(a: BraidAction, i: int, j: int, n: int, x: Any) -> bool:
    """The diagrammatic braid equality behind the cosimplicial identities,
    evaluated on an element of level <= n-1."""
    lhs_word, rhs_word = diagram_words(i, j, n)
    return a.apply_word(lhs_word, x) == a.apply_word(rhs_word, x)


def shift_word_report(a: BraidAction, n_max: int, big_n: int) -> tuple[CheckReport, int]:
    """The shift-word and diagram identities of every element up to level
    n_max, and the number of shift words the stabilization bound skipped.

    At level n the shift word sigma_{n+N} ... sigma_{n+1} is checked for N up
    to big_n and at most bound - n, since generators past the bound act as
    the identity; the skipped count is the number of (element, n, N) triples
    with N <= big_n that this cap leaves out. Raises TruncationError when
    n_max is past the bound, as `check_level_bound` does.

    The identities are those of `lemma_power_check` and
    `diagram_identity_check`, read off the view of `_indexed`: the N-fold
    shift is that of power N - 1 shifted by delta^n_(n+N), the descending
    word is that of power N - 1 followed by sigma_{n+N}, and the diagram
    identity (i, j, n) is delta^j_n delta^i_n sigma_{n+1} =
    delta^i_n delta^(j-1)_n. They run level by level, over the points of
    level <= n (`_members`, found once for all levels) in carrier order,
    each with its powers and then its diagram pairs, so the first witness
    is at the least failing level, then the least element. On tables a
    level whose composed tables agree for every family, one shift word
    (n, N) or one diagram identity (i, j, n), is one block, each composite
    formed once, and a level that holds the whole carrier reads the tables
    as they are; only a level where they differ is walked element by
    element."""
    check_level_bound(a, n_max)
    bound = a.stabilization_bound
    points, generator, coface = _indexed(a)
    tabulated = a.tables is not None
    # members[n] lists the points of level <= n
    members = _members(points, generator, bound, 0)[:n_max + 1]
    caps = [min(big_n, bound - n) for n in range(n_max + 1)]

    def holds(n: int, at: Sequence) -> bool:
        def on(table: Sequence) -> Sequence:
            """The table read at the points at: as it is at every point."""
            return table if len(at) == len(points) else compose(table, at)

        top = on(generator(n + 1))  # also the descending word of power 1
        shifted, descended = None, top
        for power in range(1, caps[n] + 1):
            outer = coface(n, n + power)
            shifted = on(outer) if shifted is None else compose(outer, shifted)
            if power > 1:
                descended = compose(generator(n + power), descended)
            if shifted != descended:
                return False
        # the pairs (i, j) in turn, each inner composite formed once per i
        # and once per j
        lowered = _LazyImages(lambda j: on(coface(j - 1, n)))
        for i in range(n):
            lifted = compose(coface(i, n), top)
            for j in range(i + 1, n + 1):
                if compose(coface(j, n), lifted) != compose(coface(i, n), lowered[j]):
                    return False
        return True

    def identities():
        for n, (cap, sources) in enumerate(zip(caps, members)):
            if tabulated and holds(n, sources):
                yield len(sources) * (cap + math.comb(n + 1, 2))
                continue
            # on tables the elements are read only on a level that is walked
            for p in sources:
                x = a.elements[p] if tabulated else p
                shifted = descended = p
                for power in range(1, cap + 1):
                    shifted = coface(n, n + power)[shifted]
                    descended = generator(n + power)[descended]
                    yield None if shifted == descended else (
                        "shift-word identity fails", {"n": n, "N": power, "element": x}
                    )
                top = generator(n + 1)[p]
                for i, j in itertools.combinations(range(n + 1), 2):
                    lhs = coface(j, n)[coface(i, n)[top]]
                    yield None if lhs == coface(i, n)[coface(j - 1, n)[p]] else (
                        "diagram identity fails", {"i": i, "j": j, "n": n, "element": x}
                    )

    skipped = sum((big_n - cap) * len(sources) for cap, sources in zip(caps, members))
    return reports.run_checks(identities(), a.exhaustive), skipped


# ---------------------------------------------------------------------------
# Set-theoretic Yang-Baxter solutions
# ---------------------------------------------------------------------------

def ybe_check(r: Callable[[Any, Any], tuple], y_set: Sequence) -> CheckReport:
    """Exhaustively test r12 r23 r12 = r23 r12 r23 on Y x Y x Y."""

    def r12(t):
        a, b = r(t[0], t[1])
        return (a, b, t[2])

    def r23(t):
        b, c = r(t[1], t[2])
        return (t[0], b, c)

    return reports.run_checks(
        None if r12(r23(r12(t))) == r23(r12(r23(t)))
        else ("Yang-Baxter equation fails", {"triple": t})
        for t in itertools.product(y_set, repeat=3)
    )


class _Built(collections.abc.Sequence):
    """A tuple of known length whose entries build() yields, built only
    when read: its length is given, and every other read builds the tuple
    once and delegates to it. The carrier Y^strands of `_PairRule` and the
    generator tables of `_pair_tables` are such tuples; build refers to no
    object that holds it, so no cycle keeps the built tuple alive."""

    def __init__(self, length: int, build: Callable[[], Iterable]):
        self.length, self.build = length, build

    @functools.cached_property
    def built(self) -> tuple:
        return tuple(self.build())

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: Any) -> Any:
        return self.built[i]

    def __iter__(self):
        return iter(self.built)

    def index(self, x: Any, *bounds: int) -> int:
        return self.built.index(x, *bounds)

    def __eq__(self, other: Any) -> bool:
        return self.built == other

    def __hash__(self) -> int:
        return hash(self.built)

    def __add__(self, other: Any) -> tuple:
        return self.built + other


class _PairRule:
    """sigma_i on Y^strands, the tuples of `elements`: r applied to
    coordinates i - 1 and i, and the identity for i >= strands. The elements
    are the tuples of `itertools.product` in its order, built when read."""

    __slots__ = ("r", "y_set", "strands", "elements")

    def __init__(self, r: Callable[[Any, Any], tuple], y_set: Sequence, strands: int):
        self.r, self.y_set, self.strands = r, tuple(y_set), strands
        product = functools.partial(itertools.product, self.y_set, repeat=strands)
        self.elements = _Built(len(self.y_set) ** strands, product)

    def __call__(self, i: int, x: tuple) -> tuple:
        if i < 1:
            raise ValueError(f"generator index must be >= 1, got {i}")
        if i >= self.strands:
            return x
        a, b = self.r(x[i - 1], x[i])
        return x[: i - 1] + (a, b) + x[i + 1:]


def _pair_tables(rule: _PairRule) -> Optional[_Built]:
    """The tables of `BraidAction.tables` for sigma_1 .. sigma_{strands - 1}
    of the rule, gathered by `_gather` when an entry is first read; None
    when `tabulate` cannot index the pairs of Y x Y under r.

    The pairs are indexed at once by `tabulate`, so r runs once per pair
    and the tables exist exactly when that index does."""
    pairs = tuple(itertools.product(rule.y_set, repeat=2))
    codes = tabulate([(pairs, pairs, [lambda yz: tuple(rule.r(*yz))])])
    if codes is None:
        return None
    gather = functools.partial(_gather, codes[0][0], len(rule.y_set), rule.strands)
    return _Built(rule.strands - 1, gather)


def _gather(image: tuple[int, ...], size: int, strands: int) -> tuple[tuple[int, ...], ...]:
    """The tables of sigma_1 .. sigma_{strands - 1} on the positions of
    Y^strands, |Y| = size, gathered from slices of one tuple of positions,
    where image[c] codes r's image of the pair of Y x Y with code c.

    An element's position is a base-|Y| number whose digits are its
    coordinates, high digits, then the digit pair (k - 1, k) that sigma_k
    rewrites, of weight w = |Y|^(strands - 1 - k), then low digits. The
    positions whose pair has code c go to those whose pair codes r's image
    of it, with the same high and low digits: a run of w positions per
    high digits, or a stride through all high digits per low digits,
    whichever needs fewer slices."""
    points = tuple(range(size ** strands))  # one shared int per entry
    tables = []
    for k in range(1, strands):
        w = size ** (strands - 1 - k)
        span = len(image) * w  # the positions of one value of the high digits
        table = list(points)
        for c, d in enumerate(image):
            if w >= len(points) // span:
                for high in range(0, len(points), span):
                    table[high + c * w:high + c * w + w] = points[high + d * w:high + d * w + w]
            else:
                for low in range(w):
                    table[c * w + low::span] = points[d * w + low::span]
        tables.append(tuple(table))
    return tuple(tables)


def ybe_action(
    r: Callable[[Any, Any], tuple], y_set: Sequence, strands: int
) -> BraidAction:
    """The action on Y^strands where sigma_k applies r to coordinates k-1, k.

    Generators with index >= strands act as the identity, so the declared
    stabilization bound is strands - 1; the construction is sound for SCO
    levels n_max <= strands - 2. The table of r on Y x Y is built at once,
    so r runs once per pair, and it decides whether the action has tables
    (`_pair_tables`). The action is then seeded with the tables of its
    generators, a sequence of strands - 1 tables gathered by slices from
    that table of r when an entry is first read; its elements too are
    built on first read. With those tables it is also seeded with no
    failing relation family (`BraidAction.failing`), which is sound because
    `ybe_check` has passed on Y^3 and each sigma_k is gathered as
    id x r x id: B1 for (i, i + 1) is the Yang-Baxter equation on
    coordinates i - 1 .. i + 1 with the others fixed, and B2 moves
    disjoint coordinates. With a Y that `tabulate`
    cannot index it seeds neither, and the action is checked through apply.
    Raises VerificationError when r is not a solution, and ValueError for a
    generator index below 1.
    """
    reports.require(ybe_check(r, y_set))
    rule = _PairRule(r, y_set, strands)
    tables = _pair_tables(rule)
    return _seed(BraidAction(
        apply=rule, elements=rule.elements, stabilization_bound=strands - 1, name=f"ybe-{strands}",
    ), tables=tables, failing=None if tables is None else frozenset())


# ---------------------------------------------------------------------------
# The flip action on eventually constant sequences
# ---------------------------------------------------------------------------

def _canonical(seq: tuple) -> tuple:
    out = list(seq)
    while len(out) >= 2 and out[-1] == out[-2]:
        out.pop()
    return tuple(out)


def flip_action(y_set: Sequence, support: int) -> BraidAction:
    """sigma_i swaps positions i-1 and i of an eventually constant sequence.

    Sequences are canonical tuples whose last entry repeats forever; the level
    of an element is exactly its canonical length minus 2 (-1 for constants),
    which probing up to the bound support + 2 finds for every tuple of length
    <= support + 3. Test elements enumerate all canonical tuples of length
    <= support + 1.
    """

    def apply(i: int, x: tuple) -> tuple:
        # keep one explicit entry beyond the swap so the repeating tail survives
        ext = x + (x[-1],) * (max(len(x), i + 1) + 1 - len(x))
        swapped = ext[: i - 1] + (ext[i], ext[i - 1]) + ext[i + 1:]
        return _canonical(swapped)

    elements = tuple(
        sorted(
            {
                _canonical(t)
                for length in range(1, support + 2)
                for t in itertools.product(y_set, repeat=length)
            }
        )
    )
    return BraidAction(
        apply=apply,
        elements=elements,
        inverse_apply=apply,  # each generator is an involution
        stabilization_bound=support + 2,
        name="flip",
    )
