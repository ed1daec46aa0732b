"""Braid words, braid-monoid actions, and the SCOs they induce.

An action provides apply(i, x) for the Artin generator with index i >= 1
(and optionally inverse_apply for group actions). Every action declares a
stabilization bound K: generators above K act as the identity on the
carrier. The bound is all an action says about levels; the filtration level
of an element is found by probing the generators up to K. Words are applied
right-to-left, i.e. (gh)x = g(hx).

The filtration X^n consists of the elements fixed by all generators with
index >= n+2; the cofaces are the ascending words sigma_{k+1} ... sigma_{n+1}.
`shift_word_report` checks the shift-word and diagram identities behind the
cofaces, with the shift powers capped by the bound.

Elements are compared with `==`: every carrier (tuples, matrices, TL
elements) has a canonical form. An action on a finite carrier, such as a
Yang-Baxter action, can store each generator as a table of image positions.
The braid relations of such an action are checked on the tables, position by
position, without `apply`. `verified_braid_sco` hands back the `sco_verify`
report of the SCO it builds, so that a caller need not verify it again.
A construction that relies on a check (`verified_braid_sco`, `ybe_action`)
raises `reports.VerificationError` with the failed report.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Any, Callable, Iterable, Optional, Sequence

from . import reports
from .reports import CheckReport
from .simplicial import Level, Sco, TruncationError, sco_verify


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
    """An action of the braid monoid (or group) on a carrier with exact equality."""

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


# The words below are built once per index tuple and shared: BraidWord is
# immutable, and the checks apply the same few words to every element.

@functools.lru_cache(maxsize=4096)
def coface_word(k: int, n: int) -> BraidWord:
    """The positive word sigma_{k+1} ... sigma_{n+1} implementing delta^k at level n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return BraidWord.positive(range(k + 1, n + 2))


@functools.lru_cache(maxsize=4096)
def descending_word(n: int, big_n: int) -> BraidWord:
    """The positive word sigma_{n+N} ... sigma_{n+1}."""
    return BraidWord.positive(range(n + big_n, n, -1))


@functools.lru_cache(maxsize=4096)
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
    identity, so probing the generators from the bound down decides it."""
    for k in range(a.stabilization_bound, 0, -1):
        if a.apply(k, x) != x:
            return k - 1
    return -1


class _Generator:
    """sigma_i of an action, indexed like a table: g[x] is apply(i, x)."""

    __slots__ = ("apply", "index")

    def __init__(self, apply: Callable[[int, Any], Any], index: int):
        self.apply, self.index = apply, index

    def __getitem__(self, x: Any) -> Any:
        return self.apply(self.index, x)


def verify_braid_relations(a: BraidAction) -> CheckReport:
    """Check (B1) and (B2) for generator indices up to the stabilization bound.

    The relations are checked on points, with each generator indexed like a
    table. When the action was built by `_table_action`, and its `apply` and
    `elements` are still the ones the tables were built for, the points are
    the elements' positions and each generator is its table, so B1 reads
    ti[tj[ti[p]]] == tj[ti[tj[p]]]: no `apply` call, no dictionary lookup
    and no tuple hash. Every other action, including a copy whose `apply`
    was replaced, is checked on its elements through `apply`; the count and
    the first witness are the same either way."""
    cap = a.stabilization_bound

    # functools.wraps copies `tables` onto a wrapper, and marks it __wrapped__
    stored = getattr(a.apply, "tables", None)
    if stored is not None and stored[0] is a.elements and not hasattr(a.apply, "__wrapped__"):
        tables = stored[1]
        points = range(len(a.elements))  # also the table of every later generator

        def generator(i: int):
            return tables[i - 1] if i <= len(tables) else points
    else:
        points = a.elements

        def generator(i: int):
            return _Generator(a.apply, i)

    def relations():
        for i, j in itertools.combinations(range(1, cap + 1), 2):
            gi, gj = generator(i), generator(j)
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

    return reports.run_checks(relations(), "exhaustive" if a.exhaustive else "sampled")


def braid_sco_build(a: BraidAction, n_max: int) -> Sco:
    """The SCO of `verified_braid_sco`, without its report."""
    return verified_braid_sco(a, n_max)[0]


def verified_braid_sco(a: BraidAction, n_max: int) -> tuple[Sco, CheckReport]:
    """The augmented SCO with carriers X^n and cofaces the ascending words,
    and the passing `sco_verify` report of it, so that no caller verifies
    it again.

    Raises VerificationError when the braid relations fail, a coface leaves
    its level, or the cosimplicial identities fail."""
    check_level_bound(a, n_max)
    reports.require(verify_braid_relations(a))
    by_level = [(x, level_of(x, a)) for x in a.elements]
    sco = Sco(
        levels=tuple(
            Level(tuple(x for x, lv in by_level if lv <= n), a.exhaustive)
            for n in range(n_max + 1)
        ),
        coface=lambda n, k, x: a.apply_word(coface_word(k, n), x),
        augmentation=Level(tuple(x for x, lv in by_level if lv <= -1), a.exhaustive),
    )
    # coface images must stay within the target level's fixed-point set;
    # a violation means the supplied maps are not a braid action
    def closure():
        for n in range(1, n_max + 1):
            for x in sco.levels[n - 1].elements:
                for k in range(n + 1):
                    lv = level_of(sco.delta(n, k, x), a)
                    yield None if lv <= n else (
                        "coface leaves its level",
                        {"k": k, "n": n, "element": x, "image_level": lv},
                    )

    reports.require(reports.run_checks(closure(), "exhaustive" if a.exhaustive else "sampled"))
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
    n_max is past the bound, as `check_level_bound` does."""
    check_level_bound(a, n_max)
    # (element, level n, highest power) of every check, listed before the
    # checks run so that the skipped count is whole when they stop at a failure
    plan = [
        (x, n, min(big_n, a.stabilization_bound - n))
        for x in a.elements
        for n in range(max(level_of(x, a), 0), n_max + 1)
    ]

    def identities():
        for x, n, cap in plan:
            for power in range(1, cap + 1):
                yield None if lemma_power_check(a, x, n, power) else (
                    "shift-word identity fails", {"n": n, "N": power, "element": x}
                )
            for i, j in itertools.combinations(range(n + 1), 2):
                yield None if diagram_identity_check(a, i, j, n, x) else (
                    "diagram identity fails", {"i": i, "j": j, "n": n}
                )

    report = reports.run_checks(identities(), "exhaustive" if a.exhaustive else "sampled")
    return report, sum(big_n - cap for _, _, cap in plan)


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


def ybe_action(
    r: Callable[[Any, Any], tuple], y_set: Sequence, strands: int
) -> BraidAction:
    """The action on Y^strands where sigma_k applies r to coordinates k-1, k.

    Generators with index >= strands act as the identity, so the declared
    stabilization bound is strands - 1; the construction is sound for SCO
    levels n_max <= strands - 2. The slicing rule runs once per generator
    and element, to build the generator's table; applying it is a lookup.
    Raises VerificationError when r is not a solution.
    """
    reports.require(ybe_check(r, y_set))

    def slice_apply(i: int, x: tuple) -> tuple:
        a, b = r(x[i - 1], x[i])
        return x[: i - 1] + (a, b) + x[i + 1:]

    return _table_action(
        tuple(itertools.product(y_set, repeat=strands)),
        [functools.partial(slice_apply, i) for i in range(1, strands)],
        f"ybe-{strands}",
    )


def _table_action(elements: tuple, generators: Sequence[Callable], name: str) -> BraidAction:
    """The action in which sigma_i acts by generators[i - 1] and every later
    generator acts as the identity.

    Each generator is stored as a table: the position in `elements` of its
    image of each element. `apply` carries the tables as its attribute
    `tables`, for `verify_braid_relations`; an action whose `apply` is
    replaced, say by dataclasses.replace, is checked through its `apply`."""
    position = {x: p for p, x in enumerate(elements)}
    try:
        tables = tuple(tuple(position[g(x)] for x in elements) for g in generators)
    except KeyError as err:
        raise ValueError(f"a generator maps outside the carrier: {err.args[0]!r}") from None
    bound = len(tables)

    def apply(i: int, x: tuple) -> tuple:
        try:
            p = position[x]
        except KeyError:
            raise ValueError(f"{x!r} is not an element of the carrier") from None
        if 0 < i <= bound:
            return elements[tables[i - 1][p]]
        if i < 1:
            raise ValueError(f"generator index must be >= 1, got {i}")
        return x

    apply.tables = (elements, tables)
    return BraidAction(
        apply=apply,
        elements=elements,
        stabilization_bound=bound,
        name=name,
    )


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
