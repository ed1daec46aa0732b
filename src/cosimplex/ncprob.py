"""Moment-level noncommutative probability: distributions, spreadability,
and the moment-word cofaces.

A moment word is a finite sequence of (position, letter, star) factors; a
distribution is an oracle taking moment words to exact scalars, with the
empty word evaluating to one. Spreadability is checked against all
elementary increasing reindexings (skip one position); every strictly
increasing map on a finite range is a composition of these, mirroring the
generation of strictly increasing maps by the face maps. Reports always
record the quantifier bounds actually checked.

A distribution is also read prefix by prefix, through its incremental
form: a start state, step(state, factor) and value(state, factor). The
spreadability check compares the words extending a prefix with their
images under each skip (a position table built by `simplicial.tabulate`)
as vectors of values, so the verdict on them depends only on the tuple of
the prefix's state and its images' states. Each word length is decided
once per distinct tuple, and each state is stepped and valued once per
factor in the whole check. A model that declares no incremental form is
read through `eval_word`, with the word as its state. The tensor model's
state is the matrix unit formed at each position, and it caches one scalar
per vector of weight exponents; the TL model's (`tl.tl_distribution`) is
the product of the prefix. The `eval_word` of both is the fold of the form.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Any, Callable, NamedTuple, Optional, Sequence

from . import reports
from .reports import CheckReport
from .scalars import ONE, ZERO, QQi, scalar
from .simplicial import Sco, nat_partial_shift, shifts_from_sco, tabulate


class Factor(NamedTuple):
    pos: int
    letter: Any
    star: bool = False


MomentWord = tuple  # tuple[Factor, ...]


class Incremental(NamedTuple):
    """A distribution read prefix by prefix. `start` is the state of the
    empty word, step(state, f) is the state of the word extended by the
    factor f, and value(state, f) is the moment of that extended word;
    states must be hashable."""

    start: Any
    step: Callable[[Any, Factor], Any]
    value: Callable[[Any, Factor], QQi]

    def fold(self, w: MomentWord) -> QQi:
        """The moment of w: the value of its last factor on the state of
        its prefix, stepped factor by factor from the start."""
        if not w:
            return ONE
        state = self.start
        for f in w[:-1]:
            state = self.step(state, f)
        return self.value(state, w[-1])


@dataclasses.dataclass(frozen=True)
class Distribution:
    """An oracle from moment words to exact scalars; eval(()) must be 1.

    `incremental` is the model's incremental form, if it declares one."""

    alphabet: tuple
    eval_word: Callable[[MomentWord], QQi]
    star_mode: bool = False
    incremental: Optional[Incremental] = None

    def incremental_form(self) -> Incremental:
        """The incremental form; without a declared one, the state is the
        word itself and value evaluates the extended word."""
        if self.incremental is not None:
            return self.incremental
        eval_word = self.eval_word
        return Incremental((), lambda w, f: w + (f,), lambda w, f: eval_word(w + (f,)))


def table_distribution(table: dict, alphabet: tuple) -> Distribution:
    """A finite moment table (used for counterexamples); missing words get 0
    and the empty word always evaluates to 1."""

    def eval_word(w: MomentWord) -> QQi:
        if not w:
            return ONE
        return table.get(tuple(w), ZERO)

    return Distribution(alphabet=alphabet, eval_word=eval_word)


def broken_table() -> Distribution:
    """A table that is not spreadable: b_0 b_1 and b_1 b_2 have moment 1, but
    b_0 b_2, their image under skipping position 1, has moment 0."""
    b0, b1, b2 = (Factor(p, "b") for p in range(3))
    return table_distribution({(b0, b1): ONE, (b1, b2): ONE}, alphabet=("b",))


def reindex_word(w: MomentWord, index_map: Callable[[int], int]) -> MomentWord:
    return tuple(Factor(index_map(f.pos), f.letter, f.star) for f in w)


def _factors(alphabet: Sequence, pos_bound: int, star: bool) -> list[Factor]:
    stars = (False, True) if star else (False,)
    return [
        Factor(p, b, s)
        for p in range(pos_bound + 1)
        for b in alphabet
        for s in stars
    ]


def enumerate_words(
    alphabet: Sequence, degree: int, pos_bound: int, star: bool
):
    """All nonempty moment words of length <= degree with positions <= pos_bound."""
    factors = _factors(alphabet, pos_bound, star)
    for length in range(1, degree + 1):
        yield from itertools.product(factors, repeat=length)


def spreadability_check(
    d: Distribution, degree: int, pos_bound: int, star: bool = False
) -> CheckReport:
    """Compare eval(w) with eval(i.w) for every elementary increasing
    reindexing i = skip-position-k, k <= pos_bound.

    Words are checked in `enumerate_words` order through the model's
    incremental form. The words extending a prefix hold under skip k when
    the prefix state's values on the enumerated factors equal the image
    state's values through skip k's table, so their verdict depends only
    on the tuple of the prefix's state and its images' states. Each length
    is decided once per distinct tuple, in order of first occurrence; a
    length whose tuples all hold is one block of checks, and only a length
    with a failing tuple is walked prefix by prefix, for the count and
    first witness. Each state steps and takes each value once per factor."""
    if degree < 1 or pos_bound < 1:
        raise ValueError("degree and pos_bound must be >= 1")
    if star and not d.star_mode:
        raise ValueError("distribution does not support *-moments")
    notes = (
        f"bounds: degree<={degree}, positions<={pos_bound}, star={star}",
        "reindexings reduced to elementary skips (these generate all strictly increasing maps)",
    )
    # the first n factors are the enumerated ones, in enumerate_words order,
    # and the factors after them, at position pos_bound + 1, only a skip reaches
    factors = _factors(d.alphabet, pos_bound + 1, star)
    codes = range(len(_factors(d.alphabet, pos_bound, star)))
    # skip position k as a table code -> code of the reindexed factor, one per k
    tables = tabulate([(factors[:len(codes)], factors, [
        lambda f, k=k: f._replace(pos=nat_partial_shift(k, f.pos)) for k in range(pos_bound + 1)
    ])])
    if tables is None:
        raise ValueError("the alphabet's letters must be hashable and distinct")
    views = [codes, *tables[0]]  # view 0: the enumerated codes; view k + 1: their images under skip k
    columns = [tuple(view[c] for view in views) for c in codes]  # by code, the factor per view
    start, step, value = d.incremental_form()
    width = len(views)  # a word and its images under the pos_bound + 1 skips
    block = len(codes) * (width - 1)  # the checks of the words extending one prefix
    memo: dict = {}  # per state: its values and its steps by factor, its vectors by view

    def record(state) -> tuple:
        try:
            rec = memo.get(state)
        except TypeError:
            raise ValueError("the incremental form's states must be hashable") from None
        if rec is None:
            rec = memo[state] = ([None] * len(factors), {}, [None] * width)
        return rec

    def stepped(steps: dict, state, t: int):
        """The state of `state` extended by factor t, stepped once; steps
        is the state's record of them."""
        if t not in steps:
            steps[t] = after = step(state, factors[t])
            record(after)  # a state that cannot be hashed is named here
        return steps[t]

    def successors(states: tuple):
        """The states of the words extending these by each code, in order."""
        steps = [record(state)[1] for state in states]
        for column in columns:
            yield tuple(map(stepped, steps, states, column))

    def vectors(states: tuple) -> list:
        """The values of each state on its view, each computed once."""
        out = []
        for v, state in enumerate(states):
            vals, _, vecs = record(state)
            if vecs[v] is None:
                for t in views[v]:
                    if vals[t] is None:
                        vals[t] = value(state, factors[t])
                vecs[v] = [vals[t] for t in views[v]]
            out.append(vecs[v])
        return out

    def holds(states: tuple) -> bool:
        """Whether every skip holds on the words extending these states."""
        base, *images = vectors(states)
        return images.count(base) == width - 1

    def prefixes(length: int):
        """Each prefix of this length, in order, with the states of the
        prefix and of its images."""
        if not length:
            yield (), (start,) * width
            return
        for prefix, states in prefixes(length - 1):
            for c, after in zip(codes, successors(states)):
                yield prefix + (c,), after

    def walk(length: int):
        """The checks of the words extending each prefix of this length, a
        prefix whose skips all hold as one block."""
        for prefix, states in prefixes(length):
            if holds(states):
                yield block
                continue
            base, *images = vectors(states)
            for c in codes:
                for k, vec in enumerate(images):
                    yield None if vec[c] == base[c] else (
                        "moment changes under subsequence reindexing",
                        {
                            "word": tuple([factors[i] for i in prefix + (c,)]),
                            "reindexing": f"skip position {k}",
                            "lhs": base[c],
                            "rhs": vec[c],
                        },
                    )

    def reindexings():
        level = [(start,) * width]  # the distinct tuples of the prefixes of this length - 1
        for length in range(1, degree + 1):
            if not all(map(holds, level)):
                yield from walk(length - 1)  # up to the first witness, in this length
                return
            yield len(codes) ** (length - 1) * block
            if length < degree:
                level = list(dict.fromkeys(a for states in level for a in successors(states)))

    return reports.run_checks(reindexings(), notes=notes)


def free_coface(k: int, n: int, w: MomentWord) -> MomentWord:
    """delta^k on moment words: shift positions >= k up by one."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    for f in w:
        if f.pos > n - 1:
            raise ValueError(f"position {f.pos} exceeds level {n - 1}")
    return reindex_word(w, lambda p: nat_partial_shift(k, p))


def subsequence_witness(
    index_map: Callable[[int], int], positions: Sequence[int]
) -> list[tuple[int, int]]:
    """The composition of partial-shift powers realizing a strictly increasing
    reindexing on the given (sorted, distinct) positions.

    Returns [(M_1, p_1), ..., (M_R, p_R)]; applying alpha_{M_R}^{p_R} after
    ... after alpha_{M_1}^{p_1} maps each position N_r to index_map(N_r).

    The map must extend to a strictly increasing map on all of the naturals
    (gaps between consecutive positions may not shrink); this is automatic
    for subsequence selections and is necessary, because any composition of
    partial shifts displaces later positions at least as far as earlier
    ones."""
    ns = list(positions)
    if ns != sorted(set(ns)):
        raise ValueError("positions must be sorted and distinct")
    imgs = [index_map(n) for n in ns]
    if any(i < n for n, i in zip(ns, imgs)):
        raise ValueError("index map is not strictly increasing on the positions")
    if any(
        i2 - i1 < n2 - n1
        for (n1, i1), (n2, i2) in zip(zip(ns, imgs), zip(ns[1:], imgs[1:]))
    ):
        raise ValueError(
            "index map does not extend to a strictly increasing map of the "
            "naturals: a gap between consecutive positions shrinks"
        )
    out: list[tuple[int, int]] = []
    for r, n_r in enumerate(ns):
        m_r = n_r if r == 0 else n_r + (imgs[r - 1] - ns[r - 1])
        power = imgs[r] - m_r
        if not n_r <= m_r <= imgs[r]:
            raise AssertionError("witness index out of the guaranteed range")
        out.append((m_r, power))

    # sanity: the composed natural shifts must reproduce the map pointwise
    for n_r, target in zip(ns, imgs):
        v = n_r
        for m_r, power in out:
            for _ in range(power):
                v = nat_partial_shift(m_r, v)
        if v != target:
            raise AssertionError(f"witness composition fails at {n_r}: {v} != {target}")
    return out


def star_word(w: MomentWord) -> MomentWord:
    """The adjoint word: reversed order, stars toggled."""
    return tuple(Factor(f.pos, f.letter, not f.star) for f in reversed(w))


def star_positivity_check(d: Distribution, words: Sequence[MomentWord]) -> CheckReport:
    """Spot-check phi(w* w) >= 0 (real) on the given sample of words."""
    if not d.star_mode:
        raise ValueError("distribution does not support *-moments")

    def positivity():
        for w in words:
            val = d.eval_word(star_word(w) + tuple(w))
            yield None if val.im == 0 and val.re >= 0 else (
                "phi(w* w) is not a nonnegative real", {"word": w, "value": val}
            )

    return reports.run_checks(positivity(), exhaustive=False)


def star_spreadability_mode(d: Distribution) -> Distribution:
    """Return d ready for *-spreadability checking, after positivity
    spot-checks on the first 64 words of degree <= 2 and positions <= 2; a
    failed spot-check raises VerificationError."""
    if not d.star_mode:
        raise ValueError("distribution does not support *-moments")
    reports.require(star_positivity_check(d, list(enumerate_words(d.alphabet, 2, 2, True))[:64]))
    return d


# ---------------------------------------------------------------------------
# The infinite tensor model
# ---------------------------------------------------------------------------

def _state_weights(dim: int, state_weights: Sequence) -> list[QQi]:
    """The diagonal state's weights as scalars: one per dimension, each a
    nonnegative rational, summing to 1."""
    weights = [w if isinstance(w, QQi) else scalar(w) for w in state_weights]
    if len(weights) != dim:
        raise ValueError("need one weight per matrix dimension")
    if sum((w for w in weights), ZERO) != ONE:
        raise ValueError("state weights must sum to 1")
    if any(w.im != 0 or w.re < 0 for w in weights):
        raise ValueError("state weights must be nonnegative rationals")
    return weights


def tensor_model(dim: int, state_weights: Sequence) -> Distribution:
    """Moments of independent copies of the matrix algebra under a diagonal
    state: the moment of a word is the product over distinct positions of the
    state applied to the ordered product of the letters at that position.

    Each of those products is a matrix unit or zero, and the state sends the
    diagonal unit (i, i) to w_i and every other unit to zero. So a moment is
    zero or w_0^e_0 ... w_{dim-1}^e_{dim-1}, where e_i counts the positions
    whose product is (i, i).

    The incremental form's state is the tuple of the units formed at each
    position so far (None where no factor sits), or None once a product is
    zero. `eval_word` is the fold of that form. The moments are cached by
    exponent vector, one cache per model, so no scalar is multiplied per
    word."""
    weights = [w.re for w in _state_weights(dim, state_weights)]
    alphabet = tuple((i, j) for i in range(dim) for j in range(dim))
    moments: dict[tuple, QQi] = {(0,) * dim: ONE}

    def step(units: Optional[tuple], f: Factor) -> Optional[tuple]:
        if units is None:
            return None
        pos, (row, col), star = f
        if star:
            row, col = col, row
        if pos >= len(units):
            return units + (None,) * (pos - len(units)) + ((row, col),)
        u = units[pos]
        if u is not None:
            if u[1] != row:
                return None
            row = u[0]
        return units[:pos] + ((row, col),) + units[pos + 1:]

    def value(units: Optional[tuple], f: Factor) -> QQi:
        # forms the unit at f's position as step does, but builds no state
        if units is None:
            return ZERO
        pos, (row, col), star = f
        if star:
            row, col = col, row
        if pos < len(units):
            u = units[pos]
            if u is not None:
                if u[1] != row:
                    return ZERO
                row = u[0]
        if row != col:
            return ZERO
        exponents = [0] * dim
        exponents[row] = 1
        for p, u in enumerate(units):
            if u is not None and p != pos:
                if u[0] != u[1]:
                    return ZERO
                exponents[u[0]] += 1
        key = tuple(exponents)
        val = moments.get(key)
        if val is None:
            val = moments[key] = QQi(math.prod(w ** e for w, e in zip(weights, key)))
        return val

    form = Incremental((), step, value)
    return Distribution(alphabet=alphabet, eval_word=form.fold, star_mode=True, incremental=form)


# ---------------------------------------------------------------------------
# SCOs of probability spaces and the sequences they induce
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ProbabilitySco:
    """An SCO whose carriers are algebras with a compatible functional.

    embed places a letter of the generating algebra into the level-0
    carrier."""

    sco: Sco
    multiply: Callable[[Any, Any], Any]
    functional: Callable[[Any], QQi]
    embed: Callable[[Any], Any]
    alphabet: tuple
    adjoint: Optional[Callable[[Any], Any]] = None


def verify_functional_invariance(ps: ProbabilitySco) -> CheckReport:
    """phi_n o delta^k = phi_{n-1} on all test elements."""
    s = ps.sco

    def identities():
        for n in range(1, s.n_max + 1):
            for x in s.levels[n - 1]:
                base = ps.functional(x)
                for k in range(n + 1):
                    val = ps.functional(s.delta(n, k, x))
                    yield None if val == base else (
                        "functional not preserved by coface",
                        {"n": n, "k": k, "element": x, "lhs": val, "rhs": base},
                    )

    return reports.run_checks(identities(), s.exhaustive)


def sco_to_sequence(ps: ProbabilitySco):
    """The random variables iota_N = (alpha_0)^N mu_0 of the associated
    partial-shift system, after verifying that ps is an SCO of probability
    spaces (VerificationError otherwise); returns (iota, shifts) where
    iota(N, letter, star) is a colimit element."""
    reports.require(verify_functional_invariance(ps))
    shifts = shifts_from_sco(ps.sco)

    def iota(n_pos: int, letter, star: bool = False):
        x = ps.embed(letter)
        if star:
            if ps.adjoint is None:
                raise ValueError("no adjoint available on this SCO")
            x = ps.adjoint(x)
        c = shifts.mu(0, x)
        for _ in range(n_pos):
            c = shifts.apply_shift(0, c)
        return c

    return iota, shifts


def sequence_distribution(ps: ProbabilitySco) -> Distribution:
    """The induced distribution: moments of products of the iota_N images."""
    iota, shifts = sco_to_sequence(ps)

    def eval_word(w: MomentWord) -> QQi:
        if not w:
            return ONE
        elems = [iota(f.pos, f.letter, f.star) for f in w]
        top = max(c.level for c in elems)
        vals = [shifts.push(c, top).value for c in elems]
        prod = vals[0]
        for v in vals[1:]:
            prod = ps.multiply(prod, v)
        return ps.functional(prod)

    return Distribution(
        alphabet=ps.alphabet,
        eval_word=eval_word,
        star_mode=ps.adjoint is not None,
    )


# ---------------------------------------------------------------------------
# The tensor-product SCO (matrix units with a diagonal state)
# ---------------------------------------------------------------------------

def tensor_sco(dim: int, state_weights: Sequence, n_max: int) -> ProbabilitySco:
    """Tensor powers of the matrix algebra; delta^k inserts the unit in slot k.

    Every element built or checked is an elementary tensor, in the format
    of `tensor_model`'s state: at level n, a tuple of n + 1 slots, each a
    matrix unit (i, j) or None for the unit. A product of elementary
    tensors is one again, slot by slot, or zero, written None. Level n is
    the basis of (n + 1)-fold tensors of matrix units; a coface image has
    a unit slot, so it leaves the basis and the cofaces are evaluated, not
    tabulated."""
    weights = _state_weights(dim, state_weights)
    units = [(i, j) for i in range(dim) for j in range(dim)]

    def coface(n: int, k: int, x: tuple) -> tuple:
        return x[:k] + (None,) + x[k:]

    def multiply(x: Optional[tuple], y: Optional[tuple]) -> Optional[tuple]:
        if x is None or y is None:
            return None
        out = []
        for u, v in zip(x, y):
            if u is not None and v is not None:
                if u[1] != v[0]:
                    return None
                u = (u[0], v[1])
            out.append(v if u is None else u)
        return tuple(out)

    def functional(x: Optional[tuple]) -> QQi:
        # a unit slot contributes the sum of the weights, 1
        if x is None or any(u is not None and u[0] != u[1] for u in x):
            return ZERO
        return math.prod((weights[u[0]] for u in x if u is not None), start=ONE)

    def adjoint(x: tuple) -> tuple:
        return tuple(None if u is None else (u[1], u[0]) for u in x)

    levels = tuple(tuple(itertools.product(units, repeat=n + 1)) for n in range(n_max + 1))
    return ProbabilitySco(
        sco=Sco(levels=levels, coface=coface),
        multiply=multiply,
        functional=functional,
        embed=lambda u: (tuple(u),),
        alphabet=tuple(units),
        adjoint=adjoint,
    )
