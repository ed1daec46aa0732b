"""Shared fixtures."""

import collections
import dataclasses
import functools
import itertools

import pytest

from cosimplex import braid, ncprob, simplicial
from cosimplex.scalars import scalar

# Burau parameters: rational and complex, on and off the unit circle.
BURAU_T = {
    "2": scalar(2),
    "1_2": scalar("1/2"),
    "i": scalar(0, 1),
    "1+i": scalar(1, 1),
    "2_3-i_2": scalar("2/3", "-1/2"),
}


@pytest.fixture(params=list(BURAU_T.values()), ids=list(BURAU_T))
def burau_t(request):
    return request.param


class ComposeCalls(list):
    """The (outer, inner) arguments of every `simplicial.compose` call, in
    order. The list holds each pair, so no `id` is reused while it lives."""

    def repeated(self, start=0, stop=None):
        """How many calls in self[start:stop] form a composite that an
        earlier call of that span formed, the same two objects in turn."""
        pairs = self[start:stop]
        return len(pairs) - len({(id(outer), id(inner)) for outer, inner in pairs})


@pytest.fixture
def compose_calls(monkeypatch):
    """Counts the `compose` calls of simplicial and of braid, which imports
    the name."""
    calls = ComposeCalls()
    compose = simplicial.compose

    def counted(outer, inner):
        calls.append((outer, inner))
        return compose(outer, inner)

    for module in (simplicial, braid):
        monkeypatch.setattr(module, "compose", counted)
    return calls


def seeded(structure):
    """A copy of a `braid.BraidAction` or a `simplicial.PartialShiftSystem`,
    seeded (`simplicial._seed`) with the tables that `simplicial.tabulate`
    builds from its callables: sigma_1 .. sigma_bound on the elements, or
    alpha_k^{(n)} for k in `shift_indices`, then i_n, from level n - 1 into
    level n. It decides no family, so every one is walked on the tables: an
    action's `failing` stays None, and a system's names every family.
    Without tables from `tabulate` the copy has none."""
    copy = dataclasses.replace(structure)
    if isinstance(copy, braid.BraidAction):
        gens = [functools.partial(copy.apply, i) for i in range(1, copy.stabilization_bound + 1)]
        tables = simplicial.tabulate([(copy.elements, copy.elements, gens)])
        return simplicial._seed(copy, tables=None if tables is None else tables[0])
    ks, levels = copy.shift_indices(), range(1, copy.n_max)
    tables = simplicial.tabulate(
        (copy.levels[n - 1], copy.levels[n], [
            *(functools.partial(copy.alpha, k, n) for k in ks), functools.partial(copy.connect, n)
        ])
        for n in range(1, copy.n_max + 1)
    )
    every = (frozenset(itertools.product(ks, levels)),
             frozenset((i, j, n) for i, j in itertools.combinations(ks, 2) for n in levels))
    return simplicial._seed(copy, tables=tables, failing=None if tables is None else every)


@pytest.fixture
def product_tuples(monkeypatch):
    """Counts the tuples that `itertools.product` yields, by length."""
    counts = collections.Counter()
    product = itertools.product

    def counted(*args, **kwargs):
        for t in product(*args, **kwargs):
            counts[len(t)] += 1
            yield t

    monkeypatch.setattr(itertools, "product", counted)
    return counts


def reference_spreadability(d, degree, pos_bound, star=False):
    """`ncprob.spreadability_check` as a plain loop over `free_coface`, with
    one `eval_word` per word and per image: (count, witness data or None)."""
    checked = 0
    for w in ncprob.enumerate_words(d.alphabet, degree, pos_bound, star):
        base = d.eval_word(w)
        for k in range(pos_bound + 1):
            checked += 1
            val = d.eval_word(ncprob.free_coface(k, pos_bound + 1, w))
            if val != base:
                return checked, {"word": w, "reindexing": f"skip position {k}", "lhs": base, "rhs": val}
    return checked, None
