"""Work counts of CLI requests, pinned so that a cache or a table path that
stops working shows up as a count, without timing the request."""

import collections
import dataclasses
import json
import math
import pathlib
import sys

import pytest

from cosimplex import braid, linalg, ncprob, reports, simplicial, tl
from cosimplex.cli import _z3_r, build_parser, main


def _counted_form(calls: collections.Counter, d):
    """d, with its incremental form's `step` and `value` calls counted."""

    def counted(name, f):
        def run(state, factor):
            calls[name] += 1
            return f(state, factor)

        return run

    start, step, value = d.incremental
    form = ncprob.Incremental(start, counted("step", step), counted("value", value))
    return dataclasses.replace(d, incremental=form)


def _tensor_form_calls(monkeypatch, capsys, argv):
    """The checks of a tensor spreadability request, with the calls of the
    model's form that the check makes (the positivity samples of --star
    fold the model's own, uncounted form)."""
    calls = collections.Counter()
    build = ncprob.tensor_model
    monkeypatch.setattr(ncprob, "tensor_model", lambda *args: _counted_form(calls, build(*args)))
    assert main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["checked"], calls


def test_tensor_star_spreadability_values_each_distinct_state_once_per_factor(
    monkeypatch, capsys
):
    argv = ["spreadability", "--example", "tensor", "--star"]
    checked, calls = _tensor_form_calls(monkeypatch, capsys, argv)
    assert checked == 135_296
    # one value per distinct state of the check and per factor: the skips'
    # views of a state together read all 40 factors at positions 0..4, and
    # the distinct states of prefixes of length 0 to 2 are the empty one,
    # one unit at one of 5 positions (5 * 4), zero, and two units at two of
    # the 5 positions (10 * 16); 8,080 when each length kept its own states
    assert calls["value"] == 40 * (1 + 5 * 4 + 1 + 10 * 16) == 7_280
    # one step per distinct state of a prefix of length 0 or 1 and per
    # factor; 5,440 when every prefix and image was stepped from its own
    assert calls["step"] == 40 * (1 + 5 * 4) == 840


def test_tensor_star_degree_4_steps_each_distinct_state_once_per_factor(monkeypatch, capsys):
    argv = ["spreadability", "--example", "tensor", "--star", "--degree", "4"]
    checked, calls = _tensor_form_calls(monkeypatch, capsys, argv)
    assert checked == 4_329_600
    # the states of the prefixes of length 0 to 2 above, each stepped once
    # per factor (174,560 steps when every prefix of each length and its 4
    # images were stepped again for the next length)
    assert calls["step"] == 40 * (1 + 5 * 4 + 1 + 10 * 16) == 7_280


def test_tl_spreadability_reads_each_distinct_product_once_per_letter(monkeypatch, capsys):
    # the state of tl_distribution's form is the product of the prefix, so
    # the check steps and values each distinct product once per factor
    calls = collections.Counter()
    build = tl.tl_distribution
    monkeypatch.setattr(tl, "tl_distribution", lambda *args: _counted_form(calls, build(*args)))
    argv = ["spreadability", "--example", "tl", "--q", "2", "0", "--m", "8", "--degree", "3"]
    assert main([*argv, "--format", "json"]) == 0
    assert '"checked": 336' in capsys.readouterr().out
    # the factors are the 5 positions 0..4. The empty state and the 5
    # projections are stepped; the values read those and the 20 products
    # of two distinct projections, since a projection's square is itself
    # (155 eval_word calls, one per word, when the state was the word)
    assert calls == {"step": (1 + 5) * 5, "value": (1 + 5 + 20) * 5}


class ApplyCalls:
    """Counts the generator calls made inside profiled(f)(*args): in calls,
    those of functions named `apply` in cosimplex.braid and of the pair rule
    that a YBE action applies (`__call__`); in pair_calls, those of the z3
    solution r of the CLI."""

    def __init__(self):
        self.calls = self.pair_calls = 0

    def _count(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code is _z3_r.__code__:
            self.pair_calls += 1
        elif code.co_name in ("apply", "__call__") and code.co_filename == braid.__file__:
            self.calls += 1

    def profiled(self, f):
        def run(*args):
            sys.setprofile(self._count)
            try:
                return f(*args)
            finally:
                sys.setprofile(None)

        return run


def test_ybe_relations_evaluate_r_once_per_pair(monkeypatch, capsys):
    counter = ApplyCalls()
    profiled = counter.profiled(braid.verify_braid_relations)
    monkeypatch.setattr(braid, "verify_braid_relations", profiled)
    monkeypatch.setattr(braid, "ybe_action", counter.profiled(braid.ybe_action))
    assert main(["ybe", "--solution", "z3", "--strands", "9", "--format", "json"]) == 0
    assert '"checked": 551151' in capsys.readouterr().out
    # ybe_action seeds the 8 generator tables over the 3^9 elements,
    # gathered by slices from one table of r on the 9 pairs of Y x Y, after
    # its Yang-Baxter check, 6 calls of r on each of the 27 triples; the
    # relations run on the tables (157,464 apply calls when each generator
    # was applied to each element to index it)
    assert (counter.calls, counter.pair_calls) == (0, 9 + 27 * 6)
    # the profile sees the apply calls of an action without tables
    counter.calls = 0
    flip = braid.flip_action((0, 1), support=2)
    assert profiled(flip).passed and counter.calls > 0


@pytest.mark.parametrize(
    "argv, checked, ybe_checks, blocks",
    [
        # the Yang-Baxter check of the CLI and of ybe_action; then the
        # relations: one block of 3^9 per pair of the 8 generators instead
        # of one item per identity
        (["ybe", "--solution", "z3", "--strands", "9"], 551_151, 2, [[19_683] * 28]),
        # the Yang-Baxter check of ybe_action; the shift words, one block
        # per level n: the 3^(n + 2) elements of level <= n, each with
        # min(4, 6 - n) shift words and C(n + 1, 2) diagram identities; then
        # the relations, one block per pair of the 6 generators
        (["braid-check", "--action", "ybe-z3", "--n-max", "5"], 79_470, 1, [
            [3 ** (n + 2) * (min(4, 6 - n) + math.comb(n + 1, 2)) for n in range(6)],
            [2_187] * 15,
        ]),
        # the Yang-Baxter check of ybe_action; the relations; the closure,
        # one block per level n: the 3^(n + 1) elements of level <= n - 1
        # under n + 1 cofaces; then the cosimplicial identities, one block
        # per source level m: 3^(m + 2) elements and C(m + 3, 2) pairs
        (["verify", "--example", "ybe-z3", "--n-max", "5"], 4_647, 1, [
            [2_187] * 15,
            [3 ** (n + 1) * (n + 1) for n in range(1, 6)],
            [3 ** (m + 2) * math.comb(m + 3, 2) for m in range(-1, 4)],
        ]),
    ],
    ids=["ybe", "braid-check", "verify"],
)
def test_ybe_requests_hand_the_runner_only_blocks(
    monkeypatch, capsys, argv, checked, ybe_checks, blocks
):
    handed = []
    run_checks = reports.run_checks

    def counted(results, *args, **kwargs):
        items = list(results)
        handed.append(items)
        return run_checks(items, *args, **kwargs)

    monkeypatch.setattr(reports, "run_checks", counted)
    assert main([*argv, "--format", "json"]) == 0
    assert f'"checked": {checked}' in capsys.readouterr().out
    # each Yang-Baxter check, 27 triples, hands one item per triple; every
    # later check hands only blocks
    assert handed[:ybe_checks] == [[None] * 27] * ybe_checks
    checks = handed[ybe_checks:]
    assert all(type(k) is int for items in checks for k in items)
    assert checks == blocks


def test_ybe_braid_check_indexes_its_generators_once(capsys):
    # the level probe, the shift and diagram words and the relations all
    # run on the generator tables, which the action builds once for both
    # reports from one table of r on the 9 pairs; r is otherwise called only
    # by the Yang-Baxter check of ybe_action, 6 times on each of 27 triples
    # (13,122 apply calls when the 6 generators were applied to the 3^7
    # elements)
    counter = ApplyCalls()
    argv = ["braid-check", "--action", "ybe-z3", "--n-max", "5", "--format", "json"]
    assert counter.profiled(main)(argv) == 0
    assert '"checked": 79470' in capsys.readouterr().out
    assert (counter.calls, counter.pair_calls) == (0, 27 * 6 + 9)


@pytest.mark.parametrize(
    "check, composed, repeated",
    [
        # 32 + 52 + 168 + 56: per level n <= 7 its n coface tables, and 4
        # more of level 8 for the shifts; 2 per shift word (26), the
        # descending word of power 1 being sigma_{n+1} on the points, which
        # the diagram identities read too; 2 per diagram identity (84) on
        # the inner composites, formed once per i and once per j of each
        # level n (2 n) (436 with the 8 generator tables composed, top
        # composed apart from the first power and 4 per diagram identity;
        # 1,548 when each word was composed letter by letter)
        (lambda a: braid.shift_word_report(a, 7, 4), 308, 0),
        # 28 + 168: none for the relations, which ybe_action's Yang-Baxter
        # check decides (63 when they were composed on the tables, whose
        # ti o t(i+1) for i = 1 .. 7 was formed again as the coface
        # delta^(i-1)_i of the SCO's view); per level n from 1 to 7 its n
        # coface tables, from which the SCO's own tables decide the
        # closure; the cosimplicial identities, 2 per pair (i, j),
        # i < j <= n + 1, of each level n from 0 to 6 (braid's own calls
        # were 106 with 4 per adjacent pair and the 8 generator tables
        # composed, 176 with 2 more per coface for the closure, 232 letter
        # by letter)
        (lambda a: braid.verified_braid_sco(a, 7), 28 + 168, 0),
    ],
    ids=["shift words", "sco"],
)
def test_ybe_checks_compose_each_coface_once(compose_calls, check, composed, repeated):
    a = braid.ybe_action(_z3_r, range(3), 9)
    assert not compose_calls  # the generator tables are gathered, not composed
    check(a)
    assert len(compose_calls) == composed
    assert compose_calls.repeated() == repeated


def test_verify_ordinal_composes_only_the_sco_identities(compose_calls, capsys):
    argv = ["verify", "--example", "ordinal", "--n-max", "30", "--format", "json"]
    assert main(argv) == 0
    assert '"checked": 338025' in capsys.readouterr().out
    # 2 per pair (i, j), i < j <= n + 1, of each level n from 1 to 29: the
    # SCO decides each level once, and the shift system reads its failing
    # families off those decisions by index (21,750 when it composed 9,976
    # tables for the exchange law and 1,856 for adaptedness)
    assert len(compose_calls) == 2 * sum(math.comb(n + 2, 2) for n in range(1, 30)) == 9_918
    assert compose_calls.repeated() == 0


def test_ybe_relations_compose_on_tables_and_build_no_carrier(compose_calls, product_tuples, capsys):
    assert main(["ybe", "--solution", "z3", "--strands", "9", "--format", "json"]) == 0
    assert '"checked": 551151' in capsys.readouterr().out
    # none: ybe_action seeds the relations' decision from its Yang-Baxter
    # check (63 when they were composed on the tables, 3 per adjacent pair
    # of the 8 generators and 2 per other pair; 78 with 4 per adjacent pair
    # and the 8 generator tables composed)
    assert len(compose_calls) == 0
    # the relations pass on tables, so none of the 3^9 elements is built
    # (the Yang-Baxter checks build the 27 triples of Y, the tables the 9
    # pairs)
    assert product_tuples[9] == 0
    assert (product_tuples[3], product_tuples[2]) == (2 * 27, 9)


def test_ybe_braid_check_forms_each_composite_once_per_check(
    compose_calls, product_tuples, monkeypatch, capsys
):
    spans = []
    for name in ("shift_word_report", "verify_braid_relations"):
        def run(*args, check=getattr(braid, name)):
            start = len(compose_calls)
            try:
                return check(*args)
            finally:
                spans.append((start, len(compose_calls)))

        monkeypatch.setattr(braid, name, run)
    argv = ["braid-check", "--action", "ybe-z3", "--n-max", "5", "--format", "json"]
    assert main(argv) == 0
    assert '"checked": 79470' in capsys.readouterr().out
    assert len(spans) == 2 and spans[0][1] == spans[1][0]
    assert [compose_calls.repeated(*span) for span in spans] == [0, 0]
    # nor across them: the relations compose nothing, their decision seeded
    # by ybe_action (5 when B1's sigma_i o sigma_{i+1} for i = 1 .. 5 was
    # formed again as the coface delta^(i-1)_i of the shift words' view)
    assert compose_calls.repeated() == 0
    # both checks pass on positions, so none of the 3^7 elements is built
    assert product_tuples[7] == 0


def test_verify_ordinal_evaluates_each_map_once_per_table_entry(monkeypatch, capsys):
    calls = 0
    coface = simplicial.ordinal_coface

    def counted(n, k, m):
        nonlocal calls
        calls += 1
        return coface(n, k, m)

    # cli.ordinal_sco looks the coface up at call time
    monkeypatch.setattr(simplicial, "ordinal_coface", counted)
    assert main(["verify", "--example", "ordinal", "--n-max", "30", "--format", "json"]) == 0
    assert '"checked": 338025' in capsys.readouterr().out
    # the SCO's tables: delta^k : [n-1] -> [n] for 0 <= k <= n, on n
    # points, for n = 1 .. 30; the shift system reads its tables off them
    # (15,345 more calls when it indexed each alpha_k^{(n)} for
    # 0 <= k <= 31 and i_n on the same n points)
    assert calls == sum(n * (n + 1) for n in range(1, 31)) == 9_920


def test_the_braid_sco_reads_its_tables_off_the_coface_view():
    # the 9-strand z3 action at n_max 7: the SCO is seeded with tables that
    # re-index the carrier tables of the coface view level by level, so its
    # coface, which reads those tables, is never called (73,812 calls when
    # `tabulate` indexed each coface through it)
    calls = collections.Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    a = braid.ybe_action(_z3_r, range(3), 9)
    sys.setprofile(count)
    try:
        sco, report = braid.verified_braid_sco(a, 7)
        coface = getattr(sco.coface, "__code__", None) or type(sco.coface).__call__.__code__
        assert report.passed and sco.tables is not None
        assert calls[coface] == 0
        # the profile sees a call of the coface
        sco.delta(1, 0, sco.levels[0][0])
    finally:
        sys.setprofile(None)
    assert calls[coface] == 1


def test_verify_flip_builds_and_checks_its_sco_once(monkeypatch, capsys):
    calls = 0
    apply_word = braid.BraidAction.apply_word

    def counted(self, word, x):
        nonlocal calls
        calls += 1
        return apply_word(self, word, x)

    monkeypatch.setattr(braid.BraidAction, "apply_word", counted)
    counter = ApplyCalls()
    argv = ["verify", "--example", "flip", "--format", "json"]
    assert counter.profiled(main)(argv) == 0
    assert '"checked": 222' in capsys.readouterr().out
    # the flip action has no tables, so its words run through the
    # generators' memo, one apply per generator and point reached, for the
    # level probe, the closure of the levels and its SCO's tables, on which
    # the identities run (962 apply calls when the action first tried to
    # tabulate its generators, until sigma_5 took the longest sequences out
    # of the carrier after 258 of them; 514 apply_word calls and 9,272 apply
    # calls when the words applied apply on every lookup)
    assert calls == 0
    assert counter.calls == 704


def test_burau_braid_check_applies_each_generator_once_per_point(capsys):
    # the action has no tables; each generator conjugates a matrix at most
    # once, however many words reach it (92 apply calls when the action
    # first tried to tabulate its generators, until a conjugation left the
    # sample; 566 when every letter of every word applied apply)
    counter = ApplyCalls()
    argv = ["braid-check", "--action", "burau", "--n-max", "3", "--q", "2", "0", "--format", "json"]
    assert counter.profiled(main)(argv) == 0
    assert '"checked": 81' in capsys.readouterr().out
    assert counter.calls == 90


def test_ybe_verify_builds_its_sco_on_the_tables(monkeypatch, capsys):
    # the level probe, the closure of the levels, the coface tables and the
    # cosimplicial identities all run on the generator tables, which come
    # from one table of r on the 9 pairs, and apply is never called (16,947
    # apply_word calls when the cofaces applied their words, and 13,122
    # apply calls when the tables indexed each generator through apply)
    calls = 0
    apply_word = braid.BraidAction.apply_word

    def counted(self, word, x):
        nonlocal calls
        calls += 1
        return apply_word(self, word, x)

    monkeypatch.setattr(braid.BraidAction, "apply_word", counted)
    counter = ApplyCalls()
    argv = ["verify", "--example", "ybe-z3", "--n-max", "5", "--format", "json"]
    assert counter.profiled(main)(argv) == 0
    assert '"checked": 4647' in capsys.readouterr().out
    assert calls == 0
    assert (counter.calls, counter.pair_calls) == (0, 27 * 6 + 9)


def _lookups(cached) -> int:
    info = cached.cache_info()
    return info.hits + info.misses


def _tl_spreadability_counts(monkeypatch, capsys, argv):
    """The checks of a TL spreadability request, with the calls of the
    trace and product readers, of the row and half-row builders and of
    `TlElement.__mul__` that it makes, and the `_joined` lookups. The
    kernel caches start empty, so their misses count the distinct diagram
    pairs that the request multiplies, the distinct middles the products
    glue and the distinct diagrams the traces close. `_joined` interns the
    diagrams, so its cache is never cleared; with `diagram_id`'s cleared,
    the request's lookups of it are the same in any process."""
    for cached in (tl.diagram_mul, tl._middle, tl._closure, tl.diagram_id):
        cached.cache_clear()
    calls = collections.Counter()

    def counted(owner, name):
        f = getattr(owner, name)

        def run(*args):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(owner, name, run)

    # tl_distribution and _row look these up at call time
    for name in ("trace_of_product", "product_by_rows", "markov_trace", "_row", "_half_row"):
        counted(tl, name)
    counted(tl.TlElement, "__mul__")
    joined = _lookups(tl._joined)
    assert main([*argv, "--format", "json"]) == 0
    calls["_joined"] = _lookups(tl._joined) - joined
    return json.loads(capsys.readouterr().out)["checked"], calls


def test_tl_spreadability_traces_each_word_product_once(monkeypatch, capsys):
    argv = ["spreadability", "--example", "tl", "--q", "2", "0", "--m", "8", "--degree", "3"]
    checked, calls = _tl_spreadability_counts(monkeypatch, capsys, argv)
    assert checked == 336
    # one trace per distinct state and per last projection, at positions
    # 0..4: the empty state's are the Markov traces of the projections (5),
    # and the 5 projections and the 20 products of two distinct ones (a
    # projection's square is itself) are traced fused with each (125,
    # against 150 when the state was the word). The 25 products of two
    # letters are the steps of the one-letter states; a one-letter prefix
    # is its projection. __mul__ forms only the chain e_{1,1..4}: per
    # step, g and g^-1 (one scale each) and the two conjugating products.
    # Each of the 5 projections (1 + 4 + 12 + 33 + 88 terms) keeps one row
    # per left term it meets, 88 of them, and one half-row per bottom half
    # of those terms, 18 of them
    assert calls == {"markov_trace": 5, "trace_of_product": 125, "product_by_rows": 25,
                     "__mul__": 16, "_row": 5 * 88, "_half_row": 5 * 18,
                     "_joined": 4_691 + 250 + 6}
    # a half-row looks up the middle of its bottom half with each of its
    # projection's terms once, 18 * 138 over the projections; diagram_mul serves
    # only the chain's 308 lookups (12,452 when each row looked up its left
    # term with each of the projection's terms, 88 * 138 + 308; 31,922
    # when every prefix product was formed pair by pair, the trace rows
    # were keyed by diagram and each position conjugated from e_1), and
    # its 250 distinct pairs (7,844 with the rows') look up their middles
    # too. The rows join a capped upper half to a lower half once per
    # entry, 4,691 times; the chain's products join 250 times and the
    # constructors intern 6 diagrams
    info = tl.diagram_mul.cache_info()
    assert (info.hits + info.misses, info.misses) == (308, 250)
    assert _lookups(tl._middle) == 18 * 138 + 250 == 2_734
    # they glue one of 351 middles, an upper diagram's bottom half on a
    # lower diagram's top half, and the traces close one of 130 diagrams
    assert tl._middle.cache_info().misses == 351
    assert tl._closure.cache_info().misses == 130


def test_deep_tl_spreadability_multiplies_only_the_chain(monkeypatch, capsys):
    argv = ["spreadability", "--example", "tl", "--q", "2", "0", "--m", "9", "--degree", "5"]
    checked, calls = _tl_spreadability_counts(monkeypatch, capsys, argv)
    assert checked == 5456
    # the 90 distinct products of one to three projections are each
    # stepped by the 5 projections: 450 products (775, one per prefix of
    # two to four letters, when the state was the word), from the rows of the
    # 5 projections, 130 rows and 19 half-rows each, and __mul__ forms only
    # the chain (820 __mul__ calls and 706,466 diagram_mul lookups when
    # every prefix product was formed pair by pair)
    assert (calls["product_by_rows"], calls["__mul__"]) == (450, 16)
    assert (calls["_row"], calls["_half_row"]) == (5 * 130, 5 * 19)
    # diagram_mul serves the chain only (18,248 lookups when each row
    # looked up its left term with each of the projection's terms,
    # 130 * 138 + 308); the half-rows look up 19 * 138 middles over the
    # projections, and the rows join 6,357 entries
    info = tl.diagram_mul.cache_info()
    assert info.hits + info.misses == 308
    assert _lookups(tl._middle) == 19 * 138 + 250 == 2_872
    assert calls["_joined"] == 6_357 + 250 + 6


def test_tl_relations_multiply_only_the_pairs_they_stack(capsys):
    # a Markov trace closes its diagrams directly, so no diagram is
    # multiplied by the identity only to be traced
    tl.diagram_mul.cache_clear()
    assert main(["tl", "--q", "2", "0", "--m", "8", "--format", "json"]) == 0
    assert '"status": "pass"' in capsys.readouterr().out
    assert tl.diagram_mul.cache_info().misses == 149


def test_burau_cohomology_builds_each_coface_image_from_the_last(monkeypatch, capsys):
    products = 0
    seen = []  # (nonzero rows, rank) of each elimination
    product, rref = linalg._product, linalg._rref

    def counted(a, b):
        nonlocal products
        products += 1
        return product(a, b)

    def eliminated(grid):
        red, pivots, d = rref(grid)
        seen.append((sum(map(any, grid)), len(pivots)))
        return red, pivots, d

    # Matrix.__mul__ and the eliminations look both names up at call time
    monkeypatch.setattr(linalg, "_product", counted)
    monkeypatch.setattr(linalg, "_rref", eliminated)
    assert main(["cohomology", "--action", "burau", "--n-max", "8", "--format", "json"]) == 0
    assert '"status": "pass"' in capsys.readouterr().out
    # delta^k_n is sigma_{k+1} after delta^(k+1)_n, so each of the 45
    # cofaces of levels 0..8 costs one product, a generator times the image
    # of the coface before it; then d d = 0 takes 8 products and
    # h1_explicit 4 (221 products when each coface multiplied out its own
    # word). A coface reads its matrix off the image, so no coface
    # eliminates (45 solves did). The eliminations are the 10 levels -1..8,
    # each V^{n+1}'s equations with sigma_{n+2} - I stacked below (one
    # fresh stack of sigma_k - I blocks per level did the same 10), the 9
    # ranks of the table and the 2 of h1_explicit
    assert (products, len(seen)) == (57, 10 + 9 + 2)
    # each level sees the rank of the level above plus dim V = 11 rows at
    # most, so none sees more than dim + its own rank; V^{-1}'s ten stacked
    # blocks had 20 nonzero rows, and the 66 eliminations 668 in all
    dim = 11
    assert all(rows <= dim + rank for rows, rank in seen)
    assert max(rows for rows, _ in seen) == dim
    assert sum(rows for rows, _ in seen) == 128


@pytest.mark.parametrize(
    "argv, checked, products",
    [
        (["braid-check", "--action", "burau", "--n-max", "3", "--q", "2", "0"], 81, 170),
        (["braid-check", "--action", "perm-matrix", "--n-max", "2"], 32, 60),
    ],
)
def test_matrix_braid_checks_form_a_fixed_number_of_products(monkeypatch, capsys, argv, checked, products):
    # a cheaper matrix product must not come with fewer checks: the
    # conjugations and comparisons form this many products whatever each costs
    # (174 and 64 when the action first tried to tabulate its generators)
    calls = 0
    product = linalg._product

    def counted(a, b):
        nonlocal calls
        calls += 1
        return product(a, b)

    monkeypatch.setattr(linalg, "_product", counted)
    assert main([*argv, "--format", "json"]) == 0
    assert f'"checked": {checked}' in capsys.readouterr().out
    assert calls == products


def _bench_requests(monkeypatch) -> list[list[str]]:
    """Every request of every benchmark workload."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    return [argv for name in workloads.WORKLOADS for argv in workloads.all_requests(name)]


def test_well_formed_requests_build_no_parser(monkeypatch):
    # the option table reads every benchmark request; argparse is built only
    # for help and usage errors, once per process
    build_parser.cache_clear()
    for argv in _bench_requests(monkeypatch):
        assert main([*argv, "--format", "json"]) == 0
    assert build_parser.cache_info().currsize == 0
    with pytest.raises(SystemExit):
        main(["ybe", "--strands", "abc"])
    assert build_parser.cache_info().currsize == 1


def test_no_benchmark_request_tabulates_an_action_or_a_shift_system(monkeypatch):
    # only an SCO tabulates its own maps: a braid action or a shift system
    # gets tables only from the construction that derives them (the flip,
    # perm-matrix and burau actions each tried to tabulate their generators,
    # and failed)
    askers = collections.Counter()
    tabulate = simplicial.tabulate

    def recorded(rows):
        askers[type(sys._getframe(1).f_locals.get("self")).__name__] += 1
        return tabulate(rows)

    # braid and ncprob import the name
    for module in (simplicial, braid, ncprob):
        monkeypatch.setattr(module, "tabulate", recorded)
    for argv in _bench_requests(monkeypatch):
        assert main([*argv, "--format", "json"]) == 0
    # SCOs, and the functions that build tables for a construction
    assert set(askers) == {"Sco", "NoneType"}
