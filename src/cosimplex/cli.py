"""Command-line driver for the verification suites.

Subcommands mirror the library: `verify` (cosimplicial identity suites),
`spreadability`, `cohomology`, `braid-check`, `ybe`, and `tl`. Output is a
human-readable summary or, with --format json, a stable machine-readable
report {schema, suite, config, status, checked, witnesses, timings}.

A request is read from OPTIONS, one table of each suite's flags.
`_read_request` reads a suite name followed by exact flags of its table, each
with valid values, without argparse. The argparse parser, built from the same
table on first use, answers every other request: --list, help, abbreviated
flags, the --flag=value form and every usage error, so their text and exit
status are argparse's own.

Exit status: 0 when every check passes; 1 when one fails, with its report
(a VerificationError carries one); 2 on a bad request, which is a ValueError.

Determinism contract: for a fixed configuration the JSON output is
byte-identical across runs; wall-clock timings are therefore only included
when explicitly requested with --timings.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import braid, cohomology, groups, linalg, ncprob, reports, simplicial, tl
from .reports import CheckReport, VerificationError
from .scalars import QQi, scalar

SCHEMA_VERSION = 1

SUITES = {
    "verify": "cosimplicial identity suites (ordinal, tensor, sym, gl, flip, ybe, tl)",
    "spreadability": "moment spreadability of the tensor, TL and table models",
    "cohomology": "cochain complexes of module actions: dd = 0, H^0, H^1",
    "braid-check": "braid relations, shift-word identities, diagram identity",
    "ybe": "set-theoretic Yang-Baxter checks and the induced actions",
    "tl": "Temperley-Lieb relations, Markov trace, unitarity dichotomy",
}


def _parse_q(pair: Sequence[str]) -> QQi:
    return scalar(Fraction(pair[0]), Fraction(pair[1]))


def _rational(text: str) -> str:
    """The argparse type of a --q part or a --weights value: a rational
    number, kept as written."""
    text = text.strip()
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    return text


def _size(text: str) -> int:
    """The argparse type of a size flag: an int of at most sys.maxsize in
    absolute value, so that no range, list or repeat count overflows."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if abs(value) > sys.maxsize:
        raise argparse.ArgumentTypeError(
            f"{value} is out of range: a size is at most {sys.maxsize} in absolute value"
        )
    return value


_NEGATIVE_NUMBER = re.compile(r"-[\d.]")


def _shield_negative_values(argv: Sequence[str]) -> list[str]:
    """Prefix the negative numbers among the values of --q and --weights with
    a space.

    argparse takes a word such as -1/2 for an option, since it does not look
    like a negative number to it; a word starting with a space is always a
    value, and _rational strips the space again. --q takes the two words after
    it, --weights the words up to the next option."""
    out = list(argv)
    for i, word in enumerate(out):
        if word not in ("--q", "--weights"):
            continue
        end = i + 3 if word == "--q" else len(out)
        for j in range(i + 1, min(end, len(out))):
            if _NEGATIVE_NUMBER.match(out[j]):
                out[j] = " " + out[j]
            elif out[j].startswith("-"):
                break
    return out


def _z3_r(a: int, b: int):
    # a commuting-shift solution: r(a, b) = (b + 1, a - 1) over Z/3
    return ((b + 1) % 3, (a - 1) % 3)


def ordinal_sco(n_max: int) -> simplicial.Sco:
    """The ordinals [n] = {0..n} with the face maps themselves as cofaces."""
    return simplicial.Sco(
        tuple(tuple(range(n + 1)) for n in range(n_max + 1)),
        simplicial.ordinal_coface,
    )


def _build_action(name: str, args: argparse.Namespace) -> braid.BraidAction:
    if name == "flip":
        return braid.flip_action((0, 1), support=args.n_max + 1)
    if name == "ybe-z3":
        return braid.ybe_action(_z3_r, range(3), strands=args.n_max + 2)
    if name == "perm-matrix":
        gens = groups.permutation_matrix_generators(args.n_max + 3)
        return groups.matrix_action(gens, gens[: args.n_max + 1])
    if name == "burau":
        gens = groups.burau_generators(args.n_max + 3, _parse_q(args.q))
        return groups.matrix_action(gens, gens[: args.n_max + 1])
    params = tl.TlParams(_parse_q(args.q))  # tl, the last choice OPTIONS leaves
    return tl.tl_conjugation_action(params, args.m)


# ---------------------------------------------------------------------------
# Suite runners: each fills `config` as it reads the request and returns its
# reports. The last branch of each is the last choice OPTIONS leaves.
# ---------------------------------------------------------------------------

def _tensor_weights(args, config: dict) -> list[Fraction]:
    """The tensor model's state weights; --dim is checked before any model is built."""
    if args.dim < 1:
        raise ValueError(f"--dim must be >= 1, got {args.dim}")
    config.update(dim=args.dim, weights=args.weights)
    return [Fraction(w) for w in args.weights]


def run_verify(args, config: dict) -> list[CheckReport]:
    config.update(example=args.example, n_max=args.n_max)
    # the ordinal and tensor suites check their first identity at level 2,
    # the others at level 1; checked before any model is built
    least = 2 if args.example in ("ordinal", "tensor") else 1
    if args.n_max < least:
        raise ValueError(f"--n-max must be >= {least}, got {args.n_max}")
    if args.example == "ordinal":
        s = ordinal_sco(args.n_max)
        shifts = simplicial.shifts_from_sco(s, verify=False)
        return [simplicial.sco_verify(s), simplicial.verify_partial_shifts(shifts)]
    if args.example == "tensor":
        ps = ncprob.tensor_sco(args.dim, _tensor_weights(args, config), args.n_max)
        return [simplicial.sco_verify(ps.sco), ncprob.verify_functional_invariance(ps)]
    if args.example == "sym":
        return [simplicial.sco_verify(groups.sym_sco(args.n_max))]
    if args.example == "gl":
        return [simplicial.sco_verify(groups.gl_sco(args.n_max))]
    if args.example == "tl":
        config.update(q=args.q, m=args.m)
        # level n_max uses sigma_{n_max + 1}, which acts on m >= n_max + 2 strands
        if args.m < args.n_max + 2:
            raise ValueError(f"--n-max {args.n_max} needs --m >= {args.n_max + 2}")
    action = _build_action(args.example, args)  # flip, ybe-z3, tl
    return [braid.verified_braid_sco(action, args.n_max)[1]]


def run_spreadability(args, config: dict) -> list[CheckReport]:
    config.update(
        example=args.example, degree=args.degree, pos_bound=args.pos_bound, star=args.star
    )
    for flag, value in (("--degree", args.degree), ("--pos-bound", args.pos_bound)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    if args.example == "tensor":
        d = ncprob.tensor_model(args.dim, _tensor_weights(args, config))
    elif args.example == "tl":
        params = tl.TlParams(_parse_q(args.q))
        if args.m0 < 1:
            raise ValueError(f"--m0 must be >= 1, got {args.m0}")
        # the skips reach position pos_bound + 1, the projection e_{m0, pos_bound + 1}
        need = args.m0 + args.pos_bound + 2
        if args.m < need:
            raise ValueError(
                f"--pos-bound {args.pos_bound} needs --m >= {need} with --m0 {args.m0}"
            )
        d = tl.tl_distribution(params, args.m, args.m0)
        config.update(q=args.q, m=args.m, m0=args.m0)
    else:  # broken-table
        d = ncprob.broken_table()
    if args.star:
        d = ncprob.star_spreadability_mode(d)
    return [ncprob.spreadability_check(d, args.degree, args.pos_bound, star=args.star)]


def run_cohomology(args, config: dict) -> list[CheckReport]:
    if args.action == "trivial" and args.dim < 1:
        raise ValueError(f"--dim must be >= 1, got {args.dim}")
    # the complex holds d^0 .. d^{n_max}, and d d = 0 needs two of them
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    # the size of the generators: n_max + 3 strands unless the action is trivial
    dim = args.dim if args.action == "trivial" else args.n_max + 3
    config.update(action=args.action, n_max=args.n_max, dim=dim)
    if args.action == "trivial":
        gens = [linalg.Matrix.identity(dim)] * (args.n_max + 2)
    elif args.action == "perm":
        gens = groups.permutation_matrix_generators(dim)
    else:  # burau
        gens = groups.burau_generators(dim, _parse_q(args.q))
        config["q"] = args.q
    s = cohomology.module_sco(gens, args.n_max)
    c = cohomology.cochain_complex(s)
    reps = [cohomology.verify_dd_zero(c)]
    table = cohomology.cohomology_table(c)
    h0 = table[0]["dim_H"]
    reps.append(reports.run_checks([None if h0 == 0 else ("H^0 is nonzero", {"dim": h0})]))
    if args.n_max >= 2:
        generic, explicit = table[1]["dim_H"], cohomology.h1_explicit(s)
        h1 = {"generic": generic, "explicit": explicit}
        reps.append(
            reports.run_checks([None if generic == explicit else ("H^1 descriptions disagree", h1)])
        )
    config["table"] = table
    return reps


def run_braid_check(args, config: dict) -> list[CheckReport]:
    config.update(action=args.action, n_max=args.n_max, big_n=args.big_n)
    if args.big_n < 1:
        raise ValueError(f"--big-n must be >= 1, got {args.big_n}")
    # flip and tl check identities at level 0; ybe-z3 has a single generator
    # there, and the perm-matrix and burau samples hold no element of level 0
    least = 0 if args.action in ("flip", "tl") else 1
    if args.n_max < least:
        raise ValueError(f"--n-max must be >= {least}, got {args.n_max}")
    if args.action in ("tl", "burau"):
        config["q"] = args.q
    if args.action == "tl":
        config["m"] = args.m
        # m strands carry sigma_1 .. sigma_{m-1}: a braid relation needs
        # sigma_2 and level n_max needs sigma_{n_max + 1}
        need = max(args.n_max, 1) + 2
        if args.m < need:
            raise ValueError(f"--n-max {args.n_max} needs --m >= {need}")
    action = _build_action(args.action, args)
    shift_words, config["skipped_shift_words"] = braid.shift_word_report(
        action, args.n_max, args.big_n
    )
    return [braid.verify_braid_relations(action), shift_words]


def run_ybe(args, config: dict) -> list[CheckReport]:
    config.update(solution=args.solution, strands=args.strands)
    if args.strands < 3:
        # two strands have a single generator, so no braid relation to check
        raise ValueError(f"--strands must be >= 3, got {args.strands}")
    if args.solution == "z3":
        r, y = _z3_r, range(3)
    else:  # swap
        r, y = (lambda a, b: (b, a)), range(2)
    reps = [braid.ybe_check(r, y)]
    if reps[0].passed:
        reps.append(braid.verify_braid_relations(braid.ybe_action(r, y, args.strands)))
    return reps


def run_tl(args, config: dict) -> list[CheckReport]:
    # one strand carries no generator, so no relation to check
    if args.m < 2:
        raise ValueError(f"--m must be >= 2, got {args.m}")
    params = tl.TlParams(_parse_q(args.q))
    config.update(q=args.q, m=args.m, unitary=params.unitary)
    return [tl.relation_report(params, args.m)]


RUNNERS = {
    "verify": run_verify,
    "spreadability": run_spreadability,
    "cohomology": run_cohomology,
    "braid-check": run_braid_check,
    "ybe": run_ybe,
    "tl": run_tl,
}


# ---------------------------------------------------------------------------
# Argument parsing and output
# ---------------------------------------------------------------------------

# The options of each suite, in the order its help lists them, one row each:
# (flag, kind, default, the choices of a "choice" or else the help). The dest
# is the flag without its dashes and with "_" for "-", as argparse derives it.
_Q = ("--q", "pair", ["2", "0"], None)
_WEIGHTS = ("--weights", "list", ["1/3", "2/3"], None)
_COMMON = (
    ("--format", "choice", "text", ("text", "json")),
    ("--timings", "flag", False, "include wall-clock timings (breaks byte-identical output)"),
)
OPTIONS = {
    "verify": (
        ("--example", "choice", "ordinal", ("ordinal", "tensor", "sym", "gl", "flip", "ybe-z3", "tl")),
        ("--n-max", "size", 4, None),
        ("--dim", "size", 2, None),
        _WEIGHTS, _Q,
        ("--m", "size", 6, None),
        *_COMMON,
    ),
    "spreadability": (
        ("--example", "choice", "tensor", ("tensor", "tl", "broken-table")),
        ("--degree", "size", 3, None),
        ("--pos-bound", "size", 3, None),
        ("--star", "flag", False, None),
        ("--dim", "size", 2, None),
        _WEIGHTS, _Q,
        ("--m", "size", 8, None),
        ("--m0", "size", 1, None),
        *_COMMON,
    ),
    "cohomology": (
        ("--action", "choice", "trivial", ("trivial", "perm", "burau")),
        ("--n-max", "size", 4, None),
        ("--dim", "size", 2, None),
        _Q,
        *_COMMON,
    ),
    "braid-check": (
        ("--action", "choice", "flip", ("flip", "ybe-z3", "perm-matrix", "burau", "tl")),
        ("--n-max", "size", 3, None),
        ("--big-n", "size", 4,
         "max shift power N; at level n, N stops at the action's stabilization bound minus n"),
        _Q,
        ("--m", "size", 6, None),
        *_COMMON,
    ),
    "ybe": (
        ("--solution", "choice", "z3", ("z3", "swap")),
        ("--strands", "size", 5, None),
        *_COMMON,
    ),
    "tl": (_Q, ("--m", "size", 8, None), *_COMMON),
}

# The add_argument keywords of each kind besides its default, choices and help.
_KINDS = {
    "choice": {},
    "flag": {"action": "store_true"},
    "size": {"type": _size},
    "pair": {"nargs": 2, "metavar": ("RE", "IM"), "type": _rational},
    "list": {"nargs": "+", "type": _rational},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use by the requests that
    `_read_request` leaves to argparse. Parsing only reads it; a request's --q
    and --weights defaults are the lists of OPTIONS, which nothing mutates."""
    parser = argparse.ArgumentParser(
        prog="cosimplex",
        description="Exact verification suites for semi-cosimplicial algebra.",
    )
    parser.add_argument("--list", action="store_true", help="enumerate available suites")
    sub = parser.add_subparsers(dest="suite")
    for suite, rows in OPTIONS.items():
        p = sub.add_parser(suite, help=SUITES[suite])
        for flag, kind, default, extra in rows:
            key = "choices" if kind == "choice" else "help"
            p.add_argument(flag, default=default, **{key: extra}, **_KINDS[kind])
    return parser


def _read_request(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace that build_parser().parse_args(_shield_negative_values(argv))
    returns, read off OPTIONS; None unless argv is a suite followed by exact
    flags of that suite, each with valid values.

    A value is a word that does not start with "-", so a negative number is
    one only where _shield_negative_values marks it; a repeated flag keeps its
    last value. Every other request, help and usage errors included, is
    argparse's to answer."""
    words = _shield_negative_values(argv)
    if not words or words[0] not in OPTIONS:
        return None
    suite, values = words[0], {}
    rows = {row[0]: row for row in OPTIONS[suite]}
    i = 1
    while i < len(words):
        if words[i] not in rows:
            return None
        flag, kind, _, choices = rows[words[i]]
        start = i = i + 1
        while i < len(words) and not words[i].startswith("-"):
            i += 1
        found = words[start:i]
        if kind == "flag":
            value, i = True, start
        elif kind == "list" and found:
            value = found
        elif kind == "pair" and len(found) >= 2:
            value, i = found[:2], start + 2
        elif kind in ("choice", "size") and found:
            value, i = found[0], start + 1
        else:
            return None
        try:
            if kind in ("list", "pair"):
                value = [_rational(word) for word in value]
            elif kind == "size":
                value = _size(value)
        except argparse.ArgumentTypeError:
            return None
        if kind == "choice" and value not in choices:
            return None
        values[flag] = value
    return argparse.Namespace(list=False, suite=suite, **{
        flag[2:].replace("-", "_"): values.get(flag, default) for flag, _, default, _ in OPTIONS[suite]
    })


def _emit(suite: str, config: dict, reps: list[CheckReport], args) -> int:
    status = "pass" if all(r.passed for r in reps) else "fail"
    checked = sum(r.checked_count for r in reps)
    witnesses = [r.witness.to_json() for r in reps if r.witness is not None]
    if args.format == "json":
        out: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "suite": suite,
            "config": config,
            "status": status,
            "checked": checked,
            "witnesses": witnesses,
            "timings": getattr(args, "_timings", {}) if args.timings else {},
        }
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"[{status}] suite={suite} checked={checked}")
        for key, value in config.items():
            print(f"  {key} = {value}")
        for w in witnesses:
            print(f"  witness: {w}")
    return 0 if status == "pass" else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_request(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(_shield_negative_values(argv))
        if args.list:
            for name, desc in SUITES.items():
                print(f"{name}: {desc}")
            return 0
        if args.suite is None:
            parser.print_usage(sys.stderr)
            return 2
    started = time.monotonic()
    config: dict = {}
    try:
        reps = RUNNERS[args.suite](args, config)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the request is too large for memory", file=sys.stderr)
        return 2
    except VerificationError as err:
        reps = [err.report]
    if any(r.checked_count == 0 for r in reps):
        print("error: no identities checked", file=sys.stderr)
        return 2
    args._timings = {"total_seconds": round(time.monotonic() - started, 3)}
    return _emit(args.suite, config, reps, args)


if __name__ == "__main__":
    sys.exit(main())
