"""Command-line driver for the verification suites.

Subcommands mirror the library: `verify` (cosimplicial identity suites),
`spreadability`, `cohomology`, `braid-check`, `ybe`, and `tl`. Output is a
human-readable summary or, with --format json, a stable machine-readable
report {schema, suite, config, status, checked, witnesses, timings}.

Exit status: 0 when every check passes; 1 when one fails, with its report
(a VerificationError carries one); 2 on a bad request, which is a ValueError.

Determinism contract: for a fixed configuration and seed the JSON output is
byte-identical across runs; wall-clock timings are therefore only included
when explicitly requested with --timings.
"""

from __future__ import annotations

import argparse
import json
import random
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
        levels=tuple(
            simplicial.Level(tuple(range(n + 1))) for n in range(n_max + 1)
        ),
        coface=simplicial.ordinal_coface,
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
    params = tl.TlParams(_parse_q(args.q))  # tl, the last choice argparse leaves
    return tl.tl_conjugation_action(params, args.m)


# ---------------------------------------------------------------------------
# Suite runners: each fills `config` as it reads the request and returns its
# reports. The last branch of each is the last choice argparse leaves.
# ---------------------------------------------------------------------------

def run_verify(args, config: dict) -> list[CheckReport]:
    config.update(example=args.example, n_max=args.n_max)
    if args.example == "ordinal":
        s = ordinal_sco(args.n_max)
        shifts = simplicial.shifts_from_sco(s, verify=False)
        return [simplicial.sco_verify(s), simplicial.verify_partial_shifts(shifts)]
    if args.example == "tensor":
        ps = ncprob.tensor_sco(args.dim, [Fraction(w) for w in args.weights], args.n_max)
        config.update(dim=args.dim, weights=args.weights)
        return [simplicial.sco_verify(ps.sco), ncprob.verify_functional_invariance(ps)]
    if args.example == "sym":
        return [simplicial.sco_verify(groups.sym_sco(args.n_max))]
    if args.example == "gl":
        config["seed"] = args.seed
        return [simplicial.sco_verify(groups.gl_sco(args.n_max, random.Random(args.seed)))]
    action = _build_action(args.example, args)  # flip, ybe-z3, tl
    if args.example == "tl":
        config.update(q=args.q, m=args.m)
    return [braid.verified_braid_sco(action, args.n_max)[1]]


def run_spreadability(args, config: dict) -> list[CheckReport]:
    config.update(
        example=args.example, degree=args.degree, pos_bound=args.pos_bound, star=args.star
    )
    for flag, value in (("--degree", args.degree), ("--pos-bound", args.pos_bound)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    if args.example == "tensor":
        d = ncprob.tensor_model(args.dim, [Fraction(w) for w in args.weights])
        config.update(dim=args.dim, weights=args.weights)
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
    if args.action in ("tl", "burau"):
        config["q"] = args.q
    if args.action == "tl":
        config["m"] = args.m
    action = _build_action(args.action, args)
    shift_words, config["skipped_shift_words"] = braid.shift_word_report(
        action, args.n_max, args.big_n
    )
    return [braid.verify_braid_relations(action), shift_words]


def run_ybe(args, config: dict) -> list[CheckReport]:
    config.update(solution=args.solution, strands=args.strands)
    if args.solution == "z3":
        r, y = _z3_r, range(3)
    else:  # swap
        r, y = (lambda a, b: (b, a)), range(2)
    reps = [braid.ybe_check(r, y)]
    if reps[0].passed:
        reps.append(braid.verify_braid_relations(braid.ybe_action(r, y, args.strands)))
    return reps


def run_tl(args, config: dict) -> list[CheckReport]:
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosimplex",
        description="Exact verification suites for semi-cosimplicial algebra.",
    )
    parser.add_argument("--list", action="store_true", help="enumerate available suites")
    sub = parser.add_subparsers(dest="suite")

    def add_q(p):
        p.add_argument("--q", nargs=2, default=("2", "0"), metavar=("RE", "IM"), type=_rational)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings (breaks byte-identical output)")

    p = sub.add_parser("verify", help=SUITES["verify"])
    p.add_argument("--example", default="ordinal",
                   choices=("ordinal", "tensor", "sym", "gl", "flip", "ybe-z3", "tl"))
    p.add_argument("--n-max", type=int, default=4, dest="n_max")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--weights", nargs="+", default=["1/3", "2/3"], type=_rational)
    add_q(p)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("spreadability", help=SUITES["spreadability"])
    p.add_argument("--example", default="tensor", choices=("tensor", "tl", "broken-table"))
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--pos-bound", type=int, default=3, dest="pos_bound")
    p.add_argument("--star", action="store_true")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--weights", nargs="+", default=["1/3", "2/3"], type=_rational)
    add_q(p)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--m0", type=int, default=1)
    common(p)

    p = sub.add_parser("cohomology", help=SUITES["cohomology"])
    p.add_argument("--action", default="trivial", choices=("trivial", "perm", "burau"))
    p.add_argument("--n-max", type=int, default=4, dest="n_max")
    p.add_argument("--dim", type=int, default=2)
    add_q(p)
    common(p)

    p = sub.add_parser("braid-check", help=SUITES["braid-check"])
    p.add_argument("--action", default="flip",
                   choices=("flip", "ybe-z3", "perm-matrix", "burau", "tl"))
    p.add_argument("--n-max", type=int, default=3, dest="n_max")
    p.add_argument("--big-n", type=int, default=4, dest="big_n",
                   help="max shift power N; at level n, N stops at the action's "
                        "stabilization bound minus n")
    add_q(p)
    p.add_argument("--m", type=int, default=6)
    common(p)

    p = sub.add_parser("ybe", help=SUITES["ybe"])
    p.add_argument("--solution", default="z3", choices=("z3", "swap"))
    p.add_argument("--strands", type=int, default=5)
    common(p)

    p = sub.add_parser("tl", help=SUITES["tl"])
    add_q(p)
    p.add_argument("--m", type=int, default=8)
    common(p)

    return parser


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
    parser = build_parser()
    args = parser.parse_args(_shield_negative_values(sys.argv[1:] if argv is None else argv))
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
    except VerificationError as err:
        reps = [err.report]
    if any(r.checked_count == 0 for r in reps):
        print("error: no identities checked", file=sys.stderr)
        return 2
    args._timings = {"total_seconds": round(time.monotonic() - started, 3)}
    return _emit(args.suite, config, reps, args)


if __name__ == "__main__":
    sys.exit(main())
