"""The benchmark's workloads: request lists for `cosimplex.cli.main`.

Each workload is a fixed list of CLI requests. The seed picks the parameters
from fixed lists of valid values, `seed % len(list)`, so the default seed 0
gives the README values q = 2 and state weights 1/3, 2/3. Every value in the
lists gives a passing verdict with a nonzero check count, and bounds that
stay sound under the planned truncation fixes; their expected verdicts are
recorded in bench/expected.json.

Why each workload exists, and which layers it loads, is in bench/README.md.
"""

from __future__ import annotations

# Rational q, never 0 or +-1. q and 1/q give the same loop value beta and cost
# the same; other values measured 15-30% slower on tl-spread, which would put
# the cost of the parameter into the run-to-run spread across seeds.
Q_VALUES = ("2", "1/2")
# Nonnegative state weights summing to 1 for the 2-dimensional tensor model.
WEIGHTS = (("1/3", "2/3"), ("1/4", "3/4"), ("2/5", "3/5"), ("1/5", "4/5"), ("3/7", "4/7"))


def _braid_matrix(q: str, weights: tuple) -> list[list[str]]:
    return [
        ["braid-check", "--action", "burau", "--n-max", "3", "--q", q, "0"],
        ["braid-check", "--action", "perm-matrix", "--n-max", "2"],
    ]


def _cohomology_burau(q: str, weights: tuple) -> list[list[str]]:
    return [["cohomology", "--action", "burau", "--n-max", "8", "--q", q, "0"]]


def _tl_spread(q: str, weights: tuple) -> list[list[str]]:
    return [["spreadability", "--example", "tl", "--q", q, "0", "--m", "8", "--degree", "3"]]


def _combinatorial(q: str, weights: tuple) -> list[list[str]]:
    return [
        ["verify", "--example", "ordinal", "--n-max", "30"],
        ["verify", "--example", "flip"],
        ["braid-check", "--action", "ybe-z3", "--n-max", "5"],
        ["ybe", "--solution", "z3", "--strands", "9"],
        ["spreadability", "--example", "tensor", "--star", "--weights", *weights],
    ]


WORKLOADS = {
    "braid-matrix": _braid_matrix,
    "cohomology-burau": _cohomology_burau,
    "tl-spread": _tl_spread,
    "combinatorial": _combinatorial,
}


def parameters(seed: int) -> tuple[str, tuple]:
    return Q_VALUES[seed % len(Q_VALUES)], WEIGHTS[seed % len(WEIGHTS)]


def requests(workload: str, seed: int) -> list[list[str]]:
    """The CLI argv lists (without --format) one client sends, in order."""
    return WORKLOADS[workload](*parameters(seed))


def all_requests(workload: str) -> list[list[str]]:
    """Every distinct request any seed can produce, in first-seen order."""
    period = len(Q_VALUES) * len(WEIGHTS)
    seen: dict[str, list[str]] = {}
    for seed in range(period):
        for argv in requests(workload, seed):
            seen.setdefault(request_key(argv), argv)
    return list(seen.values())


def request_key(argv: list[str]) -> str:
    return " ".join(argv)
