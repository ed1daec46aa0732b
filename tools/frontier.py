"""Time the frontier requests, each in fresh interpreters.

    python tools/frontier.py [--runs N] [--filter TEXT] [--against DIR] [REQUEST ...]

A request is the arguments of one `cosimplex` command line, as one string.
Each runs in N fresh interpreters (default 3) with the repository's `src`
on PYTHONPATH and PYTHONDONTWRITEBYTECODE=1, so every run compiles the
package and none leaves bytecode behind. For each request one line gives
the check count, the median seconds inside `cosimplex.cli.main` and the
median wall seconds of the whole process, then the request. With no
REQUEST the rows of the frontier table in ROADMAP.md's Baseline run;
--filter keeps the requests that contain TEXT. With --against DIR each run
of a request is a pair, one process with DIR/src on PYTHONPATH and one with
this checkout's, in alternating order, and the row gives DIR's medians
before this checkout's; the tool exits with status 1 when the two sides
report different check counts for a request. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shlex
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

FRONTIER = (
    "spreadability --example tensor --star --degree 6",
    "braid-check --action ybe-z3 --n-max 7 --big-n 4",
    "spreadability --example tl --q 2 0 --m 12 --pos-bound 4",
    "spreadability --example tl --q 2 0 --m 9 --degree 5",
    "verify --example ybe-z3 --n-max 7",
    "cohomology --action burau --n-max 12 --q 1 1",
    "verify --example tensor --n-max 5",
    "braid-check --action burau --n-max 6",
    "verify --example ordinal --n-max 30",
    "ybe --solution z3 --strands 9",
    "spreadability --example tl --q 0 1 --m 9 --degree 4 --star",
    "spreadability --example tensor --star --degree 4",
)

# Runs one request in the child and prints its exit code, the seconds inside
# cli.main and the check count of its JSON report (None without one) as one
# JSON line.
CHILD = """
import contextlib, io, json, sys, time
from cosimplex import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    start = time.perf_counter()
    code = cli.main(sys.argv[1:] + ["--format", "json"])
    seconds = time.perf_counter() - start
report = json.loads(out.getvalue() or "{}")
print(json.dumps({"code": code, "main_s": seconds, "checked": report.get("checked")}))
"""


def run_once(request: str, src: pathlib.Path) -> tuple[int, float, float]:
    """(checked, seconds in cli.main, seconds of the process) of one fresh
    run with src on PYTHONPATH."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *shlex.split(request)],
        env=env, capture_output=True, text=True, check=True,
    )
    wall = time.perf_counter() - start
    child = json.loads(done.stdout)
    if child["code"] not in (0, 1):
        raise SystemExit(f"{request}: exit {child['code']}: {done.stderr.strip()}")
    return child["checked"], child["main_s"], wall


def medians(request: str, runs: list[tuple[int, float, float]]) -> tuple[int, float, float]:
    """The one check count of runs and their median seconds in cli.main and
    of the process."""
    checked = {c for c, _, _ in runs}
    if len(checked) != 1:
        raise SystemExit(f"{request}: the check count differs between runs: {sorted(checked)}")
    return checked.pop(), statistics.median(m for _, m, _ in runs), statistics.median(w for _, _, w in runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("requests", nargs="*", metavar="REQUEST", default=list(FRONTIER))
    parser.add_argument("--runs", type=int, default=3, help="fresh interpreters per request")
    parser.add_argument("--filter", default="", help="run only the requests containing this text")
    parser.add_argument("--against", type=pathlib.Path, metavar="DIR",
                        help="also time the checkout in DIR, alternating with this one")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    sides, columns = [ROOT / "src"], ["main_s", "process_s"]
    if args.against is not None:
        if not (args.against / "src" / "cosimplex").is_dir():
            parser.error(f"--against {args.against}: no src/cosimplex there")
        sides.insert(0, args.against.resolve() / "src")
        columns = ["against_main_s", "main_s", "against_process_s", "process_s"]
    widths = [max(9, len(c)) for c in columns]
    print(f"{'checked':>15}", *map(str.rjust, columns, widths), "request", sep="  ")
    status = 0
    for request in args.requests:
        if args.filter not in request:
            continue
        runs = [[] for _ in sides]
        for r in range(args.runs):
            for side in range(len(sides))[::-1 if r % 2 else 1]:
                runs[side].append(run_once(request, sides[side]))
        checked, main_s, process_s = zip(*(medians(request, side) for side in runs))
        if len(set(checked)) > 1:
            print(f"{request}: {args.against} checks {checked[0]:,}, this checkout {checked[-1]:,}",
                  file=sys.stderr)
            status = 1
        times = (f"{t:>{w}.4f}" for t, w in zip((*main_s, *process_s), widths))
        print(f"{checked[-1]:>15,}", *times, request, sep="  ", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
