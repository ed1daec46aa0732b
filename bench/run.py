"""The cosimplex benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. It starts one fresh interpreter per
sample (bench/child.py), never more than one at a time, and keeps starting
them until --seconds have passed (at least MIN_SAMPLES). Each child is one
client in a closed loop: it imports cosimplex, builds the workload's request
list, and sends the requests to `cosimplex.cli.main` with JSON output one
after another. A fresh interpreter per sample matters because the library's
caches are process-global and every CLI user pays them cold.

Every verdict is compared with the data recorded in bench/expected.json
(exit code, status, checked, witnesses, and the cohomology table). A request
fails if it raises, exits with another code, or returns other verdict data.

With --trace 0 the end-to-end metrics are reported as medians over the
samples: wall_s, identities_per_s, setup_s and peak_rss_mb. Times are in
reference seconds: each sample's raw time is scaled by the speed of the
machine measured next to it (see child.py), because raw times here drift by
up to 2x within minutes. The raw medians are printed and saved beside them.
With --trace 1 untraced and traced children alternate, and the layer metrics
of bench/layertrace.py are reported, with the tracing overhead.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give each
metric with its quartiles and sample count, and the machine conditions. The
full result, with every sample, goes to .bench_results/. The exit code is 0
when every verdict is correct, 1 when one is not, and 2 when the checkout
holds no cosimplex sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from child import REFERENCE_LOOP_S, REFERENCE_LOOPS

BENCH = Path(__file__).resolve().parent
MIN_SAMPLES = 3
RUN_LIMIT_S = 170.0  # the whole run ends within this, children included

END_TO_END = {
    "wall_s": "s",
    "identities_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
UNCONTROLLED = (
    "CPU frequency scaling, turbo and core isolation were not controlled: "
    "machine settings were off limits, so drift in machine speed stays in the samples."
)


class ChildError(Exception):
    """A child exited abnormally or timed out; its requests count as failed."""


def conditions() -> dict:
    """The machine and its load, as far as a process may read them."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "uncontrolled": UNCONTROLLED,
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def run_child(root: Path, workload: str, seed: int, trace: bool, timeout: float,
              spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(result: dict) -> dict:
    """The verdict data of one request, without schema, timings and threads."""
    if result.get("error") is not None:
        return {"error": result["error"]}
    try:
        report = json.loads(result["stdout"])
    except (KeyError, ValueError):
        return {"exit": result.get("exit"), "error": "no JSON report"}
    out = {
        "exit": result["exit"],
        "status": report.get("status"),
        "checked": report.get("checked"),
        "witnesses": report.get("witnesses"),
    }
    if report.get("suite") == "cohomology":
        out["table"] = report.get("config", {}).get("table")
    return out


def check(sample: dict, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one child's requests."""
    problems = []
    for request in sample["requests"]:
        key = workloads.request_key(request["argv"])
        got = verdict(request)
        want = expected.get(key)
        if want is None:
            problems.append(f"{key}: no expected verdict recorded")
        elif got != want:
            problems.append(f"{key}: got {json.dumps(got)[:300]}, expected {json.dumps(want)[:300]}")
    return len(sample["requests"]), len(problems), problems


def identities(sample: dict) -> int:
    return sum(verdict(r).get("checked") or 0 for r in sample["requests"])


def summary(values: list[float]) -> dict:
    values = sorted(values)
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def speed(sample: dict, setup: bool = False) -> float:
    """Reference seconds per raw second while the sample ran: the mean speed
    over reference loops spread evenly in wall time. For set-up, only the
    loops timed right after it count."""
    times = sample["reference_s"][:REFERENCE_LOOPS] if setup else sample["reference_s"]
    return statistics.fmean(REFERENCE_LOOP_S / t for t in times)


def end_to_end(samples: list[dict]) -> tuple[dict, dict]:
    """(metrics in reference seconds, the same metrics from raw times)."""
    out = []
    calibrated = [(speed(s), speed(s, setup=True)) for s in samples]
    for scale in (calibrated, [(1.0, 1.0)] * len(samples)):
        per_sample = {
            "wall_s": [s["wall_s"] * k for s, (k, _) in zip(samples, scale)],
            "identities_per_s": [identities(s) / (s["wall_s"] * k) for s, (k, _) in zip(samples, scale)],
            "setup_s": [s["setup_s"] * k for s, (_, k) in zip(samples, scale)],
            "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        }
        out.append({name: summary(per_sample[name]) for name in END_TO_END})
    return out[0], out[1]


def layers(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Layer metrics: counts from the traced samples, which must agree, and
    medians of the times in reference seconds; plus the tracing overhead
    against the untraced samples."""
    problems = []
    first = traced[0]["layers"]
    out = {}
    for name, value in first.items():
        if name.endswith("_s"):
            out[name] = summary([t["layers"][name] * speed(t) for t in traced])
        else:
            others = {t["layers"][name] for t in traced}
            if len(others) > 1:
                problems.append(f"{name} differs between traced runs: {sorted(others)}")
            out[name] = {"median": value, "q1": value, "q3": value, "n": len(traced)}
    traced_wall = summary([t["wall_s"] * speed(t) for t in traced])
    plain_wall = summary([p["wall_s"] * speed(p) for p in plain])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead"] = {
        "median": traced_wall["median"] / plain_wall["median"] - 1, "q1": None, "q3": None,
        "n": min(len(plain), len(traced)),
    }
    return out, problems


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "cosimplex" / "cli.py").is_file():
        print(f"error: no cosimplex sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(BENCH / "expected.json") as fh:
        expected = json.load(fh)
    out_dir = root / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "parameters": workloads.parameters(args.seed),
        "requests": workloads.requests(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": "closed loop, 1 client, 1 thread, 1 fresh interpreter per sample",
        "conditions": conditions(),
        "loadavg_start": loadavg(),
    }

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = began + args.seconds
    try:
        while True:
            kinds = [False, True] if args.trace else [False]
            for trace in kinds:
                remaining = began + RUN_LIMIT_S - time.monotonic()
                sample = run_child(root, args.workload, args.seed, trace, remaining,
                                   out_dir / f"{args.workload}-seed{args.seed}-spans.json")
                (traced if trace else plain).append(sample)
                n, bad, why = check(sample, expected)
                attempted, failed, problems = attempted + n, failed + bad, problems + why
            now = time.monotonic()
            enough = len(plain) >= (1 if args.trace else MIN_SAMPLES) or now - began > RUN_LIMIT_S / 2
            if now >= deadline and enough:
                break
    except ChildError as exc:
        n = len(workloads.requests(args.workload, args.seed))
        attempted, failed = attempted + n, failed + n
        problems.append(str(exc))
    record["loadavg_end"] = loadavg()

    if args.trace:
        metrics, why = layers(plain, traced) if traced and plain else ({}, ["no traced sample"])
        problems += why
    else:
        metrics, raw = end_to_end(plain) if plain else ({}, {})
        record["raw_metrics"] = raw
    correct = failed == 0 and not problems and bool(metrics)
    record.update(correct=correct, attempted=attempted, failed=failed, problems=problems,
                  metrics=metrics, samples={"untraced": plain, "traced": traced})
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    cond = record["conditions"]
    print(f"# cosimplex benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# {record['clients']}; parameters q={record['parameters'][0]} "
          f"weights={','.join(record['parameters'][1])}")
    print(f"# machine: nproc={cond['nproc']} python={cond['python']} cpu={cond['cpu_model']}")
    print(f"# loadavg start: {record['loadavg_start']}; end: {record['loadavg_end']}")
    print(f"# {UNCONTROLLED}")
    units = END_TO_END if not args.trace else {name: layer_unit(name) for name in metrics}
    for name, m in metrics.items():
        spread = f" q1={m['q1']:.6g} q3={m['q3']:.6g}" if m["q1"] is not None else ""
        print(f"{name} = {m['median']:.6g} {units[name]} (median of {m['n']}{spread})")
    for name, m in record.get("raw_metrics", {}).items():
        if name != "peak_rss_mb":
            print(f"# raw {name} = {m['median']:.6g} (median of {m['n']} q1={m['q1']:.6g} q3={m['q3']:.6g})")
    print(f"error_rate = {failed / attempted if attempted else 1.0:.6g} ({failed} of {attempted} requests failed)")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["median"], "unit": units[name]} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
