"""One benchmark client: a fresh interpreter that runs one workload's requests.

Run by bench/run.py, one child at a time, from the root of a checkout with
`src` on PYTHONPATH. The child imports cosimplex and builds its request list
(set-up), then sends the requests to `cosimplex.cli.main` one after another,
each only after the previous verdict is back (a closed loop, one client, one
thread). It prints one JSON object: set-up time, wall time, peak resident
memory, and per request the exit code and the JSON report (or the error).

The machine's speed drifts by up to 2x within seconds (neighbours on the
host, which a process cannot control), so the child also measures it: it
times a fixed reference loop of `Fraction` arithmetic REFERENCE_LOOPS times
before and after the requests, and, from a SIGALRM handler, once every
SAMPLE_INTERVAL_S of wall time while they run. The handler's time is taken
out of wall_s. bench/run.py turns the reference times into a speed and
reports times in reference seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

REFERENCE_LOOPS = 5
SAMPLE_INTERVAL_S = 0.2
# The reference loop's time on the machine the benchmark was written on (a
# 2-vCPU Intel Xeon, Python 3.11) when it ran fastest. bench/run.py scales a
# raw time by the mean of REFERENCE_LOOP_S / t over the loop times t
# measured with it.
REFERENCE_LOOP_S = 0.0045


def reference_loop() -> Fraction:
    x, a, b = Fraction(1, 3), Fraction(7, 5), Fraction(2, 9)
    for _ in range(1000):
        x = x * a + b
        x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
    return x


class SpeedProbe:
    """Reference-loop times, taken on demand or every SAMPLE_INTERVAL_S."""

    def __init__(self):
        self.times: list[float] = []
        self.in_handler_s = 0.0

    def measure(self) -> float:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.times.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        self.in_handler_s += self.measure()

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _run(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--format", "json"])
    except SystemExit as exc:  # argparse errors exit through SystemExit
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a request that raises is a failed request, not a crash
        return {"exit": None, "error": f"{type(exc).__name__}: {exc}"}
    return {"exit": code, "stdout": out.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    started = time.perf_counter()
    import cosimplex.cli as cli

    import workloads

    requests = workloads.requests(args.workload, args.seed)
    setup_s = time.perf_counter() - started

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"cosimplex imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    probe = SpeedProbe()
    for _ in range(REFERENCE_LOOPS):
        probe.measure()
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    try:
        results = []
        with probe.sampling():
            first = time.perf_counter()
            for i, argv in enumerate(requests):
                if tracer is not None:
                    tracer.request = i
                results.append(_run(cli, argv))
            wall_s = time.perf_counter() - first - probe.in_handler_s
    finally:
        if tracer is not None:
            tracer.uninstall()
    for _ in range(REFERENCE_LOOPS):
        probe.measure()

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_s": probe.times,
        "requests": [{"argv": argv, **r} for argv, r in zip(requests, results)],
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["spans"] = len(tracer.spans)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(
                    {"fields": ["id", "parent", "request", "layer", "name", "start", "end"],
                     "spans": tracer.spans},
                    fh,
                )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
