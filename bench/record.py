"""Record the expected verdict of every request any seed can send.

    python3 bench/record.py

Run from the root of a checkout. Each workload is run in a fresh child for
as many seeds as it takes to cover every distinct request, and the verdict
data (exit code, status, checked, witnesses and the cohomology table) is
written to bench/expected.json. Run it only at a commit whose verdicts are
known to be right: the benchmark counts every difference from this file as a
failed request.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from run import BENCH, run_child, verdict


def main() -> int:
    root = Path.cwd()
    expected: dict[str, dict] = {}
    for workload in workloads.WORKLOADS:
        wanted = {workloads.request_key(a) for a in workloads.all_requests(workload)}
        seed = 0
        while not wanted <= expected.keys():
            keys = [workloads.request_key(a) for a in workloads.requests(workload, seed)]
            if not set(keys) <= expected.keys():
                sample = run_child(root, workload, seed, trace=False, timeout=600)
                for request in sample["requests"]:
                    expected.setdefault(workloads.request_key(request["argv"]), verdict(request))
            seed += 1
    for key, value in expected.items():
        if "error" in value or value["exit"] != 0 or not value["checked"]:
            print(f"refusing to record a failing or empty verdict: {key}: {value}", file=sys.stderr)
            return 1
    with open(BENCH / "expected.json", "w") as fh:
        json.dump(dict(sorted(expected.items())), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected)} verdicts in {BENCH / 'expected.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
