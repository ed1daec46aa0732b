"""The benchmark's recorded verdicts, checked in-process: every request any
seed of `bench/workloads.py` can send gives the verdict that
`bench/expected.json` records, read the way `bench/run.py` reads it. A change
of a verdict then fails here, not only when the benchmark runs."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from run import verdict  # noqa: E402

from cosimplex.cli import main  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())
REQUESTS = [argv for name in workloads.WORKLOADS for argv in workloads.all_requests(name)]


@pytest.mark.parametrize("argv", REQUESTS, ids=workloads.request_key)
def test_benchmark_request_gives_its_recorded_verdict(capsys, argv):
    code = main([*argv, "--format", "json"])
    result = {"exit": code, "stdout": capsys.readouterr().out}
    assert verdict(result) == EXPECTED[workloads.request_key(argv)]
