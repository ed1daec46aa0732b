"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_on_nested_and_raising_calls():
    clock = FakeClock()
    tracer = layertrace.Tracer(clock=clock)
    fns = {}

    def b_ok():
        clock.tick(3)

    def b_raise():
        clock.tick(4)
        raise ValueError("boom")

    def a_inner():
        clock.tick(2)
        fns["b_ok"]()

    def a():
        clock.tick(1)
        fns["a_inner"]()  # same layer nested in itself
        with pytest.raises(ValueError):
            fns["b_raise"]()  # another layer, and it raises
        clock.tick(5)

    for name, fn, layer in [("a", a, "A"), ("a_inner", a_inner, "A"),
                            ("b_ok", b_ok, "B"), ("b_raise", b_raise, "B")]:
        fns[name] = tracer.wrap(layer, name, fn)
    fns["a"]()

    assert tracer.self_s["A"] == 1 + 2 + 5
    assert tracer.self_s["B"] == 3 + 4
    assert tracer.stack == []
    spans = {s[4]: s for s in tracer.spans}
    assert spans["a"][1] is None and spans["a"][6] - spans["a"][5] == 15
    assert spans["a_inner"][1] == spans["a"][0]
    assert spans["b_ok"][1] == spans["a_inner"][0]
    assert spans["b_raise"][1] == spans["a"][0]


def test_hot_calls_are_aggregated_without_spans():
    clock = FakeClock()
    tracer = layertrace.Tracer(clock=clock)
    hot = tracer.wrap("H", "hot", lambda: clock.tick(1), keep_span=False)
    outer = tracer.wrap("O", "outer", lambda: [hot() for _ in range(3)])
    outer()
    assert tracer.calls[("H", "hot")] == 3
    assert tracer.self_s == {"H": 3, "O": 0}
    assert [s[4] for s in tracer.spans] == ["outer"]


def _snapshot() -> dict:
    import cosimplex.cli  # noqa: F401  (loads every module)

    snap = {}
    for name, mod in sys.modules.items():
        if name == "cosimplex" or name.startswith("cosimplex."):
            snap[name] = dict(vars(mod))
            for attr, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == name:
                    snap[f"{name}.{attr}"] = dict(vars(value))
    return snap


def test_every_wrapped_attribute_is_restored():
    from cosimplex import cli

    before = _snapshot()
    tracer = layertrace.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--example", "flip", "--format", "json"]) == 0
        assert cli.main(["cohomology", "--action", "burau", "--n-max", "3", "--format", "json"]) == 0
    assert tracer.metrics()["cli.requests"] == 2
    assert len(tracer._patches) == 0
    after = _snapshot()
    assert before.keys() == after.keys()
    for key in before:
        changed = [a for a in before[key] if before[key][a] is not after[key].get(a)]
        assert not changed, f"{key}: {changed} not restored"


def test_metric_names_are_reported_and_listed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer"]]
    assert listed == [*layertrace.METRICS, "trace.wall_s", "trace.overhead"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_two_traced_runs_give_identical_counts():
    counts = []
    for _ in range(2):
        sample = run.run_child(ROOT, "cohomology-burau", 0, trace=True, timeout=170)
        counts.append({k: v for k, v in sample["layers"].items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.requests"] == 1 and counts[0]["linalg.matmul_calls"] > 0


def test_a_wrong_verdict_counts_as_failed():
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    argv = workloads.requests("cohomology-burau", 0)[0]
    good = dict(expected[workloads.request_key(argv)])
    report = {"suite": "cohomology", "status": good["status"], "checked": good["checked"],
              "witnesses": good["witnesses"], "config": {"table": good["table"], "threads": 7},
              "schema": 99, "timings": {"total_seconds": 1.0}}
    sample = {"requests": [{"argv": argv, "exit": 0, "stdout": json.dumps(report)}]}
    assert run.check(sample, expected) == (1, 0, [])
    wrong = dict(expected, **{workloads.request_key(argv): dict(good, checked=good["checked"] + 1)})
    attempted, failed, problems = run.check(sample, wrong)
    assert (attempted, failed) == (1, 1) and problems


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "tl-spread", "--seconds", "1"]) == 2
    assert out.getvalue() == ""


def test_every_seed_maps_to_recorded_requests():
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    for workload in workloads.WORKLOADS:
        for seed in (-3, 0, 1, 7, 12345):
            for argv in workloads.requests(workload, seed):
                assert workloads.request_key(argv) in expected
    assert workloads.parameters(0) == ("2", ("1/3", "2/3"))
