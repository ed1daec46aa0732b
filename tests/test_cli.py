"""The command-line driver: suite wiring, exit codes, JSON determinism."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosimplex
from cosimplex.cli import SUITES, main
from cosimplex.scalars import ONE

GOLDEN = pathlib.Path(__file__).with_name("golden")
# The README commands, by the name of their golden JSON output: the argv and
# the exit status it records.
README_COMMANDS = {
    "verify_tensor": (("verify", "--example", "tensor", "--n-max", "4"), 0),
    "spreadability_tl": (
        ("spreadability", "--example", "tl", "--q", "2", "0", "--m", "8", "--degree", "3"), 0
    ),
    "cohomology_burau": (("cohomology", "--action", "burau", "--q", "2", "0", "--n-max", "4"), 0),
    "braid_check_flip": (("braid-check", "--action", "flip", "--n-max", "3"), 0),
    "ybe_z3": (("ybe", "--solution", "z3", "--strands", "5"), 0),
    "tl_unitary": (("tl", "--q", "0", "1", "--m", "8"), 0),
    "cohomology_burau_complex": (
        ("cohomology", "--action", "burau", "--q", "1", "1", "--n-max", "4"), 0
    ),
    "spreadability_tl_star": (
        ("spreadability", "--example", "tl", "--q", "0", "1", "--m", "6", "--degree", "3", "--star"), 0
    ),
    "spreadability_broken_table": (("spreadability", "--example", "broken-table"), 1),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_list_enumerates_suites(capsys):
    code, out = run(capsys, "--list")
    assert code == 0
    for name in SUITES:
        assert name in out


def test_no_suite_is_a_usage_error(capsys):
    assert main([]) == 2


def test_verify_ordinal_json_is_deterministic(capsys):
    argv = ("verify", "--example", "ordinal", "--n-max", "4", "--format", "json")
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for a fixed configuration
    payload = json.loads(out1)
    assert payload["status"] == "pass"
    assert payload["suite"] == "verify"
    assert payload["checked"] > 0
    assert payload["witnesses"] == []
    assert payload["timings"] == {}


def test_timings_are_opt_in(capsys):
    code, out = run(
        capsys, "verify", "--example", "ordinal", "--format", "json", "--timings"
    )
    assert code == 0
    assert "total_seconds" in json.loads(out)["timings"]


def test_verify_examples_pass(capsys):
    for extra in (
        ("--example", "tensor", "--n-max", "2"),
        ("--example", "sym", "--n-max", "3"),
        ("--example", "gl", "--n-max", "3", "--seed", "1"),
        ("--example", "flip", "--n-max", "2"),
        ("--example", "ybe-z3", "--n-max", "2"),
        ("--example", "tl", "--n-max", "2", "--m", "5"),
    ):
        code, out = run(capsys, "verify", *extra, "--format", "json")
        assert code == 0, out


def test_spreadability_tensor_passes(capsys):
    code, out = run(
        capsys,
        "spreadability",
        "--example",
        "tensor",
        "--degree",
        "2",
        "--pos-bound",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_spreadability_broken_table_fails_with_witness(capsys):
    code, out = run(
        capsys,
        "spreadability",
        "--example",
        "broken-table",
        "--degree",
        "2",
        "--pos-bound",
        "2",
        "--format",
        "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert len(payload["witnesses"]) == 1
    assert "skip position 1" in payload["witnesses"][0]["reindexing"]


def test_spreadability_invalid_bounds_is_usage_error(capsys):
    code = main(["spreadability", "--example", "tensor", "--degree", "0"])
    assert code == 2


@pytest.mark.parametrize("example", ["tensor", "tl", "broken-table"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (("--degree", "0"), "--degree must be >= 1, got 0"),
        (("--pos-bound", "-1", "--m", "2"), "--pos-bound must be >= 1, got -1"),
        (("--pos-bound", "0"), "--pos-bound must be >= 1, got 0"),
    ],
)
def test_spreadability_names_the_bound_it_rejects(capsys, monkeypatch, example, flags, message):
    # the bounds are checked by flag name before any model is built
    monkeypatch.setattr(cosimplex.ncprob, "tensor_model", None)
    monkeypatch.setattr(cosimplex.ncprob, "broken_table", None)
    monkeypatch.setattr(cosimplex.tl, "tl_distribution", None)
    code = main(["spreadability", "--example", example, *flags, "--format", "json"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"error: {message}\n"


def test_tl_spreadability_needs_strands_for_the_last_skip(capsys, monkeypatch):
    """Skips reach position pos_bound + 1, the projection e_{m0, pos_bound + 1},
    which needs m >= m0 + pos_bound + 2 strands; the flags are checked
    before any identity."""
    with monkeypatch.context() as patch:
        patch.setattr(cosimplex.ncprob, "spreadability_check", None)
        code = main(["spreadability", "--example", "tl", "--m", "5"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == "error: --pos-bound 3 needs --m >= 6 with --m0 1\n"
    code, out = run(capsys, "spreadability", "--example", "tl", "--m", "6", "--degree", "1")
    assert code == 0, out


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--m", "8", "--m0", "7"), "--pos-bound 3 needs --m >= 12 with --m0 7"),
        (("--m", "8", "--m0", "0"), "--m0 must be >= 1, got 0"),
        (("--m", "8", "--m0", "-1"), "--m0 must be >= 1, got -1"),
    ],
)
def test_tl_spreadability_names_the_flags_it_rejects(capsys, flags, message):
    code = main(["spreadability", "--example", "tl", *flags, "--format", "json"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"error: {message}\n"


def test_a_coface_leaving_its_level_is_a_reported_failure(capsys, monkeypatch):
    """A check that fails inside a construction (here the closure of the
    levels in `verified_braid_sco`) exits 1 with its witness, not a traceback."""
    # the flip maps with levels that are not theirs
    monkeypatch.setattr(cosimplex.braid, "level_of", lambda x, a: 5 if x == (1, 0) else -1)
    code, out = run(capsys, "verify", "--example", "flip", "--n-max", "2", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["config"] == {"example": "flip", "n_max": 2}
    [witness] = payload["witnesses"]
    assert witness["description"] == "coface leaves its level"
    assert (witness["k"], witness["n"], witness["image_level"]) == (0, 1, 5)


def test_a_failed_positivity_check_is_a_reported_failure(capsys, monkeypatch):
    def negative_model(dim, weights):
        return cosimplex.ncprob.Distribution(
            alphabet=("b",), eval_word=lambda w: ONE if not w else -ONE, star_mode=True
        )

    monkeypatch.setattr(cosimplex.ncprob, "tensor_model", negative_model)
    code, out = run(capsys, "spreadability", "--example", "tensor", "--star", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["config"]["star"] is True
    [witness] = payload["witnesses"]
    assert witness["description"] == "phi(w* w) is not a nonnegative real"
    assert witness["value"] == "-1"


def test_cohomology_trivial_table(capsys):
    code, out = run(
        capsys, "cohomology", "--action", "trivial", "--n-max", "4", "--format", "json"
    )
    assert code == 0
    table = json.loads(out)["config"]["table"]
    assert all(row["dim_H"] == 0 for row in table)


def test_cohomology_burau_passes(capsys):
    code, out = run(
        capsys,
        "cohomology",
        "--action",
        "burau",
        "--n-max",
        "3",
        "--q",
        "2",
        "0",
        "--format",
        "json",
    )
    assert code == 0, out
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["config"]["dim"] == 6  # n_max + 3 strands


@pytest.mark.parametrize(
    "argv, dim",
    [
        (("--action", "perm", "--n-max", "4"), 7),
        (("--action", "burau", "--n-max", "2"), 5),
        (("--action", "trivial", "--n-max", "4", "--dim", "3"), 3),
        (("--action", "perm", "--n-max", "4", "--dim", "3"), 7),
    ],
)
def test_cohomology_config_states_the_size_of_the_generators(capsys, argv, dim):
    code, out = run(capsys, "cohomology", *argv, "--format", "json")
    assert code == 0, out
    payload = json.loads(out)
    assert payload["config"]["dim"] == dim
    assert payload["config"]["table"][-1]["dim_V"] <= dim


def test_cohomology_without_generators_is_a_usage_error(capsys):
    assert main(["cohomology", "--action", "burau", "--n-max", "-2", "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: need at least two consecutive differentials\n"


@pytest.mark.parametrize("q", [("2/3", "-1/2"), ("-1/2", "0")])
def test_q_takes_negative_fractions(capsys, q):
    code, out = run(
        capsys, "cohomology", "--action", "burau", "--n-max", "3", "--q", *q, "--format", "json"
    )
    assert code == 0, out
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["config"]["q"] == list(q)


def test_q_rejects_non_rationals():
    for q in (("1/0", "0"), ("abc", "0"), ("2", "-")):
        with pytest.raises(SystemExit) as exc:
            main(["tl", "--q", *q, "--m", "4"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--example", "tensor", "--weights", "1/0", "1"),
        ("spreadability", "--example", "tensor", "--weights", "1/0", "1"),
    ],
)
def test_weights_reject_non_rationals(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_tensor_weights_must_match_the_dimension(capsys):
    assert main(["verify", "--example", "tensor", "--dim", "3"]) == 2
    assert "one weight per matrix dimension" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("tl", "--m", "0"),
        ("tl", "--m", "1"),
        ("ybe", "--strands", "0"),
        ("verify", "--example", "ordinal", "--n-max", "1"),
        ("verify", "--example", "gl", "--n-max", "-1"),
        ("braid-check", "--action", "burau", "--n-max", "-1"),
    ],
)
def test_a_report_that_checked_nothing_is_a_usage_error(capsys, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--example", "tl", "--m", "1"),
        ("braid-check", "--action", "tl", "--m", "1"),
    ],
)
def test_tl_action_without_a_generator_is_a_usage_error(capsys, argv):
    assert main([*argv, "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "no generator acts on 1 strands" in out.err


@pytest.mark.parametrize(
    "argv, bound",
    [
        (("verify", "--example", "tl", "--m", "3", "--n-max", "4"), 2),
        (("braid-check", "--action", "tl", "--m", "4", "--n-max", "3"), 3),
    ],
)
def test_levels_past_the_stabilization_bound_are_a_usage_error(capsys, argv, bound):
    # the level-n cofaces use sigma_{n+1}; past the bound it acts as the identity
    assert main([*argv, "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"past the stabilization bound {bound}" in out.err


def test_python_dash_m_runs_the_cli():
    src = pathlib.Path(cosimplex.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "cosimplex", "--list"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    for name in SUITES:
        assert name in done.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--example", "tensor", "--weights", "-1/3", "4/3"),
        ("verify", "--example", "tensor", "--weights", "4/3", "-1/3"),
        ("verify", "--example", "tensor", "--weights", "4/3", "-1/3", "--n-max", "2"),
        ("spreadability", "--example", "tensor", "--weights", "-1/3", "4/3"),
    ],
)
def test_negative_weights_are_rejected_by_name(capsys, argv):
    assert main(list(argv)) == 2
    assert "error: state weights must be nonnegative rationals" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_commands_match_golden_json(capsys, name):
    """Regenerate the golden files with `PYTHONPATH=src python tests/test_cli.py`."""
    argv, exit_code = README_COMMANDS[name]
    code, out = run(capsys, *argv, "--format", "json")
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_braid_check_flip(capsys):
    code, out = run(
        capsys, "braid-check", "--action", "flip", "--n-max", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("big_n", ["0", "-1"])
def test_big_n_below_one_is_a_usage_error(capsys, big_n):
    # no shift-word identity would be checked, only the diagram identities
    assert main(["braid-check", "--big-n", big_n, "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"--big-n must be >= 1, got {big_n}" in out.err


def test_shift_words_stop_at_the_stabilization_bound(capsys):
    # TL on 6 strands has bound 5, so levels 0..3 check N up to 4, 4, 3 and 2
    code, out = run(capsys, "braid-check", "--action", "tl", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["checked"] == 132
    assert payload["config"]["skipped_shift_words"] == 13
    code, out = run(capsys, "braid-check", "--action", "flip", "--format", "json")
    assert code == 0 and json.loads(out)["config"]["skipped_shift_words"] == 32


def test_big_n_is_part_of_the_config(capsys):
    code, out = run(capsys, "braid-check", "--big-n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["big_n"] == 1
    assert payload["checked"] == 788


def test_ybe_solutions(capsys):
    for solution in ("z3", "swap"):
        code, out = run(
            capsys, "ybe", "--solution", solution, "--strands", "4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["status"] == "pass"


def test_tl_suite_both_q_values(capsys):
    for q, unitary in ((("2", "0"), False), (("0", "1"), True)):
        code, out = run(
            capsys, "tl", "--q", q[0], q[1], "--m", "6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["config"]["unitary"] is unitary


def test_q_parses_fraction_strings(capsys):
    code, out = run(
        capsys, "tl", "--q", "1/2", "0", "--m", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_text_format_summarizes(capsys):
    code, out = run(capsys, "verify", "--example", "ordinal", "--n-max", "3")
    assert code == 0
    assert out.startswith("[pass] suite=verify")


# Small requests of every suite, at and past the edges of their bounds.
SMALL = st.integers(-1, 3).map(str)
Q_VALUES = st.sampled_from([("0", "0"), ("1", "0"), ("-1", "0"), ("0", "1"), ("1/2", "0")])


@st.composite
def small_requests(draw):
    suite = draw(st.sampled_from(sorted(SUITES)))
    q = ["--q", *draw(Q_VALUES)]
    n_max, m = ["--n-max", draw(SMALL)], ["--m", draw(SMALL)]
    if suite == "verify":
        example = draw(st.sampled_from(["ordinal", "tensor", "sym", "gl", "flip", "ybe-z3", "tl"]))
        return [suite, "--example", example, *n_max, *q, *m]
    if suite == "spreadability":
        example = draw(st.sampled_from(["tensor", "tl", "broken-table"]))
        star = ["--star"] if draw(st.booleans()) else []
        bounds = ["--degree", draw(SMALL), "--pos-bound", draw(SMALL)]
        return [suite, "--example", example, *bounds, *star, *q, *m]
    if suite == "cohomology":
        return [suite, "--action", draw(st.sampled_from(["trivial", "perm", "burau"])), *n_max, *q]
    if suite == "braid-check":
        action = draw(st.sampled_from(["flip", "ybe-z3", "perm-matrix", "burau", "tl"]))
        return [suite, "--action", action, *n_max, "--big-n", draw(SMALL), *q, *m]
    if suite == "ybe":
        return [suite, "--solution", draw(st.sampled_from(["z3", "swap"])), "--strands", draw(SMALL)]
    return [suite, *q, *m]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(small_requests())
def test_small_requests_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert json.loads(out.getvalue())["status"] == ("pass" if code == 0 else "fail")


if __name__ == "__main__":
    for name, (argv, _) in README_COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main([*argv, "--format", "json"])
        (GOLDEN / f"{name}.json").write_text(buf.getvalue())
