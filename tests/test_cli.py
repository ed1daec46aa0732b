"""The command-line driver: suite wiring, exit codes, JSON determinism."""

import contextlib
import io
import itertools
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fake_levels
import cosimplex
from cosimplex import braid, groups, ncprob, simplicial
from cosimplex.cli import OPTIONS, SUITES, _read_request, _shield_negative_values, build_parser, main
from cosimplex.scalars import ONE

GOLDEN = pathlib.Path(__file__).with_name("golden")
ROOT = GOLDEN.parents[1]
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
    "verify_ordinal": (("verify", "--example", "ordinal", "--n-max", "8"), 0),
    "verify_sym": (("verify", "--example", "sym", "--n-max", "4"), 0),
    "braid_check_ybe_z3": (("braid-check", "--action", "ybe-z3", "--n-max", "3"), 0),
    "spreadability_tl_gaussian": (
        ("spreadability", "--example", "tl", "--q", "2/3", "-1/2", "--m", "7"), 0
    ),
    "tl_gaussian": (("tl", "--q", "2/3", "-1/2", "--m", "8"), 0),
    "braid_check_ybe_z3_n5": (("braid-check", "--action", "ybe-z3", "--n-max", "5"), 0),
    "ybe_z3_strands9": (("ybe", "--solution", "z3", "--strands", "9"), 0),
    "verify_flip": (("verify", "--example", "flip"), 0),
    "verify_ybe_z3_n5": (("verify", "--example", "ybe-z3", "--n-max", "5"), 0),
    "verify_gl": (("verify", "--example", "gl"), 0),
    "braid_check_ybe_z3_n7_big4": (
        ("braid-check", "--action", "ybe-z3", "--n-max", "7", "--big-n", "4"), 0
    ),
    "spreadability_tensor_star_degree4": (
        ("spreadability", "--example", "tensor", "--star", "--degree", "4"), 0
    ),
    "spreadability_tensor_star_degree6": (
        ("spreadability", "--example", "tensor", "--star", "--degree", "6"), 0
    ),
    "spreadability_tl_m12_pos4": (
        ("spreadability", "--example", "tl", "--q", "2", "0", "--m", "12", "--pos-bound", "4"), 0
    ),
    "verify_tensor_n5": (("verify", "--example", "tensor", "--n-max", "5"), 0),
    "verify_ybe_z3_n7": (("verify", "--example", "ybe-z3", "--n-max", "7"), 0),
    "cohomology_burau_complex_n12": (
        ("cohomology", "--action", "burau", "--q", "1", "1", "--n-max", "12"), 0
    ),
    "cohomology_burau_unit_n14": (
        ("cohomology", "--action", "burau", "--q", "3/5", "4/5", "--n-max", "14"), 0
    ),
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


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--example", "ordinal"),
        ("verify", "--example", "sym"),
        ("verify", "--example", "flip"),
        ("verify", "--example", "ybe-z3"),
        ("braid-check", "--action", "ybe-z3"),
        ("ybe", "--strands", "5"),
    ],
)
def test_table_requests_print_what_the_callables_print(capsys, monkeypatch, argv):
    # when tabulate builds nothing no SCO, shift system or braid action has
    # tables, and every check evaluates the maps themselves
    tabulated = run(capsys, *argv, "--format", "json")
    with monkeypatch.context() as patch:
        patch.setattr(cosimplex.simplicial, "tabulate", lambda rows: None)
        patch.setattr(cosimplex.braid, "tabulate", lambda rows: None)
        assert cosimplex.cli.ordinal_sco(3).tables is None
        assert cosimplex.braid.ybe_action(cosimplex.cli._z3_r, range(3), 3).tables is None
        assert run(capsys, *argv, "--format", "json") == tabulated
    assert tabulated[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("tl",),
        ("verify", "--example", "tl"),
        ("spreadability", "--example", "tl"),
        ("braid-check", "--action", "burau"),
        ("braid-check", "--action", "tl"),
        ("cohomology", "--action", "burau"),
    ],
)
def test_the_default_q_prints_like_an_explicit_one(capsys, argv):
    default = run(capsys, *argv)
    assert default == run(capsys, *argv, "--q", "2", "0")
    assert default[0] == 0 and "  q = ['2', '0']\n" in default[1]


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
        ("--example", "gl", "--n-max", "3"),
        ("--example", "flip", "--n-max", "2"),
        ("--example", "ybe-z3", "--n-max", "2"),
        ("--example", "tl", "--n-max", "2", "--m", "5"),
    ):
        code, out = run(capsys, "verify", *extra, "--format", "json")
        assert code == 0, out


@pytest.mark.parametrize("argv", [("--example", "gl", "--seed", "1"), ("--seed", "0")])
def test_verify_takes_no_seed(capsys, argv):
    # the gl levels are a fixed spanning set, so no request draws at random
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


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


@pytest.mark.parametrize("suite", ["tl", "ybe", "spreadability"])
def test_a_request_too_large_for_memory_exits_2(capsys, monkeypatch, suite):
    """Exit 1 means a witness, so a request whose first allocation fails
    (`tl --m 100000000000`, say) exits 2; the runner raises MemoryError
    itself, so that no test allocates."""

    def too_large(args, config):
        raise MemoryError

    monkeypatch.setitem(cosimplex.cli.RUNNERS, suite, too_large)
    code = main([suite, "--format", "json"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == "error: the request is too large for memory\n"


def test_a_coface_leaving_its_level_is_a_reported_failure(capsys, monkeypatch):
    """A check that fails inside a construction (here the closure of the
    levels in `verified_braid_sco`) exits 1 with its witness, not a traceback."""
    # the flip maps with levels that are not theirs (flip has no generator
    # tables, so the levels and the closure walk's probe run on the elements)
    fake_levels(monkeypatch, lambda x: 5 if x == (1, 0) else -1)
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


def test_a_projection_that_is_not_self_adjoint_at_unitary_q_is_a_reported_failure(
    capsys, monkeypatch
):
    """At unitary q the conjugations must give self-adjoint projections; with
    g_n in place of g_n^-1, e_{1,1} = g_2 e_1 g_2 is not, and the request
    exits 1 with that position, not a traceback."""
    monkeypatch.setattr(cosimplex.tl, "g_inverse", cosimplex.tl.g_element)
    argv = ("spreadability", "--example", "tl", "--q", "0", "1", "--m", "6", "--degree", "2")
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["status"], payload["checked"]) == ("fail", 1)
    assert payload["witnesses"] == [
        {"description": "unitary conjugation gave a projection that is not self-adjoint", "N": 1}
    ]


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


def test_cohomology_without_generators_is_a_usage_error(capsys, monkeypatch):
    # the flag is named before any generator is built
    monkeypatch.setattr(groups, "burau_generators", None)
    for n_max in ("-2", "0"):
        assert main(["cohomology", "--action", "burau", "--n-max", n_max, "--format", "json"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --n-max must be >= 1, got {n_max}\n"


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
    "example, least",
    [("ordinal", 2), ("tensor", 2), ("sym", 1), ("gl", 1), ("flip", 1), ("ybe-z3", 1), ("tl", 1)],
)
def test_verify_n_max_below_the_first_identity_is_a_usage_error(
    capsys, monkeypatch, example, least
):
    # checked by flag name before any model is built; below it a suite
    # checks nothing, even where another suite of the request checks some
    with monkeypatch.context() as patch:
        patch.setattr(cosimplex.cli, "ordinal_sco", None)
        patch.setattr(cosimplex.cli, "_build_action", None)
        patch.setattr(cosimplex.ncprob, "tensor_sco", None)
        patch.setattr(cosimplex.groups, "sym_sco", None)
        patch.setattr(cosimplex.groups, "gl_sco", None)
        for n_max in (least - 1, -1):
            argv = ["verify", "--example", example, "--n-max", str(n_max), "--format", "json"]
            assert main(argv) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: --n-max must be >= {least}, got {n_max}\n"
    code, out = run(capsys, "verify", "--example", example, "--n-max", str(least), "--format", "json")
    assert code == 0 and json.loads(out)["checked"] > 0


def test_verify_tl_names_the_strands_its_levels_need(capsys):
    # level n_max uses sigma_{n_max + 1}, which needs n_max + 2 strands
    for argv, message in (
        (("--m", "2"), "--n-max 4 needs --m >= 6"),
        (("--m", "5", "--n-max", "4"), "--n-max 4 needs --m >= 6"),
        (("--m", "2", "--n-max", "0"), "--n-max must be >= 1, got 0"),
        # with no generator to act, --m is named before the action is built
        (("--m", "1"), "--n-max 4 needs --m >= 6"),
    ):
        assert main(["verify", "--example", "tl", *argv, "--format", "json"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"
    code, out = run(capsys, "verify", "--example", "tl", "--m", "5", "--n-max", "3")
    assert code == 0, out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--example", "tl", "--m", "3", "--n-max", "4"), "--n-max 4 needs --m >= 6"),
        (("braid-check", "--action", "tl", "--m", "4", "--n-max", "3"),
         "--n-max 3 needs --m >= 5"),
        (("braid-check", "--action", "tl", "--m", "2"), "--n-max 3 needs --m >= 5"),
        (("braid-check", "--action", "tl", "--m", "1"), "--n-max 3 needs --m >= 5"),
        # sigma_1 alone satisfies no braid relation
        (("braid-check", "--action", "tl", "--m", "2", "--n-max", "0"),
         "--n-max 0 needs --m >= 3"),
        # below its least useful level an action checks nothing: flip and tl
        # check identities at level 0, the other actions from level 1
        (("braid-check", "--action", "ybe-z3", "--n-max", "-5"), "--n-max must be >= 1, got -5"),
        (("braid-check", "--action", "ybe-z3", "--n-max", "0"), "--n-max must be >= 1, got 0"),
        (("braid-check", "--action", "perm-matrix", "--n-max", "0"),
         "--n-max must be >= 1, got 0"),
        (("braid-check", "--action", "burau", "--n-max", "0"), "--n-max must be >= 1, got 0"),
        (("braid-check", "--action", "flip", "--n-max", "-1"), "--n-max must be >= 0, got -1"),
        (("braid-check", "--action", "tl", "--n-max", "-1"), "--n-max must be >= 0, got -1"),
    ],
)
def test_levels_past_the_stabilization_bound_are_a_usage_error(
    capsys, monkeypatch, argv, message
):
    # the level-n cofaces use sigma_{n+1}; past the bound it acts as the
    # identity. Both suites name --m, and braid-check --n-max below the
    # action's least useful level, before they build the action
    monkeypatch.setattr(cosimplex.cli, "_build_action", None)
    assert main([*argv, "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


@pytest.mark.parametrize(
    "action, least, checked",
    [("flip", 0, 24), ("tl", 0, 64), ("ybe-z3", 1, 99), ("perm-matrix", 1, 9), ("burau", 1, 9)],
)
def test_braid_check_at_its_least_n_max_checks_identities(capsys, action, least, checked):
    code, out = run(capsys, "braid-check", "--action", action, "--n-max", str(least), "--format", "json")
    assert code == 0 and json.loads(out)["checked"] == checked


def run_module(argv) -> subprocess.CompletedProcess:
    """`python -m cosimplex` on argv in a fresh interpreter that imports
    this checkout."""
    src = pathlib.Path(cosimplex.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "cosimplex", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    done = run_module(["--list"])
    assert done.returncode == 0, done.stderr
    for name in SUITES:
        assert name in done.stdout


def answer(argv) -> tuple:
    """main's exit status, stdout and stderr on argv, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Requests that read the default lists of OPTIONS after requests that set
# them, a bad request (exit 2 from a runner), bad arguments (exit 2 from
# argparse) and well-formed requests that the reader leaves to argparse.
SEQUENCE = [
    ("tl", "--q", "1/2", "-1", "--m", "4"),
    ("tl", "--m", "4", "--format", "json"),
    ("tl", "--m", "4"),
    ("verify", "--example", "tensor", "--weights", "1/4", "3/4", "--n-max", "2", "--format", "json"),
    ("verify", "--example", "tensor", "--n-max", "2"),
    ("spreadability", "--example", "tensor", "--degree", "2", "--format", "json"),
    ("cohomology", "--n-max", "0"),
    ("ybe", "--strands", "abc"),
    ("braid-check", "--action", "burau", "--n-max", "1", "--format", "json"),
    ("spreadability", "--deg", "2", "--format", "json"),
    ("verify", "--n-max=3"),
    ("tl", "--q", "-1/2", "1", "--m", "4"),
    ("braid-check", "--action", "nope"),
]


def test_one_process_answers_a_sequence_as_fresh_processes_do(monkeypatch):
    # the reader and the one parser of the process share the default lists of
    # OPTIONS, which serve every request after the first; the usage message
    # wraps at the same width
    monkeypatch.setenv("COLUMNS", "80")
    for argv in SEQUENCE:
        alone = run_module(argv)
        assert answer(argv) == (alone.returncode, alone.stdout, alone.stderr), argv
    assert build_parser() is build_parser()
    defaults = {"q": ["2", "0"], "weights": ["1/3", "2/3"]}
    assert vars(build_parser().parse_args(["verify"])).items() >= defaults.items()


USAGE = json.loads((GOLDEN / "help_and_usage.json").read_text())


@pytest.mark.parametrize("case", USAGE, ids=lambda case: " ".join(case["argv"]) or "no suite")
def test_help_and_usage_text_is_pinned(monkeypatch, case):
    # argparse answers help and usage errors, byte for byte at a fixed width
    monkeypatch.setenv("COLUMNS", "80")
    assert answer(case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


def argparse_vars(argv) -> dict | None:
    """vars of argparse's namespace for argv, or None when argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(_shield_negative_values(argv)))
        except SystemExit:
            return None


# Per kind of option: two valid values, each a list of words, and an invalid one.
VALID = {
    "flag": ([], []),
    "size": (["0"], [str(sys.maxsize)]),
    "pair": (["1", "2"], ["1/2", "-3"]),
    "list": (["1"], ["-1/4", "5/4", "-.5", "2"]),
}
INVALID = {"choice": ["nope"], "flag": ["yes"], "size": ["abc"], "pair": ["1", "x"], "list": ["1/0"]}


def request_corpus(suite: str):
    """(argv, whether the reader must read it) for the options of a suite:
    each row with valid values, alone and repeated, and with an invalid value,
    no value, an abbreviated flag and the = form, which the reader leaves to
    argparse, as it leaves every word starting with "-" that is not a flag."""
    yield [suite], True
    for s in (suite, "-h", "--list", "nope"):
        yield [s, "-h"], False
    for words in (["--"], ["-"], ["extra"], ["--list"], ["--n-max", "-1"], ["--m", "-2"]):
        yield [suite, *words], False
    flags = [row[0] for row in OPTIONS[suite]]
    for flag, kind, _, choices in OPTIONS[suite]:
        first, last = ([choices[0]], [choices[-1]]) if kind == "choice" else VALID[kind]
        yield [suite, flag, *last], True
        yield [suite, flag, *first, "--format", "json", flag, *last], True
        yield [suite, flag, *INVALID[kind]], False
        if kind != "flag":
            yield [suite, flag], False
            yield [suite, flag, "--timings"], False
            yield [suite, flag, *last, "x"], False
        if len(flag) > 3 and flag[:-1] not in flags:
            yield [suite, flag[:-1], *last], False
        yield [suite, f"{flag}={(last or ['1'])[0]}", *last[1:]], False


@pytest.mark.parametrize("suite", OPTIONS)
def test_the_reader_returns_what_argparse_returns(suite):
    for argv, read in request_corpus(suite):
        namespace = _read_request(argv)
        assert (namespace is not None) == read, argv
        if read:
            assert vars(namespace) == argparse_vars(argv), argv


def readme_requests() -> list[list[str]]:
    commands = re.findall(r"^cosimplex ([^#\n]*)", (ROOT / "README.md").read_text(), re.M)
    return [shlex.split(command) for command in commands if command.strip() != "--list"]


def test_every_known_request_takes_the_reader(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    bench = [argv for name in workloads.WORKLOADS for argv in workloads.all_requests(name)]
    readme = readme_requests()
    assert len(readme) >= len(README_COMMANDS)
    golden = [list(argv) for argv, _ in README_COMMANDS.values()]
    for argv in bench + readme + golden:
        for request in (argv, [*argv, "--format", "json"]):
            namespace = _read_request(request)
            assert namespace is not None, request
            assert vars(namespace) == argparse_vars(request), request


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


def _verify_examples() -> tuple:
    return next(choices for flag, _, _, choices in OPTIONS["verify"] if flag == "--example")


@pytest.mark.parametrize("example", _verify_examples())
def test_verify_example_elements_are_hashable(monkeypatch, capsys, example):
    # every carrier is compared with == on one canonical form, so every
    # level and augmentation element of each example's SCO hashes
    scos = []
    for module in (simplicial, braid):
        check = module.sco_verify
        monkeypatch.setattr(module, "sco_verify", lambda s, check=check: scos.append(s) or check(s))
    assert main(["verify", "--example", example]) == 0
    assert scos
    for s in scos:
        for x in itertools.chain(s.augmentation or (), *s.levels):
            hash(x)


def recheck_spreadability(report: dict) -> list[tuple[str, str]]:
    """The two sides of each witness, evaluated alone: the word and its image
    under the named skip, in a freshly built model."""
    assert report["config"]["example"] == "broken-table", "no re-check for this model"
    d = ncprob.broken_table()
    sides = []
    for w in report["witnesses"]:
        word = eval(w["word"], {"__builtins__": {}, "Factor": ncprob.Factor})
        k = int(w["reindexing"].removeprefix("skip position "))
        image = tuple(f._replace(pos=simplicial.nat_partial_shift(k, f.pos)) for f in word)
        sides.append((repr(d.eval_word(word)), repr(d.eval_word(image))))
    return sides


# Each suite with an exit-1 golden re-checks its witnesses through its own entry.
RECHECKS = {"spreadability": recheck_spreadability}


@pytest.mark.parametrize(
    "name", sorted(name for name, (_, code) in README_COMMANDS.items() if code == 1)
)
def test_exit_1_golden_witnesses_recheck_on_their_own(name):
    report = json.loads((GOLDEN / f"{name}.json").read_text())
    if report["suite"] not in RECHECKS:
        pytest.fail(f"no witness re-check for an exit-1 golden of suite {report['suite']}")
    recorded = [(w["lhs"], w["rhs"]) for w in report["witnesses"]]
    assert recorded and RECHECKS[report["suite"]](report) == recorded


@pytest.mark.parametrize("strands", ["-1", "0", "1", "2"])
@pytest.mark.parametrize("solution", ["z3", "swap"])
def test_ybe_strands_below_three_is_a_usage_error(capsys, solution, strands):
    # two strands have one generator and no braid relation; -1 used to reach itertools
    assert main(["ybe", "--solution", solution, "--strands", strands, "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --strands must be >= 3, got {strands}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("ybe", "--solution", "z3", "--strands", "45"), "--strands 45 needs 3^45 elements"),
        (("ybe", "--solution", "swap", "--strands", "63"), "--strands 63 needs 2^63 elements"),
        (("braid-check", "--action", "ybe-z3", "--n-max", "60"), "--n-max 60 needs 3^62 elements"),
        (("verify", "--example", "ybe-z3", "--n-max", "60"), "--n-max 60 needs 3^62 elements"),
    ],
)
def test_a_yang_baxter_carrier_past_the_largest_index_is_a_usage_error(argv, message):
    # |Y|^strands > sys.maxsize positions cannot be indexed; the request
    # fails before anything is built (an OverflowError from len, exit 1,
    # when it reached the carrier)
    done = run_module(argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {message}, past the largest index {sys.maxsize}\n"


@pytest.mark.parametrize("dim", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("cohomology", "--action", "trivial"),
        ("verify", "--example", "tensor", "--weights", "1"),
        ("spreadability", "--example", "tensor", "--weights", "1"),
    ],
    ids=["cohomology-trivial", "verify-tensor", "spreadability-tensor"],
)
def test_dim_below_one_is_a_usage_error(capsys, monkeypatch, argv, dim):
    # trivial cohomology would pass on empty matrices at --dim 0 and report
    # dim = -1; the tensor model is not built, so no weight count is named
    monkeypatch.setattr(cosimplex.ncprob, "tensor_sco", None)
    monkeypatch.setattr(cosimplex.ncprob, "tensor_model", None)
    assert main([*argv, "--dim", dim, "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --dim must be >= 1, got {dim}\n"


SIZE_FLAGS = [
    ("verify", "--n-max"), ("verify", "--dim"), ("verify", "--m"),
    ("spreadability", "--degree"), ("spreadability", "--pos-bound"),
    ("spreadability", "--dim"), ("spreadability", "--m"), ("spreadability", "--m0"),
    ("cohomology", "--n-max"), ("cohomology", "--dim"),
    ("braid-check", "--n-max"), ("braid-check", "--big-n"), ("braid-check", "--m"),
    ("ybe", "--strands"), ("tl", "--m"),
]
HUGE = str(10**20)


@pytest.mark.parametrize("value", [HUGE, f"-{HUGE}"])
@pytest.mark.parametrize("suite, flag", SIZE_FLAGS)
def test_size_flags_past_sys_maxsize_are_rejected_by_name(capsys, suite, flag, value):
    # parsed only, never run: with the check lost, --n-max and --degree at
    # such values would run without bound
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([suite, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {value} is out of range" in capsys.readouterr().err
    dest = flag.lstrip("-").replace("-", "_")
    for size in (sys.maxsize, -sys.maxsize):
        assert getattr(build_parser().parse_args([suite, flag, str(size)]), dest) == size


@pytest.mark.parametrize(
    "argv",
    [["ybe", "--strands", HUGE], ["tl", "--m", HUGE], ["cohomology", "--n-max", f"-{HUGE}"]],
)
def test_huge_sizes_exit_2_without_a_traceback(capsys, argv):
    # each of these once exited 1 with an OverflowError traceback
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"argument {argv[1]}: " in err


def test_size_flags_name_a_value_that_is_not_an_int(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ybe", "--strands", "abc"])
    assert exc.value.code == 2
    assert "argument --strands: invalid int value: 'abc'" in capsys.readouterr().err


def test_braid_check_flip(capsys):
    code, out = run(
        capsys, "braid-check", "--action", "flip", "--n-max", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("m", ["1", "0", "-1"])
def test_tl_m_below_one_is_a_usage_error(capsys, monkeypatch, m):
    # checked by flag name before any element is built; one strand carries
    # no generator, so --m 1 has no relation to check either
    monkeypatch.setattr(cosimplex.tl, "relation_report", None)
    assert main(["tl", "--m", m, "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --m must be >= 2, got {m}\n"


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
