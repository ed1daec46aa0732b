"""tools/frontier.py: one smoke run of a small request in a fresh interpreter."""

import pathlib
import re
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "frontier.py"


def test_frontier_prints_one_row_per_request_it_keeps():
    argv = ["--runs", "1", "--filter", "strands 3",
            "ybe --solution z3 --strands 3", "ybe --solution z3 --strands 9"]
    done = subprocess.run(
        [sys.executable, str(TOOL), *argv], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["checked", "main_s", "process_s", "request"]
    # the filter drops the 9-strand request; the 3-strand one checks the 27
    # triples twice: the Yang-Baxter equation, then the braid relations
    [row] = rows
    checked, main_s, process_s, request = re.fullmatch(
        r" *([\d,]+) +(\d+\.\d{4}) +(\d+\.\d{4})  (.+)", row
    ).groups()
    assert (checked, request) == ("54", "ybe --solution z3 --strands 3")
    assert 0 < float(main_s) < float(process_s)


def _frontier(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, str(TOOL), *argv], capture_output=True, text=True, timeout=120, cwd=cwd
    )


def test_frontier_against_a_checkout_prints_both_medians():
    done = _frontier("--runs", "2", "--against", ".", "ybe --solution z3 --strands 3",
                     cwd=TOOL.parent.parent)
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.splitlines()
    assert header.split() == [
        "checked", "against_main_s", "main_s", "against_process_s", "process_s", "request"
    ]
    checked, *seconds, request = re.fullmatch(
        r" *([\d,]+)" + r" +(\d+\.\d{4})" * 4 + "  (.+)", row
    ).groups()
    assert (checked, request) == ("54", "ybe --solution z3 --strands 3")
    against_main, main, against_process, process = map(float, seconds)
    assert 0 < against_main < against_process and 0 < main < process


def test_frontier_fails_when_the_two_sides_check_different_counts(tmp_path):
    # a stand-in package whose every request reports one check
    package = tmp_path / "src" / "cosimplex"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import json\n\ndef main(argv):\n    print(json.dumps({'checked': 1}))\n    return 0\n"
    )
    done = _frontier("--runs", "1", "--against", str(tmp_path), "ybe --solution z3 --strands 3")
    assert done.returncode == 1
    assert done.stderr == f"ybe --solution z3 --strands 3: {tmp_path} checks 1, this checkout 54\n"
    [row] = done.stdout.splitlines()[1:]
    assert row.endswith("  ybe --solution z3 --strands 3")


def test_frontier_against_needs_a_checkout():
    done = _frontier("--against", str(TOOL.parent), "ybe --solution z3 --strands 3")
    assert done.returncode == 2 and "no src/cosimplex there" in done.stderr
