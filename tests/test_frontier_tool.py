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
