"""The check runner: single identities, blocks of identities and the count."""

from cosimplex.reports import run_checks

BAD = ("identity fails", {"at": 7})


def test_blocks_of_zero_count_nothing():
    assert run_checks([]).to_json() == run_checks([0, 0]).to_json()
    rep = run_checks([0, 0, 0])
    assert (rep.status, rep.checked_count, rep.witness) == ("pass", 0, None)


def test_a_pass_sums_blocks_and_single_identities():
    rep = run_checks([3, None, 0, 5, None, None], exhaustive=False)
    assert (rep.status, rep.checked_count, rep.mode) == ("pass", 11, "sampled")
    assert rep.to_json() == run_checks([None] * 11, exhaustive=False).to_json()


def test_a_failure_after_blocks_counts_them_and_the_failing_identity():
    rep = run_checks(iter([4, None, 0, 10, None, BAD, 100, None]))
    assert (rep.status, rep.checked_count) == ("fail", 17)
    assert rep.witness.to_json() == {"description": "identity fails", "at": 7}
    # the same as handing over every identity one at a time
    singles = [None] * 16 + [BAD] + [None] * 101
    assert rep.to_json() == run_checks(singles).to_json()


def test_the_runner_stops_at_the_first_failure():
    def items():
        yield 2
        yield BAD
        raise AssertionError("read past the first failure")

    assert run_checks(items()).checked_count == 3
