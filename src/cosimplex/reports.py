"""Verification reports shared by all checking suites.

A report records a pass/fail verdict, how many individual identities were
checked, which checking mode was used (exhaustive over a finite basis, or
sampled), and on failure the first counterexample in deterministic order.
Reports serialize to the JSON shape consumed by the CLI.

Checks hand their identities to `run_checks` one at a time, or, where a
whole family is decided at once (two composed position tables compared with
one `==`), as a block: an int counting the identities that hold.

A failed check is a report: a verifier returns it, and a construction that
relies on a check raises VerificationError(report) through `require`. A bad
request raises ValueError instead, before any identity is checked.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Optional, Union


@dataclasses.dataclass(frozen=True)
class Witness:
    description: str
    data: dict

    def to_json(self) -> dict:
        return {"description": self.description, **_jsonable(self.data)}


@dataclasses.dataclass(frozen=True)
class CheckReport:
    status: str  # "pass" | "fail"
    checked_count: int
    mode: str = "exhaustive"  # "exhaustive" | "sampled"
    witness: Optional[Witness] = None
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "status": self.status,
            "checked_count": self.checked_count,
            "mode": self.mode,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def run_checks(
    results: Iterable[Union[None, int, tuple[str, dict]]],
    exhaustive: bool = True,
    notes: tuple[str, ...] = (),
) -> CheckReport:
    """Count the identities in `results` and stop at the first that fails.

    The report's mode is "exhaustive" when the identities cover a finite
    basis and "sampled" when they cover a sample (exhaustive=False).

    An item is None for one identity that holds, an int k >= 0 for a block
    of k identities that hold (a family checked as a whole), or a
    (description, data) pair for the counterexample of one identity that
    does not. The report's count includes every earlier block and the
    failing identity.
    """
    mode = "exhaustive" if exhaustive else "sampled"
    checked = blocks = 0
    for checked, bad in enumerate(results, 1):
        if bad is not None:
            if isinstance(bad, int):
                blocks += bad - 1
                continue
            return CheckReport("fail", checked + blocks, mode, Witness(*bad), notes)
    return CheckReport("pass", checked + blocks, mode, None, notes)


class VerificationError(Exception):
    """A check that a construction relies on failed; `report` holds its witness."""

    def __init__(self, report: CheckReport):
        super().__init__(f"verification failed: {report.to_json()}")
        self.report = report


def require(report: CheckReport) -> CheckReport:
    """Return a passing report; raise VerificationError(report) otherwise."""
    if not report.passed:
        raise VerificationError(report)
    return report


def _jsonable(data: dict) -> dict:
    return {k: repr(v) if not isinstance(v, (int, str, bool, type(None))) else v for k, v in data.items()}
