"""Verification reports shared by all checking suites.

A report records a pass/fail verdict, how many individual identities were
checked, which checking mode was used (exhaustive over a finite basis, or
sampled), and on failure the first counterexample in deterministic order.
Reports serialize to the JSON shape consumed by the CLI.

A failed check is a report: a verifier returns it, and a construction that
relies on a check raises VerificationError(report) through `require`. A bad
request raises ValueError instead, before any identity is checked.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Optional


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
    results: Iterable[Optional[tuple[str, dict]]],
    mode: str = "exhaustive",
    notes: tuple[str, ...] = (),
) -> CheckReport:
    """Count the identities in `results` and stop at the first that fails.

    Each item stands for one identity: None when it holds, or a
    (description, data) pair for the counterexample when it does not. The
    report's count includes the failing identity.
    """
    checked = 0
    for checked, bad in enumerate(results, 1):
        if bad is not None:
            return CheckReport("fail", checked, mode, Witness(*bad), notes)
    return CheckReport("pass", checked, mode, None, notes)


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
