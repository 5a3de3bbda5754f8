"""Structured pass/fail reports shared by the verification suites and the CLI."""

from __future__ import annotations

from itertools import islice

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped-degenerate"


class Check:
    def __init__(self, id: str, statement: str, status: str, detail: str = ""):
        self.id, self.statement, self.status, self.detail = id, statement, status, detail

    def as_dict(self):
        return {"id": self.id, "statement": self.statement,
                "status": self.status, "detail": self.detail}


class VerificationReport:
    """One suite's worth of named checks at fixed parameters."""

    def __init__(self, suite: str, params: dict | None = None):
        self.suite = suite
        self.params = {} if params is None else params
        self.checks = []

    def add(self, check_id: str, statement: str, ok: bool, detail: str = ""):
        self.checks.append(Check(check_id, statement, PASS if ok else FAIL, detail))
        return ok

    def add_grid(self, check_id: str, statement: str, residual, axes: str = "(m, n)"):
        """Pass iff the residual matrix is zero: every identity stated as a
        residual matrix is decided here.

        A failure lists its first four nonzero points, row by row, under
        the axis names ``axes``, as in "failing (m, n): [(0, 1), (2, 2)]";
        they are read off the integer form, so no entry is written out.
        """
        bad = list(islice(residual.nonzeros(), 4))
        return self.add(check_id, statement, not bad, "" if not bad else f"failing {axes}: {bad}")

    def add_skipped(self, check_id: str, statement: str, detail: str = ""):
        self.checks.append(Check(check_id, statement, SKIPPED, detail))

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if c.status == FAIL]

    def as_dict(self):
        return {
            "suite": self.suite,
            "params": dict(sorted(self.params.items())),
            "checks": [c.as_dict() for c in sorted(self.checks, key=lambda c: c.id)],
        }
