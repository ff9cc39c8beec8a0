"""Pass/fail records for numerical identity checks, and their text, JSON and CSV views."""

from __future__ import annotations

import cmath
from collections.abc import Iterable

from .series import _csv_line, _fmt, _pair

__all__ = ["IdentityReport", "relative_residual", "all_pass", "reports_to_json",
           "reports_to_csv"]


def relative_residual(value: complex, ref: complex) -> float:
    """|value - ref| / max(1, |ref|): absolute while |ref| <= 1, relative above.

    A non-finite operand raises OverflowError: its residual, inf or nan,
    could neither pass nor fail a check."""
    if not (cmath.isfinite(value) and cmath.isfinite(ref)):
        raise OverflowError(f"residual of {value} against {ref} is not finite")
    return abs(value - ref) / max(1.0, abs(ref))


class IdentityReport:
    """One numerical check: residual against tolerance.

    expect "le" passes when residual <= tolerance.  expect "gt" marks a
    negative control, a check that a residual genuinely exceeds a threshold
    (an identity known to break), and passes when residual > tolerance.
    """

    __slots__ = ("identity", "params", "residual", "tolerance", "expect")

    def __init__(self, identity: str, params: dict | None = None, residual: float = 0.0,
                 tolerance: float = 0.0, expect: str = "le"):
        if expect not in ("le", "gt"):
            raise ValueError(f"expect must be 'le' or 'gt', got {expect!r}")
        self.identity, self.params = identity, {} if params is None else params
        self.residual, self.tolerance, self.expect = residual, tolerance, expect

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"IdentityReport({fields})"

    @property
    def passed(self) -> bool:
        if self.expect == "le":
            return self.residual <= self.tolerance
        return self.residual > self.tolerance

    def with_tolerance(self, tol: float) -> IdentityReport:
        return IdentityReport(self.identity, self.params, self.residual, float(tol), self.expect)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": {k: _pair(v) if isinstance(v, complex) else v
                       for k, v in self.params.items()},
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "expect": self.expect,
        }


def all_pass(reports: Iterable[IdentityReport]) -> bool:
    return all(r.passed for r in reports)


def reports_to_json(reports: Iterable[IdentityReport]) -> list[dict]:
    return [r.to_dict() for r in reports]


def reports_to_csv(reports: Iterable[IdentityReport]) -> str:
    """One CSV line per report; no field needs quoting, as an identity is a lowercase name."""
    lines = ["identity,n,alpha_re,alpha_im,residual,pass"]
    for r in reports:
        alpha = r.params.get("alpha")
        re_im = (alpha,) if isinstance(alpha, complex) else ("", "")
        lines.append(_csv_line(r.identity, r.params.get("n", ""), *re_im, r.residual, r.passed))
    return "\n".join(lines) + "\n"


def _report_lines(reports: list[IdentityReport]) -> list[str]:
    """The text view: one [PASS] or [FAIL] line per report, then the count that passed."""
    out = []
    for r in reports:
        mark = "PASS" if r.passed else "FAIL"
        rel = "<=" if r.expect == "le" else ">"
        out.append(f"[{mark}] {r.identity}: residual {_fmt(r.residual)} "
                   f"(want {rel} {_fmt(r.tolerance)})")
    npass = sum(1 for r in reports if r.passed)
    out.append(f"{npass}/{len(reports)} checks passed")
    return out
