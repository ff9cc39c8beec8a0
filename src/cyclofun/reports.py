"""Pass/fail records for numerical identity checks."""

from __future__ import annotations

import cmath
import io
from collections.abc import Iterable

from .series import _pair

__all__ = ["IdentityReport", "relative_residual", "all_pass", "reports_to_json",
           "reports_to_csv"]


def _plain(value):
    """Rewrite params into JSON-friendly primitives (complex -> [re, im])."""
    if isinstance(value, complex):
        return _pair(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


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
            "params": _plain(self.params),
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
    """Delimited view with the fixed column set used by the CLI."""
    import csv  # deferred: only --format csv writes one

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["identity", "n", "alpha_re", "alpha_im", "residual", "pass"])
    for r in reports:
        n = r.params.get("n", "")
        alpha = r.params.get("alpha", "")
        if isinstance(alpha, complex):
            a_re, a_im = f"{alpha.real:.17g}", f"{alpha.imag:.17g}"
        else:
            a_re, a_im = "", ""
        writer.writerow([r.identity, n, a_re, a_im,
                         f"{r.residual:.17g}", "true" if r.passed else "false"])
    return buf.getvalue()
