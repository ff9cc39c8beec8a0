"""Comparison of operation outputs against precomputed oracles.

The worker imports this module, so it needs numpy only; the oracles
themselves come from :mod:`oracles` in the parent process.  Each check
returns True when the output is within the tolerance stated next to it.
Outputs are read by duck typing (``min_deg``/``coeffs`` on series,
``coeffs`` on polynomials), so nothing here imports the package under test.
"""

from __future__ import annotations

import re

import numpy as np

# Component values: |got - want| <= COMPONENT_TOL * max(1, sum of |terms|).
# The sum of absolute terms is the condition scale of the series; closed
# forms lose ~n * eps * max|f| and Horner ~degree * eps * scale, both far
# below 1e-12 on these inputs.
COMPONENT_TOL = 1e-12
# Assembled circulant: entries are one complex product each, so a few ulps.
CIRCULANT_TOL = 4 * np.finfo(float).eps
# Determinants: relative agreement with the FFT eigenvalue product, the same
# gate the package uses for spectral vs LU.
DET_TOL = 1e-9
# Sylvester matrix: each entry is one root of unity over sqrt(n).
SYLVESTER_TOL = 1e-14
# Matrix exponential: max entry gap <= 1e-10 * max(1, max |expm entry|), the
# package's own identity tolerance scaled to the entry size.
EXPM_TOL = 1e-10
# Series products: 1e-12 times the convolution of absolute coefficients.
PRODUCT_TOL = 1e-12
# Sums and termwise derivatives: one rounding per coefficient.
TERMWISE_TOL = 1e-14
# Deformed derivatives at sample points: 1e-10 * max(1, sum of |terms|).
DEFORMED_TOL = 1e-10
# Deformed exponential components: relative 1e-12 per coefficient
# (cumulative q-factorials lose ~degree * eps).
PSI_FAMILY_TOL = 1e-12
# Laguerre family and its lowering, translation coefficients:
# 1e-10 * max(1, scale of the polynomial).
POLY_TOL = 1e-10
# Printed CLI values are rounded to 17 significant digits.
CLI_TOL = 1e-12


class Failed:
    """Output placeholder for an operation that raised."""

    def __init__(self, error: str):
        self.error = error

    def __repr__(self) -> str:
        return f"Failed({self.error})"


def twisted_circulant(comps, alpha) -> np.ndarray:
    """Entry (i, j) is comps[(j - i) mod n], times alpha below the diagonal."""
    v = np.asarray(comps, dtype=complex)
    n = len(v)
    i, j = np.indices((n, n))
    m = v[(j - i) % n]
    m[j < i] *= alpha
    return m


def _series_array(min_deg: int, coeffs, lo: int, hi: int) -> np.ndarray:
    out = np.zeros(hi - lo + 1, dtype=complex)
    c = np.asarray(coeffs, dtype=complex)
    out[min_deg - lo:min_deg - lo + len(c)] = c
    return out


def series_gap(got_min: int, got, want_min: int, want) -> float:
    """Max coefficient gap over the union of two windows."""
    lo = min(got_min, want_min)
    hi = max(got_min + len(got), want_min + len(want)) - 1
    return float(np.max(np.abs(_series_array(got_min, got, lo, hi)
                               - _series_array(want_min, want, lo, hi))))


def horner(min_deg: int, coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc * z ** min_deg


def _components_ok(values, want) -> bool:
    if len(values) != len(want):
        return False
    return all(abs(complex(v) - w) <= COMPONENT_TOL * max(1.0, scale)
               for v, (w, scale) in zip(values, want))


def _poly_ok(coeffs, want, scale) -> bool:
    return series_gap(0, coeffs, 0, want) <= POLY_TOL * max(1.0, scale)


def _matrix_gap(got, want) -> float:
    got = np.asarray(got)
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want)))


def _cli_values(stdout: str, names) -> dict:
    found = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(":")
        if key.strip() in names:
            found[key.strip()] = complex(rest.split()[0].replace("i", "j"))
    return found


_TALLY = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_cli(out, want) -> bool:
    rc, stdout = out
    if rc != 0:
        return False
    lines = stdout.strip().splitlines()
    kind = want["check"]
    if kind == "verify":
        # Exit 0, "k/k checks passed" with k >= 1, and no FAIL line.
        m = _TALLY.match(lines[-1]) if lines else None
        return (m is not None and m.group(1) == m.group(2) and int(m.group(2)) > 0
                and not any(line.startswith("[FAIL]") for line in lines))
    if kind == "decompose":
        # Every coefficient printed once, under its class, within CLI_TOL.
        if lines[-1] != "re-verification: ok":
            return False
        seen = {}
        comp = None
        for line in lines:
            head = re.match(r"^component (\d+) ", line)
            if head:
                comp = int(head.group(1))
            term = re.match(r"^\s+deg (-?\d+): (\S+)$", line)
            if term:
                d = int(term.group(1))
                if comp != d % want["n"] or d in seen:
                    return False
                seen[d] = complex(term.group(2).replace("i", "j"))
        expected = want["coeffs"]
        return (set(seen) == set(expected)
                and all(abs(seen[d] - w) <= CLI_TOL * abs(w) for d, w in expected.items()))
    if kind == "eval":
        vals = _cli_values(stdout, ("series", "closed"))
        w, scale = want["value"]
        return (set(vals) == {"series", "closed"}
                and all(abs(v - w) <= CLI_TOL * max(1.0, scale) for v in vals.values()))
    if kind == "det":
        vals = _cli_values(stdout, ("spectral", "direct"))
        w = want["value"]
        return (set(vals) == {"spectral", "direct"} and lines[-1].endswith(" PASS")
                and all(abs(v - w) <= CLI_TOL * max(1.0, abs(w)) for v in vals.values()))
    raise ValueError(f"unknown CLI check {kind!r}")


def check(kind: str, out, want) -> bool:
    """True when the output of one operation of this kind matches its oracle."""
    if isinstance(out, Failed):
        return False
    if kind == "cli":
        return check_cli(out, want)
    if kind in ("exp", "pointwise", "geo", "laurent"):
        return _components_ok(out, want)
    if kind == "circulant":
        return _matrix_gap(out, want) <= CIRCULANT_TOL * max(1.0, float(np.max(np.abs(want))))
    if kind in ("det_direct", "det_spectral"):
        return abs(complex(out) - want) <= DET_TOL * max(1.0, abs(want))
    if kind == "sylvester":
        return _matrix_gap(out, want) <= SYLVESTER_TOL
    if kind == "demoivre":
        return _matrix_gap(out, want) <= EXPM_TOL * max(1.0, float(np.max(np.abs(want))))
    if kind == "mul":
        coeffs, scale = want
        if out.min_deg != 0 or len(out.coeffs) != len(coeffs):
            return False
        gap = np.abs(np.asarray(out.coeffs) - coeffs)
        return bool(np.all(gap <= PRODUCT_TOL * np.maximum(1.0, scale)))
    if kind in ("add", "derivative"):
        min_deg, coeffs = want
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        return series_gap(out.min_deg, out.coeffs, min_deg, coeffs) <= TERMWISE_TOL * scale
    if kind in ("jackson", "psi_derivative"):
        return all(abs(horner(out.min_deg, out.coeffs, z) - w) <= DEFORMED_TOL * max(1.0, scale)
                   for z, w, scale in want)
    if kind == "psi_family":
        if len(out.components) != len(want):
            return False
        for comp, coeffs in zip(out.components, want):
            if comp.min_deg != 0 or len(comp.coeffs) != len(coeffs):
                return False
            gap = np.abs(np.asarray(comp.coeffs) - coeffs)
            if not np.all(gap <= PSI_FAMILY_TOL * np.abs(coeffs)):
                return False
        return True
    if kind == "laguerre":
        family, lowered = out
        want_family, want_lowered = want
        return (len(family) == len(want_family) and len(lowered) == len(want_lowered)
                and all(_poly_ok(p.coeffs, w, float(np.max(np.abs(w))))
                        for p, w in zip(family + lowered, want_family + want_lowered)))
    if kind == "translation":
        coeffs, scale = want
        return _poly_ok(out.coeffs, coeffs, scale)
    if kind == "qpsi_checks":
        # Self-checked, not against an independent oracle: every report of
        # the battery must pass by its own residual and tolerance.  The
        # functions it calls are checked independently by the other jobs.
        return len(out) > 0 and all(r.passed for r in out)
    raise ValueError(f"unknown job kind {kind!r}")
