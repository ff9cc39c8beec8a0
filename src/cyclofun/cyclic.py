"""Cyclic-group projection of series into residue classes of degrees.

Fixing n >= 2 and a complex weight alpha, a series splits into n components:
component k keeps the degrees congruent to k mod n, and the coefficient at
degree n*m + k is additionally weighted by alpha**m.  The same split has a
pointwise form, an average of the function over argument rotations by the
n-th roots of unity scaled by a chosen n-th root of alpha.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .series import TruncatedSeries, _ipow

__all__ = [
    "CyclicContext",
    "AlphaRoot",
    "make_context",
    "alpha_root",
    "project_series",
    "project_pointwise",
    "omega_scale",
]


class CyclicContext:
    """Order n with the primitive root of unity omega = exp(2 pi i / n).

    The power table is computed entry by entry with exp, so every entry is
    unimodular to machine precision and omega_power(n) is exactly 1.
    """

    __slots__ = ("n", "omega_pow")

    def __init__(self, n: int):
        n = int(n)
        if n < 2:
            raise ValueError(f"cyclic order must be at least 2, got {n}")
        self.n = n
        self.omega_pow = tuple(cmath.exp(2j * math.pi * k / n) for k in range(n))

    def omega_power(self, k: int) -> complex:
        """omega**k for any integer k, reduced mod n through the table."""
        return self.omega_pow[k % self.n]

    def __repr__(self) -> str:
        return f"CyclicContext(n={self.n})"


def make_context(n: int) -> CyclicContext:
    return CyclicContext(n)


@dataclass(frozen=True)
class AlphaRoot:
    """A chosen n-th root of alpha: principal root times omega**branch."""

    alpha: complex
    root: complex
    n: int
    branch: int = 0


def alpha_root(alpha: complex, n: int, branch: int = 0) -> AlphaRoot:
    """Pick the n-th root of alpha on the given branch.

    The principal root has argument in (-pi/n, pi/n]; branch b rotates it by
    omega**b.  alpha = 0 maps to root 0 (components then follow the sieve
    rule, where only the m = 0 term of each residue class survives).
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"cyclic order must be at least 2, got {n}")
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("alpha must be finite")
    branch = int(branch) % n
    if alpha == 0:
        return AlphaRoot(alpha, 0j, n, branch)
    principal = abs(alpha) ** (1.0 / n) * cmath.exp(1j * cmath.phase(alpha) / n)
    root = principal * cmath.exp(2j * math.pi * branch / n)
    return AlphaRoot(alpha, root, n, branch)


def _class_weight(alpha: complex, m: int) -> complex:
    # alpha = 0 sieve rule: 0**0 = 1 and every other class power vanishes.
    if alpha == 0:
        return 1 + 0j if m == 0 else 0j
    return _ipow(alpha, m)


def project_series(s: TruncatedSeries, ctx: CyclicContext, k: int,
                   a: AlphaRoot) -> TruncatedSeries:
    """Coefficient-sieve projection onto the degree class k mod n.

    The result keeps the input window; the coefficient at degree n*m + k is
    alpha**m times the input coefficient, and all other degrees are zero.
    Component k at z is r**-k times the class sum at r z, so its radius is the
    input radius over |r|; at alpha = 0 each class keeps one term and is entire.
    """
    if a.n != ctx.n:
        raise ValueError(f"root order {a.n} does not match context order {ctx.n}")
    n = ctx.n
    k = int(k) % n
    # Degrees n*m + k sit at offsets first, first + n, ...; the first has m = m0.
    first = (k - s.min_deg) % n
    m0 = (s.min_deg + first - k) // n
    kept = s.coeffs[first::n]
    # A zero stays itself: alpha**m may overflow where the coefficient is 0.
    sieved = [_class_weight(a.alpha, m) * c if c else c for m, c in enumerate(kept, m0)]
    out = [0j] * len(s.coeffs)
    out[first::n] = sieved
    radius = s.radius / abs(a.root) if a.alpha else math.inf
    # A weight that underflows drops a term that a wider disk would expose.
    if a.alpha and any(abs(v) < sys.float_info.min <= abs(c) for v, c in zip(sieved, kept)):
        radius = min(radius, s.radius)
    return TruncatedSeries(s.min_deg, out, label=s.label, radius=radius)


def project_pointwise(f: Callable[[complex], complex], ctx: CyclicContext,
                      k: int, a: AlphaRoot, z: complex) -> complex:
    """Pointwise projection (1/n) r**-k sum_j omega**(-j k) f(omega**j r z).

    r is the chosen root of alpha; the prefactor uses the same root as the
    argument scaling, which makes the value independent of the branch.
    """
    if a.n != ctx.n:
        raise ValueError(f"root order {a.n} does not match context order {ctx.n}")
    if a.alpha == 0:
        raise ValueError("alpha = 0 has no pointwise form; use project_series")
    n = ctx.n
    k = int(k) % n
    z = complex(z)
    acc = 0j
    for j in range(n):
        acc += ctx.omega_pow[(-j * k) % n] * f(ctx.omega_pow[j] * a.root * z)
    return acc / n * _ipow(a.root, -k)


def omega_scale(s: TruncatedSeries, ctx: CyclicContext) -> TruncatedSeries:
    """Series of f(omega z), computed through the exact power table.

    Degree classes rotate exactly: a coefficient at degree d picks up the
    table entry omega**(d mod n), so projections are exact eigenvectors.
    """
    out = tuple(c * ctx.omega_pow[d % ctx.n]
                for d, c in zip(s.degrees(), s.coeffs))
    return TruncatedSeries(s.min_deg, out, label=s.label, radius=s.radius)
