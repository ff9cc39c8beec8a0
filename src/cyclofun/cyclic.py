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
from collections import namedtuple
from collections.abc import Callable

from .series import TruncatedSeries, _checked, _Coeffs, _finite, _ipow, _scaled_radius

__all__ = [
    "CyclicContext",
    "AlphaRoot",
    "make_context",
    "alpha_root",
    "project_series",
    "project_pointwise",
]


def _order(n: int) -> int:
    """n as an int, checked to be a cyclic order: at least 2."""
    n = int(n)
    if n < 2:
        raise ValueError(f"cyclic order must be at least 2, got {n}")
    return n


def _check_root(a: AlphaRoot, n: int) -> None:
    """A root of alpha serves only the order it was taken for."""
    if a.n != n:
        raise ValueError(f"root order {a.n} does not match context order {n}")


class CyclicContext:
    """Order n with the primitive root of unity omega = exp(2 pi i / n).

    The power table is computed entry by entry with exp, so every entry is
    unimodular to machine precision and omega**0 is exactly 1.
    """

    __slots__ = ("n", "omega_pow")

    def __init__(self, n: int):
        self.n = n = _order(n)
        self.omega_pow = tuple(cmath.exp(2j * math.pi * k / n) for k in range(n))

    def __repr__(self) -> str:
        return f"CyclicContext(n={self.n})"


def make_context(n: int) -> CyclicContext:
    return CyclicContext(n)


class AlphaRoot(namedtuple("AlphaRoot", "alpha root n branch", defaults=(0,))):
    """A chosen n-th root of alpha: principal root times omega**branch."""

    __slots__ = ()


def alpha_root(alpha: complex, n: int, branch: int = 0) -> AlphaRoot:
    """Pick the n-th root of alpha on the given branch.

    The principal root has argument in (-pi/n, pi/n]; branch b rotates it by
    omega**b.  alpha = 0 maps to root 0 (components then follow the sieve
    rule, where only the m = 0 term of each residue class survives).
    """
    n = _order(n)
    alpha = _checked(alpha, "alpha")
    branch = int(branch) % n
    if alpha == 0:
        return AlphaRoot(alpha, 0j, n, branch)
    principal = abs(alpha) ** (1.0 / n) * cmath.exp(1j * math.atan2(alpha.imag, alpha.real) / n)
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
    _check_root(a, ctx.n)
    n = ctx.n
    k = int(k) % n
    # Degrees n*m + k sit at offsets first, first + n, ...; the first has m = m0.
    first = (k - s.min_deg) % n
    m0 = (s.min_deg + first - k) // n
    kept, alpha = s.coeffs[first::n], a.alpha
    # A zero stays itself: alpha**m may overflow there.  For alpha != 0 and m >= 0,
    # _class_weight(alpha, m) is alpha ** m.
    if alpha and m0 >= 0:
        sieved = [alpha ** m * c if c else c for m, c in enumerate(kept, m0)]
    else:
        sieved = [_class_weight(alpha, m) * c if c else c for m, c in enumerate(kept, m0)]
    if not all(map(cmath.isfinite, sieved)):  # an overflow: _finite names its degree
        _finite(sieved, s.min_deg + first, n)
    out = [0j] * len(s.coeffs)
    out[first::n] = sieved
    radius = _scaled_radius(s.radius, a.root, kept, sieved) if alpha else math.inf
    # Only the sieved entries are new; the rest of the window is zeros.
    return TruncatedSeries(s.min_deg, _Coeffs(out), label=s.label, radius=radius, _stride=(n, k))


def project_pointwise(f: Callable[[complex], complex], ctx: CyclicContext,
                      k: int, a: AlphaRoot, z: complex) -> complex:
    """Pointwise projection (1/n) r**-k sum_j omega**(-j k) f(omega**j r z).

    r is the chosen root of alpha; the prefactor uses the same root as the
    argument scaling, which makes the value independent of the branch.
    """
    _check_root(a, ctx.n)
    if a.alpha == 0:
        raise ValueError("alpha = 0 has no pointwise form; use project_series")
    n, omega, root = ctx.n, ctx.omega_pow, a.root
    k = int(k) % n
    z = complex(z)
    acc = 0j
    for j, u in enumerate(omega):
        acc += omega[(-j * k) % n] * f(u * root * z)
    return acc / n * _ipow(root, -k)

