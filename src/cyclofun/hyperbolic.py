"""Higher-order hyperbolic families: cyclic components of the exponential.

Component s of order n with weight alpha is the series
sum_m alpha**m z**(n m + s) / (n m + s)!, the degree-class sieve of exp.
At n = 2 these are cosh and sinh for alpha = 1, and cos and sin for
alpha = -1.  The geometric counterpart sieves 1/(1-z) instead.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable

from .cyclic import AlphaRoot, CyclicContext, _check_root, make_context, project_series
from .series import (DEFAULT_TRUNCATION, GEOMETRIC_MAX_ABS_ARG, DomainError,
                     TruncatedSeries, series_exp)

if TYPE_CHECKING:  # annotations only; functions import numpy where they use it
    import numpy as np

__all__ = [
    "HyperbolicFamily",
    "build_family",
    "h_eval",
    "g_eval",
    "laurent_component",
]


@dataclass(frozen=True)
class HyperbolicFamily:
    """The n component series plus the data needed for closed-form evaluation.

    base is the scalar function whose sieve the components are; it feeds the
    closed-form path.  cmath.exp (the classical family) is applied as np.exp
    to all n rotated arguments in one call, any other callable (a series'
    evaluate) to one argument at a time.
    """

    ctx: CyclicContext
    root: AlphaRoot
    components: tuple[TruncatedSeries, ...]
    base: Callable[[complex], complex] = field(compare=False)
    # Closed-route rows by point, {z: [h_s(z), or the float rounding bound that
    # refuses it, for each s]} or {z: the point's OverflowError}: one batch's
    # rows, settled in full and swapped in by one assignment, so a shared family
    # never pairs a point with another point's values.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _kernel(self) -> tuple[np.ndarray, np.ndarray, list[float]] | None:
        """The closed form's rotated roots omega**k r, weights r**-s / n and
        rounding factors |r|**-s, built at the first closed-route call; None
        when alpha = 0."""
        if self.root.alpha == 0:
            return None
        import numpy as np

        n, r = self.ctx.n, self.root.root
        # Weights past double range (|alpha| near the underflow limit) turn
        # into a closed-form OverflowError when used.  A factor takes Python's
        # pow(|r|, -s) as a numpy scalar: inf, not OverflowError, past that range.
        with np.errstate(all="ignore"):
            weights = np.power(r, -np.arange(n)) / n
            factors = [float(np.float64(abs(r)) ** -s) for s in range(n)]
        return np.array(self.ctx.omega_pow) * r, weights, factors


@lru_cache(maxsize=128)
def build_family(n: int, a: AlphaRoot, trunc: int = DEFAULT_TRUNCATION) -> HyperbolicFamily:
    """Sieve the exponential series into its n weighted components."""
    ctx = make_context(n)
    _check_root(a, ctx.n)
    base = series_exp(trunc)
    comps = tuple(laurent_component(base, ctx, a, s) for s in range(ctx.n))
    return HyperbolicFamily(ctx, a, comps, base=cmath.exp)


def h_eval(fam: HyperbolicFamily, s: int, z: complex, method: str = "series") -> complex:
    """Evaluate component s at z.

    method "series" runs Horner on the stored window, inside the component's
    radius; "closed", which no radius bounds, averages the base function over
    root-of-unity rotations of the scaled argument (alpha != 0 needed), makes
    all n components at once and keeps them while z is in the family's last
    batch of points (_closed_components; a point outside it is a batch of one).
    It raises DomainError when its rounding bound, eps max|f| |r|**-s (the
    weight-scaled transform error), exceeds 1e-9 max(1, |h_s|): a read returns
    or refuses what its batch settled once for the whole row.
    """
    s = int(s) % fam.ctx.n
    z = complex(z)
    if method == "series":
        return fam.components[s].evaluate(z)
    if method != "closed":
        raise ValueError(f"unknown method {method!r}")
    if fam._kernel is None:
        raise ValueError("closed form needs alpha != 0; use the series method")
    row = fam._memo.get(z) or _closed_components(fam, [z])[z]
    if isinstance(row, Exception):
        raise row.with_traceback(None)
    h = row[s]
    if type(h) is float:  # the rounding bound that refuses h_s(z), named with this z
        raise DomainError(f"closed form rounding bound {h:.3g} at z = {z} exceeds "
                          "1e-9 max(1, |value|); use the series method")
    return h


def _closed_components(fam: HyperbolicFamily, zs: list[complex]) -> dict:
    """The rows of points zs, swapped in as the family's memo: h_s(z) = r**-s
    fft([f(omega**k r z)]_k)[s] / n for every s, or in its place the float
    rounding bound eps max_k |f| |r|**-s where that exceeds 1e-9 max(1, |h_s|);
    or the point's OverflowError where a rotated argument or a value is not
    finite.  Only a base that is not a ufunc, refusing an argument, refuses the call."""
    import numpy as np

    rotated, weights, factors = fam._kernel
    with np.errstate(all="ignore"):
        args = rotated * np.array(zs, dtype=complex)[:, None]
        if fam.base is cmath.exp:
            f = np.exp(args)
        else:  # one argument at a time, none that overflowed; a refusal refuses the call
            f = np.full(args.shape, cmath.nan, dtype=complex)
            for i, (z, row) in enumerate(zip(zs, args.tolist())):
                if all(map(cmath.isfinite, row)):
                    try:
                        f[i] = [fam.base(v) for v in row]
                    except DomainError as exc:  # the base names its own argument, omega**k r z
                        raise DomainError(f"closed form at z = {z}: "
                                          + str(exc).replace("|z|", "|r z|", 1)) from None
        vals = np.fft.fft(f, axis=1) * weights
    memo, cap = {}, max(factors)
    for i, (z, v, fz, ok) in enumerate(zip(zs, vals.tolist(), f.tolist(),
                                           np.isfinite(vals).all(axis=1))):
        if ok:
            e = sys.float_info.epsilon * max(map(abs, fz))  # rounding is monotonic: e c <= e cap
            memo[z] = v if e * cap <= 1e-9 else [
                err if (err := e * c) > 1e-9 and err > 1e-9 * abs(h) else h
                for h, c in zip(v, factors)]
        else:
            where = "" if np.isfinite(args[i]).all() else f": |r z| = {abs(fam.root.root * z):.6g}"
            memo[z] = OverflowError(f"closed form overflows at z = {z}{where}")
    object.__setattr__(fam, "_memo", memo)
    return memo


def g_eval(ctx: CyclicContext, a: AlphaRoot, l: int, z: complex) -> complex:
    """Closed-form geometric component: the sieve of 1/(1-z), evaluated at z.

    Class l sums alpha**m z**(n m + l) over m >= 0, which is exactly
    z**l / (1 - alpha z**n).  Requires alpha != 0 and |r z| <= 0.9, the
    domain of the sieved series, so the denominator stays away from zero.
    """
    _check_root(a, ctx.n)
    if a.alpha == 0:
        raise ValueError("alpha = 0 has no pointwise form; sieve the series instead")
    l = int(l) % ctx.n
    z = complex(z)
    if abs(a.root * z) > GEOMETRIC_MAX_ABS_ARG:
        raise DomainError(
            f"|r z| = {abs(a.root * z):.6g} exceeds the geometric bound "
            f"{GEOMETRIC_MAX_ABS_ARG}")
    return z ** l / (1 - a.alpha * z ** ctx.n)


def laurent_component(s: TruncatedSeries, ctx: CyclicContext, a: AlphaRoot,
                      l: int) -> TruncatedSeries:
    """Weighted component of an arbitrary series, labeled for bookkeeping."""
    l = int(l) % ctx.n
    src = s.label or "series"
    return project_series(s, ctx, l, a).with_label(f"{src}[{l} mod {ctx.n}]")

