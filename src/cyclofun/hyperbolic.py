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
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from .cyclic import AlphaRoot, CyclicContext, alpha_root, make_context, project_series
from .series import (DEFAULT_TRUNCATION, GEOMETRIC_MAX_ABS_ARG, DomainError,
                     TruncatedSeries, _json_int, _pair, _unpair, series_exp,
                     series_from_json, series_to_json)

if TYPE_CHECKING:  # annotations only; functions import numpy where they use it
    import numpy as np

__all__ = [
    "HyperbolicFamily",
    "build_family",
    "h_eval",
    "g_eval",
    "laurent_component",
    "family_to_json",
    "family_from_json",
]


@dataclass(frozen=True)
class HyperbolicFamily:
    """The n component series plus the data needed for closed-form evaluation.

    base is the scalar function whose sieve the components are; it feeds the
    closed-form path and is None when only series evaluation is available.
    A numpy ufunc (np.exp for the classical family) is applied to all n
    rotated arguments in one call, any other callable (a series' evaluate,
    cmath.exp) to one argument at a time.
    """

    ctx: CyclicContext
    root: AlphaRoot
    components: tuple[TruncatedSeries, ...]
    base: Callable[[complex], complex] | None = field(default=None, compare=False)
    kind: str = "exp"
    # Closed-form kernel, None when alpha = 0 or there is no base function:
    # the rotated roots omega**k r, the weights r**-s / n, and the last point's
    # component vector as one (z, values) tuple, read and replaced whole so a
    # shared family never pairs a point with another point's values.
    _rotated: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _weights: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.root.alpha == 0 or self.base is None:
            return
        import numpy as np

        n, r = self.ctx.n, self.root.root
        # Weights past double range (|alpha| near the underflow limit) turn
        # into a closed-form OverflowError when used.
        with np.errstate(all="ignore"):
            weights = np.power(r, -np.arange(n)) / n
        object.__setattr__(self, "_rotated", np.array(self.ctx.omega_pow) * r)
        object.__setattr__(self, "_weights", weights)


@lru_cache(maxsize=128)
def build_family(n: int, a: AlphaRoot, trunc: int = DEFAULT_TRUNCATION) -> HyperbolicFamily:
    """Sieve the exponential series into its n weighted components."""
    import numpy as np

    n = int(n)
    if a.n != n:
        raise ValueError(f"root order {a.n} does not match requested order {n}")
    ctx = make_context(n)
    base = series_exp(trunc)
    comps = tuple(laurent_component(base, ctx, a, s) for s in range(n))
    return HyperbolicFamily(ctx, a, comps, base=np.exp, kind="exp")


def h_eval(fam: HyperbolicFamily, s: int, z: complex, method: str = "series") -> complex:
    """Evaluate component s at z.

    method "series" runs Horner on the stored window; "closed" averages the
    base function over root-of-unity rotations of the scaled argument, which
    needs alpha != 0 and an attached base function.  The closed route makes
    all n components at once and keeps them for the next call at the same z.
    It raises DomainError when its rounding bound, eps max|f| |r|**-s (the
    transform's error scaled by the weight), exceeds 1e-9 max(1, |h_s|).
    """
    s = int(s) % fam.ctx.n
    z = complex(z)
    comp = fam.components[s]
    if method == "series":
        return comp.evaluate(z)
    if method != "closed":
        raise ValueError(f"unknown method {method!r}")
    if fam._rotated is None:
        if fam.root.alpha == 0:
            raise ValueError("closed form needs alpha != 0; use the series method")
        raise ValueError("this family carries no base function for the closed form")
    bound = comp.domain.max_abs_arg
    if abs(z) > bound:
        raise DomainError(
            f"|z| = {abs(z):.6g} exceeds the evaluation bound {bound:.6g}")
    memo = fam._memo
    if memo is None or memo[0] != z:
        memo = (z, *_closed_components(fam, z))
        object.__setattr__(fam, "_memo", memo)
    _, vals, fmax = memo
    err = sys.float_info.epsilon * fmax * abs(fam.root.root) ** -s
    if err > 1e-9 and err > 1e-9 * abs(vals[s]):  # err > 1e-9 max(1, |h_s|)
        raise DomainError(f"closed form rounding bound {err:.3g} at z = {z} exceeds "
                          "1e-9 max(1, |value|); use the series method")
    return vals[s]


def _closed_components(fam: HyperbolicFamily, z: complex) -> tuple[list[complex], float]:
    """h_s(z) = r**-s fft([f(omega**k r z)]_k)[s] / n for every s, and max_k |f|."""
    import numpy as np

    args = fam._rotated * z
    with np.errstate(all="ignore"):
        if isinstance(fam.base, np.ufunc):
            f = fam.base(args)
        else:
            f = np.array([fam.base(v) for v in args.tolist()], dtype=complex)
        vals = (np.fft.fft(f) * fam._weights).tolist()
    if not all(map(cmath.isfinite, vals)):
        raise OverflowError(f"closed form overflows at z = {z}")
    return vals, max(map(abs, f.tolist()))


def g_eval(ctx: CyclicContext, a: AlphaRoot, l: int, z: complex) -> complex:
    """Closed-form geometric component: the sieve of 1/(1-z), evaluated at z.

    Class l sums alpha**m z**(n m + l) over m >= 0, which is exactly
    z**l / (1 - alpha z**n).  Requires alpha != 0 and |r z| <= 0.9, the
    domain of the sieved series, so the denominator stays away from zero.
    """
    if a.n != ctx.n:
        raise ValueError(f"root order {a.n} does not match context order {ctx.n}")
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


# -- serialization ------------------------------------------------------------

def family_to_json(fam: HyperbolicFamily) -> dict:
    return {
        "n": fam.ctx.n,
        "alpha": _pair(fam.root.alpha),
        "branch": fam.root.branch,
        "kind": fam.kind,
        "components": [series_to_json(c) for c in fam.components],
    }


def family_from_json(obj: dict) -> HyperbolicFamily:
    import numpy as np

    if not isinstance(obj, dict):
        raise ValueError("family JSON must be an object")
    try:
        n = obj["n"]
        al = obj["alpha"]
        branch = obj["branch"]
        raw = obj["components"]
    except KeyError as exc:
        raise ValueError("family JSON needs n, alpha, branch, components") from exc
    n = _json_int(n, "'n'")
    branch = _json_int(branch, "'branch'")
    alpha = _unpair(al, "'alpha'")
    if not isinstance(raw, list) or len(raw) != n:
        raise ValueError("'components' must list exactly n series")
    a = alpha_root(alpha, n, branch)
    ctx = make_context(n)
    comps = tuple(series_from_json(c) for c in raw)
    kind = obj.get("kind", "exp")
    base = np.exp if kind == "exp" else None
    return HyperbolicFamily(ctx, a, comps, base=base, kind=kind)
