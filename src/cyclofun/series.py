"""Truncated Laurent and power series over complex coefficients.

A :class:`TruncatedSeries` is a finite coefficient window; every degree
outside the window is exactly zero.  Instances are immutable and all
operations return new values, so series can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable, Iterable, Sequence

__all__ = [
    "DomainError",
    "TruncatedSeries",
    "make_series",
    "series_exp",
    "series_geometric",
    "series_to_json",
    "series_from_json",
    "coeff_close",
    "max_coeff_diff",
    "coeff_residual",
    "PRODUCT_DEGREE_CAP",
    "DEFAULT_TRUNCATION",
]

PRODUCT_DEGREE_CAP = 256
DEFAULT_TRUNCATION = 64
ENTIRE_MAX_ABS_ARG = 4.0
GEOMETRIC_MAX_ABS_ARG = 0.9
_MIN_NORMAL = sys.float_info.min  # a power or a coefficient below it has lost precision


class DomainError(ValueError):
    """Raised when an argument lies outside a series' evaluation domain, or a
    computed coefficient overflows."""


def _finite(values: Sequence[complex], min_deg: int, step: int = 1) -> Sequence[complex]:
    """Computed complex coefficients, checked for finiteness only, and returned.

    Entry i sits at degree min_deg + i * step.  A computed value that is not
    finite is an overflow, so it raises DomainError naming its degree.
    """
    if not all(map(cmath.isfinite, values)):
        i, bad = next((i, c) for i, c in enumerate(values) if not cmath.isfinite(c))
        raise DomainError(f"coefficient of degree {min_deg + i * step} is not finite ({bad!r})")
    return values


def _checked(value, what: str) -> complex:
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return v


def _check_truncation(trunc: int) -> None:
    if trunc < 0:
        raise ValueError("truncation order must be nonnegative")


def _ipow(base: complex, exponent: int) -> complex:
    """base ** exponent for integer exponents, with 0 ** 0 == 1; base ** -m is (1/base) ** m
    where 1 / base ** m raises or is not finite (base ** m left the double range)."""
    if exponent == 0:
        return 1 + 0j
    if base == 0:
        if exponent < 0:
            raise ZeroDivisionError("zero cannot be raised to a negative power")
        return 0j
    try:
        p = base ** exponent
    except (ZeroDivisionError, OverflowError):
        if exponent > 0:
            raise
        p = math.nan
    return p if exponent > 0 or cmath.isfinite(p) else (1 / base) ** -exponent


def _times_power(acc: complex, base: complex, m: int) -> complex:
    """acc * base**m (m >= 0), in three steps where base**m is not a normal float."""
    try:  # base ** m is _ipow's but at base = 0, m > 0, where both are zeros, not normal
        p = base ** m if acc else 1  # a zero acc skips the power, which may overflow
        if _MIN_NORMAL <= abs(p) < math.inf:
            return acc * p
    except OverflowError:
        pass
    return acc * _ipow(base, m // 3) * _ipow(base, (m + 1) // 3) * _ipow(base, (m + 2) // 3)


def _scaled_radius(radius: float, factor: complex, before, after) -> float:
    """radius / |factor| for f(factor z), but no wider than radius once a normal
    coefficient in `before` fell below the smallest normal float in `after`:
    a wider disk would expose the term that underflowed."""
    wide = radius / abs(factor)  # scan pairs only where an `after` value is below _MIN_NORMAL
    if (min(map(abs, after), default=_MIN_NORMAL) < _MIN_NORMAL
            and any(abs(v) < _MIN_NORMAL <= abs(c) for c, v in zip(before, after))):
        return min(wide, radius)
    return wide


class TruncatedSeries:
    """Finite window of Laurent coefficients a_k for k in [min_deg, max_deg].

    Evaluation is restricted to the closed disk |z| <= radius.  Coefficients from outside
    (a direct call, Polynomial, series_from_json) are converted to complex and checked here;
    values computed or checked before come in with _computed, as complex and finite.
    The internal stride (n, k) of a sieve says every nonzero degree is k mod n; else (1, 0).
    """

    __slots__ = ("min_deg", "max_deg", "coeffs", "label", "radius", "_stride")

    def __init__(self, min_deg: int, coeffs: Sequence[complex], label: str | None = None,
                 radius: float = ENTIRE_MAX_ABS_ARG, *, _stride: tuple[int, int] = (1, 0),
                 _computed: bool = False):
        if _computed:
            cs = tuple(coeffs)  # a tuple is itself, a list is copied once
        else:
            cs = tuple(map(complex, coeffs))
            if not all(map(cmath.isfinite, cs)):
                bad = next(c for c in cs if not cmath.isfinite(c))
                raise ValueError(f"coefficient must be finite, got {bad!r}")
        if not cs:
            raise ValueError("a series needs at least one coefficient")
        self.min_deg = int(min_deg)
        self.max_deg = self.min_deg + len(cs) - 1
        self.coeffs = cs
        self.label = label
        self.radius = radius
        self._stride = _stride

    # -- inspection ---------------------------------------------------------

    def degrees(self) -> range:
        return range(self.min_deg, self.max_deg + 1)

    def coeff(self, k: int) -> complex:
        """Coefficient of z**k; zero outside the stored window."""
        if self.min_deg <= k <= self.max_deg:
            return self.coeffs[k - self.min_deg]
        return 0j

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return (f"TruncatedSeries(window=[{self.min_deg}, {self.max_deg}],"
                f" {len(self.coeffs)} coeffs{tag})")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, z: complex) -> complex:
        """Horner evaluation: a sieve walks its class (n, k), any other series class (1, 0).

        Raises DomainError if |z| exceeds the radius, if z == 0 while the
        window contains negative degrees, or if the value is not finite.
        """
        z = complex(z)
        if abs(z) > self.radius:
            raise DomainError(
                f"|z| = {abs(z):.6g} exceeds the evaluation bound {self.radius:.6g}")
        if self.min_deg < 0 and z == 0:
            raise DomainError("z = 0 is outside the domain of a negative-degree window")
        if self._stride[0] > 1:  # where a step power is not normal or the sum not finite, (1, 0)
            try:
                total = self._class_sum(z, *self._stride)
                if cmath.isfinite(total):
                    return total
            except OverflowError:
                pass
        total = self._class_sum(z, 1, 0)
        if not cmath.isfinite(total):
            raise DomainError(f"the series value at z = {z} is not finite, got {total!r}")
        return total

    def _class_sum(self, z: complex, n: int, k: int) -> complex:
        """Horner in z**n and (1/z)**n over degrees k mod n, each half scaled once at its end,
        so no term shrinks below its share and grows back; nan if a step power is not normal.
        At n = 1 the steps are z and 1/z, unchecked: z = 0 and subnormal z are valid points.
        An end power z**0 is the product with 1 + 0j that _times_power would make."""
        total = acc = 0j
        if self.max_deg >= 0:
            first = max(self.min_deg, 0) + (k - max(self.min_deg, 0)) % n
            w = z if n == 1 else p if _MIN_NORMAL <= abs(p := z ** n) < math.inf else math.nan
            for c in reversed(self.coeffs[first - self.min_deg::n]):
                acc = acc * w + c
            total += _times_power(acc, z, first) if first else acc * (1 + 0j)
        if self.min_deg < 0:
            e, u, acc = min(self.max_deg, -1), 1 / z, 0j  # the last class degree: e - (e - k) % n
            v = u if n == 1 else p if _MIN_NORMAL <= abs(p := u ** n) < math.inf else math.nan
            for c in self.coeffs[(k - self.min_deg) % n:e - self.min_deg + 1:n]:
                acc = acc * v + c
            total += _times_power(acc, u, (e - k) % n - e)
        return total

    # -- structural operations ----------------------------------------------

    def scale_argument(self, lam: complex) -> "TruncatedSeries":
        """Series of f(lam * z): coefficient a_k picks up lam**k."""
        lam = _checked(lam, "scale factor")
        if lam == 0 and self.min_deg < 0:
            raise ValueError("cannot scale a negative-degree window by zero")
        # A zero stays itself: lam**d may overflow where the coefficient is 0.
        scaled = _finite([c * _ipow(lam, d) if c else c
                          for d, c in zip(self.degrees(), self.coeffs)], self.min_deg)
        radius = _scaled_radius(self.radius, lam, self.coeffs, scaled) if lam else self.radius
        return TruncatedSeries(self.min_deg, scaled, label=self.label, radius=radius,
                               _computed=True)

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dz; the degree-0 term dies, all others shift down."""
        return _termwise_lower(self, complex)

    def with_label(self, label: str | None) -> "TruncatedSeries":
        return TruncatedSeries(self.min_deg, self.coeffs, label, self.radius,
                               _stride=self._stride, _computed=True)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "TruncatedSeries | None":
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, float, complex)):  # a constant is entire
            return TruncatedSeries(0, (_checked(other, "constant"),), radius=math.inf,
                                   _computed=True)
        return None

    def __add__(self, other) -> "TruncatedSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = _aligned(self, o)
        lo = min(self.min_deg, o.min_deg)
        return TruncatedSeries(lo, _finite([x + y for x, y in zip(a, b)], lo),
                               radius=min(self.radius, o.radius), _computed=True)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        # The negative of a finite value is finite.
        return TruncatedSeries(self.min_deg, [-c for c in self.coeffs],
                               label=self.label, radius=self.radius, _computed=True)

    def __sub__(self, other) -> "TruncatedSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "TruncatedSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, float, complex)):
            w = _checked(other, "scalar")
            return TruncatedSeries(self.min_deg, _finite([c * w for c in self.coeffs],
                                                         self.min_deg),
                                   label=self.label, radius=self.radius, _computed=True)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        lo = self.min_deg + other.min_deg
        hi = min(self.max_deg + other.max_deg, PRODUCT_DEGREE_CAP)
        if hi < lo:
            raise ValueError("product window is empty after the degree cap")
        import numpy as np  # deferred: importing the package loads no numpy

        # Full convolution, then cut at the cap: entry d - lo is degree d.
        out = np.convolve(self.coeffs, other.coeffs)[:hi - lo + 1].tolist()
        return TruncatedSeries(lo, _finite(out, lo), radius=min(self.radius, other.radius),
                               _computed=True)

    __rmul__ = __mul__


def _termwise_lower(s: TruncatedSeries, number: Callable[[int], complex]) -> TruncatedSeries:
    """Lower every degree: a_d z**d -> number(d) a_d z**(d-1).

    The degree-0 term dies; a window holding only degree 0 lowers to zero.
    The ordinary, Jackson and psi derivatives differ only in number.
    """
    # Degree 0 drops out of the support only where it ends the window.
    first = 1 if s.min_deg == 0 else s.min_deg
    last = -1 if s.max_deg == 0 else s.max_deg
    if first > last:
        return TruncatedSeries(0, (0j,), label=s.label, radius=s.radius, _computed=True)
    kept = s.coeffs[first - s.min_deg:last - s.min_deg + 1]
    return TruncatedSeries(first - 1, _lower_run(kept, first, 1, number), label=s.label,
                           radius=s.radius, _computed=True)


def _lower_run(run: Sequence[complex], first: int, step: int,
               number: Callable[[int], complex]) -> list[complex]:
    """number(d) a_d, one degree lower, for the run a_d at degrees d = first, first + step, ...
    A zero stays itself (sieved runs are mostly zeros, and number(d) may be costly);
    an overflow raises DomainError naming its lowered degree."""
    degrees = range(first, first + step * len(run), step)
    return _finite([number(d) * c if c else c for d, c in zip(degrees, run)], first - 1, step)


def _weighted_sum(terms: Iterable[tuple[TruncatedSeries, complex | None]]) -> TruncatedSeries:
    """Sum s * w, or s where w is None, over terms read one at a time, as one series.
    Per degree ((0 + t0) + t1) + ... is bit for bit the chain total = total + s * w from 0,
    whose 0j outside a window changes no sum; the window spans degree 0 and every term's,
    the radius is the least, and a scaled term, then a sum, raises DomainError as the chain's."""
    lo, acc, radius = 0, [0j], math.inf
    for s, w in terms:
        if not lo <= s.min_deg <= s.max_deg < lo + len(acc):  # widen acc to cover the term
            acc[:0], lo = [0j] * (lo - s.min_deg), min(lo, s.min_deg)  # [0j] * -k is []
            acc += [0j] * (s.max_deg - lo + 1 - len(acc))
        i, j = s.min_deg - lo, s.max_deg - lo + 1
        w = w if w is None else _checked(w, "scalar")
        sums = [a + (c if w is None else c * w) for a, c in zip(acc[i:j], s.coeffs)]
        if not all(map(cmath.isfinite, sums)):  # a finite sum has a finite term
            _finite(s.coeffs if w is None else [c * w for c in s.coeffs], s.min_deg)
            _finite(sums, s.min_deg)
        acc[i:j] = sums
        radius = min(radius, s.radius)
    return TruncatedSeries(lo, acc, radius=radius, _computed=True)


# -- constructors -------------------------------------------------------------

def make_series(terms: Iterable[tuple[int, complex]],
                label: str | None = None) -> TruncatedSeries:
    """Build a series from (degree, coefficient) pairs.

    The window spans the min to max supplied degree; unsupplied interior
    degrees are zero.  Duplicate degrees are an error.
    """
    seen: dict[int, complex] = {}
    for d, v in terms:
        d = int(d)
        if d in seen:
            raise ValueError(f"duplicate degree {d}")
        seen[d] = _checked(v, f"coefficient of degree {d}")
    if not seen:
        raise ValueError("no terms supplied")
    lo, hi = min(seen), max(seen)
    coeffs = tuple(seen.get(d, 0j) for d in range(lo, hi + 1))
    return TruncatedSeries(lo, coeffs, label=label, _computed=True)


def series_exp(trunc: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """The exponential series sum z^k / k! truncated at degree trunc."""
    _check_truncation(trunc)
    # 1/k! from a running integer k!, correctly rounded as 1/math.factorial(k);
    # once it underflows to 0.0, every later term is 0.0 too.
    coeffs = [1 + 0j]
    fact = 1
    for k in range(1, trunc + 1):
        fact *= k
        c = 1 / fact
        if c == 0.0:
            break
        coeffs.append(c + 0j)
    coeffs += [0j] * (trunc + 1 - len(coeffs))
    return TruncatedSeries(0, coeffs, label="exp", _computed=True)


def series_geometric(trunc: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """The geometric series sum z^k (that is, 1/(1-z)) truncated at trunc."""
    _check_truncation(trunc)
    return TruncatedSeries(0, (1 + 0j,) * (trunc + 1), label="geometric",
                           radius=GEOMETRIC_MAX_ABS_ARG, _computed=True)


# -- serialization: numbers as text or [re, im], series as JSON ---------------

def _fmt(x: float) -> str:
    """The text form of a real number: 17 significant digits, enough to read it back."""
    return f"{float(x):.17g}"


def _pair(c: complex) -> list[float]:
    """The JSON form of a complex number: an [re, im] pair."""
    c = complex(c)
    return [c.real, c.imag]


def _unpair(entry, what: str) -> complex:
    """Parse an [re, im] pair of JSON numbers; anything else is a ValueError."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in entry)):
        raise ValueError(f"{what} must be an [re, im] pair of numbers, got {entry!r}")
    try:
        return complex(float(entry[0]), float(entry[1]))
    except OverflowError:
        raise ValueError(f"{what} is too large for a double") from None


def _json_int(value, what: str) -> int:
    """A JSON integer; anything else, booleans and floats included, is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def series_to_json(s: TruncatedSeries) -> dict:
    obj: dict = {
        "min_deg": s.min_deg,
        "coeffs": [_pair(c) for c in s.coeffs],
    }
    if s.label is not None:
        obj["label"] = s.label
    return obj


def series_from_json(obj: dict) -> TruncatedSeries:
    if not isinstance(obj, dict):
        raise ValueError("series JSON must be an object")
    try:
        min_deg = obj["min_deg"]
        raw = obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ValueError("series JSON needs 'min_deg' and 'coeffs'") from exc
    min_deg = _json_int(min_deg, "'min_deg'")
    if not isinstance(raw, list) or not raw:
        raise ValueError("'coeffs' must be a nonempty list of [re, im] pairs")
    coeffs = [_unpair(entry, "a coefficient") for entry in raw]
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError("'label' must be a string")
    return TruncatedSeries(min_deg, coeffs, label=label)


# -- comparison helpers --------------------------------------------------------

def _aligned(s: TruncatedSeries, t: TruncatedSeries, lo: int | None = None,
             hi: int | None = None) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """The coefficients of s and t over degrees [lo, hi], zero outside each
    window.  lo and hi default to the union of both windows."""
    lo = min(s.min_deg, t.min_deg) if lo is None else lo
    hi = max(s.max_deg, t.max_deg) if hi is None else hi
    size = hi - lo + 1 if hi >= lo else 0
    out = []
    for x in (s, t):
        # Pad x to cover [lo, hi] (a negative repeat pads nothing), then cut it out.
        left = x.min_deg - lo
        padded = (0j,) * left + x.coeffs + (0j,) * (hi - x.max_deg)
        start = -left if left < 0 else 0
        out.append(padded[start:start + size])
    return out[0], out[1]


def max_coeff_diff(s: TruncatedSeries, t: TruncatedSeries,
                   lo: int | None = None, hi: int | None = None) -> float:
    """Max |a_k - b_k| over [lo, hi] (default: the union of both windows)."""
    a, b = _aligned(s, t, lo, hi)
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def coeff_residual(s: TruncatedSeries, t: TruncatedSeries,
                   lo: int | None = None, hi: int | None = None) -> float:
    """Max normalized coefficient gap |a-b| / max(1, |a|, |b|) over a window."""
    return _run_residual(*_aligned(s, t, lo, hi))


def _run_residual(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Max |x - y| / max(1, |x|, |y|) over the aligned runs a and b, to the shorter's end."""
    # Equal pairs (the zeros of sieved inputs, mostly) have gap exactly 0.
    return max((abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in zip(a, b) if x != y),
               default=0.0)


def coeff_close(s: TruncatedSeries, t: TruncatedSeries,
                rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Coefficientwise closeness with relative tolerance and absolute floor."""
    a, b = _aligned(s, t)
    return all(abs(x - y) <= max(abs_tol, rel * max(abs(x), abs(y)))
               for x, y in zip(a, b))
