"""q-deformed and psi-weighted calculus on series and polynomials.

Polynomials are :class:`TruncatedSeries` with min_deg = 0, so the deformed
derivatives, residuals and JSON codec of the series layer serve both.

A :class:`PsiSequence` supplies the deformed integers n_psi, factorials, and
binomials that drive the deformed derivative, the deformed exponential, and
the generalized translation operator.  The q-deformation is the special case
n_q = 1 + q + ... + q**(n-1); the classical sequence is n_psi = n.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import lru_cache
from typing import Callable, Sequence

from .cyclic import AlphaRoot, CyclicContext, alpha_root, make_context
from .hyperbolic import HyperbolicFamily, h_eval, laurent_component
from .reports import IdentityReport, relative_residual
from .series import (
    DEFAULT_TRUNCATION,
    ENTIRE_MAX_ABS_ARG,
    TruncatedSeries,
    _checked,
    _ipow,
    _json_int,
    _pair,
    _termwise_lower,
    _unpair,
    coeff_residual,
    make_series,
    series_exp,
)

__all__ = [
    "q_number",
    "PsiSequence",
    "psi_sequence_to_json",
    "psi_sequence_from_json",
    "jackson_derivative",
    "psi_derivative",
    "series_exp_psi",
    "build_psi_hyperbolic",
    "Polynomial",
    "q_laguerre",
    "laguerre_family",
    "lowering_operator_apply",
    "generalized_translation",
    "verify_psi_binomial",
    "verify_generating_function",
    "qpsi_checks",
    "PSI_CAP",
]

PSI_CAP = 256
NUMBER_FLOOR = 1e-10
# The derivative ladder's deepest window is [0, trunc - 2n] at n = 4.
LADDER_MIN_TRUNC = 8


def q_number(q, k: int):
    """The q-integer [k]_q = 1 + q + ... + q**(k-1).

    Negative k uses [−m]_q = −q**(−m) [m]_q, the analytic continuation of
    (q**k - 1)/(q - 1).  The cumulative sum avoids the cancellation that the
    closed form suffers near q = 1.
    """
    k = int(k)
    if k < 0:
        return -(q ** k) * q_number(q, -k)
    return _q_numbers(type(q), q).get(k)


class _QNumbers:
    """[0]_q, [1]_q, ... for one q, grown on demand by the running sum.

    The table and the next power are replaced together as one tuple, so a
    reader never sees a table that is still being extended.
    """

    __slots__ = ("q", "_state")

    def __init__(self, q):
        self.q = q
        self._state = ([0], 1)

    def get(self, k: int):
        totals, power = self._state
        if k < len(totals):
            return totals[k]
        totals = list(totals)
        total, q = totals[-1], self.q
        for _ in range(len(totals), max(k + 1, 2 * len(totals))):
            total += power
            power *= q
            totals.append(total)
        self._state = (totals, power)
        return totals[k]


@lru_cache(maxsize=64)
def _q_numbers(kind: type, q) -> _QNumbers:
    # Keyed on the type too: 0.5 and 0.5+0j are equal keys whose q-numbers
    # differ in type.
    return _QNumbers(q)


def _clamp_overflow(value):
    """Complex arithmetic can turn an overflow into nan; pin it back to inf
    so downstream reciprocals give a clean 0.0."""
    if isinstance(value, complex):
        if cmath.isnan(value) or cmath.isinf(value):
            return math.inf
    return value


class PsiSequence:
    """Deformed integer sequence with factorials, binomials, and weights.

    kind "q" stores the deformation parameter; "classical" is n_psi = n;
    "explicit" takes the exponential weights psi_n = 1/n_psi! directly.
    Factorials may overflow to infinity for |q| > 1; the corresponding
    weights are then exactly zero, which every consumer here tolerates.
    """

    __slots__ = ("kind", "q", "cap", "_numbers", "_fact")

    def __init__(self, kind: str, q=None, cap: int = PSI_CAP,
                 weights: Sequence[complex] | None = None):
        self.kind = kind
        if kind == "q":
            qc = complex(q)
            if not (math.isfinite(qc.real) and math.isfinite(qc.imag)):
                raise ValueError("q must be finite")
            if qc == 1:
                raise ValueError("q = 1 collapses to the classical sequence; "
                                 "use PsiSequence.classical()")
            # Real q stays in float arithmetic so overflow is inf, not nan.
            self.q = qc.real if qc.imag == 0.0 else qc
            self.cap = int(cap)
            nums = [0]
            for n in range(1, self.cap + 1):
                v = q_number(self.q, n)
                if abs(v) < NUMBER_FLOOR:
                    raise ValueError(
                        f"[{n}]_q vanishes for q = {qc}; the deformation is "
                        "degenerate at a root of unity")
                nums.append(v)
            self._numbers = nums
            self._fact = [1.0]
        elif kind == "classical":
            self.q = None
            self.cap = int(cap)
            self._numbers = list(range(self.cap + 1))
            self._fact = [1.0]
        elif kind == "explicit":
            if not weights:
                raise ValueError("explicit sequences need a weight list")
            ws = [_checked(w, "weight") for w in weights]
            if ws[0] != 1:
                raise ValueError("the degree-0 weight must be 1")
            if any(w == 0 for w in ws):
                raise ValueError("explicit weights must be nonzero")
            self.q = None
            self.cap = len(ws) - 1
            self._numbers = [0] + [ws[n - 1] / ws[n] for n in range(1, len(ws))]
            self._fact = [1.0]
        else:
            raise ValueError(f"unknown sequence kind {kind!r}")

    @classmethod
    def q_deformation(cls, q, cap: int = PSI_CAP) -> "PsiSequence":
        return cls("q", q=q, cap=cap)

    @classmethod
    def classical(cls, cap: int = PSI_CAP) -> "PsiSequence":
        return cls("classical", cap=cap)

    @classmethod
    def from_weights(cls, weights: Sequence[complex]) -> "PsiSequence":
        return cls("explicit", weights=weights)

    def __repr__(self) -> str:
        if self.kind == "q":
            return f"PsiSequence(q={self.q!r}, cap={self.cap})"
        return f"PsiSequence({self.kind}, cap={self.cap})"

    def number(self, n: int):
        """n_psi; zero at n = 0."""
        n = int(n)
        if n < 0 or n > self.cap:
            raise ValueError(f"index {n} outside the sequence cap {self.cap}")
        return self._numbers[n]

    def factorial(self, n: int):
        """n_psi! as a cumulative product; overflows saturate at inf."""
        n = int(n)
        if n < 0 or n > self.cap:
            raise ValueError(f"index {n} outside the sequence cap {self.cap}")
        while len(self._fact) <= n:
            m = len(self._fact)
            self._fact.append(_clamp_overflow(self._fact[-1] * self._numbers[m]))
        return self._fact[n]

    def psi_weight(self, n: int):
        """The exponential weight psi_n = 1 / n_psi!."""
        f = self.factorial(n)
        if isinstance(f, float) and math.isinf(f):
            return 0.0
        return 1 / f

    def binomial(self, n: int, k: int):
        """Deformed binomial via a falling product, dodging inf/inf.

        The boundary values k = 0 and k = n are exactly 1.
        """
        n, k = int(n), int(k)
        if k < 0 or k > n:
            return 0.0
        if k == 0 or k == n:
            return 1.0
        falling = 1
        for j in range(n - k + 1, n + 1):
            falling *= self.number(j)
        return falling / self.factorial(k)


def psi_sequence_to_json(ps: PsiSequence) -> dict:
    if ps.kind == "q":
        return {"kind": "q", "q": _pair(ps.q), "cap": ps.cap}
    if ps.kind == "classical":
        return {"kind": "classical", "cap": ps.cap}
    return {"kind": "explicit",
            "weights": [_pair(ps.psi_weight(n)) for n in range(ps.cap + 1)]}


def psi_sequence_from_json(obj: dict) -> PsiSequence:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("sequence JSON must be an object with a 'kind'")
    kind = obj["kind"]
    if kind in ("q", "classical"):
        cap = _json_int(obj.get("cap", PSI_CAP), "'cap'")
    if kind == "q":
        return PsiSequence.q_deformation(_unpair(obj.get("q"), "'q'"), cap=cap)
    if kind == "classical":
        return PsiSequence.classical(cap=cap)
    if kind == "explicit":
        raw = obj.get("weights")
        if not isinstance(raw, list) or not raw:
            raise ValueError("'weights' must be a nonempty list")
        return PsiSequence.from_weights([_unpair(w, "a weight") for w in raw])
    raise ValueError(f"unknown sequence kind {kind!r}")


# -- deformed derivatives -------------------------------------------------------

def jackson_derivative(s: TruncatedSeries, q) -> TruncatedSeries:
    """Termwise (f(qz) - f(z)) / ((q-1) z): degree d maps to [d]_q a_d z**(d-1).

    Laurent windows are fine; negative degrees use the continued q-integers.
    """
    return _termwise_lower(s, lambda d: q_number(q, d))


def psi_derivative(s: TruncatedSeries, ps: PsiSequence) -> TruncatedSeries:
    """Termwise deformed derivative a_d z**d -> d_psi a_d z**(d-1).

    Only power-series windows are accepted; a general weight sequence has no
    negative-index extension.  For the q kind this agrees with
    :func:`jackson_derivative` float for float.
    """
    if s.min_deg < 0:
        raise ValueError("psi derivatives are defined for nonnegative windows only")
    return _termwise_lower(s, ps.number)


def series_exp_psi(ps: PsiSequence, trunc: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """The deformed exponential sum psi_n z**n up to degree trunc.

    The evaluation bound tracks the radius of convergence: for |q| < 1 the
    series has radius 1/|1-q|, otherwise it is entire and gets the standard
    bound.  Explicit sequences get a tail-ratio estimate.
    """
    if trunc < 0:
        raise ValueError("truncation order must be nonnegative")
    if trunc > ps.cap:
        raise ValueError(f"truncation {trunc} exceeds the sequence cap {ps.cap}")
    coeffs = tuple(complex(ps.psi_weight(n)) for n in range(trunc + 1))
    bound = ENTIRE_MAX_ABS_ARG
    if ps.kind == "q" and abs(ps.q) < 1:
        bound = 0.9 / abs(1 - ps.q)
    elif ps.kind == "explicit":
        tail = coeffs[-1]
        if tail != 0 and len(coeffs) > 1:
            bound = min(ENTIRE_MAX_ABS_ARG, 0.9 * abs(coeffs[-2] / tail))
    return TruncatedSeries(0, coeffs, label="exp_psi", radius=bound)


def build_psi_hyperbolic(ps: PsiSequence, ctx: CyclicContext, a: AlphaRoot,
                         trunc: int = DEFAULT_TRUNCATION) -> HyperbolicFamily:
    """Sieve the deformed exponential into its cyclic components."""
    base = series_exp_psi(ps, trunc)
    comps = tuple(laurent_component(base, ctx, a, s) for s in range(ctx.n))
    return HyperbolicFamily(ctx, a, comps, base.evaluate, "psi")


# -- polynomials ----------------------------------------------------------------

def Polynomial(coeffs: Sequence[complex]) -> TruncatedSeries:
    """Dense polynomial with ascending coefficients, as a power series.

    Trailing zeros are trimmed here, once; the zero polynomial keeps a single
    0 entry.  A polynomial is entire, so its evaluation radius is unbounded.
    """
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return TruncatedSeries(0, cs or [0j], radius=math.inf)


# -- Laguerre-type basic sequence -------------------------------------------------

def q_laguerre(n: int, q) -> TruncatedSeries:
    """Basic sequence of the lowering operator -(D_q + D_q**2 + ...).

    L_0 = 1, L_1 = -x, and in general the x**k coefficient is
    (-1)**k binom(n-1, k-1) [n]_q! / [k]_q!, with the factorial quotient
    taken as the falling product so nothing overflows prematurely.
    """
    n = int(n)
    if n < 0:
        raise ValueError("the sequence index must be nonnegative")
    if n == 0:
        return Polynomial([1])
    coeffs: list[complex] = [0j] * (n + 1)
    for k in range(1, n + 1):
        quot = 1
        for j in range(k + 1, n + 1):
            quot *= q_number(q, j)
        coeffs[k] = (-1) ** k * math.comb(n - 1, k - 1) * quot
    return Polynomial(coeffs)


def laguerre_family(nmax: int, q) -> list[TruncatedSeries]:
    return [q_laguerre(n, q) for n in range(nmax + 1)]


def lowering_operator_apply(p: TruncatedSeries, q) -> TruncatedSeries:
    """Apply -(D_q + D_q**2 + ...) to a polynomial, where the series is finite."""
    total = Polynomial([0])
    cur = jackson_derivative(p, q)
    while any(cur.coeffs):
        total = total + cur
        cur = jackson_derivative(cur, q)
    return -total


# -- generalized translation -------------------------------------------------------

def generalized_translation(p: TruncatedSeries, y: complex, ps: PsiSequence,
                            operator: Callable[[TruncatedSeries], TruncatedSeries]
                            | None = None) -> TruncatedSeries:
    """E(y Q) p = sum_m psi_m y**m Q**m p, the deformed shift by y.

    Q defaults to the psi-derivative; passing another delta operator (for
    example the Laguerre lowering operator) translates along its own basic
    sequence instead.
    """
    op = operator if operator is not None else (lambda g: psi_derivative(g, ps))
    y = complex(y)
    total = Polynomial([0])
    cur = p
    for m in range(p.max_deg + 1):
        total = total + cur * (ps.psi_weight(m) * _ipow(y, m))
        cur = op(cur)
        if not any(cur.coeffs):
            break
    return total


def verify_psi_binomial(family: Sequence[TruncatedSeries], ps: PsiSequence,
                        x: complex, y: complex,
                        operator: Callable[[TruncatedSeries], TruncatedSeries]
                        | None = None,
                        tolerance: float = 1e-11,
                        name: str = "binomial_convolution",
                        rhs_basis: str = "family",
                        expect: str = "le") -> IdentityReport:
    """Check the binomial expansion of E(y Q) p_n(x) against a direct sum.

    The left side goes through the translation operator, the right side
    through the evaluated convolution, so the two routes share no code.
    With rhs_basis "powers" the y-factor is the plain power y**(n-k), which
    is the form valid for every basic sequence; "family" uses p_{n-k}(y),
    which coincides only when the family is the powers themselves (on other
    families it serves as a negative control).
    """
    if rhs_basis not in ("family", "powers"):
        raise ValueError(f"rhs_basis must be 'family' or 'powers', got {rhs_basis!r}")
    x, y = complex(x), complex(y)
    worst = 0.0
    for n in range(len(family)):
        lhs = generalized_translation(family[n], y, ps, operator).evaluate(x)
        rhs = 0j
        for k in range(n + 1):
            yfac = (family[n - k].evaluate(y) if rhs_basis == "family"
                    else _ipow(y, n - k))
            rhs += ps.binomial(n, k) * family[k].evaluate(x) * yfac
        gap = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        if gap > worst:
            worst = gap
    params = {"kind": ps.kind, "x": x, "y": y,
              "degree_max": len(family) - 1, "rhs_basis": rhs_basis}
    if ps.kind == "q":
        params["q"] = complex(ps.q)
    return IdentityReport(name, params, worst, tolerance, expect)


def verify_generating_function(ps: PsiSequence, ctx: CyclicContext, a: AlphaRoot,
                               s: int, x: complex, z: complex,
                               trunc: int = DEFAULT_TRUNCATION,
                               tolerance: float = 1e-9) -> IdentityReport:
    """Check sum_m alpha**m psi_{nm+s} (x z)**(nm+s) against the sieved
    exponential component evaluated at x z.

    The left side sums explicit powers, the right side evaluates the
    projected series, truncated at the same degree so the tails cancel.
    """
    s = int(s) % ctx.n
    x, z = complex(x), complex(z)
    fam = build_psi_hyperbolic(ps, ctx, a, trunc)
    rhs = h_eval(fam, s, x * z, "series")
    lhs = 0j
    m = 0
    while ctx.n * m + s <= trunc:
        d = ctx.n * m + s
        lhs += (_ipow(a.alpha, m) * ps.psi_weight(d)
                * _ipow(x, d) * _ipow(z, d))
        m += 1
    residual = relative_residual(lhs, rhs)
    params = {"kind": ps.kind, "n": ctx.n, "alpha": a.alpha, "branch": a.branch,
              "s": s, "x": x, "z": z, "trunc": trunc}
    if ps.kind == "q":
        params["q"] = complex(ps.q)
    return IdentityReport("generating_function", params, residual, tolerance)


# -- check battery -----------------------------------------------------------------

def _random_poly_series(rng: random.Random, deg: int) -> TruncatedSeries:
    return make_series((d, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                       for d in range(deg + 1))


def qpsi_checks(q=0.5, seed: int = 0, trunc: int = DEFAULT_TRUNCATION) -> list[IdentityReport]:
    """The deformed-calculus battery: derivative algebra, ladders, limits,
    the Laguerre sequence, binomial convolutions, and the generating function.

    trunc must be at least LADDER_MIN_TRUNC, so that every ladder window
    [0, trunc - k - n] holds a degree; a smaller one would compare nothing.
    """
    if trunc < LADDER_MIN_TRUNC:
        raise ValueError(f"the qpsi battery needs trunc >= {LADDER_MIN_TRUNC}, "
                         f"got {trunc}")
    ps = PsiSequence.q_deformation(q)
    qv = ps.q
    rng = random.Random(seed)
    reports: list[IdentityReport] = []

    f = _random_poly_series(rng, 12)
    g = _random_poly_series(rng, 12)
    lhs = jackson_derivative(f * g, qv)
    rhs = jackson_derivative(f, qv) * g + f.scale_argument(qv) * jackson_derivative(g, qv)
    reports.append(IdentityReport(
        "q_leibniz", {"q": complex(qv), "degree": 12, "seed": seed},
        coeff_residual(lhs, rhs), 1e-11))

    base = series_exp(32)
    dbase = jackson_derivative(base, qv)
    worst = 0.0
    for _ in range(32):
        radius = 0.7 * math.sqrt(rng.uniform(0.04, 1.0))
        theta = 2 * math.pi * rng.random()
        zp = cmath.rect(radius, theta)
        direct = (base.evaluate(qv * zp) - base.evaluate(zp)) / ((qv - 1) * zp)
        viaseries = dbase.evaluate(zp)
        worst = max(worst, relative_residual(viaseries, direct))
    reports.append(IdentityReport(
        "jackson_dual_path", {"q": complex(qv), "points": 32, "seed": seed},
        worst, 1e-10))

    eq = series_exp_psi(ps, trunc)
    reports.append(IdentityReport(
        "q_exp_fixed_point", {"q": complex(qv), "trunc": trunc},
        coeff_residual(jackson_derivative(eq, qv), eq, 0, trunc - 1), 1e-11))

    for n in (2, 3, 4):
        ctx = make_context(n)
        worst = 0.0
        for alpha in (1, -1, 2):
            a = alpha_root(alpha, n)
            fam = build_psi_hyperbolic(ps, ctx, a, trunc)
            for l in range(n):
                cur = fam.components[l]
                factor = 1 + 0j
                for k in range(1, n + 1):
                    cur = jackson_derivative(cur, qv)
                    if (l - (k - 1)) % n == 0:
                        factor *= complex(alpha)
                    target = fam.components[(l - k) % n] * factor
                    worst = max(worst, coeff_residual(cur, target, 0, trunc - k - n))
        reports.append(IdentityReport(
            f"derivative_ladder_n{n}",
            {"q": complex(qv), "n": n, "alphas": [1, -1, 2], "trunc": trunc},
            worst, 1e-11))

    near = PsiSequence.q_deformation(1 + 1e-8, cap=40)
    plain = PsiSequence.classical(cap=40)
    worst = 0.0
    for n in range(33):
        ref = plain.psi_weight(n)
        worst = max(worst, abs(near.psi_weight(n) - ref) / abs(ref))
    reports.append(IdentityReport(
        "q_limit_continuity", {"q": 1 + 1e-8, "degree_max": 32}, worst, 1e-5))

    fam_l = laguerre_family(5, qv)
    worst = 0.0
    for n in range(1, 6):
        got = lowering_operator_apply(fam_l[n], qv)
        want = fam_l[n - 1] * q_number(qv, n)
        worst = max(worst, coeff_residual(got, want))
    reports.append(IdentityReport(
        "laguerre_lowering", {"q": complex(qv), "degree_max": 5}, worst, 1e-10))

    powers = [Polynomial([0j] * n + [1]) for n in range(13)]
    x0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
    y0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
    rep = verify_psi_binomial(powers, ps, x0, y0,
                              tolerance=1e-11, name="binomial_convolution_powers")
    reports.append(rep)

    lag_op = lambda g: lowering_operator_apply(g, qv)
    rep = verify_psi_binomial(fam_l[:5], ps, x0, y0, operator=lag_op,
                              tolerance=1e-9, rhs_basis="powers",
                              name="binomial_convolution_laguerre")
    reports.append(rep)
    # The symmetric convolution (p_{n-k}(y) in place of y**(n-k)) is specific
    # to the power sequence; on the Laguerre family it must visibly miss.
    reports.append(verify_psi_binomial(
        fam_l[:5], ps, 0.9, 0.7, operator=lag_op, tolerance=1e-3,
        rhs_basis="family", expect="gt",
        name="binomial_symmetric_laguerre_breaks"))

    ctx3 = make_context(3)
    reports.append(verify_generating_function(
        ps, ctx3, alpha_root(1, 3), 1, 0.8, 0.9, trunc))

    cls = PsiSequence.classical()
    mono = Polynomial([0j] * 5 + [1])
    shifted = generalized_translation(mono, 0.7, cls)
    expected = Polynomial([math.comb(5, k) * 0.7 ** (5 - k) for k in range(6)])
    reports.append(IdentityReport(
        "translation_classical", {"kind": "classical", "degree": 5, "y": 0.7},
        coeff_residual(shifted, expected), 1e-12))

    return reports
