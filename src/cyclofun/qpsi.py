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
from collections.abc import Callable, Sequence
from functools import lru_cache, partial

from .cyclic import AlphaRoot, CyclicContext, alpha_root, make_context
from .hyperbolic import HyperbolicFamily, laurent_component
from .reports import IdentityReport, relative_residual
from .series import (
    DEFAULT_TRUNCATION,
    ENTIRE_MAX_ABS_ARG,
    DomainError,
    TruncatedSeries,
    _check_truncation,
    _checked,
    _finite,
    _ipow,
    _lower_run,
    _run_residual,
    _termwise_lower,
    _weighted_sum,
    coeff_residual,
    make_series,
    series_exp,
)

__all__ = [
    "q_number",
    "PsiSequence",
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
    (q**k - 1)/(q - 1), or the equal −[m]_{1/q} / q where that product is nan
    or overflows.  The cumulative sum avoids the closed form's cancellation near q = 1.
    """
    k = int(k)
    if k < 0:
        try:
            value = -(q ** k) * q_number(q, -k)
        except OverflowError:  # an int q's exact [m]_q past double range, or q**k
            value = math.nan
        return value if cmath.isfinite(value) else -q_number(1 / q, -k) / q
    return _q_table(q, k)[k]


def _q_table(q, k: int) -> tuple:
    """The q-number table that holds [k]_q: degrees 0..PSI_CAP, else 0..2**j - 1."""
    top = PSI_CAP if k <= PSI_CAP else 2 ** k.bit_length() - 1
    return _q_numbers(type(q), q, top)


@lru_cache(maxsize=64)
def _q_numbers(kind: type, q, top: int) -> tuple:
    """[0]_q, ..., [top]_q by the running sum, built once and never changed.

    Keyed on the type too: 0.5 and 0.5+0j are equal keys whose q-numbers
    differ in type.
    """
    totals, total, power = [0], 0, 1
    for _ in range(top):
        total += power
        if total != total:
            # inf - inf past overflow: the newest power dominates, so the
            # q-number saturates at its infinity, or at inf once complex
            # arithmetic has lost the power to nan.
            total = power if power == power else math.inf
        power *= q
        totals.append(total)
    return tuple(totals)


class PsiSequence:
    """Deformed integer sequence with factorials, binomials, and weights.

    Each kind has its own constructor: q_deformation and classical (n_psi = n)
    span degrees 0..PSI_CAP, from_weights its given weights psi_n = 1/n_psi!.
    The tables are built once and never change, so threads may share a
    sequence.  Factorials may overflow to infinity for |q| > 1; the
    corresponding weights are then exactly zero, which every consumer here
    tolerates.
    """

    __slots__ = ("kind", "q", "cap", "_numbers", "_fact", "_weights")

    def __init__(self, kind: str, numbers: Sequence, q=None,
                 weights: tuple | None = None):
        self.kind = kind
        self.q = q
        self.cap = len(numbers) - 1
        self._numbers = numbers
        fact = [1.0]
        for v in numbers[1:]:
            f = fact[-1] * v
            # Complex arithmetic can turn an overflow into nan; pin it to inf.
            fact.append(math.inf if isinstance(f, complex) and not cmath.isfinite(f) else f)
        self._fact = tuple(fact)
        # An overflowed factorial weighs 0.0; one that underflowed, inf.
        self._weights = weights if weights is not None else tuple(
            0.0 if isinstance(f, float) and math.isinf(f) else 1 / f if f else math.inf
            for f in fact)

    @classmethod
    def q_deformation(cls, q) -> "PsiSequence":
        qc = _checked(q, "q")
        if qc == 1:
            raise ValueError("q = 1 collapses to the classical sequence; "
                             "use PsiSequence.classical()")
        # Real q stays in float arithmetic so overflow is inf, not nan.
        q = qc.real if qc.imag == 0.0 else qc
        numbers = _q_numbers(type(q), q, PSI_CAP)
        for n, v in enumerate(numbers[1:], 1):
            if abs(v) < NUMBER_FLOOR:
                raise ValueError(f"[{n}]_q vanishes for q = {qc}; the deformation is "
                                 "degenerate at a root of unity")
        return cls("q", numbers, q=q)

    @classmethod
    def classical(cls) -> "PsiSequence":
        return cls("classical", range(PSI_CAP + 1))

    @classmethod
    def from_weights(cls, weights: Sequence[complex]) -> "PsiSequence":
        if not weights:
            raise ValueError("explicit sequences need a weight list")
        ws = tuple(_checked(w, "weight") for w in weights)
        if ws[0] != 1:
            raise ValueError("the degree-0 weight must be 1")
        if any(w == 0 for w in ws):
            raise ValueError("explicit weights must be nonzero")
        numbers = (0,) + tuple(ws[n - 1] / ws[n] for n in range(1, len(ws)))
        return cls("explicit", numbers, weights=ws)

    def __repr__(self) -> str:
        if self.kind == "q":
            return f"PsiSequence(q={self.q!r}, cap={self.cap})"
        return f"PsiSequence({self.kind}, cap={self.cap})"

    def _index(self, n: int) -> int:
        n = int(n)
        if n < 0 or n > self.cap:
            raise ValueError(f"index {n} outside the sequence cap {self.cap}")
        return n

    def number(self, n: int):
        """n_psi; zero at n = 0."""
        return self._numbers[self._index(n)]

    def factorial(self, n: int):
        """n_psi! as a cumulative product; overflows saturate at inf."""
        return self._fact[self._index(n)]

    def psi_weight(self, n: int):
        """The exponential weight psi_n = 1 / n_psi!."""
        return self._weights[self._index(n)]

    def binomial(self, n: int, k: int):
        """Deformed binomial via a falling product, dodging inf/inf.

        The product runs over min(k, n - k) factors; k = 0 and k = n give exactly 1.
        Where that product overflows, the binomial is taken as the product of the
        ratios [n - k + i] / [i], which for real q > 1 never exceeds the binomial.
        """
        n, k = int(n), int(k)
        if k < 0 or k > n:
            return 0.0
        if k == 0 or k == n:
            return 1.0
        k = min(k, n - k)
        nums = self._numbers
        value = math.prod(nums[n - k + 1:self._index(n) + 1]) / self._fact[k]
        if cmath.isfinite(value):
            return value
        return math.prod(nums[n - k + i] / nums[i] for i in range(1, k + 1))


# -- deformed derivatives -------------------------------------------------------

def jackson_derivative(s: TruncatedSeries, q) -> TruncatedSeries:
    """Termwise (f(qz) - f(z)) / ((q-1) z): degree d maps to [d]_q a_d z**(d-1).

    Laurent windows are fine; negative degrees use the continued q-integers.
    """
    return _termwise_lower(s, partial(q_number, q))


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
    _check_truncation(trunc)
    if trunc > ps.cap:
        raise ValueError(f"truncation {trunc} exceeds the sequence cap {ps.cap}")
    coeffs = tuple(map(complex, ps._weights[:trunc + 1]))
    # Explicit weights were checked as input; 1/[k]_q! overflows where [k]_q! underflowed.
    for k, c in enumerate(coeffs):
        if not cmath.isfinite(c):
            raise DomainError(f"coefficient of degree {k} is not finite ({c!r}): "
                              f"the weight 1/[{k}]_q! overflows at q = {ps.q!r}")
    bound = ENTIRE_MAX_ABS_ARG
    if ps.kind == "q" and abs(ps.q) < 1:
        bound = 0.9 / abs(1 - ps.q)
    elif ps.kind == "explicit":
        tail = coeffs[-1]
        if tail != 0 and len(coeffs) > 1:
            bound = min(ENTIRE_MAX_ABS_ARG, 0.9 * abs(coeffs[-2] / tail))
    return TruncatedSeries(0, coeffs, label="exp_psi", radius=bound, _computed=True)


def build_psi_hyperbolic(ps: PsiSequence, ctx: CyclicContext, a: AlphaRoot,
                         trunc: int = DEFAULT_TRUNCATION) -> HyperbolicFamily:
    """Sieve the deformed exponential into its cyclic components."""
    base = series_exp_psi(ps, trunc)
    comps = tuple(laurent_component(base, ctx, a, s) for s in range(ctx.n))
    return HyperbolicFamily(ctx, a, comps, base.evaluate)


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
    nums = _q_table(q, n)
    return Polynomial([0j] + [(-1) ** k * math.comb(n - 1, k - 1)
                              * math.prod(nums[k + 1:n + 1]) for k in range(1, n + 1)])


def laguerre_family(nmax: int, q) -> list[TruncatedSeries]:
    return [q_laguerre(n, q) for n in range(nmax + 1)]


def lowering_operator_apply(p: TruncatedSeries, q) -> TruncatedSeries:
    """Apply -(D_q + D_q**2 + ...) to a polynomial, where the series is finite."""
    if p.min_deg < 0:
        raise ValueError("the lowering operator is a finite sum on polynomials only")
    def terms(cur=p):  # lazy: each step and check comes in the order of a running sum
        while any((cur := jackson_derivative(cur, q)).coeffs):
            yield cur, None
    return -_weighted_sum(terms())


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
    def terms(cur=p):
        for m in range(p.max_deg + 1):
            yield cur, ps.psi_weight(m) * _ipow(y, m)
            if not any((cur := op(cur)).coeffs):
                return
    return _weighted_sum(terms())


def verify_psi_binomial(family: Sequence[TruncatedSeries], ps: PsiSequence,
                        x: complex, y: complex,
                        operator: Callable[[TruncatedSeries], TruncatedSeries]
                        | None = None,
                        rhs_basis: str = "family") -> float:
    """The worst gap |lhs - rhs| / max(1, |lhs|, |rhs|) between the binomial
    expansion of E(y Q) p_n(x) and a direct sum, over the family.

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
    px = [p.evaluate(x) for p in family]
    py = [p.evaluate(y) if rhs_basis == "family" else _ipow(y, j) for j, p in enumerate(family)]
    for n in range(len(family)):
        lhs = generalized_translation(family[n], y, ps, operator).evaluate(x)
        rhs = 0j
        for k in range(n + 1):
            rhs += ps.binomial(n, k) * px[k] * py[n - k]
        worst = max(worst, _run_residual((lhs,), (rhs,)))
    return worst


def verify_generating_function(ps: PsiSequence, a: AlphaRoot, s: int,
                               component: TruncatedSeries, x: complex, z: complex) -> float:
    """The relative residual of sum_m alpha**m psi_{nm+s} (x z)**(nm+s)
    against the sieved exponential component s evaluated at x z.

    The left side sums explicit powers up to the component's top degree, so
    the tails cancel; a point outside the component's disk raises DomainError.
    """
    s = int(s) % a.n
    x, z = complex(x), complex(z)
    rhs = component.evaluate(x * z)
    lhs = 0j
    for m, d in enumerate(range(s, component.max_deg + 1, a.n)):  # d = n m + s
        lhs += _ipow(a.alpha, m) * ps.psi_weight(d) * _ipow(x, d) * _ipow(z, d)
    return relative_residual(lhs, rhs)


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

    number = ps._numbers.__getitem__  # [d]_q, as q_number(qv, d) reads it for d <= PSI_CAP
    for n in (2, 3, 4):
        ctx = make_context(n)
        worst = 0.0
        for alpha in (1, -1, 2):
            a = alpha_root(alpha, n)
            comps = [laurent_component(eq, ctx, a, l) for l in range(n)]
            if (n, alpha) == (3, 1):
                a3, comps3 = a, comps  # the generating function reads component 1
            # Component l is zero off its run of degrees l mod n; wrapping past 0 picks up alpha.
            runs = [c.coeffs[l::n] for l, c in enumerate(comps)]
            wrapped = [_finite([c * complex(alpha) for c in r], l, n) for l, r in enumerate(runs)]
            for l in range(n):
                cur = runs[l]
                for k in range(1, n + 1):
                    j = (l - k) % n  # cur starts at degree j + 1 mod n; a start at 0 dies
                    cur = _lower_run(cur[1:] if j == n - 1 else cur, j + 1, n, number)
                    # The window [0, trunc - k - n] holds all of cur but its top degree.
                    target = (runs if k <= l else wrapped)[j]
                    worst = max(worst, _run_residual(cur[:-1], target))
        reports.append(IdentityReport(
            f"derivative_ladder_n{n}",
            {"q": complex(qv), "n": n, "alphas": [1, -1, 2], "trunc": trunc},
            worst, 1e-11))

    near = PsiSequence.q_deformation(1 + 1e-8)
    classical = PsiSequence.classical()
    worst = 0.0
    for n in range(33):
        ref = classical.psi_weight(n)
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
    lag_op = lambda g: lowering_operator_apply(g, qv)
    # The symmetric convolution (p_{n-k}(y) in place of y**(n-k)) is specific
    # to the power sequence; on the Laguerre family it must visibly miss.
    for name, fam, x, y, op, basis, tol, expect in (
            ("binomial_convolution_powers", powers, x0, y0, None, "family", 1e-11, "le"),
            ("binomial_convolution_laguerre", fam_l[:5], x0, y0, lag_op, "powers", 1e-9, "le"),
            ("binomial_symmetric_laguerre_breaks", fam_l[:5], 0.9 + 0j, 0.7 + 0j, lag_op,
             "family", 1e-3, "gt")):
        params = {"kind": ps.kind, "x": x, "y": y, "degree_max": len(fam) - 1,
                  "rhs_basis": basis, "q": complex(qv)}
        reports.append(IdentityReport(name, params, verify_psi_binomial(fam, ps, x, y, op, basis),
                                      tol, expect))

    # Where x z lies outside the component's disk, z pulls it in to half the radius.
    x, z = 0.8 + 0j, 0.9 + 0j
    if abs(x * z) > comps3[1].radius:
        z = z * (comps3[1].radius / 2 / abs(x * z))
    reports.append(IdentityReport(
        "generating_function",
        {"kind": ps.kind, "n": 3, "alpha": a3.alpha, "branch": a3.branch, "s": 1,
         "x": x, "z": z, "trunc": trunc, "q": complex(qv)},
        verify_generating_function(ps, a3, 1, comps3[1], x, z), 1e-9))

    mono = Polynomial([0j] * 5 + [1])
    shifted = generalized_translation(mono, 0.7, classical)
    expected = Polynomial([math.comb(5, k) * 0.7 ** (5 - k) for k in range(6)])
    reports.append(IdentityReport(
        "translation_classical", {"kind": "classical", "degree": 5, "y": 0.7},
        coeff_residual(shifted, expected), 1e-12))

    return reports
