"""Series engine: windows, arithmetic, evaluation, scaling, serialization."""

import cmath
import math
import random
import re
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclofun.cyclic import alpha_root, make_context, project_series
from cyclofun.hyperbolic import laurent_component
from cyclofun.qpsi import (
    Polynomial,
    PsiSequence,
    generalized_translation,
    jackson_derivative,
    lowering_operator_apply,
    psi_derivative,
    series_exp_psi,
)
from cyclofun.series import (
    PRODUCT_DEGREE_CAP,
    DomainError,
    TruncatedSeries,
    _csv_line,
    _fmt,
    _fmt_complex,
    _ipow,
    coeff_close,
    coeff_residual,
    make_series,
    max_coeff_diff,
    series_exp,
    series_from_json,
    series_geometric,
    series_to_json,
)


def test_window_and_coeff_lookup():
    s = make_series([(-2, 1 + 1j), (0, 3), (3, -0.5)])
    assert s.min_deg == -2 and s.max_deg == 3
    assert s.coeff(-2) == 1 + 1j
    assert s.coeff(-1) == 0
    assert s.coeff(3) == -0.5
    assert s.coeff(99) == 0
    assert s.coeff(-99) == 0


def test_duplicate_degree_rejected():
    with pytest.raises(ValueError):
        make_series([(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        make_series([])


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ValueError):
        make_series([(0, float("nan"))])
    with pytest.raises(ValueError):
        TruncatedSeries(0, (complex("inf"),))
    # Input is an input error (exit 2), not a domain error (exit 4).
    for bad in (math.inf, -math.inf, math.nan, complex(1, math.inf)):
        for raw in ([1, bad], (1, bad)):
            with pytest.raises(ValueError, match="coefficient must be finite") as info:
                TruncatedSeries(0, raw)
            assert type(info.value) is ValueError
    with pytest.raises(ValueError, match="malformed"):
        TruncatedSeries(0, [1, "one"])


def test_an_empty_window_and_zero_to_a_negative_power_are_refused():
    with pytest.raises(ValueError, match="^a series needs at least one coefficient$"):
        TruncatedSeries(0, [])
    with pytest.raises(ZeroDivisionError, match="^zero cannot be raised to a negative power$"):
        _ipow(0, -1)


def test_repr_names_the_window_and_the_label():
    assert repr(make_series([(-1, 1), (2, 3)])) == "TruncatedSeries(window=[-1, 2], 4 coeffs)"
    assert (repr(TruncatedSeries(0, [1, 2], label="exp"))
            == "TruncatedSeries(window=[0, 1], 2 coeffs 'exp')")


def test_complex_text_is_the_signed_imaginary_form_it_replaced():
    # The sign comes from _fmt's text of the imaginary part, as +.17g gave it.
    tiny, big = 5e-324, sys.float_info.max
    parts = (0.0, -0.0, 1.0, -1.0, 0.1, -2.5e-7, 1 / 3, tiny, -tiny, sys.float_info.min,
             -sys.float_info.min, 1e-300, big, -big, 1e300, -1e16)
    for re_part in parts:
        for im_part in parts:
            c = complex(re_part, im_part)
            want = _fmt(c.real) if c.imag == 0 else f"{_fmt(c.real)}{c.imag:+.17g}i"
            assert _fmt_complex(c) == want, c
    assert _fmt_complex(2) == "2" and _fmt_complex(-0.5) == "-0.5"


def test_csv_line_splits_a_complex_cell_and_spells_a_bool():
    assert (_csv_line("exp", 3, 0.1 - 2j, -0.5, True, False, 1e-20, "")
            == "exp,3,0.10000000000000001,-2,-0.5,true,false,9.9999999999999995e-21,")
    assert _csv_line() == ""


def test_constructor_converts_input_and_keeps_checked_coefficients():
    for raw in ([1, 2.5, -3j], (1, 2.5, -3j)):
        s = TruncatedSeries(-1, raw)
        assert s.coeffs == (1 + 0j, 2.5 + 0j, -3j)
        assert all(type(c) is complex for c in s.coeffs)
    s = series_exp(6)
    assert s.with_label("relabelled").coeffs is s.coeffs
    # Values the package computed or checked itself skip the constructor's check,
    # so each builder must hand over complex values, as the checked path keeps them.
    psi_kinds = (PsiSequence.q_deformation(0.5), PsiSequence.q_deformation(0.3 + 0.4j),
                 PsiSequence.classical(), PsiSequence.from_weights([1, 0.5, 0.25j, 2]))
    built = [series_exp(12), series_geometric(5),
             make_series([(-1, 2), (1, 0.5), (2, 1 - 2j)]), make_series([(0, 1)]) + 1,
             make_series([(0, 3)]).derivative(), *(series_exp_psi(ps, 3) for ps in psi_kinds)]
    for t in built:
        assert all(type(c) is complex for c in t.coeffs), t
        assert t.coeffs == TruncatedSeries(t.min_deg, list(t.coeffs)).coeffs, t
    # Each skipped check is made once, where the value is first taken or computed.
    with pytest.raises(ValueError, match=r"^coefficient of degree 2 must be finite, got nan$"):
        make_series([(0, 1), (2, math.nan)])
    with pytest.raises(ValueError, match=r"^constant must be finite, got inf$"):
        series_exp(4) + math.inf
    with pytest.raises(DomainError, match=re.escape(
            "coefficient of degree 80 is not finite ((inf+0j)): the weight 1/[80]_q! "
            "overflows at q = -0.999999999")):
        series_exp_psi(PsiSequence.q_deformation(-0.999999999), 80)


def test_operations_construct_through_the_one_constructor(monkeypatch):
    # benchmarks/tracer.py counts series by wrapping __init__ and pins the
    # counts; a result built around __init__ would drop out of them.
    calls = []
    init = TruncatedSeries.__init__

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        init(self, *args, **kwargs)

    base = series_exp(8)
    monkeypatch.setattr(TruncatedSeries, "__init__", counting)
    laurent_component(base, make_context(3), alpha_root(2, 3), 1)
    assert len(calls) == 2  # the sieve and the relabel
    calls.clear()
    jackson_derivative(base, 0.5)
    assert len(calls) == 1


_BIG = make_series([(-1, 1), (0, 1), (2, 1e308)])


@pytest.mark.parametrize("compute, degree", [
    (lambda: _BIG + _BIG, 2),
    (lambda: _BIG * 10, 2),
    (lambda: make_series([(-1, 1), (1, 1e200)]) * make_series([(1, 1e200j)]), 2),
    (lambda: make_series([(0, 1), (3, 1e308)]).derivative(), 2),
    (lambda: jackson_derivative(make_series([(0, 1), (3, 1e308)]), 2.0), 2),
    (lambda: psi_derivative(make_series([(0, 1), (3, 1e308)]), PsiSequence.classical()), 2),
    (lambda: project_series(make_series([(0, 1), (5, 1e300)]), make_context(2), 1,
                            alpha_root(1e10, 2)), 5),
    (lambda: _BIG.scale_argument(10), 2),
    (lambda: generalized_translation(Polynomial([1e300, 1e300]), 1e10,
                                     PsiSequence.classical()), 0),
    (lambda: lowering_operator_apply(Polynomial([0, 1.5e308, 1e308]), 0.5), 0),
], ids=["sum", "scalar", "product", "derivative", "jackson", "psi", "sieve",
        "scale_argument", "translation_term", "lowering_sum"])
def test_computed_overflow_is_a_domain_error_naming_its_degree(compute, degree):
    with pytest.raises(DomainError, match=rf"coefficient of degree {degree} is not finite"):
        compute()


def test_exp_series_matches_library():
    s = series_exp(24)
    for k in range(25):
        assert s.coeff(k) == 1 / math.factorial(k)
    # Around the last normal (170, 171) and subnormal (177) terms and past
    # the first zero (178): every coefficient is the rounded 1/k!.
    for trunc in (0, 1, 2, 169, 170, 171, 176, 177, 178, 179, 500):
        s = series_exp(trunc)
        assert s.min_deg == 0 and s.max_deg == trunc
        assert s.coeffs == tuple(1 / math.factorial(k) + 0j for k in range(trunc + 1))
    for z in (0.5, -1.2, 1 + 1j, 2.0):
        want = cmath.exp(z)
        assert abs(s.evaluate(z) - want) <= 1e-13 * abs(want)


def test_geometric_series_matches_closed_form():
    s = series_geometric(64)
    assert all(c == 1 for c in s.coeffs)
    assert abs(s.evaluate(0.3) - 1 / 0.7) <= 1e-14
    assert abs(s.evaluate(-0.5) - 2 / 3) <= 1e-14


def test_evaluation_domain_is_enforced():
    with pytest.raises(DomainError):
        series_exp(8).evaluate(4.5)
    with pytest.raises(DomainError):
        series_geometric(8).evaluate(0.95)
    laurent = make_series([(-1, 1)])
    with pytest.raises(DomainError):
        laurent.evaluate(0)
    # Finite coefficients whose sum is not finite: nan+nanj, then inf.
    with pytest.raises(DomainError, match="not finite"):
        TruncatedSeries(0, [1e300] * 65).evaluate(3.9)
    with pytest.raises(DomainError, match="not finite"):
        make_series([(-3, 1), (1, 1)]).evaluate(1e-200)


def test_laurent_evaluation():
    s = make_series([(-2, 2), (0, 1), (1, -1)])
    z = 0.5 + 0.25j
    want = 2 / z ** 2 + 1 - z
    assert abs(s.evaluate(z) - want) <= 1e-14 * max(1.0, abs(want))


def test_window_ending_below_degree_minus_one_evaluates_at_its_own_degrees():
    assert make_series([(-5, 1)]).evaluate(2) == 2 ** -5
    assert (make_series([(-1, 1)]) * make_series([(-2, 1)])).evaluate(2) == 2 ** -3
    s = make_series([(-4, 2), (-3, 1j)])
    z = 0.8 - 0.3j
    want = 2 / z ** 4 + 1j / z ** 3
    assert abs(s.evaluate(z) - want) <= 1e-14 * abs(want)


# -- the class walk against the evaluation it replaced --------------------------

def _old_end(b, m):
    """The end power b**m (m >= 0) that the old evaluation applied in one step, or None
    where that raised or was not a normal float."""
    try:
        p = b ** m
    except OverflowError:
        return None
    return p if sys.float_info.min <= abs(p) < math.inf else None


def _old_dense_steps(s, z):
    """The dense Horner loops that evaluated every series before the class walk, for a
    window ending at degree -1 or above; None where the end power was not normal."""
    total = 0j
    if s.max_deg >= 0:
        lo = max(s.min_deg, 0)
        end, acc = _old_end(z, lo), 0j
        if end is None:
            return None
        for c in reversed(s.coeffs[lo - s.min_deg:]):
            acc = acc * z + c
        total += acc * end
    if s.min_deg < 0:
        u, acc = 1 / z, 0j
        for c in s.coeffs[:-s.min_deg]:
            acc = (acc + c) * u
        total += acc
    return total


def _old_class_sum(s, z, n, k):
    """A sieve's class sum as it was: nan where a step power was not a normal float (the
    dense steps then decided), None where only an end power was not."""
    w = z ** n if s.max_deg >= 0 else 1
    v = (1 / z) ** n if s.min_deg < 0 else 1
    if not all(sys.float_info.min <= abs(x) < math.inf for x in (w, v)):
        return math.nan
    total = 0j
    if s.max_deg >= 0:
        first = max(s.min_deg, 0) + (k - max(s.min_deg, 0)) % n
        end, acc = _old_end(z, first), 0j
        if end is None:
            return None
        for c in reversed(s.coeffs[first - s.min_deg::n]):
            acc = acc * w + c
        total += acc * end
    if s.min_deg < 0:
        e, acc = min(s.max_deg, -1), 0j
        end = _old_end(1 / z, (e - k) % n - e)
        if end is None:
            return None
        for c in s.coeffs[(k - s.min_deg) % n:e - s.min_deg + 1:n]:
            acc = acc * v + c
        total += acc * end
    return total


def _old_outcome(s, z):
    """What evaluate gave before the class walk, for a window ending at degree -1 or
    above with an unbounded radius: the value or the refusal message, or None where an
    end power was not a normal float (the walk applies that one in steps)."""
    if s.min_deg < 0 and z == 0:
        return "z = 0 is outside the domain of a negative-degree window"
    total = math.nan
    if s._stride[0] > 1:
        try:
            total = _old_class_sum(s, z, *s._stride)
        except OverflowError:  # a step power overflowed
            pass
    if total is not None and not cmath.isfinite(total):
        total = _old_dense_steps(s, z)
        if total is not None and not cmath.isfinite(total):
            return f"the series value at z = {z} is not finite, got {total!r}"
    return total


def _outcome(s, z):
    try:
        return s.evaluate(z)
    except (DomainError, OverflowError) as exc:
        return str(exc)


def test_the_class_walk_matches_the_evaluation_it_replaced():
    # Dense and sieved windows, coefficients from 1e-300 to 1e300, |z| from 1e-200 to
    # 1e200 and z = 0.  A window ending at degree -1 or above gives the old value or
    # refusal bit for bit wherever the old end power was a normal float.  One ending
    # below -1, where the walk applies one end power in place of 1/z and a power of 1/z,
    # is within 1e-13 sum |c_d| |z|**d of the 50-digit sum.
    rng = random.Random(15)
    same = near = 0
    for case in range(1500):
        n = rng.randint(2, 9)
        k = rng.randrange(n)
        lo = rng.randint(-3 * n, 2 * n)
        below = case % 3 == 0 and lo < -1
        hi = rng.randint(lo, -2) if below else rng.randint(max(lo, -1), max(lo, -1) + 3 * n)
        size = rng.choice((rng.uniform(-3, 3), rng.uniform(-280, 280)))
        cs = [0j if rng.random() < 0.2 else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              * 10 ** (size + rng.uniform(-20, 20)) for _ in range(lo, hi + 1)]
        s = TruncatedSeries(lo, cs, radius=math.inf)
        if case % 2:
            try:
                s = project_series(s, make_context(n), k,
                                   alpha_root(rng.choice((1, -1, 2 + 1j, 1e-3)), n))
            except DomainError:  # a weighted coefficient overflowed
                continue
        z = 0j if rng.random() < 0.05 and not below else cmath.rect(
            10 ** rng.choice((rng.uniform(-1, 1), rng.uniform(-200, 200))),
            rng.uniform(0, 2 * math.pi))
        got = _outcome(s, z)
        if not below:
            want = _old_outcome(s, z)
            if want is not None:
                assert repr(got) == repr(want), (case, s, z)
                same += 1
            continue
        with mpmath.workdps(50):
            terms = [mpmath.mpc(c) * mpmath.mpc(z) ** d
                     for d, c in zip(s.degrees(), s.coeffs) if c]
            want, scale = mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)
        if 1e-290 < scale and (isinstance(got, complex) or scale < 1e290):
            assert abs(got - want) <= 1e-13 * scale, (case, s, z)
            near += 1
    assert same > 800 and near > 100, (same, near)


def test_an_end_power_out_of_the_normal_range_is_applied_in_steps():
    # Windows starting above degree 0 or ending below -1, where z**min_deg or
    # (1/z)**-max_deg alone leaves the normal floats but the value does not: it is
    # within 1e-12 of the 50-digit sum.  Each term c_d z**d is a positive real.
    rng = random.Random(16)
    for case in range(200):
        n = rng.randint(1, 6)
        edge = rng.randint(3, 60) * (1 if case % 2 else -1)
        k = edge % n  # the edge degree is in the class
        lo, hi = (edge, edge + 3 * n) if edge > 0 else (edge - 3 * n, edge)
        power = rng.uniform(310, 590) * rng.choice((1, -1))  # log10 |z|**edge
        log_z = power / edge
        value = rng.uniform(max(-300, power - 300), min(300, power + 300))  # log10 of edge term
        theta = rng.uniform(0, 2 * math.pi)
        cs = []
        for d in range(lo, hi + 1):
            log_c = value - d * log_z - (0 if d == edge else rng.uniform(0, 5))
            keep = (d - k) % n == 0 and (d == edge or -300 < log_c < 300)
            cs.append(cmath.rect(10 ** log_c, -d * theta) if keep else 0j)
        s = TruncatedSeries(lo, cs, radius=math.inf)
        if n > 1:
            s = project_series(s, make_context(n), k, alpha_root(1, n))
        z = cmath.rect(10 ** log_z, theta)
        with mpmath.workdps(50):
            want = mpmath.fsum(mpmath.mpc(c) * mpmath.mpc(z) ** d
                               for d, c in zip(s.degrees(), s.coeffs) if c)
        assert sys.float_info.min < abs(want) < sys.float_info.max
        assert abs(s.evaluate(z) - want) <= 1e-12 * abs(want), (case, lo, hi, z)
    # z**20 = 1e-400 under a coefficient 1e300: the value 1e-100, not 0.
    assert abs(make_series([(20, 1e300)]).evaluate(1e-20) - 1e-100) <= 1e-112


def _draw_window(rng, kind):
    """(degree, coefficient) pairs over a window below -1, across 0, or above 0."""
    if kind == "below":
        lo = rng.randint(-14, -3)
        hi = rng.randint(lo, -2)
    elif kind == "across":
        lo, hi = rng.randint(-8, -1), rng.randint(1, 8)
    else:
        lo = rng.randint(1, 8)
        hi = rng.randint(lo, 14)
    return [(d, 0j if rng.random() < 0.2 else complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            for d in range(lo, hi + 1)]


def _direct_sum(terms, z):
    """sum c z**d over (d, c) pairs, and its majorant sum |c| |z|**d."""
    return (sum(c * z ** d for d, c in terms),
            sum(abs(c) * abs(z) ** d for d, c in terms))


def _jackson_terms(terms, q):
    """[d]_q c z**(d-1) with [d]_q spelled out as its sum of powers of q."""
    out = []
    for d, c in terms:
        powers = range(d) if d > 0 else range(d, 0)
        out += [(d - 1, (c if d > 0 else -c) * q ** j) for j in powers]
    return out


def test_series_operations_match_the_direct_sum():
    rng = random.Random(20)
    for case in range(240):
        kind = ("below", "across", "above")[case % 3]
        s_terms, t_terms = _draw_window(rng, kind), _draw_window(rng, kind)
        s, t = make_series(s_terms), make_series(t_terms)
        z = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))
        lam = cmath.rect(rng.uniform(0.5, 2), rng.uniform(0, 2 * math.pi))
        q = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))
        n = rng.randint(2, 5)
        k = rng.randrange(n)
        alpha = cmath.rect(rng.uniform(0.5, 2), rng.uniform(0, 2 * math.pi))
        checks = {
            "evaluate": (s, s_terms),
            "+": (s + t, s_terms + t_terms),
            "*": (s * t, [(d + e, a * b) for d, a in s_terms for e, b in t_terms]),
            "derivative": (s.derivative(), [(d - 1, d * c) for d, c in s_terms]),
            "scale_argument": (s.scale_argument(lam), [(d, c * lam ** d) for d, c in s_terms]),
            "project_series": (project_series(s, make_context(n), k, alpha_root(alpha, n)),
                               [(d, c * alpha ** ((d - k) // n))
                                for d, c in s_terms if (d - k) % n == 0]),
            "jackson_derivative": (jackson_derivative(s, q), _jackson_terms(s_terms, q)),
        }
        for op, (got, terms) in checks.items():
            want, scale = _direct_sum(terms, z)
            assert abs(got.evaluate(z) - want) <= 1e-12 * scale, (case, kind, op)


def test_scale_argument_on_laurent_degrees():
    s = make_series([(-1, 1), (2, 3)])
    t = s.scale_argument(2)
    assert t.coeff(-1) == 0.5
    assert t.coeff(2) == 12
    assert t.radius == pytest.approx(2.0)
    with pytest.raises(ValueError):
        s.scale_argument(0)


def test_scale_argument_skips_the_power_of_a_zero_coefficient():
    # 2**d passes double range at d = 1024; only zeros (signed ones kept) sit there.
    tail = [complex(-0.0, 0.0), 0j] * 550
    t = TruncatedSeries(-1, [1, 0j, 3] + tail).scale_argument(2)
    assert t.coeffs[:3] == (0.5, 0, 6)
    assert list(map(repr, t.coeffs[3:])) == list(map(repr, tail))
    with pytest.raises(OverflowError):
        TruncatedSeries(0, [0j] * 1100 + [1]).scale_argument(2)


def test_scale_argument_keeps_the_disk_where_a_term_underflowed():
    s = series_exp(64)
    assert s.scale_argument(1e-2).radius == pytest.approx(400.0)
    assert s.scale_argument(2).radius == 2.0
    # 1e-100**d is 0.0 from d = 4 on, so a disk of 4e100 would sum 1 + 3 + 4.5 + 4.5.
    tiny = s.scale_argument(1e-100)
    assert tiny.radius == s.radius
    with pytest.raises(DomainError):
        tiny.evaluate(3e100)


def test_scale_argument_matches_rotated_exponential():
    w = cmath.exp(2j * math.pi / 3)
    s = series_exp(48).scale_argument(w)
    for z in (0.3, 1.1, -0.7 + 0.2j):
        assert abs(s.evaluate(z) - cmath.exp(w * z)) <= 1e-13


def test_scaling_composition_ulp_bound():
    """Two successive scalings match the combined scaling to a few ulp.

    Frozen regime: seeded draws over small Laurent windows with scale
    factors near the unit circle.  Each coefficient sees two rounded
    complex multiplies per route; the measured worst for this seed is
    4.48 ulp and 8.07 ulp across a 200-seed sweep of the same regime.
    """
    rng = random.Random(164)
    worst = 0.0
    for _ in range(150):
        lo = rng.randint(-3, 3)
        hi = min(3, lo + rng.randint(0, 6))
        lam = cmath.rect(rng.uniform(0.8, 1.25), rng.uniform(0, 2 * math.pi))
        mu = cmath.rect(rng.uniform(0.8, 1.25), rng.uniform(0, 2 * math.pi))
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = make_series([(d, c) for d in range(lo, hi + 1)])
        twice = s.scale_argument(lam).scale_argument(mu)
        once = s.scale_argument(lam * mu)
        for d in range(lo, hi + 1):
            a, b = twice.coeff(d), once.coeff(d)
            scale = max(abs(a), abs(b))
            if scale == 0.0:
                assert a == b
                continue
            worst = max(worst, abs(a - b) / math.ulp(scale))
    assert worst <= 8.0, f"worst composition gap {worst} ulp"


def test_power_of_two_scalings_compose_exactly():
    s = make_series([(-3, 1.25), (0, -7), (2, 0.375)])
    assert s.scale_argument(2).scale_argument(4).coeffs == s.scale_argument(8).coeffs


def test_derivative_shifts_exponential():
    d = series_exp(64).derivative()
    assert d.min_deg == 0 and d.max_deg == 63
    assert coeff_close(d, series_exp(63), rel=1e-15, abs_tol=0)


def test_derivative_of_constant_is_zero():
    d = make_series([(0, 5)]).derivative()
    assert d.min_deg == 0 and d.coeffs == (0j,)


def test_derivative_of_laurent_window():
    d = make_series([(-2, 4), (1, 6)]).derivative()
    assert d.coeff(-3) == -8
    assert d.coeff(0) == 6
    assert d.min_deg == -3 and d.max_deg == 0


def test_addition_and_scalar_arithmetic():
    s = make_series([(0, 1), (1, 2)])
    t = make_series([(1, -2), (3, 5)])
    u = s + t
    assert u.coeff(0) == 1 and u.coeff(1) == 0 and u.coeff(3) == 5
    assert (1 + s).coeff(0) == 2
    assert (2 - s).coeff(1) == -2
    assert (3 * s).coeff(1) == 6
    assert (s * 3).coeff(1) == 6
    assert (-s).coeff(0) == -1


@pytest.mark.parametrize("op", [lambda s: s + "x", lambda s: "x" - s, lambda s: s - [1],
                                lambda s: s * None, lambda s: None * s],
                         ids=["add-str", "str-sub", "sub-list", "mul-none", "none-mul"])
def test_arithmetic_with_a_non_number_raises_type_error(op):
    with pytest.raises(TypeError):
        op(make_series([(0, 1), (1, 2)]))


def _union(s, t, lo, hi):
    lo = min(s.min_deg, t.min_deg) if lo is None else lo
    hi = max(s.max_deg, t.max_deg) if hi is None else hi
    return range(lo, hi + 1)


# The per-degree walks that the window-aligned helpers replaced, kept as the
# reference.
def _walk_max_coeff_diff(s, t, lo=None, hi=None):
    return max((abs(s.coeff(d) - t.coeff(d)) for d in _union(s, t, lo, hi)), default=0.0)


def _walk_coeff_residual(s, t, lo=None, hi=None):
    worst = 0.0
    for d in _union(s, t, lo, hi):
        a, b = s.coeff(d), t.coeff(d)
        gap = abs(a - b) / max(1.0, abs(a), abs(b))
        if gap > worst:
            worst = gap
    return worst


def _walk_coeff_close(s, t, rel=1e-9, abs_tol=1e-12):
    for d in _union(s, t, None, None):
        a, b = s.coeff(d), t.coeff(d)
        if abs(a - b) > max(abs_tol, rel * max(abs(a), abs(b))):
            return False
    return True


def test_window_helpers_match_the_per_degree_walks():
    rng = random.Random(5)

    def rand_series(lo, hi):
        return TruncatedSeries(lo, [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                                    for _ in range(hi - lo + 1)])

    windows = [((-5, -3), (4, 7)), ((4, 7), (-5, -3)), ((-3, 2), (-1, 5)),
               ((0, 9), (2, 4)), ((-4, -4), (-4, -4)), ((1, 6), (1, 6))]
    ranges = [(None, None), (-20, 20), (-30, -10), (12, 30), (-1, 3), (5, 2), (3, 3)]
    for (a_lo, a_hi), (b_lo, b_hi) in windows:
        s = rand_series(a_lo, a_hi)
        t = rand_series(b_lo, b_hi)
        # a near copy of s on t's window, so coeff_close sees both outcomes
        near = TruncatedSeries(a_lo, [c * (1 + 1e-11) for c in s.coeffs])
        # s with every other coefficient a signed zero: pairs of equal
        # entries, as two sieved series have, next to unequal ones
        sieved = TruncatedSeries(a_lo, [c if i % 2 else -0j for i, c in enumerate(s.coeffs)])
        for x, y in ((s, t), (s, near), (near, s), (s, s), (s, sieved), (sieved, near)):
            sum_ = x + y
            union = _union(x, y, None, None)
            assert sum_.min_deg == union.start and sum_.max_deg == union.stop - 1
            assert sum_.coeffs == tuple(x.coeff(d) + y.coeff(d) for d in union)
            assert coeff_close(x, y) == _walk_coeff_close(x, y)
            assert coeff_close(x, y, 1e-12, 0.0) == _walk_coeff_close(x, y, 1e-12, 0.0)
            for lo, hi in ranges:
                assert max_coeff_diff(x, y, lo, hi) == _walk_max_coeff_diff(x, y, lo, hi)
                assert coeff_residual(x, y, lo, hi) == _walk_coeff_residual(x, y, lo, hi)
    assert coeff_close(s, near) and not coeff_close(s, near, 1e-13, 0.0)


def test_product_convolution():
    one_plus = make_series([(0, 1), (1, 1)])
    one_minus = make_series([(0, 1), (1, -1)])
    p = one_plus * one_minus
    assert p.coeff(0) == 1 and p.coeff(1) == 0 and p.coeff(2) == -1


def test_product_degree_cap():
    s = make_series([(200, 1)])
    with pytest.raises(ValueError):
        s * s
    t = series_exp(200) * series_exp(200)
    assert t.max_deg == 256


# The double loop that the convolution replaced, kept as the reference.
def _loop_product(s, t):
    lo = s.min_deg + t.min_deg
    hi = min(s.max_deg + t.max_deg, PRODUCT_DEGREE_CAP)
    out = [0j] * (hi - lo + 1)
    for i, a in zip(s.degrees(), s.coeffs):
        if a == 0:
            continue
        for j, b in zip(t.degrees(), t.coeffs):
            d = i + j
            if d > hi:
                break
            out[d - lo] += a * b
    return lo, out


def _exact_product(s, t, lo, hi):
    """The product's coefficients over [lo, hi] in 40-digit arithmetic."""
    with mpmath.workdps(40):
        out = [mpmath.mpc(0)] * (hi - lo + 1)
        for i, a in zip(s.degrees(), s.coeffs):
            for j, b in zip(t.degrees(), t.coeffs):
                if i + j <= hi:
                    out[i + j - lo] += mpmath.mpc(a) * mpmath.mpc(b)
        return [complex(c) for c in out]


def test_product_convolution_matches_the_double_loop_and_mpmath():
    """Each product coefficient is within 1e-14 of the sum of |a_i||b_j|
    over its terms, against the double loop and a 40-digit sum."""
    rng = random.Random(61)

    def rand_series(lo, hi):
        # About a quarter of the coefficients exactly zero.
        return TruncatedSeries(lo, [0j if rng.random() < 0.25
                                    else complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                                    for _ in range(hi - lo + 1)])

    windows = [((0, 0), (0, 0)), ((0, 3), (0, 12)), ((-5, 4), (-2, 7)), ((-9, -3), (2, 5)),
               ((0, 64), (0, 64)), ((0, 256), (0, 256)), ((120, 200), (30, 90)),
               ((250, 256), (0, 3)), ((-6, 130), (-4, 140))]
    for (a_lo, a_hi), (b_lo, b_hi) in windows:
        s, t = rand_series(a_lo, a_hi), rand_series(b_lo, b_hi)
        p = s * t
        lo, want = _loop_product(s, t)
        assert p.min_deg == lo and p.max_deg == lo + len(want) - 1
        assert p.max_deg == min(a_hi + b_hi, PRODUCT_DEGREE_CAP)
        scale = _loop_product(TruncatedSeries(a_lo, [abs(c) for c in s.coeffs]),
                              TruncatedSeries(b_lo, [abs(c) for c in t.coeffs]))[1]
        exact = _exact_product(s, t, p.min_deg, p.max_deg)
        for got, ref, oracle, bound in zip(p.coeffs, want, exact, scale):
            assert abs(got - ref) <= 1e-14 * bound.real
            assert abs(got - oracle) <= 1e-14 * bound.real
        # a factor with only zeros gives an exactly zero product
        zero = TruncatedSeries(b_lo, [0j] * (b_hi - b_lo + 1))
        assert all(c == 0 for c in (s * zero).coeffs)


def test_product_overflow_is_a_value_error():
    big = make_series([(0, 1e200), (1, 1e200j)])
    with pytest.raises(ValueError):
        big * big
    with pytest.raises(ValueError):
        series_exp(4) * big * big


def test_domain_narrows_under_combination():
    mixed = series_exp(4) + series_geometric(4)
    assert mixed.radius == pytest.approx(0.9)
    prod = series_exp(4) * series_geometric(4)
    assert prod.radius == pytest.approx(0.9)
    # A number is an entire constant, so it never narrows the disk.
    p = Polynomial([1, 2])
    for combined in (p + 1, 1 + p, p - 1, 1 - p, sum([p, p])):
        assert combined.radius == math.inf
    assert (p + 1).evaluate(5) == p.evaluate(5) + 1 == 12
    assert (series_exp(4) + 1).radius == series_exp(4).radius


def test_series_json_round_trip():
    s = make_series([(-1, 1 + 2j), (2, -0.125)], label="probe")
    t = series_from_json(series_to_json(s))
    assert t.min_deg == s.min_deg
    assert t.coeffs == s.coeffs
    assert t.label == "probe"


def test_series_json_rejects_garbage():
    with pytest.raises(ValueError):
        series_from_json({"coeffs": [[0, 0]]})
    with pytest.raises(ValueError):
        series_from_json({"min_deg": 0, "coeffs": []})
    with pytest.raises(ValueError):
        series_from_json({"min_deg": 0, "coeffs": [[1]]})
    with pytest.raises(ValueError):
        series_from_json([1, 2])
    with pytest.raises(ValueError):
        series_from_json({"min_deg": 0, "coeffs": [[1, 0]], "label": 7})
    with pytest.raises(ValueError):
        series_from_json({"min_deg": True, "coeffs": [[1, 0], [2, 0]]})
    for entry in ([None, 0], ["1", 0], [1, True], [[1], 0], {"re": 1, "im": 0}):
        with pytest.raises(ValueError):
            series_from_json({"min_deg": 0, "coeffs": [[1, 0], entry]})
    with pytest.raises(ValueError, match="too large"):
        series_from_json({"min_deg": 0, "coeffs": [[10 ** 400, 0]]})


finite_coeffs = st.lists(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6)
unit_points = st.complex_numbers(max_magnitude=1, allow_nan=False,
                                 allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(finite_coeffs, finite_coeffs, unit_points)
def test_evaluation_is_linear(ca, cb, z):
    s = TruncatedSeries(0, ca)
    t = TruncatedSeries(0, cb)
    left = (s + t).evaluate(z)
    right = s.evaluate(z) + t.evaluate(z)
    assert abs(left - right) <= 1e-9 * max(1.0, abs(left), abs(right))


@settings(max_examples=60, deadline=None)
@given(finite_coeffs,
       st.complex_numbers(min_magnitude=0.25, max_magnitude=1.5,
                          allow_nan=False, allow_infinity=False),
       unit_points)
def test_scaling_matches_substitution(ca, lam, z):
    s = TruncatedSeries(0, ca)
    got = s.scale_argument(lam).evaluate(z)
    want = s.evaluate(lam * z)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want))
