"""Residue-class projections: root tables, sieve and pointwise forms."""

import cmath
import math
import random
import re
import sys

import mpmath
import pytest

from cyclofun.cyclic import (
    AlphaRoot,
    _class_weight,
    alpha_root,
    make_context,
    project_pointwise,
    project_series,
)
from cyclofun.hyperbolic import laurent_component
from cyclofun.qpsi import PsiSequence, jackson_derivative, psi_derivative
from cyclofun.series import (
    DomainError,
    TruncatedSeries,
    coeff_close,
    make_series,
    max_coeff_diff,
    series_exp,
    series_geometric,
)


def test_omega_tables():
    c2 = make_context(2)
    assert c2.omega_pow[0] == 1
    assert abs(c2.omega_pow[1] + 1) < 1e-15
    c4 = make_context(4)
    assert abs(c4.omega_pow[1] - 1j) < 1e-15
    assert abs(c4.omega_pow[2] + 1) < 1e-15
    for n in (2, 3, 4, 7):
        ctx = make_context(n)
        for k, w in enumerate(ctx.omega_pow):
            assert abs(abs(w) - 1) < 1e-15
            assert abs(w - cmath.exp(2j * math.pi * k / n)) < 1e-15


def test_character_orthogonality():
    for n in (2, 3, 5, 8):
        ctx = make_context(n)
        for k in range(n):
            for l in range(n):
                total = sum(
                    ctx.omega_pow[(j * k) % n] * ctx.omega_pow[(-j * l) % n]
                    for j in range(n))
                want = n if k == l else 0
                assert abs(total - want) <= n * 1e-13


def test_order_must_be_at_least_two():
    with pytest.raises(ValueError):
        make_context(1)
    with pytest.raises(ValueError):
        alpha_root(1, 1)


def test_root_examples():
    assert alpha_root(1, 3).root == 1
    assert abs(alpha_root(-1, 2).root - 1j) < 1e-15
    r = alpha_root(8, 3, branch=1).root
    assert abs(r - 2 * cmath.exp(2j * math.pi / 3)) < 1e-14
    assert alpha_root(0, 5).root == 0
    assert alpha_root(2, 3, branch=4).branch == 1
    with pytest.raises(ValueError):
        alpha_root(float("nan"), 2)


def test_root_of_an_alpha_whose_phase_underflows():
    # atan2(5e-324, 2) rounds to 0 from a nonzero quotient; the root is that of
    # the real alpha, and a phase that is only subnormal is kept.
    assert alpha_root(2 + 5e-324j, 2).root == alpha_root(2, 2).root
    assert alpha_root(1e10 + 5e-324j, 5, branch=2).root == alpha_root(1e10, 5, branch=2).root
    r = alpha_root(1 + 1e-320j, 2).root
    assert r.real == 1 and r.imag == pytest.approx(5e-321, rel=1e-3)


def test_root_powers_back_to_alpha():
    rng = random.Random(3)
    for _ in range(40):
        alpha = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        n = rng.randint(2, 7)
        branch = rng.randint(0, n - 1)
        a = alpha_root(alpha, n, branch)
        assert abs(a.root ** n - alpha) <= 1e-12 * max(1.0, abs(alpha))


def test_sieve_examples():
    ctx = make_context(3)
    one = alpha_root(1, 3)
    g = project_series(series_geometric(6), ctx, 1, one)
    assert [g.coeff(d) for d in range(7)] == [0, 1, 0, 0, 1, 0, 0]

    zero = alpha_root(0, 3)
    e = project_series(series_exp(8), ctx, 2, zero)
    want = [0.0] * 9
    want[2] = 1 / math.factorial(2)
    assert [e.coeff(d) for d in range(9)] == want


def test_sieve_keeps_window_label_and_domain():
    s = series_geometric(10).with_label("geometric")
    ctx = make_context(2)
    p = project_series(s, ctx, 0, alpha_root(1, 2))
    assert p.min_deg == s.min_deg and p.max_deg == s.max_deg
    assert p.label == s.label
    assert p.radius == s.radius


def test_sieve_divides_the_radius_by_the_root():
    # Component k at z is r**-k times the class sum at r z, so the sieved
    # series converges on the base disk divided by |r|.
    geo = series_geometric(40)
    for n, alpha, want in ((2, 4, 0.45), (3, 8, 0.45), (2, 0.25, 1.8), (4, -16, 0.45),
                           (2, 2j, 0.9 / math.sqrt(2))):
        a = alpha_root(alpha, n)
        for k in range(n):
            p = project_series(geo, make_context(n), k, a)
            assert p.radius == pytest.approx(want, rel=1e-15)
    # alpha = 0 keeps one term per class, a polynomial.
    zero = project_series(series_exp(8), make_context(3), 1, alpha_root(0, 3))
    assert zero.radius == math.inf
    assert zero.evaluate(1e6) == 1e6
    # The scaled disk is enforced: |r z| = 1.6 is outside the base bound 0.9.
    p = project_series(geo, make_context(2), 0, alpha_root(4, 2))
    with pytest.raises(DomainError, match=r"\|z\| = 0.8 exceeds the evaluation bound 0.45"):
        p.evaluate(0.8)
    assert p.evaluate(0.2) == pytest.approx(1 / (1 - 4 * 0.2 ** 2), rel=1e-14)


def test_sieve_keeps_the_input_radius_once_a_coefficient_underflows():
    exp = series_exp(30)
    ctx = make_context(2)
    # (1e-100)**4 == 0 drops a weight; (1e-20)**15 / 30! is below normal range.
    for alpha in (1e-100, 1e-20):
        assert project_series(exp, ctx, 0, alpha_root(alpha, 2)).radius == exp.radius
    # Every sieved coefficient normal: the radius still widens.
    assert project_series(exp, ctx, 0, alpha_root(1e-4, 2)).radius == pytest.approx(
        exp.radius / 1e-2, rel=1e-15)
    # Only widening is undone; a large root still shrinks the disk.
    assert project_series(exp, ctx, 1, alpha_root(1e4, 2)).radius == exp.radius / 100


def test_sieve_weights_negative_classes():
    ctx = make_context(3)
    a = alpha_root(2, 3)
    s = make_series([(-4, 5), (-1, 2), (2, 3)])
    p = project_series(s, ctx, 2, a)
    assert p.coeff(-4) == 5 * 0.25
    assert p.coeff(-1) == 2 * 0.5
    assert p.coeff(2) == 3
    assert p.coeff(0) == 0


# The per-degree loop that the strided slice replaced, kept as the reference.
def _loop_sieve(s, ctx, k, a):
    """The sieve per degree with _class_weight, a zero in the class kept as it is, and its
    radius: the input's over |r|, but the input's once a normal class coefficient fell
    below the normal floats, and infinite at alpha = 0."""
    n, tiny = ctx.n, sys.float_info.min
    k = int(k) % n
    out, radius = [], s.radius / abs(a.root) if a.alpha else math.inf
    for d, c in zip(s.degrees(), s.coeffs):
        in_class = (d - k) % n == 0
        out.append(_class_weight(a.alpha, (d - k) // n) * c if in_class and c else
                   c if in_class else 0j)
        if a.alpha and in_class and abs(out[-1]) < tiny <= abs(c):
            radius = min(radius, s.radius)
    return out, radius


def _assert_sieve_is_the_loop(s, ctx, k, a):
    # bit for bit, signed zeros included, and the radius
    p = project_series(s, ctx, k, a)
    want, radius = _loop_sieve(s, ctx, k, a)
    assert (p.min_deg, p.label) == (s.min_deg, s.label)
    assert list(map(repr, p.coeffs)) == list(map(repr, want))
    assert repr(p.radius) == repr(radius)


def test_strided_sieve_matches_the_per_degree_loop():
    rng = random.Random(23)
    for n in (2, 3, 5, 32):
        ctx = make_context(n)
        # windows shorter than n, one class long, and several periods long
        lengths = sorted({1, 2, n - 1, n, n + 1, 3 * n + 2})
        for min_deg in (-7, 0, 3):
            for length in lengths:
                s = TruncatedSeries(min_deg, [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                              for _ in range(length)], label="probe")
                for alpha in (0, 1, -1, 2 + 1j, 1e-3):
                    a = alpha_root(alpha, n)
                    for k in (-n - 1, -1, 0, 1, n - 1, n, 2 * n + 1):
                        _assert_sieve_is_the_loop(s, ctx, k, a)


@pytest.mark.parametrize("alpha, min_deg, coeffs", [
    # alpha**m overflows from m = 2 (n = 2) or m = 3 (n = 3): only zeros sit there
    (1e200, 0, [1, 0.5 - 1j, 1e-150, 2j, 0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                -0j, 0j, 0j, 0j, complex(-0.0, -0.0), 0j]),
    # the weight 1e-320 is subnormal, so the radius keeps the input's
    (1e-160, 0, [1, -2, 0.5j, 3 + 1j, 1, 1, 2, 1]),
    # every weight normal: the radius widens by 1 / |r|
    (1e-160, 0, [1, -2, 0.5j, 3 + 1j]),
    # a window with negative degrees takes _class_weight's negative powers
    (2 + 1j, -7, [0.25 * (d + 1j) if d % 4 else 0j for d in range(-7, 12)]),
    (1e-3, -5, [complex(-0.0, 1), 1, 0j, 2 - 1j, 1, 3, 0.5, 1e-10]),
    # alpha = 0 keeps each class's m = 0 term and is entire
    (0, 0, [1, 2, 3j, 0j, complex(-0.0, 0.0), 4, 5, 6]),
    (0, -3, [1, 2, 3j, -0j, 4, 5, 6]),
])
def test_sieve_matches_the_per_degree_loop_at_edge_weights(alpha, min_deg, coeffs):
    s = TruncatedSeries(min_deg, coeffs, label="probe")
    for n in (2, 3):
        for k in range(n):
            _assert_sieve_is_the_loop(s, make_context(n), k, alpha_root(alpha, n))


def test_sieve_leaves_zero_coefficients_unweighted():
    # A zero in the class stays the input's own zero; other terms match the loop.
    rng = random.Random(29)
    zeros = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
    for n in (2, 3, 5):
        ctx = make_context(n)
        for min_deg in (-7, 0, 3):
            coeffs = [rng.choice(zeros) if rng.random() < 0.4
                      else complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for _ in range(4 * n + 3)]
            s = TruncatedSeries(min_deg, coeffs)
            for alpha in (0, 1, -1, 2 + 1j, 1e-3):
                a = alpha_root(alpha, n)
                for k in range(n):
                    _assert_sieve_is_the_loop(s, ctx, k, a)


def test_sieve_of_a_long_zero_tail_does_not_overflow():
    # alpha**m passes double range at m = 1024 here; only zeros sit there.
    ctx = make_context(2)
    a = alpha_root(2, 2)
    s = TruncatedSeries(0, [1, 3] + [0j] * 2100)
    p = project_series(s, ctx, 0, a)
    assert p.coeff(0) == 1 and all(c == 0 for c in p.coeffs[1:])
    with pytest.raises(OverflowError):
        project_series(TruncatedSeries(0, [0j] * 2100 + [1]), ctx, 0, a)


def test_zero_weight_kills_other_classes():
    ctx = make_context(2)
    zero = alpha_root(0, 2)
    s = make_series([(-1, 7), (1, 4), (3, 9)])
    p = project_series(s, ctx, 1, zero)
    assert p.coeff(-1) == 0 and p.coeff(1) == 4 and p.coeff(3) == 0


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        project_series(series_exp(4), make_context(3), 0, alpha_root(1, 4))
    with pytest.raises(ValueError):
        project_pointwise(cmath.exp, make_context(3), 0, alpha_root(1, 4), 0.1)


def test_pointwise_matches_library_functions():
    ctx = make_context(2)
    z = 0.8
    plus = alpha_root(1, 2)
    minus = alpha_root(-1, 2)
    assert abs(project_pointwise(cmath.exp, ctx, 0, plus, z) - math.cosh(z)) < 1e-14
    assert abs(project_pointwise(cmath.exp, ctx, 1, plus, z) - math.sinh(z)) < 1e-14
    assert abs(project_pointwise(cmath.exp, ctx, 0, minus, z) - math.cos(z)) < 1e-14
    assert abs(project_pointwise(cmath.exp, ctx, 1, minus, z) - math.sin(z)) < 1e-14


def test_pointwise_zero_weight_rejected():
    ctx = make_context(3)
    with pytest.raises(ValueError):
        project_pointwise(cmath.exp, ctx, 0, alpha_root(0, 3), 0.5)


def test_pointwise_at_origin_returns_f0():
    ctx = make_context(4)
    assert project_pointwise(cmath.exp, ctx, 0, alpha_root(1j, 4), 0) == 1


def test_omega_scale_eigenrelation_is_exact():
    ctx = make_context(3)
    one = alpha_root(1, 3)
    s = make_series([(d, complex(0.3 * d - 1, 0.1 * d)) for d in range(-3, 9)])
    for k in range(3):
        p = project_series(s, ctx, k, one)
        # f(omega z) on class k is omega**k f(z); omega**d by powering
        # rounds, so the match is to rounding, not exact
        rotated = p.scale_argument(ctx.omega_pow[1])
        assert max_coeff_diff(rotated, p * ctx.omega_pow[k]) <= 1e-14


def test_projection_idempotent_at_unit_weight():
    ctx = make_context(4)
    one = alpha_root(1, 4)
    s = series_exp(20)
    for k in range(4):
        p = project_series(s, ctx, k, one)
        assert project_series(p, ctx, k, one).coeffs == p.coeffs
        for l in range(4):
            if l != k:
                q = project_series(p, ctx, l, one)
                assert all(c == 0 for c in q.coeffs)


def test_projection_composition_general_weight():
    ctx = make_context(3)
    s = make_series([(d, complex(math.sin(d + 1), math.cos(2 * d)))
                     for d in range(-4, 13)])
    for alpha in (2, -1, 1j):
        a = alpha_root(alpha, 3)
        for l in range(3):
            p = project_series(s, ctx, l, a)
            twice = project_series(p, ctx, l, a)
            target = p.scale_argument(a.root) * a.root ** (-l)
            assert coeff_close(twice, target, rel=1e-12, abs_tol=1e-14)
            cross = project_series(p, ctx, (l + 1) % 3, a)
            assert all(c == 0 for c in cross.coeffs)


def test_unit_weight_resolution_is_exact_partition():
    ctx = make_context(5)
    one = alpha_root(1, 5)
    s = make_series([(d, complex(d * 0.17 - 0.5, 0.23 * d * d))
                     for d in range(-6, 11)])
    total = project_series(s, ctx, 0, one)
    for k in range(1, 5):
        total = total + project_series(s, ctx, k, one)
    assert total.coeffs == s.coeffs
    assert total.min_deg == s.min_deg


def test_weighted_resolution_recovers_scaled_series():
    s = make_series([(d, complex(0.4 * d + 0.1, -0.05 * d)) for d in range(15)])
    for n, alpha in ((2, -1), (3, 2), (4, 1j), (3, 0.5 - 0.25j)):
        ctx = make_context(n)
        a = alpha_root(alpha, n)
        total = project_series(s, ctx, 0, a)
        for k in range(1, n):
            total = total + project_series(s, ctx, k, a) * a.root ** k
        assert coeff_close(total, s.scale_argument(a.root), rel=1e-12,
                           abs_tol=1e-13)


def test_pointwise_branch_independence():
    ctx = make_context(3)
    z = 0.6 - 0.2j
    vals = [project_pointwise(cmath.exp, ctx, 2, alpha_root(2, 3, b), z)
            for b in range(3)]
    assert max(abs(v - vals[0]) for v in vals) <= 1e-11


def test_series_and_pointwise_projections_agree():
    s = series_exp(64)
    for n in (2, 3, 4):
        ctx = make_context(n)
        for alpha in (1, -1, 2, 1j):
            a = alpha_root(alpha, n)
            for z in (0.35, -0.8, 0.5 + 0.5j):
                for k in range(n):
                    via_series = project_series(s, ctx, k, a).evaluate(z)
                    via_points = project_pointwise(cmath.exp, ctx, k, a, z)
                    assert abs(via_series - via_points) <= 1e-10


def _stride_window(rng, kind, n):
    """A series over a window below -1, across 0 or above 0, with at most
    three class steps either side of 0 (so 1e100**m stays finite), or exp's
    degree-200 window, whose coefficients are 0.0 past degree 170."""
    if kind == "exp":
        return series_exp(200)
    lo, hi = {"below": (rng.randint(-3 * n, -2), -2),
              "across": (rng.randint(-3 * n, -1), rng.randint(0, 3 * n)),
              "above": (rng.randint(1, 2 * n), 3 * n)}[kind]
    hi = rng.randint(lo, hi)
    return TruncatedSeries(lo, [0j if rng.random() < 0.2 else
                                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for _ in range(hi - lo + 1)])


def _outcome(s, z):
    try:
        return s.evaluate(z)
    except DomainError as exc:
        return str(exc)


def test_sieved_component_evaluates_like_its_dense_copy_and_the_direct_sum():
    # A sieve steps through its residue class in z**n; its dense copy, the same
    # coefficients with stride (1, 0), steps through every degree.  Both must
    # match the 50-digit direct sum within 1e-12 sum |c_d| |z|**d.
    overflowed = 0
    rng = random.Random(14)
    alphas = (0, 1, -1, 2 + 1j, 1e-100, 1e100)
    kinds = ("below", "across", "above", "exp")
    case = 0
    for n in range(2, 41):
        ctx = make_context(n)
        for k in range(n):
            alpha, kind = alphas[case % 6], kinds[case // 6 % 4]
            case += 1
            if kind == "exp" and abs(alpha) > 10:
                kind = "above"  # 1e100**m overflows the sieve of exp's long window
            a = alpha_root(alpha, n)
            s = project_series(_stride_window(rng, kind, n), ctx, k, a)
            assert s._stride == (n, k)
            dense = TruncatedSeries(s.min_deg, s.coeffs, radius=s.radius)
            z = cmath.rect(min(s.radius, 2.0) * rng.choice((0.999, 0.7, 0.2)),
                           rng.uniform(0, 2 * math.pi))
            with mpmath.workdps(50):
                terms = [mpmath.mpc(c) * mpmath.mpc(z) ** d
                         for d, c in zip(s.degrees(), s.coeffs) if c]
                want = mpmath.fsum(terms)
                scale = mpmath.fsum(abs(t) for t in terms)
            if scale > 1e300:  # past double range: both refuse, in the same words
                assert _outcome(s, z) == _outcome(dense, z)
                overflowed += 1
                continue
            for value in (s.evaluate(z), dense.evaluate(z)):
                assert abs(value - want) <= 1e-12 * scale, (n, k, alpha, kind, z)
    assert overflowed < case // 10


def test_a_class_step_out_of_range_falls_back_to_the_dense_steps():
    ctx = make_context(2)
    one = alpha_root(1, 2)
    # z**2 overflows: a component with a one-term class (alpha = 0).
    s = project_series(series_exp(8), ctx, 1, alpha_root(0, 2))
    assert s.evaluate(1e200) == 1e200
    s3 = project_series(series_exp(8), make_context(3), 2, alpha_root(0, 3))
    assert s3.evaluate(1e120) == 0.5 * 1e120 * 1e120
    # (1/z)**2 overflows and the dense sum reaches inf: the refusal is the dense one.
    tiny = project_series(make_series([(-3, 1), (-1, 1)]), ctx, 1, one)
    with pytest.raises(DomainError, match="is not finite"):
        tiny.evaluate(1e-200)
    # A class power below the normal floats under a huge coefficient: the class
    # steps would lose the term that the dense steps keep.
    for base, n, k, z, want in (
            (TruncatedSeries(0, [1e-300, 0, 1e300]), 2, 0, 1e-160, 1e-20),  # z**2
            (TruncatedSeries(3, [0, 0, 0, 1e300]), 4, 2, 1e-60, 1e-60),  # z**6
            (make_series([(-1200, 1e300), (-600, 1e300), (-1, 0)]), 600, 0, 3.9,  # z**-600
             1e300 * mpmath.mpf(3.9) ** -600),
            (make_series([(-601, 1e300), (-1, 0)]), 600, 599, 3.9,  # (1/z)**600
             1e300 * mpmath.mpf(3.9) ** -601)):
        s = project_series(base, make_context(n), k, alpha_root(1, n))
        assert abs(s.evaluate(z) - want) <= 1e-12 * want, (n, k)
    # (1/z)**40 shrinks a term of degree -1 that z**-1 keeps: the class steps
    # scale it once, by 1/z, and never shrink it to grow it back.
    for c in (1e-300, 1e-290):
        s = project_series(make_series([(-1, c)]), make_context(40), 39, alpha_root(1, 40))
        assert abs(s.evaluate(4) - c / 4) <= 1e-15 * c / 4
    # An empty half of a class, and errors kept word for word.
    for s, z in ((project_series(make_series([(-3, 1), (2, 5)]), make_context(8), 2,
                                 alpha_root(1, 8)), 0.5),
                 (project_series(series_geometric(8), ctx, 0, alpha_root(4, 2)), 0.8),
                 (project_series(make_series([(-3, 1), (1, 1)]), ctx, 1, one), 0)):
        dense = TruncatedSeries(s.min_deg, s.coeffs, radius=s.radius)
        assert _outcome(s, z) == _outcome(dense, z)


def test_class_steps_match_the_direct_sum_across_the_double_range():
    # Coefficients from 1e-300 to 1e300 and |z| from 1e-300**(1/n) to
    # 1e300**(1/n): the class steps are within 1e-12 sum |c_d| |z|**d of the
    # 60-digit sum wherever the dense steps are, and refuse where they refuse.
    rng = random.Random(7)
    checked = 0
    for _ in range(600):
        n = rng.randint(2, 40)
        k = rng.randrange(n)
        lo = rng.randint(-3 * n, 2 * n)
        hi = rng.randint(lo, lo + 4 * n)
        size = rng.uniform(-280, 280)
        cs = [0j if (d - k) % n or rng.random() < 0.2 else
              complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** (size + rng.uniform(-20, 20))
              for d in range(lo, hi + 1)]
        s = project_series(TruncatedSeries(lo, cs, radius=math.inf), make_context(n), k,
                           alpha_root(1, n))
        dense = TruncatedSeries(lo, s.coeffs, radius=math.inf)
        z = cmath.rect(10 ** rng.uniform(-300 / n, 300 / n), rng.uniform(0, 2 * math.pi))
        try:
            got = s.evaluate(z)
        except (DomainError, OverflowError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                dense.evaluate(z)
            continue
        with mpmath.workdps(60):
            terms = [mpmath.mpc(c) * mpmath.mpc(z) ** d
                     for d, c in zip(s.degrees(), s.coeffs) if c]
            want, scale = mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)
        if 1e-290 < scale and abs(dense.evaluate(z) - want) <= 1e-12 * scale:
            assert abs(got - want) <= 1e-12 * scale, (n, k, lo, hi, z)
            checked += 1
    assert checked > 200


def test_a_sieve_evaluates_by_its_class_steps():
    # Where every class power is a normal float, the value is the class sum
    # itself; the dense steps, which round differently, are not run.
    ctx = make_context(7)
    base = make_series([(d, complex(1 / (d + 30), 0.1 * d)) for d in range(-20, 40)])
    s = laurent_component(base, ctx, alpha_root(2 + 1j, 7), 3)
    dense = TruncatedSeries(s.min_deg, s.coeffs, radius=s.radius)
    zs = [cmath.rect(0.3 + 0.05 * j, j) for j in range(20)]
    assert all(s.evaluate(z) == s._class_sum(z, 7, 3) for z in zs)
    assert any(s.evaluate(z) != dense.evaluate(z) for z in zs)


def test_operations_on_a_sieved_component_are_dense():
    # Only a relabel keeps the stride; every other result evaluates exactly as
    # the same operation on a dense copy of the component.
    ctx = make_context(5)
    a = alpha_root(2 + 1j, 5)
    ps = PsiSequence.q_deformation(0.5)
    for lo in (-7, 0):  # psi derivatives take power series only
        base = make_series([(d, complex(0.3 * d - 1, 0.1 * d)) for d in range(lo, 20)])
        s = laurent_component(base, ctx, a, 3)
        assert s._stride == (5, 3)
        dense = TruncatedSeries(s.min_deg, s.coeffs, radius=s.radius)
        other = project_series(base, ctx, 1, a)
        ops = {
            "+": lambda t: t + other, "*": lambda t: t * other,
            "scalar *": lambda t: t * (2 - 1j), "-": lambda t: t - other,
            "neg": lambda t: -t, "scale_argument": lambda t: t.scale_argument(0.5j),
            "derivative": lambda t: t.derivative(),
            "jackson_derivative": lambda t: jackson_derivative(t, 0.5),
        }
        if lo == 0:
            ops["psi_derivative"] = lambda t: psi_derivative(t, ps)
        for name, op in ops.items():
            got, want = op(s), op(dense)
            assert got._stride == (1, 0), name
            for z in (0.3 + 0.1j, -0.2, 0.25j):
                assert got.evaluate(z) == want.evaluate(z), (name, z)


def test_alpha_root_is_an_immutable_hashable_value():
    a, b = alpha_root(2 + 1j, 4), alpha_root(2 + 1j, 4)
    assert a.branch == 0 and AlphaRoot(a.alpha, a.root, 4).branch == 0
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != alpha_root(2 + 1j, 4, branch=1)
    with pytest.raises(AttributeError):
        a.root = 1j
    with pytest.raises(AttributeError):
        a.extra = 0
    assert repr(AlphaRoot(1 + 0j, 1 + 0j, 2)) == "AlphaRoot(alpha=(1+0j), root=(1+0j), n=2, branch=0)"
    assert repr(alpha_root(4, 2)) == "AlphaRoot(alpha=(4+0j), root=(2+0j), n=2, branch=0)"

