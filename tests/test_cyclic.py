"""Residue-class projections: root tables, sieve and pointwise forms."""

import cmath
import math
import random

import pytest

from cyclofun.cyclic import (
    _class_weight,
    alpha_root,
    make_context,
    omega_scale,
    project_pointwise,
    project_series,
)
from cyclofun.series import (
    DomainError,
    TruncatedSeries,
    coeff_close,
    make_series,
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
    assert c4.omega_power(-1) == c4.omega_pow[3]
    assert c4.omega_power(7) == c4.omega_pow[3]
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
def _loop_project(s, ctx, k, a):
    n = ctx.n
    k = int(k) % n
    out = []
    for d, c in zip(s.degrees(), s.coeffs):
        if (d - k) % n == 0:
            out.append(_class_weight(a.alpha, (d - k) // n) * c)
        else:
            out.append(0j)
    return out


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
                        p = project_series(s, ctx, k, a)
                        want = _loop_project(s, ctx, k, a)
                        assert p.min_deg == s.min_deg and p.label == "probe"
                        assert p.coeffs == tuple(want)
                        # bit for bit, signed zeros included
                        assert list(map(repr, p.coeffs)) == list(map(repr, want))


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
                    p = project_series(s, ctx, k, a)
                    want = _loop_project(s, ctx, k, a)
                    assert p.coeffs == tuple(want)
                    for d, got, ref, c in zip(s.degrees(), p.coeffs, want, s.coeffs):
                        expected = c if c == 0 and (d - k) % n == 0 else ref
                        assert repr(got) == repr(expected), (n, min_deg, alpha, k, d)


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
        assert omega_scale(p, ctx).coeffs == (p * ctx.omega_pow[k]).coeffs


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
