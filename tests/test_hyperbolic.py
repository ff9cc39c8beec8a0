"""Hyperbolic component families: series, closed forms, derivative ladder."""

import cmath
import math

import mpmath
import pytest

from cyclofun.cyclic import alpha_root, make_context
from cyclofun.hyperbolic import (
    HyperbolicFamily,
    build_family,
    family_from_json,
    family_to_json,
    g_eval,
    h_eval,
    laurent_component,
)
from cyclofun.qpsi import PsiSequence, build_psi_hyperbolic
from cyclofun.series import (
    DomainError,
    max_coeff_diff,
    series_geometric,
)


def test_order_two_components_are_cosh_and_sinh():
    fam = build_family(2, alpha_root(1, 2), 20)
    even, odd = fam.components
    for k in range(21):
        want_even = 1 / math.factorial(k) if k % 2 == 0 else 0
        want_odd = 1 / math.factorial(k) if k % 2 == 1 else 0
        assert even.coeff(k) == want_even
        assert odd.coeff(k) == want_odd
    z = 0.9
    assert abs(h_eval(fam, 0, z) - math.cosh(z)) < 1e-14
    assert abs(h_eval(fam, 1, z) - math.sinh(z)) < 1e-14


def test_alternating_weight_gives_cos_and_sin():
    fam = build_family(2, alpha_root(-1, 2), 20)
    for k in range(0, 21, 2):
        assert fam.components[0].coeff(k) == (-1) ** (k // 2) / math.factorial(k)
    z = 1.1
    assert abs(h_eval(fam, 0, z) - math.cos(z)) < 1e-14
    assert abs(h_eval(fam, 1, z) - math.sin(z)) < 1e-14
    assert abs(h_eval(fam, 0, z, "closed") - math.cos(z)) < 1e-14
    assert abs(h_eval(fam, 1, z, "closed") - math.sin(z)) < 1e-14


def test_zero_weight_components_are_monomials():
    fam = build_family(3, alpha_root(0, 3), 12)
    for s in range(3):
        comp = fam.components[s]
        for d in range(13):
            want = 1 / math.factorial(d) if d == s else 0
            assert comp.coeff(d) == want
    with pytest.raises(ValueError):
        h_eval(fam, 0, 0.5, "closed")


def test_component_coefficients_follow_weight_powers():
    alpha = 2 + 1j
    fam = build_family(3, alpha_root(alpha, 3), 30)
    comp = fam.components[1]
    for m in range(10):
        d = 3 * m + 1
        want = alpha ** m / math.factorial(d)
        assert abs(comp.coeff(d) - want) <= 1e-14 * max(1.0, abs(want))


def test_series_and_closed_evaluations_agree():
    for n in (2, 3, 4):
        for alpha in (1, -1, 2, 1j):
            fam = build_family(n, alpha_root(alpha, n))
            for z in (0.4, -1.3, 0.8 + 0.6j, 2.0):
                for s in range(n):
                    a = h_eval(fam, s, z, "series")
                    b = h_eval(fam, s, z, "closed")
                    assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


def _exp_components_mp(n, alpha, z, digits=30):
    """h_s(z) = sum_m alpha**m z**(n m + s) / (n m + s)! summed in mpmath."""
    with mpmath.workdps(digits):
        alpha, z = mpmath.mpc(alpha), mpmath.mpc(z)
        out = [mpmath.mpc(0)] * n
        term = mpmath.mpc(1)  # z**d / d!
        for d in range(n + 80):
            out[d % n] += alpha ** (d // n) * term
            term = term * z / (d + 1)
        return [complex(v) for v in out]


def test_closed_component_vector_matches_mpmath():
    z = 0.6 + 0.3j
    for n in (2, 3, 8, 64, 256):
        for alpha in (1, -1, 2 + 1j):
            a = alpha_root(alpha, n)
            fam = build_family(n, a)
            got = [h_eval(fam, s, z, "closed") for s in range(n)]
            want = _exp_components_mp(n, alpha, z)
            # the FFT of the n rotated exponentials loses a few ulps of the
            # largest one, scaled by the weight r**-s
            size = max(abs(cmath.exp(w * a.root * z)) for w in fam.ctx.omega_pow)
            for s in range(n):
                tol = 1e-14 * size * abs(a.root) ** -s
                assert abs(got[s] - want[s]) <= tol, (n, alpha, s)


def test_closed_memo_never_returns_another_points_values():
    fam = build_family(4, alpha_root(2 - 1j, 4))
    z, w = 0.7 - 0.2j, -0.3 + 1.1j
    for s in range(4):
        for point in (z, w, z, z, w):
            want = h_eval(fam, s, point, "series")
            assert abs(h_eval(fam, s, point, "closed") - want) <= 1e-13 * max(1.0, abs(want))
    # the closed route's own guards still run, and a refused point leaves the
    # memo on the earlier point
    with pytest.raises(OverflowError):
        h_eval(fam, 0, 800 * z / abs(z), "closed")
    assert fam._memo[0] == w


def test_families_never_share_a_closed_memo():
    plus = build_family(3, alpha_root(1, 3))
    minus = build_family(3, alpha_root(-1, 3))
    copy = family_from_json(family_to_json(plus))
    z = 0.5 + 0.5j
    for s in range(3):
        for fam in (plus, minus, copy, plus):
            want = h_eval(fam, s, z, "series")
            assert abs(h_eval(fam, s, z, "closed") - want) <= 1e-13 * max(1.0, abs(want))
    assert abs(h_eval(plus, 1, z, "closed") - h_eval(minus, 1, z, "closed")) > 1e-3


def test_closed_route_applies_a_scalar_base_one_argument_at_a_time():
    # the deformed family's base is its series' evaluate, which takes one
    # complex argument and checks its own domain
    ps = PsiSequence.q_deformation(0.5)
    for n in (2, 3, 5):
        for alpha in (1, -1, 2 + 1j):
            fam = build_psi_hyperbolic(ps, make_context(n), alpha_root(alpha, n))
            for z in (0.9, 0.4 - 0.3j, 0.9):
                for s in range(n):
                    want = h_eval(fam, s, z, "series")
                    got = h_eval(fam, s, z, "closed")
                    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (n, alpha, z, s)
    fam = build_psi_hyperbolic(ps, make_context(2), alpha_root(4, 2))
    with pytest.raises(DomainError):
        h_eval(fam, 0, 1.0, "closed")  # |r z| = 2 is past the base bound 1.8
    # a family built by hand with the scalar library exponential takes the
    # vector route of build_family's, which applies cmath.exp as np.exp
    ref = build_family(3, alpha_root(2 + 1j, 3))
    fam = HyperbolicFamily(ref.ctx, ref.root, ref.components, base=cmath.exp)
    z = 0.6 + 0.3j
    for s in range(3):
        assert h_eval(fam, s, z, "closed") == h_eval(ref, s, z, "closed")


def test_unknown_method_rejected():
    fam = build_family(2, alpha_root(1, 2))
    with pytest.raises(ValueError):
        h_eval(fam, 0, 0.5, "pointwise")


def test_closed_evaluation_respects_domain():
    # The closed route is bounded by its own guards, not by the series disk
    # (radius 4 here): beyond that disk it agrees with mpmath.
    fam = build_family(2, alpha_root(1, 2))
    with pytest.raises(DomainError):
        h_eval(fam, 0, 5.0, "series")
    for z in (5.0, -6.5, 3 + 4j):
        for s, f in enumerate((mpmath.cosh, mpmath.sinh)):
            with mpmath.workdps(30):
                want = complex(f(mpmath.mpc(z)))
            assert abs(h_eval(fam, s, z, "closed") - want) <= 1e-15 * abs(want), (z, s)
    # it still refuses a point where exp overflows
    with pytest.raises(OverflowError, match="closed form overflows at z = "):
        h_eval(fam, 0, 800.0, "closed")


def test_geometric_closed_form_values():
    ctx = make_context(2)
    assert abs(g_eval(ctx, alpha_root(1, 2), 0, 0.5) - 4 / 3) < 1e-14
    ctx3 = make_context(3)
    got = g_eval(ctx3, alpha_root(1, 3), 1, 0.3)
    assert abs(got - 0.30832476875642345) < 1e-15
    with pytest.raises(DomainError):
        g_eval(ctx3, alpha_root(1, 3), 0, 0.95)
    with pytest.raises(ValueError):
        g_eval(ctx3, alpha_root(0, 3), 0, 0.1)


def test_geometric_closed_form_matches_mpmath():
    # points with |r z| up to just inside the 0.9 bound, in several directions
    for n in (2, 3, 8, 32):
        ctx = make_context(n)
        for alpha in (1, -1, 2 + 1j, 4, 1e-40):
            a = alpha_root(alpha, n)
            for u in (0.2, 0.5 + 0.6j, -0.899j, 0.899, 0.63 - 0.63j):
                z = u / abs(a.root)
                with mpmath.workdps(30):
                    zm = mpmath.mpc(z)
                    want = [complex(zm ** l / (1 - mpmath.mpc(alpha) * zm ** n))
                            for l in range(n)]
                for l in range(n):
                    got = g_eval(ctx, a, l, z)
                    assert abs(got - want[l]) <= 1e-14 * abs(want[l]), (n, alpha, u, l)


def test_closed_route_refuses_values_lost_to_rounding():
    # |alpha| = 1e-40 at n = 8: the weight r**-7 = 1e35 lifts the transform's
    # rounding error far above the value h_7(1) = 1/7! + ...
    fam = build_family(8, alpha_root(1e-40, 8))
    with pytest.raises(DomainError):
        h_eval(fam, 7, 1, "closed")
    assert abs(h_eval(fam, 7, 1, "series") - 1 / math.factorial(7)) <= 1e-18
    for n in (2, 3, 8, 64):
        for alpha in (1, -1, 2 + 1j, 1e-3):
            fam = build_family(n, alpha_root(alpha, n))
            for z in (0.3, 1 - 2j, -3.5j, 4.0, -2.8 + 2.8j):
                for s in range(n):
                    h_eval(fam, s, z, "closed")


def test_geometric_closed_matches_sieved_series():
    ctx = make_context(3)
    a = alpha_root(2, 3)
    geo = series_geometric(96)
    for l in range(3):
        comp = laurent_component(geo, ctx, a, l)
        for z in (0.1, 0.25, -0.3):
            assert abs(comp.evaluate(z) - g_eval(ctx, a, l, z)) <= 1e-10


def test_laurent_component_label():
    ctx = make_context(3)
    comp = laurent_component(series_geometric(6), ctx, alpha_root(1, 3), 1)
    assert comp.label == "geometric[1 mod 3]"


def test_derivative_steps_down_one_component():
    for n in (2, 3, 4, 5):
        for alpha in (1, -1, 0, 2, 1j):
            fam = build_family(n, alpha_root(alpha, n), 40)
            for l in range(n):
                d = fam.components[l].derivative()
                if l >= 1:
                    target = fam.components[l - 1]
                else:
                    target = fam.components[n - 1] * complex(alpha)
                assert max_coeff_diff(d, target, 0, 39 - n) <= 1e-13


def test_full_cycle_of_derivatives_multiplies_by_weight():
    fam = build_family(3, alpha_root(-1, 3), 40)
    for l in range(3):
        cur = fam.components[l]
        for _ in range(3):
            cur = cur.derivative()
        assert max_coeff_diff(cur, fam.components[l] * (-1 + 0j), 0, 30) <= 1e-13


def test_components_partition_the_exponential():
    fam = build_family(4, alpha_root(1, 4), 48)
    total = fam.components[0]
    for k in range(1, 4):
        total = total + fam.components[k]
    for z in (0.5, 2.0, -1 + 1j):
        assert abs(total.evaluate(z) - cmath.exp(z)) <= 1e-11


def test_rotated_exponential_expands_in_components():
    n = 3
    fam = build_family(n, alpha_root(1, n))
    ctx = fam.ctx
    for l in range(n):
        for z in (0.7, -0.4 + 0.9j):
            direct = cmath.exp(ctx.omega_pow[l] * z)
            summed = sum(ctx.omega_pow[(k * l) % n] * h_eval(fam, k, z)
                         for k in range(n))
            assert abs(direct - summed) <= 1e-11


def test_weighted_resolution_reconstructs_base_function():
    n = 3
    a = alpha_root(2, n)
    fam = build_family(n, a)
    ctx = fam.ctx
    for l in range(n):
        y = ctx.omega_pow[l] * a.root
        for z in (0.6, -0.5 + 0.3j):
            direct = cmath.exp(y * z)
            summed = sum(y ** k * h_eval(fam, k, z) for k in range(n))
            assert abs(direct - summed) <= 1e-10

    geo = series_geometric(96)
    ga = alpha_root(0.5, 3)
    for l in range(3):
        y = ctx.omega_pow[l] * ga.root
        z = 0.4
        direct = 1 / (1 - y * z)
        summed = sum(y ** k * laurent_component(geo, ctx, ga, k).evaluate(z)
                     for k in range(3))
        assert abs(direct - summed) <= 1e-10


def test_family_json_round_trip():
    fam = build_family(3, alpha_root(2, 3, branch=1), 16)
    back = family_from_json(family_to_json(fam))
    assert back.ctx.n == 3 and back.kind == "exp"
    assert back.root.branch == 1
    assert abs(back.root.root - fam.root.root) < 1e-15
    for mine, theirs in zip(fam.components, back.components):
        assert mine.coeffs == theirs.coeffs
    z = 0.4 + 0.2j
    assert abs(h_eval(back, 2, z, "closed") - h_eval(fam, 2, z, "closed")) < 1e-14


def test_family_json_rejects_garbage():
    with pytest.raises(ValueError):
        family_from_json({"n": 3})
    blob = family_to_json(build_family(2, alpha_root(1, 2), 4))
    blob["components"] = blob["components"][:1]
    with pytest.raises(ValueError):
        family_from_json(blob)
    blob = family_to_json(build_family(2, alpha_root(1, 2), 4))
    blob["alpha"] = [None, 0]
    with pytest.raises(ValueError):
        family_from_json(blob)
    for key, bad in (("n", 2.9), ("n", True), ("n", "2"), ("branch", 0.5),
                     ("branch", False)):
        blob = family_to_json(build_family(2, alpha_root(1, 2), 4))
        blob[key] = bad
        with pytest.raises(ValueError):
            family_from_json(blob)


def test_family_cache_returns_same_object():
    a = build_family(2, alpha_root(1, 2), 32)
    b = build_family(2, alpha_root(1, 2), 32)
    assert a is b
