"""Hyperbolic component families: series, closed forms, derivative ladder."""

import cmath
import math

import pytest

from cyclofun.cyclic import alpha_root, make_context
from cyclofun.hyperbolic import (
    build_family,
    family_from_json,
    family_to_json,
    g_eval,
    h_eval,
    laurent_component,
)
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


def test_unknown_method_rejected():
    fam = build_family(2, alpha_root(1, 2))
    with pytest.raises(ValueError):
        h_eval(fam, 0, 0.5, "pointwise")


def test_closed_evaluation_respects_domain():
    fam = build_family(2, alpha_root(1, 2))
    with pytest.raises(DomainError):
        h_eval(fam, 0, 5.0, "closed")


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


def test_family_cache_returns_same_object():
    a = build_family(2, alpha_root(1, 2), 32)
    b = build_family(2, alpha_root(1, 2), 32)
    assert a is b
