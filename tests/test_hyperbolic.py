"""Hyperbolic component families: series, closed forms, derivative ladder."""

import cmath
import math
import random
import sys

import mpmath
import numpy as np
import pytest

from cyclofun import demoivre, hyperbolic
from cyclofun.cyclic import alpha_root, make_context
from cyclofun.hyperbolic import (
    HyperbolicFamily,
    _closed_components,
    build_family,
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
    # the closed route's own guards still run: a refused point is kept as its
    # refusal, raised again at every read, and leaves the other rows whole
    far = 800 * z / abs(z)
    with pytest.raises(OverflowError):
        h_eval(fam, 0, far, "closed")
    assert list(fam._memo) == [far] and isinstance(fam._memo[far], OverflowError)
    _closed_components(fam, [z, far, w])
    assert list(fam._memo) == [z, far, w]
    for s in range(4):
        with pytest.raises(OverflowError):
            h_eval(fam, s, far, "closed")
        for point in (w, z):
            want = h_eval(fam, s, point, "series")
            assert abs(h_eval(fam, s, point, "closed") - want) <= 1e-13 * max(1.0, abs(want))
    assert list(fam._memo) == [z, far, w]  # every read above was a memo hit


def _rows_alone(fam, zs):
    """Each point's closed-route row from a batch of its own, as printed."""
    return [repr(_closed_components(fam, [z])[z]) for z in zs]


def test_batched_closed_rows_equal_one_point_rows_bit_for_bit():
    rng = random.Random(16)
    refused = 0
    for n in (2, 3, 5, 16, 64):
        for alpha in (1, -1, 2 + 1j, 1e-6):
            fam = build_family(n, alpha_root(alpha, n))
            zs = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(n + 6)]
            batch = _closed_components(fam, zs)
            assert [repr(batch[z]) for z in zs] == _rows_alone(fam, zs), (n, alpha)
            # and the one-point transform written out, each component settled:
            # exp of omega**k r times z, refused where its rounding bound
            # eps max_k |f| |r|**-s exceeds 1e-9 max(1, |h_s|)
            rotated, weights, factors = fam._kernel
            for z in zs:
                f = np.exp(rotated * z)
                e = sys.float_info.epsilon * max(map(abs, f.tolist()))
                want = []
                for h, c in zip((np.fft.fft(f) * weights).tolist(), factors):
                    err = e * c
                    want.append(err if err > 1e-9 and err > 1e-9 * abs(h) else h)
                assert repr(batch[z]) == repr(want), (n, alpha, z)
                # a read returns its settled value or raises with its settled bound
                for s, h in enumerate(want):
                    if type(h) is float:
                        refused += 1
                        with pytest.raises(DomainError) as info:
                            h_eval(fam, s, z, "closed")
                        assert str(info.value) == (
                            f"closed form rounding bound {h:.3g} at z = {z} exceeds "
                            "1e-9 max(1, |value|); use the series method")
                    else:
                        assert repr(h_eval(fam, s, z, "closed")) == repr(h)
    assert refused > 50  # both sides of the bound are read
    # A refusal names the point as read, not the equal point of the batch.
    fam = build_family(8, alpha_root(1e-40, 8))
    _closed_components(fam, [0j])
    with pytest.raises(DomainError, match=r"at z = \(-0-0j\) exceeds"):
        h_eval(fam, 7, complex(-0.0, -0.0), "closed")


def test_a_refused_point_refuses_only_its_own_row():
    for n in (2, 3, 5, 16, 64):
        for alpha in (1, -1, 2 + 1j, 1e-6):
            fam = build_family(n, alpha_root(alpha, n))
            r = fam.root.root
            # exp overflows at r z = 800, the rotated argument itself at |r z| > 1e308
            zs = [0.5 - 0.25j, 800 / r, 1.25j, 1e308 / min(abs(r), 1) * 4, -2.0]
            batch = _closed_components(fam, zs)
            assert [str(batch[z]) for z in zs[1:4:2]] == [
                f"closed form overflows at z = {zs[1]}",
                f"closed form overflows at z = {zs[3]}: |r z| = inf"], (n, alpha)
            fine = zs[0::2]
            assert [repr(batch[z]) for z in fine] == _rows_alone(fam, fine), (n, alpha)
            _closed_components(fam, zs)
            for s in range(n):
                for z in zs[1:4:2]:
                    with pytest.raises(OverflowError, match="closed form overflows at z = "):
                        h_eval(fam, s, z, "closed")
    # a scalar base is never applied to the arguments of a point refused for them
    fam = build_psi_hyperbolic(PsiSequence.q_deformation(0.5), make_context(2), alpha_root(4, 2))
    batch = _closed_components(fam, [0.25, 1e308])
    assert repr(batch[0.25]) == _rows_alone(fam, [0.25])[0]
    assert str(batch[1e308]) == "closed form overflows at z = 1e+308: |r z| = inf"


def test_identity_suite_reports_equal_without_the_batch(monkeypatch):
    rng = random.Random(3)
    for n in (2, 3, 16):
        for alpha in (1, -1, 2 + 1j, 1e-6):
            a = alpha_root(alpha, n)
            z, w = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
            batched = [repr(r) for r in demoivre.identity_suite(n, a, z, w)]
            with monkeypatch.context() as m:
                m.setattr(demoivre, "_closed_components", lambda fam, zs: None)
                build_family.cache_clear()
                alone = [repr(r) for r in demoivre.identity_suite(n, a, z, w)]
            assert batched == alone, (n, alpha)


def test_a_draw_is_one_closed_batch(monkeypatch):
    # identity_suite hands the kernel every closed-route point of a draw at once,
    # so the kernel runs once and every closed read after it is a memo hit: a
    # miss would call the kernel again through hyperbolic's own binding.
    batches, reads = [], []
    kernel = hyperbolic._closed_components

    def counted_kernel(fam, zs):
        batches.append(list(zs))
        return kernel(fam, zs)

    def recorded_read(fam, s, z, method="series"):
        if method == "closed":
            reads.append(complex(z))
        return h_eval(fam, s, z, method)

    monkeypatch.setattr(demoivre, "_closed_components", counted_kernel)
    monkeypatch.setattr(hyperbolic, "_closed_components", counted_kernel)
    monkeypatch.setattr(demoivre, "h_eval", recorded_read)
    rng = random.Random(17)
    for n in (2, 3, 16):
        for alpha in (1, -1, 2 + 1j):
            batches.clear()
            reads.clear()
            build_family.cache_clear()
            z, w = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
            demoivre.identity_suite(n, alpha_root(alpha, n), z, w)
            assert len(batches) == 1, (n, alpha)
            # six component vectors, and at alpha = 1 the product mean's n (n + 2) reads
            assert len(reads) == 6 * n + (n * (n + 2) if alpha == 1 else 0), (n, alpha)
            assert set(reads) <= set(batches[0]), (n, alpha)


def test_families_never_share_a_closed_memo():
    plus = build_family(3, alpha_root(1, 3))
    minus = build_family(3, alpha_root(-1, 3))
    copy = HyperbolicFamily(plus.ctx, plus.root, plus.components, base=cmath.exp)
    # the closed route on a non-principal branch agrees with the series too
    other = build_family(3, alpha_root(2, 3, branch=1), 16)
    z = 0.5 + 0.5j
    for s in range(3):
        for fam in (plus, minus, copy, other, plus):
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


def test_family_cache_returns_same_object():
    a = build_family(2, alpha_root(1, 2), 32)
    b = build_family(2, alpha_root(1, 2), 32)
    assert a is b


def test_build_family_hits_its_cache_for_an_equal_root():
    fam = build_family(5, alpha_root(3 - 2j, 5), 24)
    hits = build_family.cache_info().hits
    assert build_family(5, alpha_root(3 - 2j, 5), 24) is fam
    assert build_family.cache_info().hits == hits + 1


def test_a_family_built_by_hand_positionally_or_by_keyword():
    ref = build_family(3, alpha_root(2, 3))
    z = 0.5 - 0.25j
    for fam in (HyperbolicFamily(ref.ctx, ref.root, ref.components, cmath.exp),
                HyperbolicFamily(ref.ctx, ref.root, ref.components, base=cmath.exp)):
        assert (fam.ctx, fam.root, fam.components, fam.base) == (
            ref.ctx, ref.root, ref.components, cmath.exp)
        assert fam._memo == {}
        for s in range(3):
            assert h_eval(fam, s, z, "closed") == h_eval(ref, s, z, "closed")
        assert list(fam._memo) == [z]

