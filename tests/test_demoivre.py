"""Matrix exponentials of the cyclic generator and twisted circulants."""

import cmath
import dataclasses
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

import cyclofun.demoivre as demoivre
from cyclofun.cli import SWEEP_DRAWS
from cyclofun.cyclic import alpha_root, make_context, project_series
from cyclofun.demoivre import (
    TAYLOR_TAIL_BOUND,
    _disk_point,
    cheb_norm,
    circulant_checks,
    circulant_det_direct,
    circulant_det_spectral,
    circulant_from_components,
    circulant_group_law_residual,
    demoivre_matrix,
    demoivre_sweep,
    identity_suite,
    sylvester_matrix,
)
from cyclofun.hyperbolic import build_family, h_eval, laurent_component
from cyclofun.qpsi import qpsi_checks
from cyclofun.reports import (
    IdentityReport,
    all_pass,
    relative_residual,
    reports_to_csv,
    reports_to_json,
)
from cyclofun.series import series_exp, series_geometric


def _gamma(n, alpha):
    """The twisted cyclic shift gamma: ones above the diagonal, alpha in the corner."""
    g = np.eye(n, k=1, dtype=complex)
    g[n - 1, 0] = alpha
    return g


def test_generator_layout():
    g = _gamma(2, 5)
    assert g.tolist() == [[0, 1], [5, 0]]
    g3 = _gamma(3, -1j)
    assert g3[0, 1] == 1 and g3[1, 2] == 1 and g3[2, 0] == -1j
    assert g3[0, 0] == 0 and np.trace(g3) == 0


def test_generator_is_the_circulant_of_the_first_unit_vector():
    # gamma is the twisted circulant whose only nonzero component is c_1 = 1.
    for n in (2, 3, 8):
        for alpha in (1, -1, 5, -1j, 0.3 - 0.2j):
            e1 = [0j] * n
            e1[1] = 1
            assert np.array_equal(circulant_from_components(e1, alpha), _gamma(n, alpha))


def test_generator_power_returns_weight_times_identity():
    rng = random.Random(11)
    for n in range(2, 9):
        alpha = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        g = _gamma(n, alpha)
        got = np.linalg.matrix_power(g, n)
        assert cheb_norm(got - alpha * np.eye(n)) <= 1e-13


def test_matrix_at_zero_is_identity():
    m = demoivre_matrix(3, alpha_root(1, 3), 0)
    assert cheb_norm(m - np.eye(3)) <= 1e-15


def test_rotation_block_for_alternating_weight():
    t = 0.8
    m = demoivre_matrix(2, alpha_root(-1, 2), t)
    want = np.array([[math.cos(t), math.sin(t)],
                     [-math.sin(t), math.cos(t)]])
    assert cheb_norm(m - want) <= 1e-12


def test_assembled_and_taylor_routes_agree():
    for n in (2, 3, 4):
        for alpha in (1, -1, 2, 1j):
            a = alpha_root(alpha, n)
            for z in (0.7, -0.4 + 0.3j, 2.0):
                assembled = demoivre_matrix(n, a, z, "assembled")
                taylor = demoivre_matrix(n, a, z, "taylor")
                assert cheb_norm(assembled - taylor) <= 1e-11
    with pytest.raises(ValueError):
        demoivre_matrix(2, alpha_root(1, 2), 0.5, "secret")


def _dense_taylor(n, alpha, z):
    """The matrix Taylor sum with a dense product per term, the reference for
    the column-shift step."""
    g = _gamma(n, alpha) * z
    total = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    rho = max(1.0, abs(alpha)) * abs(z)
    bound = 1.0
    for k in range(1, 400):
        term = term @ g / k
        total += term
        bound *= rho / k
        if bound < TAYLOR_TAIL_BOUND:
            break
    else:
        raise RuntimeError("matrix Taylor series failed to meet the tail bound")
    return total


def _column_shift_taylor(n, alpha, z):
    """The matrix Taylor sum with each term applied as a column shift, O(n**2)
    per term: the reference for the wrapped-diagonal accumulator."""
    z = complex(z)
    wrap = complex(alpha) * z
    total = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    nxt = np.empty_like(term)
    rho = max(1.0, abs(alpha)) * abs(z)
    bound = 1.0
    for k in range(1, 400):
        np.multiply(term[:, :-1], z / k, out=nxt[:, 1:])
        np.multiply(term[:, -1], wrap / k, out=nxt[:, 0])
        term, nxt = nxt, term
        total += term
        bound *= rho / k
        if bound < TAYLOR_TAIL_BOUND:
            break
    else:
        raise RuntimeError("matrix Taylor series failed to meet the tail bound")
    return total


@pytest.mark.parametrize("n", [2, 3, 5, 8, 128, 256])
def test_taylor_diagonals_equal_the_column_shift_byte_for_byte(n):
    # Each term is one wrapped diagonal; summed per diagonal and placed once,
    # every entry sees the same operations in the same order as the shift.
    for alpha in (0, 1, -1, 1j, 2 + 1j, 1e-3):
        a = alpha_root(alpha, n)
        for z in (0, 0.7, -0.7, 0.7j, -2j, 1 + 1j, 2.5 - 1j):
            want = _column_shift_taylor(n, a.alpha, z)
            got = demoivre_matrix(n, a, z, "taylor")
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (n, alpha, z)


def test_taylor_shift_step_matches_the_dense_product():
    # n = 2 and alpha = 0 exercise the wrap column, which carries alpha z.
    for n in (2, 3, 5, 128):
        for alpha in (0, 1, 2 + 1j):
            a = alpha_root(alpha, n)
            for z in (0.7, -0.4 + 0.3j, 1j, 2.5 - 1j):
                want = _dense_taylor(n, alpha, z)
                got = demoivre_matrix(n, a, z, "taylor")
                assert cheb_norm(got - want) <= 1e-14 * cheb_norm(want), (n, alpha, z)
    for route in (_dense_taylor, _column_shift_taylor, lambda n, alpha, z: demoivre_matrix(
            n, alpha_root(alpha, n), z, "taylor")):
        with pytest.raises(RuntimeError):
            route(3, 1, 300)
    with pytest.raises(ValueError):
        demoivre_matrix(1, alpha_root(1, 2), 0.5, "taylor")


def test_both_routes_match_scipy_expm():
    linalg = pytest.importorskip("scipy.linalg")
    for n in (2, 3, 8, 32, 128, 256):
        for alpha in (1, -1, 2 + 1j, 1.5 * cmath.exp(0.9j), 1e-3):
            a = alpha_root(alpha, n)
            for z in (0.9 * cmath.exp(0.7j), -0.6 + 0.2j, 1.0):
                want = linalg.expm(_gamma(n, alpha) * z)
                scale = max(1.0, cheb_norm(want))
                for route in ("assembled", "taylor"):
                    got = demoivre_matrix(n, a, z, route)
                    assert cheb_norm(got - want) <= 1e-12 * scale, (n, alpha, z, route)


def test_assembled_route_matches_expm_beyond_the_series_disk():
    # The closed route is bounded by its own guards, not by the series radius
    # 4, so the assembled circulant holds far outside it.
    linalg = pytest.importorskip("scipy.linalg")
    for n, alpha, z in ((2, -1, 10), (2, -1, 20), (2, -1, 30), (2, 1, 30), (8, -1, 25j)):
        want = linalg.expm(_gamma(n, alpha) * z)
        got = demoivre_matrix(n, alpha_root(alpha, n), z, "assembled")
        assert cheb_norm(got - want) <= 1e-13 * cheb_norm(want), (n, alpha, z)


def test_matrix_satisfies_the_shift_ode():
    n, a = 3, alpha_root(1, 3)
    g = _gamma(3, 1)
    z, h = 0.4, 1e-5
    lhs = (demoivre_matrix(n, a, z + h) - demoivre_matrix(n, a, z - h)) / (2 * h)
    rhs = g @ demoivre_matrix(n, a, z)
    assert cheb_norm(lhs - rhs) <= 1e-6


def test_circulant_layout():
    m = circulant_from_components([10, 20], 2)
    assert m.tolist() == [[10, 20], [40, 10]]
    m3 = circulant_from_components([1, 2, 3], -1)
    assert m3.tolist() == [[1, 2, 3], [-3, 1, 2], [-2, -3, 1]]
    with pytest.raises(ValueError):
        circulant_from_components([1], 1)


def test_circulant_matches_its_entrywise_definition():
    rng = random.Random(9)
    for n in range(2, 18):
        for alpha in (0, 1, -1, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))):
            vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            want = np.array([[vals[(j - i) % n] * complex(alpha) if j < i else vals[(j - i) % n]
                              for j in range(n)] for i in range(n)])
            got = circulant_from_components(vals, alpha)
            # numpy's complex product may round the last bit differently
            assert np.all(np.abs(got - want) <= 2 * np.finfo(float).eps * np.abs(want))
            # but each alpha * c_k is formed once, so every diagonal is constant.
            assert np.array_equal(got[1:, 1:], got[:-1, :-1])


def _masked_circulant(components, alpha):
    """Gather by (j - i) mod n, then scale the wrapped entries: the reference
    for the strided copy."""
    vals = np.array([complex(c) for c in components])
    n = len(vals)
    offset = np.arange(n) - np.arange(n)[:, None]
    m = vals[offset % n]
    m[offset < 0] *= complex(alpha)
    return m


def test_circulant_strided_copy_matches_the_index_and_mask_build():
    # For these weights and inputs every product alpha * c is exact, so the
    # two builds must agree entry for entry however numpy rounds.
    rng = np.random.default_rng(17)
    for n in (2, 3, 17, 64, 128, 256):
        ints = rng.integers(-50, 50, n).tolist()
        floats = rng.standard_normal(n).tolist()
        cplx = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist()
        for alpha in (0, 1, 2 + 1j):
            for vals in (ints, floats, cplx):
                got = circulant_from_components(vals, alpha)
                assert got.dtype == complex and got.flags["C_CONTIGUOUS"]
                assert got.base is None
                assert np.array_equal(got, _masked_circulant(vals, alpha)), (n, alpha)


def test_circulant_equals_generator_polynomial():
    rng = random.Random(5)
    n = 4
    alpha = 0.3 - 0.2j
    vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    g = _gamma(n, alpha)
    direct = circulant_from_components(vals, alpha)
    summed = sum(vals[k] * np.linalg.matrix_power(g, k) for k in range(n))
    assert cheb_norm(direct - summed) <= 1e-13


def test_spectral_determinant_frozen_values():
    ctx = make_context(3)
    one = alpha_root(1, 3)
    assert abs(circulant_det_spectral([1, 0, 0], ctx, one) - 1) <= 1e-15

    geo = series_geometric(64)
    comps = [laurent_component(geo, ctx, one, k).evaluate(0.3) for k in range(3)]
    assert abs(circulant_det_spectral(comps, ctx, one) - 1.027749229188078) <= 1e-9

    fam = build_family(3, one)
    hz = [h_eval(fam, s, 0.7, "closed") for s in range(3)]
    assert abs(circulant_det_spectral(hz, ctx, one) - 1) <= 1e-10

    with pytest.raises(ValueError):
        circulant_det_spectral([1, 0], ctx, one)


def _spectral_reference(vals, ctx, a):
    """Product over l of the eigenvalue sums sum_k c_k (r omega**l)**k."""
    n = ctx.n
    det = 1 + 0j
    for l in range(n):
        det *= sum(vals[k] * a.root ** k * ctx.omega_pow[(k * l) % n] for k in range(n))
    return det


def test_spectral_determinant_matches_the_eigenvalue_sums():
    rng = random.Random(31)
    for n in range(2, 18):
        ctx = make_context(n)
        for alpha in (0, 1, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))):
            a = alpha_root(alpha, n, branch=rng.randint(0, n - 1))
            vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            want = _spectral_reference(vals, ctx, a)
            got = circulant_det_spectral(vals, ctx, a)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, alpha)


def test_fft_spectral_determinant_at_order_256():
    rng = random.Random(256)
    n = 256
    ctx = make_context(n)
    alpha = cmath.rect(1.5, 0.7)
    # 1 plus a small tail keeps the determinant inside double range
    vals = [1 + 0j] + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.5 / math.sqrt(n)
                       for _ in range(n - 1)]
    direct = circulant_det_direct(circulant_from_components(vals, alpha))
    dets = [circulant_det_spectral(vals, ctx, alpha_root(alpha, n, branch))
            for branch in (0, 1, 100, 255)]
    for det in dets:
        assert abs(det - direct) <= 1e-9 * max(1.0, abs(direct))
        assert abs(det - dets[0]) <= 1e-12 * abs(dets[0])


def test_spectral_matches_lu_on_random_circulants():
    rng = random.Random(77)
    for n in (2, 3, 4, 5):
        ctx = make_context(n)
        for _ in range(5):
            alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            a = alpha_root(alpha, n, branch=rng.randint(0, n - 1))
            vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for _ in range(n)]
            spec = circulant_det_spectral(vals, ctx, a)
            direct = circulant_det_direct(circulant_from_components(vals, alpha))
            assert abs(spec - direct) <= 1e-9 * max(1.0, abs(direct))


def test_sylvester_is_unitary_and_diagonalizes_the_shift():
    for n in (2, 3, 4, 6):
        ctx = make_context(n)
        s = sylvester_matrix(ctx)
        assert cheb_norm(s @ s.conj().T - np.eye(n)) <= 1e-12
        g = _gamma(n, 1)
        d = s.conj().T @ g @ s
        want = np.diag([ctx.omega_pow[l] for l in range(n)])
        assert cheb_norm(d - want) <= 1e-11
        assert cheb_norm(np.linalg.matrix_power(s, 4) - np.eye(n)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 17, 128, 256])
def test_sylvester_is_the_unitary_root_table(n):
    ctx = make_context(n)
    s = sylvester_matrix(ctx)
    scale = 1 / math.sqrt(n)
    assert s.tolist() == [[ctx.omega_pow[(k * l) % n] * scale for l in range(n)]
                          for k in range(n)]
    assert cheb_norm(s @ s.conj().T - np.eye(n)) <= 1e-12


def test_identity_suite_all_pass_at_unit_weight():
    reps = identity_suite(3, alpha_root(1, 3), 0.7, 0.3)
    assert all_pass(reps)
    byname = {r.identity: r for r in reps}
    assert "group_law" in byname and "triple_product" in byname
    assert byname["triple_product_h011"].expect == "gt"
    assert byname["surface_invariant"].residual <= 1e-12
    assert byname["det_unimodular"].residual <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 8, 64])
@pytest.mark.parametrize("alpha", [1, 2 + 1j])
def test_identity_suite_powers_are_the_matrix_power_products(n, alpha):
    # C(z)**2, C(z)**2 C(z) and C(z)**2 C(z)**2 are the products that
    # np.linalg.matrix_power forms for m = 2, 3 and 4, so the residuals keep every bit.
    a = alpha_root(alpha, n)
    z, w = 0.3 + 0.1j, 0.2 - 0.15j
    byname = {r.identity: r.residual for r in identity_suite(n, a, z, w)}
    fam = build_family(n, a, 64)
    circ = lambda v: circulant_from_components([h_eval(fam, s, v, "closed") for s in range(n)],
                                               a.alpha)
    cz = circ(z)
    cz2 = cz @ cz
    for m, power in zip((2, 3, 4), (cz2, cz2 @ cz, cz2 @ cz2)):
        assert np.array_equal(power, np.linalg.matrix_power(cz, m))
        residual = cheb_norm(np.linalg.matrix_power(cz, m) - circ(m * z))
        assert byname[f"matrix_power_m{m}"] == residual


def test_identity_suite_handles_other_weights():
    for alpha in (-1, 2, 1j):
        reps = identity_suite(3, alpha_root(alpha, 3), 0.5, 0.2)
        assert all_pass(reps)
        names = {r.identity for r in reps}
        assert "triple_product" not in names
        assert "product_mean_rotation" not in names
        assert "group_law" in names and "det_product_geometric" in names


def test_geometric_check_keeps_its_point_inside_both_bounds():
    z = 0.99 * cmath.exp(0.4j)
    for n, alpha in ((2, 0), (2, 0.25), (2, 0.3), (3, 1e-2), (8, 1e-4), (16, 1e-6),
                     (3, 1), (4, 9)):
        a = alpha_root(alpha, n)
        rep = next(r for r in identity_suite(n, a, z, 0.1)
                   if r.identity == "det_product_geometric")
        zg = rep.params["z_geometric"]
        assert rep.passed
        assert abs(zg) <= 0.8 + 1e-15 and abs(a.root * zg) <= 0.45 + 1e-15
    # A point already inside both bounds is used as it is.
    rep = next(r for r in identity_suite(3, alpha_root(1, 3), 0.3, 0.1)
               if r.identity == "det_product_geometric")
    assert rep.params["z_geometric"] == 0.3


def test_order_two_surface_is_unimodular():
    reps = identity_suite(2, alpha_root(1, 2), 0.9, 0.2)
    byname = {r.identity: r for r in reps}
    assert byname["surface_invariant"].residual <= 1e-12
    assert all_pass(reps)


def test_quartic_value_recorded_for_order_four():
    reps = identity_suite(4, alpha_root(1, 4), 0.6, 0.1)
    assert all_pass(reps)
    byname = {r.identity: r for r in reps}
    assert "surface_invariant" not in byname


def test_non_exponential_series_break_the_group_law():
    byname = {r.identity: r for r in circulant_checks(64)}
    breaks, holds = byname["group_law_breaks"], byname["det_product_holds"]
    assert breaks.params == holds.params == {"n": 3, "alpha": 1 + 0j, "series": "geometric",
                                             "z": 0.2 + 0j, "w": 0.2 + 0j}
    assert breaks.passed and breaks.expect == "gt"
    assert breaks.residual > 1e-3
    assert holds.passed


def test_exponential_scalings_keep_the_group_law():
    ctx, one = make_context(3), alpha_root(1, 3)
    for lam in (1, 2, -0.7):
        scaled = series_exp(64).scale_argument(lam)
        comps = [project_series(scaled, ctx, k, one) for k in range(3)]
        assert circulant_group_law_residual(comps, 0.2, 0.2) <= 1e-10


def test_circulant_battery_sieves_each_series_once(monkeypatch):
    # One n = 3 context serves the geometric series, exp and exp(2z), each
    # sieved once; the seeded n = 4 circulant takes the second context.
    calls = Counter()
    for name in ("project_series", "make_context"):
        def counted(*args, _real=getattr(demoivre, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(demoivre, name, counted)
    circulant_checks()
    assert calls == {"project_series": 9, "make_context": 2}


def test_circulant_battery_passes():
    reps = circulant_checks()
    assert all_pass(reps)
    assert len(reps) == 6
    names = {r.identity for r in reps}
    assert "group_law_breaks" in names
    assert "geometric_det_value" in names


def test_sweep_aggregates_over_draws():
    reps = demoivre_sweep(3, alpha_root(1, 3), draws=3, seed=5, trunc=48)
    assert all_pass(reps)
    byname = {r.identity: r for r in reps}
    assert byname["group_law"].params["draws"] == 3
    again = demoivre_sweep(3, alpha_root(1, 3), draws=3, seed=5, trunc=48)
    assert [r.residual for r in again] == [r.residual for r in reps]


def test_sweep_reports_the_extreme_draw_of_each_identity():
    n, a, draws, seed = 3, alpha_root(1, 3), 4, 7
    rng = random.Random(seed)
    runs = []
    for _ in range(draws):
        z = _disk_point(rng, 1.0)
        w = _disk_point(rng, 1.0)
        runs.append(identity_suite(n, a, z, w))
    swept = demoivre_sweep(n, a, draws, seed)
    assert [r.identity for r in swept] == [r.identity for r in runs[0]]
    params = {"n": n, "alpha": 1 + 0j, "branch": 0, "draws": draws, "seed": seed}
    not_first = 0
    for i, rep in enumerate(swept):
        residuals = [run[i].residual for run in runs]
        negative = rep.identity == "triple_product_h011"
        assert rep.expect == ("gt" if negative else "le")
        assert rep.residual == (min(residuals) if negative else max(residuals)), rep.identity
        assert rep.tolerance == runs[0][i].tolerance and rep.params == params
        not_first += rep.residual != residuals[0]
    # the draws differ, so the reduction picks a later draw for most identities,
    # the negative control among them
    assert not_first >= len(swept) // 2
    k = [r.identity for r in swept].index("triple_product_h011")
    assert min(run[k].residual for run in runs) < runs[0][k].residual


def test_sweep_keeps_the_first_of_equal_or_incomparable_residuals(monkeypatch):
    nan = float("nan")
    draws = iter([[(0.0, "le"), (nan, "le"), (1.0, "le"), (-0.0, "gt"), (2.0, "gt")],
                  [(-0.0, "le"), (3.0, "le"), (nan, "le"), (0.0, "gt"), (nan, "gt")],
                  [(0.0, "le"), (2.0, "le"), (0.5, "le"), (-0.0, "gt"), (1.0, "gt")]])

    def fake_suite(n, a, z, w, trunc):
        return [IdentityReport(f"id{k}", {}, res, 1.0, expect)
                for k, (res, expect) in enumerate(next(draws))]

    monkeypatch.setattr(demoivre, "identity_suite", fake_suite)
    got = [r.residual for r in demoivre_sweep(2, alpha_root(1, 2), 3, 0)]
    assert math.copysign(1, got[0]) == 1  # 0.0 first; -0.0 is no larger
    assert math.isnan(got[1])  # nothing compares greater than nan
    assert got[2] == 1.0  # nan is not greater than 1.0
    assert math.copysign(1, got[3]) == -1  # -0.0 first; 0.0 is no smaller
    assert got[4] == 1.0  # nan is not smaller than 2.0, 1.0 is


def test_relative_residual_is_absolute_below_one_and_relative_above():
    assert relative_residual(0.75, 0.5) == 0.25
    assert relative_residual(1.25, 1.0) == 0.25
    assert relative_residual(12.0, 8.0) == 0.5
    assert relative_residual(8.0, 12.0) == 4.0 / 12.0
    assert relative_residual(3 + 4j, 0) == 5.0
    assert relative_residual(0, 3 + 4j) == 1.0
    assert relative_residual(-1e300, 1e300) == 2.0
    inf, nan = float("inf"), float("nan")
    for bad in (inf, -inf, nan, complex(inf, 0), complex(0, nan), complex(inf, nan)):
        for value, ref in ((bad, 1.0), (1.0, bad), (bad, bad)):
            with pytest.raises(OverflowError):
                relative_residual(value, ref)


def test_report_serialization_shapes():
    rep = IdentityReport("check", {"n": 2, "alpha": 1 + 0j}, 1e-12, 1e-10)
    data = reports_to_json([rep])[0]
    assert data["pass"] is True and data["identity"] == "check"
    assert data["params"]["alpha"] == [1.0, 0.0]
    csv_text = reports_to_csv([rep])
    lines = csv_text.splitlines()
    assert lines[0] == "identity,n,alpha_re,alpha_im,residual,pass"
    assert lines[1].startswith("check,2,1,0,")
    with pytest.raises(ValueError):
        IdentityReport("x", {}, 0.0, 0.0, "maybe")


def test_every_battery_report_is_json_ready_without_a_default():
    # to_dict converts a complex param one level deep; a complex value nested in a
    # list or dict would reach json.dumps as it is and raise TypeError here.
    reports = []
    for seed in range(4):  # verify --suite all
        reports += demoivre_sweep(3, alpha_root(1, 3), SWEEP_DRAWS, seed)
        reports += circulant_checks(seed=seed)
        reports += qpsi_checks(0.5, seed)
    for q in (2, 3, 1.5, -2, 0.3 + 0.4j, -0.5):
        reports += qpsi_checks(q, 0)
    for n, alpha in ((2, -1), (3, 1), (8, 2 + 1j)):
        reports += demoivre_sweep(n, alpha_root(alpha, n), SWEEP_DRAWS, 0)
    data = json.loads(json.dumps(reports_to_json(reports)))
    assert [d["identity"] for d in data] == [r.identity for r in reports]
    assert data[0]["params"]["alpha"] == [1.0, 0.0]


def test_identity_report_keeps_the_dataclass_repr_and_validation():
    Dataclass = dataclasses.make_dataclass("IdentityReport", [
        ("identity", str), ("params", dict), ("residual", float), ("tolerance", float),
        ("expect", str)])
    fields = ("check", {"n": 2, "alpha": 1 + 0j}, 1e-12, 1e-10, "gt")
    rep = IdentityReport(*fields)
    assert repr(rep) == repr(Dataclass(*fields))
    assert repr(IdentityReport("bare")) == repr(Dataclass("bare", {}, 0.0, 0.0, "le"))
    assert IdentityReport("a").params is not IdentityReport("b").params
    with pytest.raises(ValueError, match="expect must be 'le' or 'gt', got 'maybe'"):
        IdentityReport("x", {}, 0.0, 0.0, "maybe")
    loose = rep.with_tolerance(1)
    assert loose is not rep and repr(rep) == repr(Dataclass(*fields))
    assert repr(loose) == repr(Dataclass(*fields[:3], 1.0, "gt"))
    assert not rep.passed and rep.with_tolerance(0.0).passed

