"""Acceptance gate: one timed check per shipped guarantee.

Run `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import cmath
import json
import math
import random
import subprocess
import sys
import time

import pytest

from cyclofun.cyclic import alpha_root, make_context, project_series
from cyclofun.demoivre import (
    circulant_det_direct,
    circulant_det_spectral,
    circulant_from_components,
    circulant_group_law_residual,
    demoivre_sweep,
    identity_suite,
    negative_check_non_exp,
)
from cyclofun.hyperbolic import build_family, h_eval, laurent_component
from cyclofun.qpsi import (
    PsiSequence,
    build_psi_hyperbolic,
    jackson_derivative,
    laguerre_family,
    lowering_operator_apply,
    q_number,
    verify_generating_function,
)
from cyclofun.series import (
    DomainError,
    coeff_residual,
    make_series,
    series_exp,
    series_geometric,
)


class criterion:
    """Times a block and prints a single PASS/FAIL line for it."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.budget = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed <= self.budget
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None and elapsed > self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget")
        return False


def test_criterion_1_classical_specialization():
    with criterion(1, "order-2 components reduce to cosh/sinh and cos/sin", 1.0):
        rng = random.Random(101)
        plus = build_family(2, alpha_root(1, 2))
        minus = build_family(2, alpha_root(-1, 2))
        for _ in range(64):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) > 2:
                z *= 2 / abs(z)
            for method in ("series", "closed"):
                pairs = [
                    (h_eval(plus, 0, z, method), cmath.cosh(z)),
                    (h_eval(plus, 1, z, method), cmath.sinh(z)),
                    (h_eval(minus, 0, z, method), cmath.cos(z)),
                    (h_eval(minus, 1, z, method), cmath.sin(z)),
                ]
                for got, want in pairs:
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_criterion_2_projection_resolution():
    with criterion(2, "projections are orthogonal and resolve the identity", 2.0):
        rng = random.Random(202)
        for n in range(2, 7):
            ctx = make_context(n)
            one = alpha_root(1, n)
            for _ in range(20):
                lo = rng.randint(-6, 0)
                hi = lo + rng.randint(0, 14)
                s = make_series(
                    [(d, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
                     for d in range(lo, hi + 1)])
                comps = [project_series(s, ctx, k, one) for k in range(n)]
                total = comps[0]
                for c in comps[1:]:
                    total = total + c
                assert total.coeffs == s.coeffs
                k = rng.randrange(n)
                p = comps[k]
                assert project_series(p, ctx, k, one).coeffs == p.coeffs
                cross = project_series(p, ctx, (k + 1) % n, one)
                assert all(c == 0 for c in cross.coeffs)
            for alpha in (-1, 2, 1j):
                a = alpha_root(alpha, n)
                s = make_series(
                    [(d, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
                     for d in range(12)])
                total = project_series(s, ctx, 0, a)
                for k in range(1, n):
                    total = total + project_series(s, ctx, k, a) * a.root ** k
                assert coeff_residual(total, s.scale_argument(a.root)) <= 1e-12
            zero = alpha_root(0, n)
            s = make_series([(d, 1.0) for d in range(3 * n)])
            for k in range(n):
                p = project_series(s, ctx, k, zero)
                support = [d for d in range(p.min_deg, p.max_deg + 1)
                           if p.coeff(d) != 0]
                assert support == [k]


def test_criterion_3_matrix_identities_over_draws():
    with criterion(3, "matrix group law and companions hold over 50 draws", 2.0):
        rng = random.Random(303)
        one = alpha_root(1, 3)
        for _ in range(50):
            z = cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
            w = cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
            for rep in identity_suite(3, one, z, w):
                assert rep.passed, (rep.identity, rep.residual, z, w)
        for alpha in (-1, 2):
            reps = identity_suite(3, alpha_root(alpha, 3), 0.45 + 0.2j, 0.3)
            assert all(r.passed for r in reps)
            byname = {r.identity: r for r in reps}
            assert byname["surface_invariant"].residual <= 1e-10


def test_criterion_4_determinant_factorization():
    with criterion(4, "spectral, LU, and product determinants coincide", 1.0):
        for n in (2, 3, 4):
            ctx = make_context(n)
            for alpha in (1, -1, 2):
                a = alpha_root(alpha, n)
                fam = build_family(n, a)
                hz = [h_eval(fam, s, 0.7, "closed") for s in range(n)]
                spec = circulant_det_spectral(hz, ctx, a)
                direct = circulant_det_direct(
                    circulant_from_components(hz, alpha))
                prod = 1 + 0j
                for l in range(n):
                    prod *= cmath.exp(ctx.omega_pow[l] * a.root * 0.7)
                assert abs(spec - direct) <= 1e-9 * max(1.0, abs(direct))
                assert abs(spec - prod) <= 1e-9 * max(1.0, abs(prod))

                geo = series_geometric(96)
                gz = [laurent_component(geo, ctx, a, k).evaluate(0.3)
                      for k in range(n)]
                gspec = circulant_det_spectral(gz, ctx, a)
                gdirect = circulant_det_direct(
                    circulant_from_components(gz, alpha))
                gprod = 1 + 0j
                for l in range(n):
                    gprod *= 1 / (1 - ctx.omega_pow[l] * a.root * 0.3)
                assert abs(gspec - gdirect) <= 1e-9 * max(1.0, abs(gdirect))
                assert abs(gspec - gprod) <= 1e-9 * max(1.0, abs(gprod))
        ctx = make_context(3)
        one = alpha_root(1, 3)
        geo = series_geometric(96)
        comps = [laurent_component(geo, ctx, one, k).evaluate(0.3)
                 for k in range(3)]
        frozen = circulant_det_spectral(comps, ctx, one)
        assert abs(frozen - 1.027749229188078) <= 1e-9


def test_criterion_5_negative_controls():
    with criterion(5, "non-exponential input breaks the group law only", 1.0):
        geo = series_geometric(64)
        reps = negative_check_non_exp(geo, 3, 0.2, 0.2)
        byname = {r.identity: r for r in reps}
        assert byname["group_law_breaks"].residual > 1e-3
        assert byname["det_product_holds"].residual < 1e-9
        assert circulant_group_law_residual(series_exp(64), 3, 0.2, 0.2) < 1e-10
        scaled = series_exp(64).scale_argument(2)
        assert circulant_group_law_residual(scaled, 3, 0.2, 0.2) < 1e-10


def test_criterion_6_deformed_calculus():
    with criterion(6, "q-Leibniz, component ladder, lowering, q->1 limit", 3.0):
        rng = random.Random(606)
        f = make_series([(d, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                         for d in range(13)])
        g = make_series([(d, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                         for d in range(13)])
        for q in (0.5, 2.0):
            lhs = jackson_derivative(f * g, q)
            rhs = (jackson_derivative(f, q) * g
                   + f.scale_argument(q) * jackson_derivative(g, q))
            assert coeff_residual(lhs, rhs) <= 1e-11

            ps = PsiSequence.q_deformation(q)
            for n in (2, 3, 4):
                ctx = make_context(n)
                for alpha in (1, -1, 2):
                    a = alpha_root(alpha, n)
                    fam = build_psi_hyperbolic(ps, ctx, a, 48)
                    for l in range(n):
                        cur = fam.components[l]
                        factor = 1 + 0j
                        for k in range(1, n + 1):
                            cur = jackson_derivative(cur, q)
                            if (l - (k - 1)) % n == 0:
                                factor *= complex(alpha)
                            target = fam.components[(l - k) % n] * factor
                            assert coeff_residual(
                                cur, target, 0, 48 - k - n) <= 1e-11

            fam_l = laguerre_family(5, q)
            for n in range(1, 6):
                got = lowering_operator_apply(fam_l[n], q)
                want = fam_l[n - 1] * q_number(q, n)
                assert coeff_residual(got, want) <= 1e-10

        near = PsiSequence.q_deformation(1 + 1e-8, cap=40)
        plain = PsiSequence.classical(cap=40)
        for n in range(11):
            assert abs(near.number(n) - n) <= 1e-6
        for n in range(33):
            ref = plain.psi_weight(n)
            assert abs(near.psi_weight(n) - ref) <= 1e-5 * abs(ref)


def test_criterion_7_generating_function_routes():
    # The q = 0.5 exponential's evaluation bound is 1.8 (its radius of
    # convergence is 2); q = 2 is entire with the standard bound 4.  A point
    # with |r x z| past the bound is refused, not compared truncation to
    # truncation.
    refused = set()
    with criterion(7, "deformed generating function agrees on both routes", 2.0):
        for q, bound in ((0.5, 1.8), (2.0, 4.0)):
            ps = PsiSequence.q_deformation(q)
            for n in (2, 3, 4):
                ctx = make_context(n)
                for alpha in (1, -1, 2):
                    a = alpha_root(alpha, n)
                    for s in range(n):
                        for x, z in ((1.1, 1.1), (1.2, 1.2), (0.9, -1.1), (-0.8, 0.5)):
                            if abs(a.root * x * z) > bound:
                                refused.add((q, n, alpha, x, z))
                                with pytest.raises(DomainError):
                                    verify_generating_function(ps, ctx, a, s, x, z, trunc=48)
                                continue
                            rep = verify_generating_function(
                                ps, ctx, a, s, x, z, trunc=48)
                            assert rep.passed, (q, n, alpha, s, x, z,
                                                rep.residual)
    assert refused == {(0.5, 2, 2, 1.2, 1.2), (0.5, 3, 2, 1.2, 1.2)}


def test_criterion_8_cli_verification_battery():
    with criterion(8, "cyclofun verify --suite all exits 0", 15.0):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclofun", "verify", "--suite", "all",
             "--seed", "7", "--format", "json"],
            capture_output=True, text=True, timeout=15)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data
        assert all(r["pass"] for r in data)


def test_criterion_9_large_order_sweep():
    # Summing n exponentials per closed-form component made this sweep
    # O(n**3): about 30 s on 2 vCPUs, against about 1 s with one FFT per point.
    with criterion(9, "order-256 identity sweep passes over 5 draws", 10.0):
        reports = demoivre_sweep(256, alpha_root(1, 256), 5, 0)
        assert len(reports) == 10
        assert all(rep.passed for rep in reports), [
            (rep.identity, rep.residual) for rep in reports if not rep.passed]
