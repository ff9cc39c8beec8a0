"""Deformed integers, derivatives, exponentials, and basic sequences."""

import cmath
import math
import random
import sys
import threading
from collections import Counter

import mpmath
import numpy as np
import pytest

import cyclofun.qpsi as qpsi_module
from cyclofun.cyclic import alpha_root, make_context, project_series
from cyclofun.hyperbolic import laurent_component
from cyclofun.qpsi import (
    PSI_CAP,
    Polynomial,
    PsiSequence,
    build_psi_hyperbolic,
    generalized_translation,
    jackson_derivative,
    laguerre_family,
    lowering_operator_apply,
    psi_derivative,
    q_laguerre,
    q_number,
    qpsi_checks,
    series_exp_psi,
    verify_generating_function,
    verify_psi_binomial,
)
from cyclofun.reports import all_pass
from cyclofun.series import (
    DomainError,
    TruncatedSeries,
    _ipow,
    _lower_run,
    _termwise_lower,
    coeff_residual,
    make_series,
    max_coeff_diff,
    series_exp,
    series_from_json,
    series_to_json,
)


def test_deformed_integer_values():
    assert q_number(2, 3) == 7
    assert q_number(2, 1) == 1
    assert q_number(2, 0) == 0
    assert q_number(0.5, 2) == 1.5
    assert abs(q_number(2, -1) + 0.5) < 1e-15
    assert q_number(1, 5) == 5


def _q_number_loop(q, k):
    if k < 0:
        return -(q ** k) * _q_number_loop(q, -k)
    total, power = 0, 1
    for _ in range(k):
        total += power
        if total != total:  # saturate past overflow, as the table does
            total = power if power == power else math.inf
        power *= q
    return total


# Both sides of the ends of the PSI_CAP table and of the tables with tops 511
# and 1023, and a degree in the table with top 4095.
EDGE_DEGREES = (255, 256, 257, 511, 512, 1023, 1024, 2100)


def test_deformed_integer_table_matches_the_running_sum():
    # Complex first: 0.5+0j and 0.5 are equal keys, but their q-numbers
    # differ in type and must come from separate tables.
    for q in (0.5 + 0j, 0.5, 2, 3 + 0j, 0.3 - 0.4j, -1.7, 1e10, 1 + 1e-8):
        for k in [300, 7, 0, 1, *range(-4, 40), 129, 64, *EDGE_DEGREES]:
            got, want = q_number(q, k), _q_number_loop(q, k)
            assert type(got) is type(want), (q, k)
            assert got == want, (q, k)


def test_negative_degree_q_numbers_stay_finite_where_the_power_underflows():
    # [-m]_q = -(q**-1 + ... + q**-m); q**-m underflows to 0 while [m]_q
    # overflows, and their product was nan.
    # An int q keeps [m]_q exact, past double range from m = 1024 on.
    with mpmath.workdps(50):
        for q, m in ((2.0, 1100), (-1e10, 40), (2, 1030), (2, 1100), (-2, 1100), (3, 700)):
            want = float(-mpmath.fsum(mpmath.mpf(q) ** -j for j in range(1, m + 1)))
            got = q_number(q, -m)
            assert abs(got - want) <= 1e-15 * abs(want), (q, m, got)
    d = jackson_derivative(make_series([(-40, 1), (0, 1)]), -1e10)
    assert d.coeff(-41) == q_number(-1e10, -40)
    assert abs(d.coeff(-41) - 1e-10) <= 1e-19
    assert jackson_derivative(make_series([(-1100, 1)]), 2).coeff(-1101) == -1.0


def test_deformed_integer_near_unit_has_no_cancellation():
    # the cumulative power sum stays accurate where (q**k - 1)/(q - 1) loses digits
    q = 1 + 1e-8
    for k in (2, 5, 10):
        want = sum(q ** j for j in range(k))
        assert abs(q_number(q, k) - want) <= 1e-14 * k


def test_deformed_binomial_values():
    ps = PsiSequence.q_deformation(2)
    assert ps.binomial(4, 2) == 35
    assert ps.binomial(7, 0) == 1.0 and ps.binomial(7, 7) == 1.0
    assert ps.binomial(3, 5) == 0.0
    assert ps.binomial(3, -1) == 0.0
    assert ps.number(3) == 7
    assert ps.factorial(3) == 21
    assert ps.number(0) == 0
    assert PsiSequence.classical().factorial(5) == 120


def _gaussian_binomial_rows(nmax, q):
    """Rows n = 0..nmax of [n choose k]_q as exact integers, for an integer q >= 2.

    Built by the q-Pascal rule [n choose k] = [n-1 choose k-1] + q**k [n-1 choose k].
    """
    row = [1]
    for _ in range(nmax + 1):
        yield row
        row = [1] + [row[k - 1] + q ** k * row[k] for k in range(1, len(row))] + [1]


def test_deformed_binomial_matches_exact_gaussian_binomials():
    # The falling product runs over min(k, n - k) factors, so [45 choose 41]_2,
    # about 7.6e49, no longer passes through 2**1025 before the division.
    # Nearer the overflow edge ([52 choose 26]_2 is the first) that product
    # still overflows, and the binomial falls back to a product of ratios:
    # every binomial below the largest double must come back finite.
    ps = PsiSequence.q_deformation(2)
    assert ps.binomial(45, 41) == ps.binomial(45, 4)
    assert abs(ps.binomial(45, 41) / 7.6e49 - 1) < 1e-3
    assert math.isfinite(ps.binomial(52, 26))
    largest = int(sys.float_info.max)
    for n, row in enumerate(_gaussian_binomial_rows(PSI_CAP, 2)):
        for k, want in enumerate(row):
            got = ps.binomial(n, k)
            if want <= largest:
                assert math.isfinite(got), (n, k)
                assert abs(int(got) - want) * 10 ** 12 <= want, (n, k)


def test_degenerate_deformations_rejected():
    with pytest.raises(ValueError):
        PsiSequence.q_deformation(1)
    with pytest.raises(ValueError):
        PsiSequence.q_deformation(-1)
    with pytest.raises(ValueError):
        PsiSequence.q_deformation(cmath.exp(2j * math.pi / 3))
    with pytest.raises(ValueError):
        PsiSequence.q_deformation(float("inf"))


def test_number_beyond_cap_rejected():
    ps = PsiSequence.q_deformation(0.5)
    ps.number(PSI_CAP)
    for index in (ps.number, ps.factorial, ps.psi_weight):
        with pytest.raises(ValueError, match="outside the sequence cap"):
            index(PSI_CAP + 1)
        with pytest.raises(ValueError, match="outside the sequence cap"):
            index(-1)
    with pytest.raises(ValueError, match="outside the sequence cap"):
        ps.binomial(PSI_CAP + 1, 4)


def test_sequence_kind_and_cap_rejected():
    for ps in (PsiSequence.q_deformation(0.5), PsiSequence.classical()):
        assert ps.number(0) == 0 and ps.factorial(0) == 1.0 and ps.psi_weight(0) == 1.0


def test_q_sequence_makes_no_per_index_q_number_call(monkeypatch):
    calls = []
    real = qpsi_module.q_number
    monkeypatch.setattr(qpsi_module, "q_number", lambda q, k: calls.append(k) or real(q, k))
    ps = PsiSequence.q_deformation(0.625)
    assert calls == []
    assert [ps.number(n) for n in range(257)] == [real(0.625, n) for n in range(257)]


def test_a_shared_sequence_reads_the_same_from_every_thread():
    want = PsiSequence.q_deformation(0.5)
    want = [(want.factorial(n), want.psi_weight(n)) for n in range(257)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            ps = PsiSequence.q_deformation(0.5)
            barrier = threading.Barrier(4)
            seen = [None] * 4

            def read(t):
                barrier.wait()
                seen[t] = [(n, ps.factorial(n), ps.psi_weight(n)) for n in range(0, 257, 7)]

            threads = [threading.Thread(target=read, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            for rows in seen:
                assert all((f, w) == want[n] for n, f, w in rows)
            assert [(ps.factorial(n), ps.psi_weight(n)) for n in range(257)] == want
    finally:
        sys.setswitchinterval(old_interval)


def test_q_numbers_past_the_cap_read_the_same_from_every_thread():
    # Interleaved degrees, each thread starting a quarter further along, so
    # the threads ask at once for the tables of every top (256, 511, ...,
    # 4095) of a q no table was built for yet.
    degrees = [k for pair in zip(range(0, 2101, 3), range(2100, -1, -3)) for k in pair]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(8):
            q = 0.75 + i * 1e-6
            want = {k: _q_number_loop(q, k) for k in set(degrees)}
            barrier = threading.Barrier(4)
            seen = [None] * 4

            def read(t):
                shift = t * len(degrees) // 4
                barrier.wait()
                seen[t] = [(k, q_number(q, k)) for k in degrees[shift:] + degrees[:shift]]

            threads = [threading.Thread(target=read, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            for rows in seen:
                assert len(rows) == len(degrees)
                assert all(v == want[k] and type(v) is type(want[k]) for k, v in rows), q
    finally:
        sys.setswitchinterval(old_interval)


def test_jackson_derivative_coefficient_rule():
    q = 0.7
    d = jackson_derivative(make_series([(3, 1)]), q)
    assert d.coeff(2) == q_number(q, 3)
    assert d.min_deg == 2 and d.max_deg == 2
    dl = jackson_derivative(make_series([(-1, 2)]), q)
    assert abs(dl.coeff(-2) - 2 * q_number(q, -1)) < 1e-15


def test_psi_derivative_equals_jackson_bit_for_bit():
    rng = random.Random(9)
    s = make_series([(d, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
                     for d in range(11)])
    for q in (0.7, 2.0, 0.5):
        ps = PsiSequence.q_deformation(q)
        assert psi_derivative(s, ps).coeffs == jackson_derivative(s, q).coeffs


def test_lowering_skips_zero_coefficients():
    """A zero lowers to itself without a number(d) call; every nonzero term
    is number(d) * a_d as before, one call each."""
    q = 0.7
    ctx = make_context(4)
    calls = []

    def counted(d):
        calls.append(d)
        return q_number(q, d)

    for a in (alpha_root(1, 4), alpha_root(2 + 1j, 4)):
        for s in (project_series(series_exp(40), ctx, 1, a),
                  make_series([(-9, 2), (-3, 0.5), (0, 1), (5, -1j), (12, 0)])):
            calls.clear()
            d = _termwise_lower(s, counted)
            first = 1 if s.min_deg == 0 else s.min_deg
            last = -1 if s.max_deg == 0 else s.max_deg
            nonzero = [k for k in range(first, last + 1) if s.coeff(k) != 0]
            assert calls == nonzero
            assert d.min_deg == first - 1 and d.max_deg == last - 1
            for k in range(first, last + 1):
                c = s.coeff(k)
                assert d.coeff(k - 1) == (q_number(q, k) * c if c != 0 else 0)
            assert d.coeffs == jackson_derivative(s, q).coeffs


def test_zero_coefficients_past_the_cap_lower_to_zero():
    ps = PsiSequence.q_deformation(0.5)
    s = make_series([(0, 1), (2, 3), (PSI_CAP + 2, 0)])
    d = psi_derivative(s, ps)
    assert d.max_deg == PSI_CAP + 1 and d.coeff(1) == 3 * ps.number(2)
    assert not any(d.coeffs[2:])
    with pytest.raises(ValueError):
        psi_derivative(make_series([(0, 1), (PSI_CAP + 1, 1)]), ps)


def test_psi_derivative_rejects_negative_degrees():
    with pytest.raises(ValueError):
        psi_derivative(make_series([(-1, 1)]), PsiSequence.classical())


def test_jackson_dual_path_agreement():
    q = 0.5
    f = series_exp(32)
    df = jackson_derivative(f, q)
    rng = random.Random(2)
    for _ in range(20):
        z = cmath.rect(0.7 * math.sqrt(rng.uniform(0.05, 1)),
                       rng.uniform(0, 2 * math.pi))
        direct = (f.evaluate(q * z) - f.evaluate(z)) / ((q - 1) * z)
        assert abs(direct - df.evaluate(z)) <= 1e-10


def test_deformed_exponential_is_a_fixed_point():
    for q in (0.5, 2.0, 1 + 0.3j):
        ps = PsiSequence.q_deformation(q)
        eq = series_exp_psi(ps, 48)
        d = jackson_derivative(eq, q)
        assert max_coeff_diff(d, eq, 0, 47) <= 1e-13


def test_deformed_exponential_shapes():
    ps = PsiSequence.q_deformation(0.5)
    s = series_exp_psi(ps, 8)
    assert s.coeff(0) == 1
    assert s.coeff(2) == 2 / 3
    assert s.radius == pytest.approx(1.8)
    assert series_exp_psi(PsiSequence.q_deformation(2.0), 8).radius == 4.0
    with pytest.raises(ValueError):
        series_exp_psi(ps, PSI_CAP + 1)
    with pytest.raises(ValueError, match="nonnegative"):
        series_exp_psi(ps, -1)


def test_complex_q_factorials_past_double_range_give_zero_weights():
    # Complex arithmetic turns the overflowing factorial into nan parts; the
    # clamp pins it to inf, so the weight is exactly 0.0 from there on.
    q = 2 + 1j
    ps = PsiSequence.q_deformation(q)
    log_fact, first_past = 0.0, None
    for n in range(1, 257):
        log_fact += math.log(abs((1 - q ** n) / (1 - q)))
        if first_past is None and log_fact > math.log(sys.float_info.max):
            first_past = n
    assert first_past == 42
    for n in range(257):
        w = ps.psi_weight(n)
        if n < first_past:
            assert cmath.isfinite(w) and w != 0, n
        else:
            assert w == 0.0 and isinstance(w, float), n
    s = series_exp_psi(ps, 256)
    assert s.coeff(first_past - 1) != 0 and s.coeffs[first_past:] == (0j,) * (257 - first_past)


def test_all_ones_weights_give_the_geometric_series():
    ps = PsiSequence.from_weights([1] * 17)
    s = series_exp_psi(ps, 16)
    assert all(c == 1 for c in s.coeffs)
    assert ps.number(5) == 1 and ps.binomial(6, 2) == 1
    assert s.radius == pytest.approx(0.9)


def test_explicit_weights_validation():
    with pytest.raises(ValueError):
        PsiSequence.from_weights([])
    with pytest.raises(ValueError):
        PsiSequence.from_weights([2, 1])
    with pytest.raises(ValueError):
        PsiSequence.from_weights([1, 0.5, 0])


def test_factorials_overflow_to_zero_weights():
    ps = PsiSequence.q_deformation(2.0)
    assert ps.psi_weight(0) == 1.0
    assert ps.psi_weight(60) == 0.0


def test_q_numbers_past_double_range_saturate_instead_of_turning_nan():
    # For q = -1e10, [32]_q is -inf, and the running sum's next step is
    # -inf + inf; the dominant power's sign carries on from there.
    assert q_number(-1e10, 32) == -math.inf
    assert q_number(-1e10, 33) == math.inf and q_number(-1e10, 40) == -math.inf
    for q in (-1e10, -1e200, 1e10j, -1e10 + 1j):
        ps = PsiSequence.q_deformation(q)
        for n in range(257):
            for v in (ps.number(n), ps.factorial(n), ps.psi_weight(n)):
                assert not cmath.isnan(v), (q, n)
        assert math.isinf(abs(ps.number(256))) and math.isinf(abs(ps.factorial(256)))
        assert ps.psi_weight(256) == 0.0
    ps = PsiSequence.q_deformation(-1e10)
    assert ps.number(33) == math.inf and ps.factorial(33) == math.inf
    assert ps.psi_weight(33) == 0.0


def test_factorials_that_underflow_are_built_and_refused_by_series():
    # Near q = -1 every even q-integer is tiny, and the factorial reaches 0.0 at
    # n = 84; building the sequence must not divide by it.
    ps = PsiSequence.q_deformation(-0.999999999)
    assert ps.factorial(83) != 0.0 and ps.factorial(84) == 0.0
    assert ps.psi_weight(84) == math.inf
    assert series_exp_psi(ps, 64).coeffs[64] == 1 / ps.factorial(64)
    with pytest.raises(ValueError, match="finite"):
        series_exp_psi(ps, 84)
    # [80]_q! is subnormal, so its weight already overflows.
    assert series_exp_psi(ps, 79).coeffs[79] == ps.psi_weight(79)
    with pytest.raises(DomainError, match=r"degree 80 .*the weight 1/\[80\]_q!"):
        series_exp_psi(ps, 80)


def test_explicit_weights_come_back_as_given():
    rng = random.Random(10)
    for _ in range(200):
        ws = [1] + [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    for _ in range(rng.randint(1, 30))]
        ps = PsiSequence.from_weights(ws)
        assert [ps.psi_weight(n) for n in range(len(ws))] == ws


def test_near_classical_limit():
    near = PsiSequence.q_deformation(1 + 1e-8)
    plain = PsiSequence.classical()
    for n in range(11):
        assert abs(near.number(n) - n) <= 1e-6
    for n in range(33):
        ref = plain.psi_weight(n)
        assert abs(near.psi_weight(n) - ref) <= 1e-5 * abs(ref)


def _laguerre_oracle(nmax, q):
    """Independent route: solve the lowering recursion degree by degree.

    The lowering operator sends x**k to a combination of lower powers whose
    x**j coefficient is -(product of deformed integers j+1..k); requiring
    p_n to map to [n]_q p_{n-1} with p_n(0) = 0 pins every coefficient.
    """
    polys = [np.array([1.0 + 0j])]
    for n in range(1, nmax + 1):
        rhs = np.zeros(n, dtype=complex)
        rhs[:len(polys[n - 1])] = polys[n - 1]
        rhs = q_number(q, n) * rhs
        a = np.zeros((n, n), dtype=complex)
        for k in range(1, n + 1):
            fall = 1.0 + 0j
            for j in range(k - 1, -1, -1):
                fall *= q_number(q, j + 1)
                a[j, k - 1] = -fall
        coeffs = np.linalg.solve(a, rhs)
        p = np.zeros(n + 1, dtype=complex)
        p[1:] = coeffs
        polys.append(p)
    return polys


def test_laguerre_matches_the_lowering_recursion():
    for q in (0.5, 2.0, 1 + 0.3j):
        oracle = _laguerre_oracle(5, q)
        fam = laguerre_family(5, q)
        for n in range(6):
            mine = np.zeros(n + 1, dtype=complex)
            mine[:len(fam[n].coeffs)] = fam[n].coeffs
            scale = max(1.0, np.max(np.abs(oracle[n])))
            assert np.max(np.abs(mine - oracle[n])) <= 1e-10 * scale


def test_laguerre_small_cases():
    q = 0.7
    assert q_laguerre(0, q).coeffs == (1 + 0j,)
    assert q_laguerre(1, q).coeffs == (0j, -1 + 0j)
    l2 = q_laguerre(2, q)
    assert l2.coeffs == (0j, complex(-q_number(q, 2)), 1 + 0j)
    for n in range(1, 6):
        assert q_laguerre(n, q).evaluate(0) == 0
    with pytest.raises(ValueError, match="nonnegative"):
        q_laguerre(-1, 0.5)


def test_lowering_property():
    for q in (0.5, 2.0, 1 + 0.3j):
        fam = laguerre_family(5, q)
        for n in range(1, 6):
            got = lowering_operator_apply(fam[n], q)
            want = fam[n - 1] * q_number(q, n)
            assert coeff_residual(got, want) <= 1e-10


def test_lowering_operator_refuses_a_laurent_window():
    # The sum -(D_q + D_q**2 + ...) ends only on a polynomial: on a Laurent
    # window the Jackson steps never reach zero.
    for q in (0.5, 2.0):
        with pytest.raises(ValueError, match="polynomials only"):
            lowering_operator_apply(make_series([(-1, 1), (2, 1)]), q)


def test_laguerre_past_the_cap_reads_the_q_number_tables():
    # q_laguerre takes its q-numbers from q_number's tables (top PSI_CAP, else
    # 2**j - 1), so degrees 300 and 301 share one table.  The q is one no
    # other test uses, so its tables start unbuilt.
    q = 0.3125
    misses = qpsi_module._q_numbers.cache_info().misses
    first, second = q_laguerre(300, q), q_laguerre(301, q)
    assert qpsi_module._q_numbers.cache_info().misses == misses + 1
    assert second.coeff(301) == -1
    assert first.coeff(1) == -math.prod(q_number(q, k) for k in range(2, 301))


def test_laguerre_continuous_at_unit_deformation():
    for n in range(1, 5):
        a = q_laguerre(n, 1 + 1e-8)
        b = q_laguerre(n, 1)
        assert coeff_residual(a, b) <= 1e-6


def test_translation_of_monomials_classical():
    cls = PsiSequence.classical()
    t = generalized_translation(Polynomial([0, 0, 0, 1]), 2.0, cls)
    assert coeff_residual(t, Polynomial([8, 12, 6, 1])) <= 1e-15


def test_translation_of_square_q_case():
    q = 0.6
    ps = PsiSequence.q_deformation(q)
    y = 0.9
    t = generalized_translation(Polynomial([0, 0, 1]), y, ps)
    want = Polynomial([y ** 2, q_number(q, 2) * y, 1])
    assert coeff_residual(t, want) <= 1e-15


def _translation_chain(p, y, ps, operator=None):
    """generalized_translation as a running sum that builds each term and each sum."""
    op = operator if operator is not None else (lambda g: psi_derivative(g, ps))
    y = complex(y)
    total, cur = Polynomial([0]), p
    for m in range(p.max_deg + 1):
        total = total + cur * (ps.psi_weight(m) * _ipow(y, m))
        cur = op(cur)
        if not any(cur.coeffs):
            break
    return total


def _lowering_chain(p, q):
    """lowering_operator_apply as a running sum of series."""
    total, cur = Polynomial([0]), jackson_derivative(p, q)
    while any(cur.coeffs):
        total = total + cur
        cur = jackson_derivative(cur, q)
    return -total


def _counted(op, calls):
    return lambda g: calls.append(g.max_deg) or op(g)


def _assert_same_series(got, want):
    assert (got.min_deg, got.max_deg, got.radius, got.label) == \
        (want.min_deg, want.max_deg, want.radius, want.label)
    assert [repr(c) for c in got.coeffs] == [repr(c) for c in want.coeffs]


@pytest.mark.parametrize("q", [0.5, 2.0, 0.3 + 0.4j, -0.5])
def test_translation_and_lowering_fold_as_the_running_sum(q):
    # One pass per degree, ((0 + t0) + t1) + ..., gives every bit of the running
    # sum, calls the operator as often, and keeps the window, radius and label.
    rng = random.Random(11)
    polys = [Polynomial([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d + 1)])
             for d in range(9)]
    polys += [Polynomial([0j] * n + [1]) for n in range(7)]
    polys += [make_series([(1, -0.0j), (3, complex(-0.0, 2))]), make_series([(2, 1), (5, -3j)])]
    fam = laguerre_family(5, q)
    weights = [(0.5 - 0.25j) ** k / math.factorial(k) for k in range(13)]
    seqs = (PsiSequence.q_deformation(q), PsiSequence.classical(),
            PsiSequence.from_weights(weights))
    for p in polys + fam:
        _assert_same_series(lowering_operator_apply(p, q), _lowering_chain(p, q))
        for ps in seqs:
            for y in (0.7, -1.3 + 0.2j, 0.0):
                got_calls, want_calls = [], []
                op = lambda g, ps=ps: psi_derivative(g, ps)
                got = generalized_translation(p, y, ps, _counted(op, got_calls))
                _assert_same_series(got, _translation_chain(p, y, ps, _counted(op, want_calls)))
                assert got_calls == want_calls
                _assert_same_series(generalized_translation(p, y, ps),
                                    _translation_chain(p, y, ps))
    # make_series gives radius 4, the entire steps after it radius inf: the least is kept.
    entire = lambda g: Polynomial(psi_derivative(g, seqs[0]).coeffs)
    for p in polys[-2:]:
        got = generalized_translation(p, 0.7, seqs[0], entire)
        _assert_same_series(got, _translation_chain(p, 0.7, seqs[0], entire))
        assert got.radius == 4.0
    lag = lambda g: lowering_operator_apply(g, q)
    for p in fam + polys[:5]:
        got_calls, want_calls = [], []
        got = generalized_translation(p, 0.9, seqs[0], _counted(lag, got_calls))
        _assert_same_series(got, _translation_chain(p, 0.9, seqs[0], _counted(lag, want_calls)))
        assert got_calls == want_calls


@pytest.mark.parametrize("compute, chain, degree", [
    # The m = 1 term 1e300 * 1e10 overflows before any sum.
    (lambda: generalized_translation(Polynomial([1e300, 1e300]), 1e10, PsiSequence.classical()),
     lambda: _translation_chain(Polynomial([1e300, 1e300]), 1e10, PsiSequence.classical()), 0),
    # D_q p and D_q**2 p are finite; their degree-0 sum 1.5e308 + 1.5e308 is not.
    (lambda: lowering_operator_apply(Polynomial([0, 1.5e308, 1e308]), 0.5),
     lambda: _lowering_chain(Polynomial([0, 1.5e308, 1e308]), 0.5), 0),
], ids=["translation_term", "lowering_sum"])
def test_fold_overflow_raises_the_running_sum_message(compute, chain, degree):
    with pytest.raises(DomainError) as want:
        chain()
    assert str(want.value).startswith(f"coefficient of degree {degree} is not finite")
    with pytest.raises(DomainError) as got:
        compute()
    assert str(got.value) == str(want.value)


def test_binomial_convolution_for_powers():
    powers = [Polynomial([0j] * n + [1]) for n in range(10)]
    for q in (0.5, 2.0):
        ps = PsiSequence.q_deformation(q)
        assert verify_psi_binomial(powers, ps, 1.1, -0.8) <= 1e-11


def test_binomial_convolution_evaluates_each_member_once_per_point(monkeypatch):
    # The reference sums p_k(x) p_{n-k}(y) with both evaluated inside the
    # (n, k) loop; hoisting the evaluations keeps every product and its order.
    fam = [Polynomial([complex(0.1 * j - 0.3, 0.2) for j in range(n + 1)])
           for n in range(13)]
    ps = PsiSequence.q_deformation(0.3 + 0.4j)
    x, y = 0.7 - 0.2j, -0.4 + 0.5j
    worst = 0.0
    for n in range(len(fam)):
        lhs = generalized_translation(fam[n], y, ps).evaluate(x)
        rhs = 0j
        for k in range(n + 1):
            rhs += ps.binomial(n, k) * fam[k].evaluate(x) * fam[n - k].evaluate(y)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    calls = []
    real = TruncatedSeries.evaluate
    monkeypatch.setattr(TruncatedSeries, "evaluate", lambda s, z: calls.append(z) or real(s, z))
    assert verify_psi_binomial(fam, ps, x, y) == worst
    # One translated lhs per degree, and each member once at x and once at y.
    assert len(calls) == 3 * len(fam)


def test_binomial_convolution_at_origin_is_exact():
    powers = [Polynomial([0j] * n + [1]) for n in range(9)]
    ps = PsiSequence.q_deformation(2.0)
    assert verify_psi_binomial(powers, ps, 1.3, 0.0) == 0.0


def test_binomial_convolution_for_laguerre_uses_plain_powers():
    for q in (0.5, 2.0, 1 + 0.3j):
        ps = PsiSequence.q_deformation(q)
        fam = laguerre_family(4, q)

        def op(g, q=q):
            return lowering_operator_apply(g, q)

        residual = verify_psi_binomial(fam, ps, 0.9, 0.7, operator=op, rhs_basis="powers")
        assert residual <= 1e-9, (q, residual)
        broken = verify_psi_binomial(fam, ps, 0.9, 0.7, operator=op, rhs_basis="family")
        assert broken > 1e-3


def test_rhs_basis_validated():
    with pytest.raises(ValueError):
        verify_psi_binomial([Polynomial([1])], PsiSequence.classical(),
                            0, 0, rhs_basis="weird")


def test_deformed_leibniz_rule():
    rng = random.Random(21)
    f = make_series([(d, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                     for d in range(9)])
    g = make_series([(d, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                     for d in range(9)])
    for q in (0.5, 2.0, 1 + 0.3j):
        lhs = jackson_derivative(f * g, q)
        rhs = (jackson_derivative(f, q) * g
               + f.scale_argument(q) * jackson_derivative(g, q))
        assert coeff_residual(lhs, rhs) <= 1e-14


def test_generating_function_dual_route():
    for q in (0.5, 2.0):
        ps = PsiSequence.q_deformation(q)
        base = series_exp_psi(ps, 48)
        for n in (2, 3):
            ctx = make_context(n)
            for alpha in (1, -1, 2):
                a = alpha_root(alpha, n)
                for s in range(n):
                    comp = laurent_component(base, ctx, a, s)
                    residual = verify_generating_function(ps, a, s, comp, 1.1, 1.1)
                    assert residual <= 1e-9, (q, n, alpha, s, residual)
                    # |r x z| = 2.04 (n = 2) and 1.81 (n = 3) pass the q = 0.5
                    # bound 1.8, so that point is refused; elsewhere it passes.
                    if q == 0.5 and alpha == 2:
                        with pytest.raises(DomainError):
                            verify_generating_function(ps, a, s, comp, 1.2, 1.2)
                    else:
                        residual = verify_generating_function(ps, a, s, comp, 1.2, 1.2)
                        assert residual <= 1e-9, (q, n, alpha, s, residual)


def test_generating_function_at_origin_is_exact():
    ps = PsiSequence.q_deformation(0.5)
    a = alpha_root(1, 3)
    comp = laurent_component(series_exp_psi(ps), make_context(3), a, 0)
    assert verify_generating_function(ps, a, 0, comp, 0.0, 0.0) == 0.0


def test_deformed_component_ladder():
    q = 0.5
    ps = PsiSequence.q_deformation(q)
    ctx = make_context(3)
    for alpha in (1, -1, 2):
        a = alpha_root(alpha, 3)
        fam = build_psi_hyperbolic(ps, ctx, a, 48)
        d0 = jackson_derivative(fam.components[0], q)
        assert max_coeff_diff(d0, fam.components[2] * complex(alpha), 0, 44) <= 1e-13
        d1 = jackson_derivative(fam.components[1], q)
        assert max_coeff_diff(d1, fam.components[0], 0, 44) <= 1e-13


def test_poly_derivative_basics():
    assert not any(jackson_derivative(Polynomial([5]), 0.5).coeffs)
    d = psi_derivative(Polynomial([0, 0, 0, 1]), PsiSequence.classical())
    assert d.coeffs == (0j, 0j, 3 + 0j)


def test_polynomial_json_round_trip():
    p = Polynomial([1, -2j, 0, 3.5])
    back = series_from_json(series_to_json(p))
    assert back.min_deg == 0 and back.coeffs == p.coeffs
    with pytest.raises(ValueError):
        series_from_json({"min_deg": 0, "coeffs": "nope"})


def test_polynomial_basics():
    p = Polynomial([1, 2, 0, 0])
    assert isinstance(p, TruncatedSeries) and p.min_deg == 0
    assert p.coeffs == (1 + 0j, 2 + 0j)
    assert p.max_deg == 1
    assert p.evaluate(3) == 7
    assert not any(Polynomial([0]).coeffs) and any(p.coeffs)
    s = p + Polynomial([0, -2])
    assert max_coeff_diff(s, Polynomial([1])) == 0.0
    assert (2 * p).coeffs == (2 + 0j, 4 + 0j)
    assert not any((p - p).coeffs)
    assert Polynomial([]).coeffs == (0j,)
    assert p.evaluate(1e6) == 1 + 2e6   # entire: no evaluation bound


def test_qpsi_battery_needs_a_degree_in_every_ladder_window():
    with pytest.raises(ValueError, match="trunc >= 8"):
        qpsi_checks(0.5, seed=0, trunc=7)
    assert all_pass(qpsi_checks(0.5, seed=0, trunc=8))


def test_qpsi_battery_passes():
    for q in (0.5, 2.0):
        reps = qpsi_checks(q, seed=3)
        assert all_pass(reps)
        names = [r.identity for r in reps]
        assert "derivative_ladder_n3" in names
        assert "binomial_symmetric_laguerre_breaks" in names
        assert "generating_function" in names


def _ladder_chain(q, trunc):
    """The derivative ladder residuals, each target rebuilt as comps[j] * factor."""
    ps = PsiSequence.q_deformation(q)
    eq = series_exp_psi(ps, trunc)
    out = {}
    for n in (2, 3, 4):
        ctx, worst = make_context(n), 0.0
        for alpha in (1, -1, 2):
            a = alpha_root(alpha, n)
            comps = [laurent_component(eq, ctx, a, l) for l in range(n)]
            for l in range(n):
                cur, factor = comps[l], 1 + 0j
                for k in range(1, n + 1):
                    cur = jackson_derivative(cur, ps.q)
                    if (l - (k - 1)) % n == 0:
                        factor *= complex(alpha)
                    target = comps[(l - k) % n] * factor
                    worst = max(worst, coeff_residual(cur, target, 0, trunc - k - n))
        out[f"derivative_ladder_n{n}"] = worst
    return out


@pytest.mark.parametrize("q", [0.5, 2, 3, 1.5, -2, 0.3 + 0.4j, -0.5])
def test_derivative_ladder_residuals_match_the_rebuilt_targets(q):
    # The shortest even and odd windows, the default, and the psi-sequence cap.
    for trunc in (8, 9, 64, 256):
        want = _ladder_chain(q, trunc)
        for seed in range(4):
            got = {r.identity: r.residual for r in qpsi_checks(q, seed, trunc)
                   if r.identity in want}
            assert got == want


@pytest.mark.parametrize("q, top", [(-0.9999999989687168, 76), (-0.999999998363007, 78)])
def test_a_ladder_target_that_overflows_raises_in_the_chains_order(q, top):
    # Near q = -1 the weights reach 1e297: at n = 2, alpha = 2 the component 0 entry of degree
    # top is finite and twice it is not.  The chain scales every component by alpha before its
    # first step, so the odd window top + 1 names degree top too, not its own odd top.
    assert all_pass(qpsi_checks(q, 0, top - 1))
    for trunc in (top, top + 1):
        with pytest.raises(DomainError, match=rf"^coefficient of degree {top} is not finite "
                                              r"\(\(inf\+0j\)\)$"):
            qpsi_checks(q, 0, trunc)


def test_a_lowered_run_raises_where_the_chain_does_and_skips_its_zeros():
    # No q overflows a ladder step inside qpsi_checks: each lowered entry is, up to rounding,
    # a sieved entry of the next class or alpha times one, both checked before the first step.
    # A table with inf at degrees 4 and 10 drives both routes; the degree-4 entry of the
    # class 1 mod 3 run is zero, so only degree 10 overflows.
    s = make_series((d, 0 if d == 4 else 2.0 ** -d) for d in range(17))
    comp = laurent_component(s, make_context(3), alpha_root(2, 3), 1)
    table = [float(d) for d in range(17)]
    table[4] = table[10] = math.inf
    with pytest.raises(DomainError) as chain:
        _termwise_lower(comp, table.__getitem__)
    with pytest.raises(DomainError) as run:
        _lower_run(comp.coeffs[1::3], 1, 3, table.__getitem__)
    assert str(run.value) == str(chain.value)
    assert str(run.value).startswith("coefficient of degree 9 is not finite")
    # A run that starts at degree 0 lowers from degree 3 once that term has died.
    table[4] = 4.0
    comp = laurent_component(s, make_context(3), alpha_root(2, 3), 0)
    want = _termwise_lower(comp, table.__getitem__).coeffs
    assert tuple(_lower_run(comp.coeffs[0::3][1:], 3, 3, table.__getitem__)) == want[2::3]


def test_qpsi_battery_sieves_its_exponential_once(monkeypatch):
    # One exp_psi is sieved at n = 2, 3, 4 and alpha = 1, -1, 2 for the
    # ladder; the generating function reads the n = 3, alpha = 1 component 1.
    calls = Counter()
    for name in ("series_exp_psi", "laurent_component", "make_context", "alpha_root"):
        def counted(*args, _real=getattr(qpsi_module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(qpsi_module, name, counted)
    qpsi_checks(0.5, 0)
    assert calls == {"series_exp_psi": 1, "laurent_component": 27,
                     "make_context": 3, "alpha_root": 9}
