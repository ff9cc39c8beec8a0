"""De Moivre matrices, twisted circulants, and the identity suite.

The n x n generator has ones on the superdiagonal and alpha in the lower-left
corner; its exponential is the matrix-valued de Moivre group, whose entries
are the hyperbolic components.  Circulants built from the components satisfy
a spectral determinant factorization that is checked here by two independent
routes (eigenvalue product vs LU).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

from .cyclic import (AlphaRoot, CyclicContext, _check_root, _order, alpha_root, make_context,
                     project_series)
from .hyperbolic import HyperbolicFamily, _closed_components, build_family, h_eval
from .reports import IdentityReport, relative_residual
from .series import DEFAULT_TRUNCATION, TruncatedSeries, series_exp, series_geometric

if TYPE_CHECKING:  # annotations only; functions import numpy where they use it
    import numpy as np

__all__ = [
    "generator_matrix",
    "demoivre_matrix",
    "circulant_from_components",
    "circulant_det_spectral",
    "circulant_det_direct",
    "sylvester_matrix",
    "cheb_norm",
    "identity_suite",
    "circulant_group_law_residual",
    "circulant_checks",
    "demoivre_sweep",
    "IDENTITY_TOLERANCE",
    "DET_TOLERANCE",
]

IDENTITY_TOLERANCE = 1e-10
DET_TOLERANCE = 1e-9
GROUP_LAW_BREAK_FLOOR = 1e-3
TAYLOR_TAIL_BOUND = 1e-15


def cheb_norm(m: np.ndarray) -> float:
    """Max absolute entry, the residual norm used throughout."""
    import numpy as np

    return float(np.max(np.abs(m)))


def generator_matrix(n: int, alpha: complex) -> np.ndarray:
    """Twisted cyclic shift: ones above the diagonal, alpha in the corner."""
    import numpy as np

    n = _order(n)
    g = np.eye(n, k=1, dtype=complex)
    g[n - 1, 0] = complex(alpha)
    return g


def circulant_from_components(components: Sequence[complex], alpha: complex) -> np.ndarray:
    """Twisted circulant: entry (i, j) is component (j-i) mod n, times alpha
    whenever the index wraps (j < i).

    Row i is the window ext[n-i : 2n-i] of ext = (alpha c, c), so the matrix
    is one strided view of ext (rows step back one entry), copied once.
    """
    import numpy as np

    vals = np.array(components, dtype=complex)
    n = _order(len(vals))
    # An overflowed alpha c_k stays inf, for the determinants to report.
    with np.errstate(all="ignore"):
        ext = np.concatenate((complex(alpha) * vals, vals))
    step = ext.itemsize
    return np.ndarray((n, n), complex, ext, n * step, (-step, step)).copy()


def circulant_det_spectral(components: Sequence[complex], ctx: CyclicContext,
                           a: AlphaRoot) -> complex:
    """Determinant as the product of circulant eigenvalues.

    Eigenvalue l is sum_k c_k (r omega**l)**k with r the chosen root of
    alpha, so the product runs over all n-th roots of alpha and the result
    does not depend on the branch.  The n eigenvalues are one inverse FFT
    of c_k r**k.
    """
    import numpy as np

    vals = np.array([complex(c) for c in components])
    n = ctx.n
    if len(vals) != n:
        raise ValueError(f"expected {n} components, got {len(vals)}")
    _check_root(a, n)
    with np.errstate(all="ignore"):
        eigenvalues = np.fft.ifft(vals * np.power(a.root, np.arange(n)), norm="forward")
    return math.prod(eigenvalues.tolist(), start=1 + 0j)


def circulant_det_direct(m: np.ndarray) -> complex:
    """LU-based determinant, the independent oracle for the spectral route."""
    import numpy as np

    with np.errstate(all="ignore"):
        return complex(np.linalg.det(np.asarray(m, dtype=complex)))


def sylvester_matrix(ctx: CyclicContext) -> np.ndarray:
    """Unitary root-of-unity matrix S with entries omega**(k l) / sqrt(n).

    Its columns are the eigenvectors of the untwisted shift, so S* G S is
    diagonal with the n-th roots of unity on the diagonal.  The n roots are
    scaled once, then gathered by k l mod n, taken as k l - n (k l // n), not by %.
    """
    import numpy as np

    n = ctx.n
    k = np.arange(n)
    kk = np.outer(k, k)
    kk -= n * (kk // n)
    return (np.array(ctx.omega_pow) * (1 / math.sqrt(n)))[kk]


def demoivre_matrix(n: int, a: AlphaRoot, z: complex, method: str = "assembled") -> np.ndarray:
    """The matrix exponential of the twisted shift times z.

    "assembled" places the hyperbolic component values into the twisted
    circulant pattern; "taylor" sums the matrix Taylor series until the
    remainder bound (max(1,|alpha|) |z|)**(k+1)/(k+1)! drops below 1e-15.
    Term k, (z G)**k / k!, has one nonzero per row, entry (i, (i + k) mod n):
    the Taylor route keeps it as that wrapped diagonal, a length-n vector, so
    a term costs O(n): z / k times the last, with alpha z / k for the one
    entry that wraps into column 0.  Each term is added into its diagonal's
    sum, and the n sums are placed into the n x n result once.
    """
    import numpy as np

    n = _order(n)
    z = complex(z)
    if method == "assembled":
        fam = build_family(n, a, DEFAULT_TRUNCATION)  # the cache key every caller uses
        vals = _component_values(fam, z)
        return circulant_from_components(vals, a.alpha)
    if method != "taylor":
        raise ValueError(f"unknown method {method!r}")
    wrap = complex(a.alpha) * z
    diags = np.zeros((n, n), dtype=complex)  # row d: entries (i, (i + d) mod n)
    diags[0] = 1
    term = np.ones(n, dtype=complex)
    rho = max(1.0, abs(a.alpha)) * abs(z)
    bound = 1.0
    for k in range(1, 400):
        i = -k % n  # the row whose entry wraps into column 0
        corner = term[i:i + 1] * (wrap / k)  # a slice: numpy's scalar product rounds apart
        term *= z / k
        term[i] = corner[0]
        row = diags[k % n]
        row += term
        bound *= rho / k
        if bound < TAYLOR_TAIL_BOUND:
            break
    else:
        raise RuntimeError("matrix Taylor series failed to meet the tail bound")
    # Entry (i, j) is diags[(j - i) mod n, i] = ext[n + j - i, i]: one strided view.
    ext = np.concatenate((diags, diags))
    step = ext.itemsize
    return np.ndarray((n, n), complex, ext, n * n * step, ((1 - n) * step, n * step)).copy()


def _component_values(fam: HyperbolicFamily, z: complex) -> list[complex]:
    method = "closed" if fam.root.alpha != 0 else "series"
    return [h_eval(fam, s, z, method) for s in range(fam.ctx.n)]


def _rotated_product(f: Callable[[complex], complex], ctx: CyclicContext,
                     a: AlphaRoot, z: complex) -> complex:
    """prod_l f(omega**l r z), the determinant of f(gamma z) by its eigenvalues."""
    return math.prod(f(u * a.root * z) for u in ctx.omega_pow)


# -- identity suite -----------------------------------------------------------

def _report(identity: str, params: dict, residual: float,
            tolerance: float = IDENTITY_TOLERANCE, expect: str = "le") -> IdentityReport:
    return IdentityReport(identity, params, float(residual), tolerance, expect)


def _surface_value(vals: Sequence[complex], alpha: complex) -> complex:
    """Explicit polynomial determinant for orders two and three."""
    if len(vals) == 2:
        x, y = vals
        return x * x - alpha * y * y
    x, y, zc = vals
    return (x ** 3 + alpha * y ** 3 + alpha ** 2 * zc ** 3
            - 3 * alpha * x * y * zc)


def identity_suite(n: int, a: AlphaRoot, z: complex, w: complex,
                   trunc: int = DEFAULT_TRUNCATION) -> list[IdentityReport]:
    """Run the matrix and scalar identity checks at one argument pair.

    Group law, matrix powers, unimodularity, and the determinant products are
    checked for any alpha; the scalar addition, product-mean, and triple
    identities are the alpha = 1 statements and are only emitted there.
    """
    import numpy as np

    n = int(n)
    z, w = complex(z), complex(w)
    ctx = make_context(n)
    fam = build_family(n, a, trunc)
    base_params = {"n": n, "alpha": a.alpha, "branch": a.branch, "z": z, "w": w}
    points = [z, w, z + w, 2 * z, 3 * z, 4 * z]  # all read below, with shifted at alpha = 1
    shifted = [z + u * w for u in ctx.omega_pow] if a.alpha == 1 else []
    if a.alpha != 0:  # all closed-route points in one exp and one FFT
        _closed_components(fam, points + shifted)

    vectors = [_component_values(fam, v) for v in points]
    hz = vectors[0]
    cz, cw, czw, *cpowers = (circulant_from_components(h, a.alpha) for h in vectors)

    czcw = cz @ cw
    reports: list[IdentityReport] = []
    reports.append(_report("group_law", base_params, cheb_norm(czcw - czw)))

    cz2 = cz @ cz  # the products np.linalg.matrix_power forms for m = 2, 3 and 4
    for m, power, cm in zip((2, 3, 4), (cz2, cz2 @ cz, cz2 @ cz2), cpowers):
        reports.append(_report(f"matrix_power_m{m}", base_params, cheb_norm(power - cm)))

    reports.append(_report("det_unimodular", base_params,
                           abs(circulant_det_direct(cz) - 1)))

    if n in (2, 3):
        reports.append(_report("surface_invariant", base_params,
                               abs(_surface_value(hz, a.alpha) - 1)))

    if a.alpha == 1:
        # h_l(z) h_0(w) = mean over k of h_l(z + omega**k w), for every l; h_0(w)
        # is asked once per l.
        at_z = [h_eval(fam, l, z, "closed") for l in range(n)]
        at_w = [h_eval(fam, 0, w, "closed") for _ in range(n)]
        rotated = [[h_eval(fam, l, v, "closed") for l in range(n)] for v in shifted]
        worst = max(relative_residual(sum(column) / n, lhs_z * lhs_w)
                    for lhs_z, lhs_w, column in zip(at_z, at_w, zip(*rotated)))
        reports.append(_report("product_mean_rotation", base_params, worst))

        # h_k(z + w) = sum_i h_i(z) h_{k-i}(w) is row 0 of C(z) C(w) = C(z + w).
        reports.append(_report("addition_convolution", base_params, np.max(
            np.abs(czw[0] - czcw[0]) / np.maximum(1.0, np.abs(czw[0])))))

        if n == 3:
            h0_3z = vectors[4][0]
            triple = hz[0] * hz[1] * hz[2]
            reports.append(_report("triple_product", base_params,
                                   abs(triple - (h0_3z - 1) / 9)))
            # h0*h1*h1 variant: misses for generic z; kept as a negative control.
            variant = hz[0] * hz[1] * hz[1]
            reports.append(_report("triple_product_h011", base_params,
                                   abs(variant - (h0_3z - 1) / 9),
                                   tolerance=1e-8, expect="gt"))
            rhs = (hz[0] ** 3 + hz[1] ** 3 + hz[2] ** 3
                   + 6 * hz[0] * hz[1] * hz[2])
            reports.append(_report("triple_argument", base_params,
                                   abs(h0_3z - rhs)))

    spectral = circulant_det_spectral(hz, ctx, a)
    reports.append(_report("det_product_exp", base_params, relative_residual(
        spectral, _rotated_product(cmath.exp, ctx, a, z)), tolerance=DET_TOLERANCE))

    geo = series_geometric(trunc)
    # A sieved component's radius is 0.9 / |r|; |r z_g| <= 0.45 is half of it.
    # The floor on |r| keeps |z_g| <= 0.8: no radius needs it, pinned residuals do.
    r_abs = max(abs(a.root), 0.45 / 0.8)
    zg = z
    if r_abs * abs(z) > 0.45:
        zg = z * (0.45 / (r_abs * abs(z)))
    gcomps = [project_series(geo, ctx, k, a).evaluate(zg) for k in range(n)]
    gspec = circulant_det_spectral(gcomps, ctx, a)
    gprod = _rotated_product(lambda x: 1 / (1 - x), ctx, a, zg)
    reports.append(_report("det_product_geometric", {**base_params, "z_geometric": zg},
                           relative_residual(gspec, gprod), tolerance=DET_TOLERANCE))

    direct = circulant_det_direct(cz)
    reports.append(_report("spectral_vs_direct", base_params,
                           relative_residual(spectral, direct), tolerance=DET_TOLERANCE))
    return reports


# -- circulant battery --------------------------------------------------------

def circulant_group_law_residual(comps: Sequence[TruncatedSeries], z: complex,
                                 w: complex) -> float:
    """Chebyshev residual of C(z) C(w) = C(z+w) for the plain (alpha = 1)
    circulant of a series' sieved components."""
    def circ(v: complex) -> np.ndarray:
        return circulant_from_components([c.evaluate(v) for c in comps], 1)

    return cheb_norm(circ(z) @ circ(w) - circ(z + w))


def circulant_checks(trunc: int = DEFAULT_TRUNCATION, seed: int = 0) -> list[IdentityReport]:
    """The fixed circulant battery, each series sieved once at n = 3, alpha = 1: the
    group law breaks for the geometric series and holds for exp and exp(2z), the
    determinant factorization holds for all; then one seeded twisted circulant."""
    ctx = make_context(3)
    one = alpha_root(1, 3)
    geo = series_geometric(trunc)
    expo = series_exp(trunc)
    geo_c, exp_c, scaled_c = ([project_series(s, ctx, k, one) for k in range(3)]
                              for s in (geo, expo, expo.scale_argument(2)))

    def geo_det(v: float) -> complex:
        return circulant_det_spectral([c.evaluate(v) for c in geo_c], ctx, one)

    z = 0.2
    params = {"n": 3, "alpha": 1 + 0j, "series": "geometric", "z": complex(z), "w": complex(z)}
    rng = random.Random(seed)
    alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
    return [
        _report("group_law_breaks", params, circulant_group_law_residual(geo_c, z, z),
                tolerance=GROUP_LAW_BREAK_FLOOR, expect="gt"),
        _report("det_product_holds", params, relative_residual(
            geo_det(z), _rotated_product(geo.evaluate, ctx, one, z)), tolerance=DET_TOLERANCE),
        _report("exp_group_law_control", {**params, "series": "exp"},
                circulant_group_law_residual(exp_c, z, z)),
        _report("scaled_exp_group_law_control", {**params, "series": "exp(2z)"},
                circulant_group_law_residual(scaled_c, z, z)),
        _report("geometric_det_value", {"n": 3, "alpha": 1 + 0j, "z": 0.3 + 0j},
                relative_residual(geo_det(0.3), 1 / (1 - 0.3 ** 3)), tolerance=DET_TOLERANCE),
        _report("random_circulant_spectral_vs_direct", {"n": 4, "alpha": alpha, "seed": seed},
                relative_residual(
                    circulant_det_spectral(vals, make_context(4), alpha_root(alpha, 4)),
                    circulant_det_direct(circulant_from_components(vals, alpha))),
                tolerance=DET_TOLERANCE),
    ]


# -- aggregation for the CLI ----------------------------------------------------

def _disk_point(rng: random.Random, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    theta = 2 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def demoivre_sweep(n: int, a: AlphaRoot, draws: int, seed: int,
                   trunc: int = DEFAULT_TRUNCATION) -> list[IdentityReport]:
    """Aggregate the identity suite over seeded unit-disk argument pairs.

    Ordinary checks keep their worst (max) residual; negative controls keep
    their best (min), so a pass means every draw stayed on the right side.
    """
    rng = random.Random(seed)
    runs = []
    for _ in range(draws):
        z = _disk_point(rng, 1.0)
        w = _disk_point(rng, 1.0)
        runs.append(identity_suite(n, a, z, w, trunc))
    params = {"n": n, "alpha": a.alpha, "branch": a.branch, "draws": draws, "seed": seed}
    out = []
    # Every draw lists the same identities in the same order, so zip lines
    # them up; max and min keep the first of equal or incomparable residuals.
    for reps in zip(*runs):
        pick = min if reps[0].expect == "gt" else max
        rep = pick(reps, key=lambda r: r.residual)
        out.append(replace(rep, params=dict(params)))
    return out
