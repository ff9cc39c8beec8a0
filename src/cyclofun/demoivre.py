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
from typing import TYPE_CHECKING, Callable, Sequence

from .cyclic import AlphaRoot, CyclicContext, alpha_root, make_context, project_series
from .hyperbolic import HyperbolicFamily, build_family, h_eval
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
    "negative_check_non_exp",
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


def _order(n: int) -> int:
    n = int(n)
    if n < 2:
        raise ValueError(f"order must be at least 2, got {n}")
    return n


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
    n = len(vals)
    if n < 2:
        raise ValueError("need at least two components")
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
    if a.n != n:
        raise ValueError(f"root order {a.n} does not match context order {n}")
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
    diagonal with the n-th roots of unity on the diagonal.
    """
    import numpy as np

    n = ctx.n
    k = np.arange(n)
    return np.array(ctx.omega_pow)[np.outer(k, k) % n] * (1 / math.sqrt(n))


def demoivre_matrix(n: int, a: AlphaRoot, z: complex, method: str = "assembled",
                    trunc: int = DEFAULT_TRUNCATION) -> np.ndarray:
    """The matrix exponential of the twisted shift times z.

    "assembled" places the hyperbolic component values into the twisted
    circulant pattern; "taylor" sums the matrix Taylor series until the
    remainder bound (max(1,|alpha|) |z|)**(k+1)/(k+1)! drops below 1e-15.
    The Taylor route applies the shift as a shift: column j of term @ (z G)
    is z times column j-1 of term, and column 0 is alpha z times the last,
    so a term costs O(n**2) and no matrix product.
    """
    import numpy as np

    n = _order(n)
    z = complex(z)
    if method == "assembled":
        fam = build_family(n, a, trunc)
        vals = _component_values(fam, z)
        return circulant_from_components(vals, a.alpha)
    if method != "taylor":
        raise ValueError(f"unknown method {method!r}")
    wrap = complex(a.alpha) * z
    total = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    nxt = np.empty_like(term)
    rho = max(1.0, abs(a.alpha)) * abs(z)
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


def _component_values(fam: HyperbolicFamily, z: complex) -> list[complex]:
    method = "closed" if fam.root.alpha != 0 and fam.base is not None else "series"
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
    if len(vals) == 3:
        x, y, zc = vals
        return (x ** 3 + alpha * y ** 3 + alpha ** 2 * zc ** 3
                - 3 * alpha * x * y * zc)
    raise ValueError("surface polynomial only implemented for n = 2, 3")


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

    hz = _component_values(fam, z)
    cz = circulant_from_components(hz, a.alpha)
    cw = circulant_from_components(_component_values(fam, w), a.alpha)
    czw = circulant_from_components(_component_values(fam, z + w), a.alpha)

    czcw = cz @ cw
    reports: list[IdentityReport] = []
    reports.append(_report("group_law", base_params, cheb_norm(czcw - czw)))

    for m in (2, 3, 4):
        hm = _component_values(fam, m * z)
        cm = circulant_from_components(hm, a.alpha)
        reports.append(_report(
            f"matrix_power_m{m}", base_params,
            cheb_norm(np.linalg.matrix_power(cz, m) - cm)))

    reports.append(_report("det_unimodular", base_params,
                           abs(circulant_det_direct(cz) - 1)))

    if n in (2, 3):
        reports.append(_report("surface_invariant", base_params,
                               abs(_surface_value(hz, a.alpha) - 1)))

    if a.alpha == 1:
        ev = lambda s, v: h_eval(fam, s, v, "closed")
        # h_l(z) h_0(w) = mean over k of h_l(z + omega**k w), for every l.  The
        # calls go point by point so each point's components come from one
        # closed-form vector; h_0(w) is asked once per l.
        at_z = [ev(l, z) for l in range(n)]
        at_w = [ev(0, w) for _ in range(n)]
        rotated = [[ev(l, z + ctx.omega_pow[k] * w) for l in range(n)] for k in range(n)]
        worst = max(relative_residual(sum(column) / n, lhs_z * lhs_w)
                    for lhs_z, lhs_w, column in zip(at_z, at_w, zip(*rotated)))
        reports.append(_report("product_mean_rotation", base_params, worst))

        # h_k(z + w) = sum_i h_i(z) h_{k-i}(w) is row 0 of C(z) C(w) = C(z + w).
        reports.append(_report("addition_convolution", base_params, np.max(
            np.abs(czw[0] - czcw[0]) / np.maximum(1.0, np.abs(czw[0])))))

        if n == 3:
            h0_3z = ev(0, 3 * z)
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


# -- negative results ---------------------------------------------------------

def circulant_group_law_residual(base: TruncatedSeries, n: int, z: complex,
                                 w: complex) -> float:
    """Chebyshev residual of C(z) C(w) = C(z+w) for the plain (alpha = 1)
    circulant of the components of an arbitrary series."""
    ctx = make_context(n)
    one = alpha_root(1, n)
    comps = [project_series(base, ctx, k, one) for k in range(n)]

    def circ(v: complex) -> np.ndarray:
        return circulant_from_components([c.evaluate(v) for c in comps], 1)

    return cheb_norm(circ(z) @ circ(w) - circ(z + w))


def negative_check_non_exp(base: TruncatedSeries, n: int, z: complex,
                           w: complex) -> list[IdentityReport]:
    """Confirm the group law breaks for a non-exponential series while the
    determinant factorization still holds."""
    ctx = make_context(n)
    one = alpha_root(1, n)
    label = base.label or "series"
    params = {"n": n, "alpha": 1 + 0j, "series": label, "z": complex(z), "w": complex(w)}
    gl = circulant_group_law_residual(base, n, z, w)
    comps = [project_series(base, ctx, k, one).evaluate(z) for k in range(n)]
    spectral = circulant_det_spectral(comps, ctx, one)
    det_res = relative_residual(spectral, _rotated_product(base.evaluate, ctx, one, z))
    return [
        _report("group_law_breaks", params, gl,
                tolerance=GROUP_LAW_BREAK_FLOOR, expect="gt"),
        _report("det_product_holds", params, det_res, tolerance=DET_TOLERANCE),
    ]


def circulant_checks(trunc: int = DEFAULT_TRUNCATION, seed: int = 0) -> list[IdentityReport]:
    """The fixed circulant battery: negative controls plus determinant checks."""
    reports: list[IdentityReport] = []
    geo = series_geometric(trunc)
    reports.extend(negative_check_non_exp(geo, 3, 0.2, 0.2))

    expo = series_exp(trunc)
    params = {"n": 3, "alpha": 1 + 0j, "series": "exp", "z": 0.2 + 0j, "w": 0.2 + 0j}
    reports.append(_report("exp_group_law_control", params,
                           circulant_group_law_residual(expo, 3, 0.2, 0.2)))
    scaled = expo.scale_argument(2).with_label("exp(2z)")
    sparams = {**params, "series": "exp(2z)"}
    reports.append(_report("scaled_exp_group_law_control", sparams,
                           circulant_group_law_residual(scaled, 3, 0.2, 0.2)))

    ctx = make_context(3)
    one = alpha_root(1, 3)
    z = 0.3
    comps = [project_series(geo, ctx, k, one).evaluate(z) for k in range(3)]
    spectral = circulant_det_spectral(comps, ctx, one)
    target = 1 / (1 - z ** 3)
    reports.append(_report("geometric_det_value",
                           {"n": 3, "alpha": 1 + 0j, "z": z + 0j},
                           relative_residual(spectral, target),
                           tolerance=DET_TOLERANCE))

    rng = random.Random(seed)
    n4 = 4
    ctx4 = make_context(n4)
    alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    a4 = alpha_root(alpha, n4)
    vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n4)]
    spec4 = circulant_det_spectral(vals, ctx4, a4)
    direct4 = circulant_det_direct(circulant_from_components(vals, alpha))
    reports.append(_report("random_circulant_spectral_vs_direct",
                           {"n": n4, "alpha": alpha, "seed": seed},
                           relative_residual(spec4, direct4),
                           tolerance=DET_TOLERANCE))
    return reports


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
        out.append(IdentityReport(rep.identity, dict(params), rep.residual,
                                  rep.tolerance, rep.expect))
    return out
