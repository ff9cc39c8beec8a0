"""Seeded job lists for the four benchmark workloads.

A job is ``(kind, params)`` with params made only of plain Python values
(ints, floats, complex numbers and lists of them), so the parent process can
compute oracles from the same list the worker runs without importing the
package under test.  The seed picks phases and coefficient values; the
magnitudes that decide how much work an operation does (orders, degrees,
|z| on the Taylor route) are fixed, so run time does not depend on the seed.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("cli-verify", "component-eval", "matrix-det", "qpsi-calculus")


def _disk(rng: random.Random, radius: float) -> complex:
    return cmath.rect(radius * math.sqrt(rng.random()), 2 * math.pi * rng.random())


def _annulus(rng: random.Random, inner: float, outer: float) -> complex:
    return cmath.rect(rng.uniform(inner, outer), 2 * math.pi * rng.random())


def _coeffs(rng: random.Random, count: int) -> list[complex]:
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(count)]


def _root_abs(alpha: complex, n: int) -> float:
    return abs(alpha) ** (1.0 / n)


def cli_jobs(seed: int, smoke: bool) -> list:
    """One pass of the CLI: the README commands, the full battery, and the
    seeded de Moivre sweep at growing order."""
    jobs = [
        ("cli", {"argv": ["decompose", "--builtin", "exp", "--n", "2", "--trunc", "6"],
                 "check": "decompose", "n": 2, "trunc": 6}),
        ("cli", {"argv": ["eval", "--builtin", "exp", "--n", "3", "--s", "1",
                          "--z", "0.8", "--method", "both"],
                 "check": "eval", "n": 3, "s": 1, "z": 0.8 + 0j, "alpha": 1 + 0j}),
        ("cli", {"argv": ["det", "--builtin", "geometric", "--n", "3", "--z", "0.3"],
                 "check": "det", "n": 3, "z": 0.3 + 0j, "alpha": 1 + 0j}),
        ("cli", {"argv": ["verify", "--suite", "all"], "check": "verify"}),
    ]
    # n = 32, 64 and 128 are left out: their single calls (80 ms, 0.5 s and
    # 4-6 s) cut the passes per run, and with fewer passes the best-of-passes
    # figures moved by 10-20% between runs.
    for n in ((4, 8) if smoke else (8, 16)):
        jobs.append(("cli", {"argv": ["verify", "--suite", "demoivre", "--seed", str(seed),
                                      "--n", str(n)], "check": "verify"}))
    return jobs


def component_jobs(seed: int, smoke: bool) -> list:
    """Component vectors on every route, over orders and weights, plus sieves
    of fresh Laurent series with negative degrees."""
    rng = random.Random(seed)
    orders = (2, 3) if smoke else (2, 3, 8, 32)
    points = 1 if smoke else 2
    jobs = []
    for n in orders:
        for alpha in (1 + 0j, -1 + 0j, 2 + 1j, 0j):
            geo_radius = 0.45 / max(_root_abs(alpha, n), 1.0)
            for _ in range(points):
                z = _disk(rng, 1.0)
                jobs.append(("exp", {"n": n, "alpha": alpha, "z": z, "route": "series"}))
                if alpha != 0:
                    jobs.append(("exp", {"n": n, "alpha": alpha, "z": z, "route": "closed"}))
                    jobs.append(("pointwise", {"n": n, "alpha": alpha, "z": z}))
                zg = _disk(rng, geo_radius)
                if alpha != 0:
                    jobs.append(("geo", {"n": n, "alpha": alpha, "z": zg, "route": "closed"}))
                jobs.append(("geo", {"n": n, "alpha": alpha, "z": zg, "route": "series"}))
            jobs.append(("laurent", {"n": n, "alpha": alpha, "min_deg": -6,
                                     "coeffs": _coeffs(rng, 47),
                                     "z": _annulus(rng, 0.5, 1.0)}))
    return jobs


def matrix_jobs(seed: int, smoke: bool) -> list:
    """Seeded twisted circulants at n up to 256 and de Moivre matrices at n
    up to 128.

    |alpha| and |z| are fixed so the Taylor route always sums the same
    number of terms; the components are 1 plus a small random tail so the
    determinant stays well inside double range at n = 256.
    """
    rng = random.Random(seed)
    jobs = []
    for n in ((4, 8) if smoke else (8, 32, 128, 256)):
        alpha = cmath.rect(1.5, 2 * math.pi * rng.random())
        z = cmath.rect(0.8, 2 * math.pi * rng.random())
        tail = 0.5 / math.sqrt(n)
        comps = [1 + 0j] + [c * tail for c in _coeffs(rng, n - 1)]
        base = {"n": n, "alpha": alpha, "comps": comps}
        jobs.append(("circulant", base))
        jobs.append(("det_direct", base))
        jobs.append(("det_spectral", base))
        jobs.append(("sylvester", {"n": n}))
        # The n = 256 matrix exponentials (30-50 ms each, over half a pass)
        # are left out: they halved the passes per run, and with fewer
        # passes the fastest latency of every job moved more between runs.
        if n <= 128:
            jobs.append(("demoivre", {"n": n, "alpha": alpha, "z": z, "route": "taylor"}))
            jobs.append(("demoivre", {"n": n, "alpha": alpha, "z": z, "route": "assembled"}))
    return jobs


def qpsi_jobs(seed: int, smoke: bool) -> list:
    """Series arithmetic and the deformed calculus; every operation builds
    new series or polynomials."""
    rng = random.Random(seed)
    q = rng.uniform(0.4, 0.7)
    jobs = []
    for deg in ((8, 16) if smoke else (64, 128, 256)):
        f, g = _coeffs(rng, deg + 1), _coeffs(rng, deg + 1)
        pts = [_disk(rng, 0.7) for _ in range(3)]
        jobs.append(("mul", {"f": f, "g": g}))
        jobs.append(("add", {"f": f, "g": g}))
        jobs.append(("derivative", {"f": f}))
        jobs.append(("jackson", {"f": f, "q": q, "points": pts}))
        jobs.append(("psi_derivative", {"f": f, "q": q, "points": pts}))
    trunc = 32 if smoke else 128
    for n in (3, 8):
        jobs.append(("psi_family", {"n": n, "alpha": cmath.rect(1.0, 2 * math.pi * rng.random()),
                                    "q": q, "trunc": trunc}))
    jobs.append(("laguerre", {"q": q, "nmax": 4 if smoke else 12}))
    jobs.append(("translation", {"p": _coeffs(rng, 7 if smoke else 17),
                                 "y": _disk(rng, 0.8), "q": q}))
    jobs.append(("qpsi_checks", {"q": q, "seed": seed}))
    return jobs


_BUILDERS = {
    "cli-verify": cli_jobs,
    "component-eval": component_jobs,
    "matrix-det": matrix_jobs,
    "qpsi-calculus": qpsi_jobs,
}


def build_jobs(workload: str, seed: int, smoke: bool = False) -> list:
    return _BUILDERS[workload](seed, smoke)
