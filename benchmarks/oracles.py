"""Independent reference values for every benchmark job.

Runs in the parent process only, before any timed work, so mpmath and scipy
never enter the worker whose time and memory are measured.  Nothing here
calls the package under test: component values are summed in mpmath at 30
digits, closed forms are evaluated exactly, matrices come from numpy and
``scipy.linalg.expm``.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
from scipy.linalg import expm

from checks import twisted_circulant

DIGITS = 30
# Terms of the exp components beyond this degree are below 1e-60 for
# |z| <= 1 and |alpha| <= 2.3.
EXP_DEGREES = 80
# The package caps series products at this degree (PRODUCT_DEGREE_CAP).
PRODUCT_DEGREE_CAP = 256


def _class_weight(alpha, m: int):
    # alpha = 0 keeps only the m = 0 term of each class (the sieve rule).
    if alpha == 0:
        return mp.mpf(1) if m == 0 else mp.mpf(0)
    return mp.mpc(alpha) ** m


def _components(n: int, alpha: complex, terms) -> list[tuple[complex, float]]:
    """(value, sum of |terms|) per class, from (degree, coefficient) terms."""
    vals = [mp.mpc(0)] * n
    scale = [mp.mpf(0)] * n
    for d, t in terms:
        s = d % n
        t = t * _class_weight(alpha, (d - s) // n)
        vals[s] += t
        scale[s] += abs(t)
    return [(complex(v), float(a)) for v, a in zip(vals, scale)]


def exp_components(n: int, alpha: complex, z: complex) -> list[tuple[complex, float]]:
    """sum_m alpha**m z**(n m + s) / (n m + s)! for every s."""
    with mp.workdps(DIGITS):
        zm = mp.mpc(z)
        return _components(n, alpha, ((k, zm ** k / mp.factorial(k))
                                      for k in range(EXP_DEGREES + 1)))


def geo_components(n: int, alpha: complex, z: complex) -> list[tuple[complex, float]]:
    """Exact closed form z**l / (1 - alpha z**n) of the geometric classes."""
    with mp.workdps(DIGITS):
        zm, am = mp.mpc(z), mp.mpc(alpha)
        denom = 1 - am * zm ** n
        ratio = abs(am) * abs(zm) ** n
        return [(complex(zm ** l / denom), float(abs(zm) ** l / (1 - ratio)))
                for l in range(n)]


def laurent_components(n: int, alpha: complex, min_deg: int, coeffs,
                       z: complex) -> list[tuple[complex, float]]:
    with mp.workdps(DIGITS):
        zm = mp.mpc(z)
        return _components(n, alpha, ((min_deg + i, mp.mpc(c) * zm ** (min_deg + i))
                                      for i, c in enumerate(coeffs)))


def fft_determinant(comps, alpha: complex) -> complex:
    """Product of the twisted-circulant eigenvalues n * ifft(c_k r**k)."""
    n = len(comps)
    r = cmath.exp(cmath.log(alpha) / n) if alpha != 0 else 0j
    eig = n * np.fft.ifft(np.asarray(comps) * r ** np.arange(n))
    return complex(np.prod(eig))


def expm_twisted_shift(n: int, alpha: complex, z: complex) -> np.ndarray:
    g = np.zeros((n, n), dtype=complex)
    g[np.arange(n - 1), np.arange(1, n)] = 1
    g[n - 1, 0] = alpha
    return expm(z * g)


def sylvester(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(2j * np.pi * (np.outer(k, k) % n) / n) / math.sqrt(n)


def _q_number(q, k: int):
    return mp.fsum(q ** j for j in range(k))


def _q_factorials(q, top: int) -> list:
    out = [mp.mpf(1)]
    for k in range(1, top + 1):
        out.append(out[-1] * _q_number(q, k))
    return out


def _deformed_values(f, q: float, points) -> list[tuple[complex, complex, float]]:
    """(z, (f(qz) - f(z)) / ((q - 1) z), sum of |[d]_q a_d z**(d-1)|)."""
    with mp.workdps(DIGITS):
        qm = mp.mpf(q)
        cs = [mp.mpc(c) for c in f]

        def ev(x):
            return mp.fsum(c * x ** d for d, c in enumerate(cs))

        out = []
        for z in points:
            zm = mp.mpc(z)
            value = (ev(qm * zm) - ev(zm)) / ((qm - 1) * zm)
            scale = mp.fsum(abs(_q_number(qm, d) * c) * abs(zm) ** (d - 1)
                            for d, c in enumerate(cs) if d > 0)
            out.append((z, complex(value), float(scale)))
        return out


def psi_family(n: int, alpha: complex, q: float, trunc: int) -> list[np.ndarray]:
    """Coefficients alpha**(d div n) / [d]_q! placed in class d mod n."""
    with mp.workdps(DIGITS):
        fact = _q_factorials(mp.mpf(q), trunc)
        comps = [np.zeros(trunc + 1, dtype=complex) for _ in range(n)]
        for d in range(trunc + 1):
            comps[d % n][d] = complex(mp.mpc(alpha) ** (d // n) / fact[d])
        return comps


def q_laguerre(nmax: int, q: float) -> list[np.ndarray]:
    """x**k coefficient of L_n: (-1)**k C(n-1, k-1) [n]_q! / [k]_q!."""
    with mp.workdps(DIGITS):
        fact = _q_factorials(mp.mpf(q), nmax)
        family = [np.array([1 + 0j])]
        for n in range(1, nmax + 1):
            coeffs = np.zeros(n + 1, dtype=complex)
            for k in range(1, n + 1):
                coeffs[k] = complex((-1) ** k * math.comb(n - 1, k - 1) * fact[n] / fact[k])
            family.append(coeffs)
        return family


def q_translation(p, y: complex, q: float) -> tuple[np.ndarray, float]:
    """E(y D_q) p: the x**k coefficient is sum_n a_n [n choose k]_q y**(n-k)."""
    with mp.workdps(DIGITS):
        deg = len(p) - 1
        fact = _q_factorials(mp.mpf(q), deg)
        ym = mp.mpc(y)
        out = np.zeros(deg + 1, dtype=complex)
        scale = mp.mpf(0)
        for k in range(deg + 1):
            total = mp.mpc(0)
            for n in range(k, deg + 1):
                t = mp.mpc(p[n]) * fact[n] / (fact[k] * fact[n - k]) * ym ** (n - k)
                total += t
                scale += abs(t)
            out[k] = complex(total)
        return out, float(scale)


def _cli(params: dict):
    kind = params["check"]
    if kind == "decompose":
        return {"check": kind, "n": params["n"],
                "coeffs": {k: 1 / math.factorial(k) for k in range(params["trunc"] + 1)}}
    if kind == "eval":
        comps = exp_components(params["n"], params["alpha"], params["z"])
        return {"check": kind, "value": comps[params["s"]]}
    if kind == "det":
        with mp.workdps(DIGITS):
            value = 1 / (1 - mp.mpc(params["alpha"]) * mp.mpc(params["z"]) ** params["n"])
        return {"check": kind, "value": complex(value)}
    return {"check": kind}


def oracle(kind: str, p: dict):
    """The reference for one job, in the form :func:`checks.check` expects."""
    if kind == "cli":
        return _cli(p)
    if kind in ("exp", "pointwise"):
        return exp_components(p["n"], p["alpha"], p["z"])
    if kind == "geo":
        return geo_components(p["n"], p["alpha"], p["z"])
    if kind == "laurent":
        return laurent_components(p["n"], p["alpha"], p["min_deg"], p["coeffs"], p["z"])
    if kind == "circulant":
        return twisted_circulant(p["comps"], p["alpha"])
    if kind in ("det_direct", "det_spectral"):
        return fft_determinant(p["comps"], p["alpha"])
    if kind == "sylvester":
        return sylvester(p["n"])
    if kind == "demoivre":
        return expm_twisted_shift(p["n"], p["alpha"], p["z"])
    if kind == "mul":
        f, g = np.asarray(p["f"]), np.asarray(p["g"])
        top = min(len(f) + len(g) - 2, PRODUCT_DEGREE_CAP) + 1
        return np.convolve(f, g)[:top], np.convolve(np.abs(f), np.abs(g))[:top]
    if kind == "add":
        return 0, np.asarray(p["f"]) + np.asarray(p["g"])
    if kind == "derivative":
        f = np.asarray(p["f"])
        return 0, f[1:] * np.arange(1, len(f))
    if kind in ("jackson", "psi_derivative"):
        return _deformed_values(p["f"], p["q"], p["points"])
    if kind == "psi_family":
        return psi_family(p["n"], p["alpha"], p["q"], p["trunc"])
    if kind == "laguerre":
        family = q_laguerre(p["nmax"], p["q"])
        with mp.workdps(DIGITS):
            lowered = [complex(_q_number(mp.mpf(p["q"]), n)) * family[n - 1]
                       for n in range(1, p["nmax"] + 1)]
        return family, lowered
    if kind == "translation":
        return q_translation(p["p"], p["y"], p["q"])
    if kind == "qpsi_checks":
        return None  # self-checked, see checks.check
    raise ValueError(f"unknown job kind {kind!r}")


def oracles(jobs) -> list:
    return [oracle(kind, params) for kind, params in jobs]
