"""Command-line frontend.

Subcommands: decompose (sieve a series into weighted cyclic components and
re-verify the resolution), eval (evaluate one component by series or closed
form), verify (run an identity suite and report residuals), det (spectral vs
LU determinant of a twisted circulant).

Exit codes: 0 success, 1 a verification failed, 2 usage or input errors,
3 a decomposition failed its re-verification, 4 domain errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .cyclic import AlphaRoot, alpha_root, make_context
from .demoivre import (DET_TOLERANCE, circulant_checks, circulant_det_direct,
                       circulant_det_spectral, circulant_from_components,
                       demoivre_sweep)
from .hyperbolic import build_family, g_eval, h_eval, laurent_component
from .qpsi import PsiSequence, build_psi_hyperbolic, qpsi_checks, series_exp_psi
from .reports import all_pass, relative_residual, reports_to_csv, reports_to_json
from .series import (DEFAULT_TRUNCATION, DomainError, TruncatedSeries, _aligned,
                     _ipow, _pair, coeff_close, max_coeff_diff, series_exp,
                     series_from_json, series_geometric, series_to_json)

__all__ = ["main", "main_entry", "parse_complex"]

SWEEP_DRAWS = 5
TOL_ENV_VAR = "CYCLOFUN_TOL"


def parse_complex(text: str) -> complex:
    """Accept '1.5', '1+2i', '1+2j', or 're,im'."""
    raw = text.strip().replace(" ", "")
    if not raw:
        raise ValueError("empty complex literal")
    try:
        if "," in raw:
            re_s, im_s = raw.split(",")
            value = complex(float(re_s), float(im_s))
        else:
            value = complex(raw.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex number from {text!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"complex literal {text!r} is not finite")
    return value


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_complex(c: complex) -> str:
    c = complex(c)
    if c.imag == 0:
        return _fmt(c.real)
    return f"{_fmt(c.real)}{c.imag:+.17g}i"


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _env_tolerance() -> float | None:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{TOL_ENV_VAR} must be a number, got {raw!r}") from None


def _effective_tolerance(args, fallback: float | None = None) -> float | None:
    """The --tol value, else CYCLOFUN_TOL, else fallback.

    A tolerance must be finite and nonnegative: inf passes every check, and
    nan or a negative value fails every one.
    """
    tol, source = getattr(args, "tol", None), "--tol"
    if tol is None:
        tol, source = _env_tolerance(), TOL_ENV_VAR
    if tol is None:
        return fallback
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{source} must be a finite nonnegative number, got {tol!r}")
    return tol


# -- series sources -----------------------------------------------------------

def _load_series(args) -> tuple[TruncatedSeries, dict]:
    """The series named by --input or --builtin, with its provenance."""
    if getattr(args, "input", None):
        with open(args.input) as fh:
            obj = json.load(fh)
        return series_from_json(obj), {"input": args.input}
    name = args.builtin
    if name == "exp":
        return series_exp(args.trunc), {"builtin": "exp"}
    if name == "geometric":
        return series_geometric(args.trunc), {"builtin": "geometric"}
    if name == "expq":
        ps = PsiSequence.q_deformation(args.q)
        meta = {"builtin": "expq", "q": _pair(args.q)}
        return series_exp_psi(ps, args.trunc), meta
    raise ValueError(f"unknown builtin series {name!r}")


# -- decompose ----------------------------------------------------------------

def _reverify_decomposition(s: TruncatedSeries, comps, a) -> bool:
    if a.alpha == 0:
        # Component k keeps the degree-k coefficient of s and nothing else.
        return all(x == (y if d == k else 0j) for k, c in enumerate(comps)
                   for d, x, y in zip(c.degrees(), *_aligned(c, s, c.min_deg, c.max_deg)))
    total = comps[0]
    for k in range(1, len(comps)):
        total = total + comps[k] * _ipow(a.root, k)
    if a.alpha == 1 and a.branch == 0:
        return max_coeff_diff(total, s) == 0.0
    return coeff_close(total, s.scale_argument(a.root))


def _cmd_decompose(args) -> int:
    s, meta = _load_series(args)
    ctx = make_context(args.n)
    a = alpha_root(args.alpha, args.n, args.branch)
    comps = [laurent_component(s, ctx, a, k) for k in range(args.n)]
    if not _reverify_decomposition(s, comps, a):
        print("decomposition failed re-verification", file=sys.stderr)
        return 3

    if args.format == "json":
        obj = dict(meta)
        obj.update({
            "n": args.n,
            "alpha": _pair(a.alpha),
            "branch": a.branch,
            "root": _pair(a.root),
            "components": [series_to_json(c) for c in comps],
            "verified": True,
        })
        _emit(args, json.dumps(obj, indent=2) + "\n")
    elif args.format == "csv":
        lines = ["component,degree,re,im"]
        for k, c in enumerate(comps):
            for d in c.degrees():
                v = c.coeff(d)
                if v != 0:
                    lines.append(f"{k},{d},{_fmt(v.real)},{_fmt(v.imag)}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        src = meta.get("builtin") or meta.get("input")
        lines = [f"decomposition of {src}: n={args.n} "
                 f"alpha={_fmt_complex(a.alpha)} branch={a.branch} "
                 f"root={_fmt_complex(a.root)}"]
        for k, c in enumerate(comps):
            lines.append(f"component {k} (degrees = {k} mod {args.n}), "
                         f"window [{c.min_deg}, {c.max_deg}]:")
            for d in c.degrees():
                v = c.coeff(d)
                if v != 0:
                    lines.append(f"  deg {d}: {_fmt_complex(v)}")
        lines.append("re-verification: ok")
        _emit(args, "\n".join(lines) + "\n")
    return 0


# -- eval ----------------------------------------------------------------------

def _eval_values(args, meta_out: dict) -> tuple[AlphaRoot, int, dict[str, complex]]:
    """The root, the reduced s, and {"series": value} and/or {"closed": value}."""
    methods = ["series", "closed"] if args.method == "both" else [args.method]
    ctx = make_context(args.n)
    a = alpha_root(args.alpha, args.n, args.branch)
    s = int(args.s) % args.n
    out: dict[str, complex] = {}

    if args.input or args.builtin == "geometric":
        if args.input and "closed" in methods:
            raise ValueError("closed-form evaluation needs a builtin family")
        series, meta = _load_series(args)
        meta_out.update(meta)
        for m in methods:
            if m == "series":
                out["series"] = laurent_component(series, ctx, a, s).evaluate(args.z)
            else:
                out["closed"] = g_eval(ctx, a, s, args.z)
        return a, s, out

    if args.builtin == "expq":
        ps = PsiSequence.q_deformation(args.q)
        fam = build_psi_hyperbolic(ps, ctx, a, args.trunc)
        meta_out.update({"builtin": "expq", "q": _pair(args.q)})
    else:
        fam = build_family(args.n, a, args.trunc)
        meta_out["builtin"] = "exp"
    for m in methods:
        out[m] = h_eval(fam, s, args.z, m)
    return a, s, out


def _cmd_eval(args) -> int:
    meta: dict = {}
    a, s, values = _eval_values(args, meta)

    if args.format == "json":
        obj = dict(meta)
        obj.update({
            "n": args.n,
            "alpha": _pair(a.alpha),
            "branch": a.branch,
            "s": s,
            "z": _pair(args.z),
            "values": {k: _pair(v) for k, v in values.items()},
        })
        if len(values) == 2:
            obj["difference"] = abs(values["series"] - values["closed"])
        _emit(args, json.dumps(obj, indent=2) + "\n")
    elif args.format == "csv":
        lines = ["method,s,n,z_re,z_im,value_re,value_im"]
        for k, v in values.items():
            lines.append(f"{k},{s},{args.n},"
                         f"{_fmt(args.z.real)},{_fmt(args.z.imag)},"
                         f"{_fmt(v.real)},{_fmt(v.imag)}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        src = meta.get("builtin") or meta.get("input")
        lines = [f"component {s} of {src}: n={args.n} "
                 f"alpha={_fmt_complex(a.alpha)} branch={a.branch} "
                 f"z={_fmt_complex(args.z)}"]
        for k, v in values.items():
            lines.append(f"{k}: {_fmt_complex(v)}")
        if len(values) == 2:
            lines.append(f"difference: {_fmt(abs(values['series'] - values['closed']))}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


# -- verify ----------------------------------------------------------------------

def _cmd_verify(args) -> int:
    a = alpha_root(args.alpha, args.n, args.branch)
    tol = _effective_tolerance(args)
    reports = []
    if args.suite in ("demoivre", "all"):
        reports.extend(demoivre_sweep(args.n, a, SWEEP_DRAWS, args.seed, args.trunc))
    if args.suite in ("circulant", "all"):
        reports.extend(circulant_checks(args.trunc, args.seed))
    if args.suite in ("qpsi", "all"):
        reports.extend(qpsi_checks(args.q, args.seed, args.trunc))

    if tol is not None:
        reports = [r.with_tolerance(tol) if r.expect == "le" else r
                   for r in reports]

    if args.format == "json":
        _emit(args, json.dumps(reports_to_json(reports), indent=2) + "\n")
    elif args.format == "csv":
        _emit(args, reports_to_csv(reports))
    else:
        lines = []
        for r in reports:
            mark = "PASS" if r.passed else "FAIL"
            rel = "<=" if r.expect == "le" else ">"
            lines.append(f"[{mark}] {r.identity}: residual {_fmt(r.residual)} "
                         f"(want {rel} {_fmt(r.tolerance)})")
        npass = sum(1 for r in reports if r.passed)
        lines.append(f"{npass}/{len(reports)} checks passed")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if all_pass(reports) else 1


# -- det -------------------------------------------------------------------------

def _det_components(args, ctx, a) -> list[complex]:
    if args.components:
        parts = [p for p in args.components.split(",") if p != ""]
        vals = [parse_complex(p) for p in parts]
        if len(vals) != ctx.n:
            raise ValueError(f"expected {ctx.n} components for n={ctx.n}, "
                             f"got {len(vals)}")
        return vals
    if args.z is None:
        raise ValueError("det needs --components or --builtin with --z")
    base, _ = _load_series(args)
    return [laurent_component(base, ctx, a, k).evaluate(args.z)
            for k in range(ctx.n)]


def _cmd_det(args) -> int:
    ctx = make_context(args.n)
    a = alpha_root(args.alpha, args.n, args.branch)
    tol = _effective_tolerance(args, DET_TOLERANCE)
    vals = _det_components(args, ctx, a)
    spectral = circulant_det_spectral(vals, ctx, a)
    direct = circulant_det_direct(circulant_from_components(vals, a.alpha))
    diff = relative_residual(spectral, direct)
    ok = diff <= tol

    if args.format == "json":
        obj = {
            "n": args.n,
            "alpha": _pair(a.alpha),
            "branch": a.branch,
            "components": [_pair(v) for v in vals],
            "det_spectral": _pair(spectral),
            "det_direct": _pair(direct),
            "difference": diff,
            "tolerance": tol,
            "pass": ok,
        }
        _emit(args, json.dumps(obj, indent=2) + "\n")
    elif args.format == "csv":
        lines = ["n,alpha_re,alpha_im,det_spectral_re,det_spectral_im,"
                 "det_direct_re,det_direct_im,difference,pass"]
        lines.append(f"{args.n},{_fmt(a.alpha.real)},{_fmt(a.alpha.imag)},"
                     f"{_fmt(spectral.real)},{_fmt(spectral.imag)},"
                     f"{_fmt(direct.real)},{_fmt(direct.imag)},"
                     f"{_fmt(diff)},{'true' if ok else 'false'}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [
            f"twisted circulant determinant: n={args.n} "
            f"alpha={_fmt_complex(a.alpha)} branch={a.branch}",
            f"spectral: {_fmt_complex(spectral)}",
            f"direct:   {_fmt_complex(direct)}",
            f"difference: {_fmt(diff)} (tolerance {_fmt(tol)}) "
            f"{'PASS' if ok else 'FAIL'}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------------

def _add_family_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=3,
                   help="cyclic order (default 3)")
    p.add_argument("--alpha", type=parse_complex, default=1 + 0j,
                   help="weight alpha; accepts 1, -1, 1+2i, or re,im (default 1)")
    p.add_argument("--branch", type=int, default=0,
                   help="which n-th root of alpha to use (default 0)")
    p.add_argument("--q", type=parse_complex, default=0.5 + 0j,
                   help="deformation parameter where relevant (default 0.5)")
    p.add_argument("--trunc", type=int, default=DEFAULT_TRUNCATION,
                   help=f"series truncation degree (default {DEFAULT_TRUNCATION})")


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "text"), default="text",
                   help="output format (default text)")
    p.add_argument("--out", default=None,
                   help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclofun",
        description="Cyclic decompositions of series, generalized hyperbolic "
                    "components, and twisted circulant identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose",
                       help="sieve a series into weighted cyclic components")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--builtin", choices=("exp", "geometric", "expq"),
                     default="exp", help="builtin base series (default exp)")
    src.add_argument("--input", default=None,
                     help="path to a series JSON file")
    _add_family_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("eval", help="evaluate one component at a point")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--builtin", choices=("exp", "geometric", "expq"),
                     default="exp", help="builtin base series (default exp)")
    src.add_argument("--input", default=None,
                     help="path to a series JSON file")
    p.add_argument("--s", type=int, default=0, help="component index (default 0)")
    p.add_argument("--z", type=parse_complex, required=True,
                   help="evaluation point")
    p.add_argument("--method", choices=("series", "closed", "both"),
                   default="series", help="evaluation route (default series)")
    _add_family_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="run an identity suite and report residuals")
    p.add_argument("--suite", choices=("demoivre", "circulant", "qpsi", "all"),
                   default="all", help="which battery to run (default all)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized draws (default 0)")
    p.add_argument("--tol", type=float, default=None,
                   help="override the pass tolerance for ordinary checks; "
                        f"falls back to the {TOL_ENV_VAR} environment variable")
    _add_family_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("det", help="spectral vs LU circulant determinant")
    p.add_argument("--components", default=None,
                   help="comma-separated component values, each like 1.5 or 2+1i")
    p.add_argument("--builtin", choices=("exp", "geometric", "expq"),
                   default="exp", help="take components from this series at --z")
    p.add_argument("--z", type=parse_complex, default=None,
                   help="evaluation point for builtin components")
    p.add_argument("--tol", type=float, default=None,
                   help="mismatch tolerance (default 1e-9; "
                        f"or the {TOL_ENV_VAR} environment variable)")
    _add_family_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_det)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4
    except OverflowError as exc:
        print(f"domain error: numeric overflow ({exc})", file=sys.stderr)
        return 4
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
