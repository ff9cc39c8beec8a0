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
import math
import os
import sys

from .cyclic import AlphaRoot, alpha_root, make_context
from .demoivre import (DET_TOLERANCE, circulant_checks, circulant_det_direct,
                       circulant_det_spectral, circulant_from_components,
                       demoivre_sweep)
from .hyperbolic import build_family, g_eval, h_eval, laurent_component
from .qpsi import PsiSequence, build_psi_hyperbolic, qpsi_checks, series_exp_psi
from .reports import (_report_lines, all_pass, relative_residual, reports_to_csv,
                      reports_to_json)
from .series import (DEFAULT_TRUNCATION, DomainError, TruncatedSeries, _aligned,
                     _fmt, _ipow, _pair, coeff_close, max_coeff_diff, series_exp,
                     series_from_json, series_geometric, series_to_json)

__all__ = ["main", "main_entry", "parse_complex"]

SWEEP_DRAWS = 5
TOL_ENV_VAR = "CYCLOFUN_TOL"


class _ComplexLiteralError(argparse.ArgumentTypeError, ValueError):
    """A ValueError whose reason argparse prints verbatim."""


def parse_complex(text: str) -> complex:
    """Accept '1.5', '1+2i', '1+2j', or 're,im'."""
    raw = text.strip().replace(" ", "")
    if not raw:
        raise _ComplexLiteralError("empty complex literal")
    try:
        if "," in raw:
            re_s, im_s = raw.split(",")
            value = complex(float(re_s), float(im_s))
        else:
            value = complex(raw.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise _ComplexLiteralError(f"cannot parse complex number from {text!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise _ComplexLiteralError(f"complex literal {text!r} is not finite")
    return value


def _fmt_complex(c: complex) -> str:
    c = complex(c)
    if c.imag == 0:
        return _fmt(c.real)
    return f"{_fmt(c.real)}{c.imag:+.17g}i"


def _emit(args, out) -> None:
    """Write out by --format: a JSON value with indent 2, else lines; then one newline."""
    if args.format == "json":
        import json  # deferred, like numpy: only --format json and --input load it

        out = [json.dumps(out, indent=2)]
    text = "\n".join(out) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _effective_tolerance(args, fallback: float | None = None) -> float | None:
    """The --tol value, else CYCLOFUN_TOL, else fallback.

    A tolerance must be finite and nonnegative: inf passes every check, and
    nan or a negative value fails every one.
    """
    tol, source = args.tol, "--tol"
    if tol is None:
        raw, source = os.environ.get(TOL_ENV_VAR), TOL_ENV_VAR
        if not raw:
            return fallback
        try:
            tol = float(raw)
        except ValueError:
            raise ValueError(f"{TOL_ENV_VAR} must be a number, got {raw!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{source} must be a finite nonnegative number, got {tol!r}")
    return tol


# -- series sources -----------------------------------------------------------

def _load_series(args) -> TruncatedSeries:
    """The series named by --input or --builtin (exp if neither)."""
    if args.input:
        import json

        with open(args.input) as fh:
            try:
                obj = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.input}: JSON nested too deeply") from None
        return series_from_json(obj)
    if args.builtin == "geometric":
        return series_geometric(args.trunc)
    if args.builtin == "expq":
        return series_exp_psi(_q_deformation(args), args.trunc)
    return series_exp(args.trunc)


def _q_deformation(args) -> PsiSequence:
    """The expq source's --q sequence, refusing q = 1 with the command that names it."""
    if args.q == 1:
        raise ValueError("q = 1 collapses expq to the classical exponential; use --builtin exp")
    return PsiSequence.q_deformation(args.q)


def _provenance(args) -> dict:
    """{"input": path}, or {"builtin": name} with "q" added for expq; the first value names it."""
    if args.input:
        return {"input": args.input}
    if args.builtin == "expq":
        return {"builtin": "expq", "q": _pair(args.q)}
    return {"builtin": args.builtin or "exp"}


def _family_head(args, a: AlphaRoot, **provenance) -> dict:
    """The JSON head: the provenance given, then n, alpha as [re, im], branch."""
    return {**provenance, "n": args.n, "alpha": _pair(a.alpha), "branch": a.branch}


def _family_text(args, a: AlphaRoot) -> str:
    """The text header's family fields, n=... alpha=... branch=..."""
    return f"n={args.n} alpha={_fmt_complex(a.alpha)} branch={a.branch}"


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
    s = _load_series(args)
    ctx = make_context(args.n)
    a = alpha_root(args.alpha, args.n, args.branch)
    comps = [laurent_component(s, ctx, a, k) for k in range(args.n)]
    if not _reverify_decomposition(s, comps, a):
        print("decomposition failed re-verification", file=sys.stderr)
        return 3

    if args.format == "json":
        out = {
            **_family_head(args, a, **_provenance(args)),
            "root": _pair(a.root),
            "components": [series_to_json(c) for c in comps],
            "verified": True,
        }
    elif args.format == "csv":
        out = ["component,degree,re,im"]
        for k, c in enumerate(comps):
            for d, v in zip(c.degrees(), c.coeffs):
                if v != 0:
                    out.append(f"{k},{d},{_fmt(v.real)},{_fmt(v.imag)}")
    else:
        src, *_ = _provenance(args).values()
        out = [f"decomposition of {src}: {_family_text(args, a)} root={_fmt_complex(a.root)}"]
        for k, c in enumerate(comps):
            out.append(f"component {k} (degrees = {k} mod {args.n}), "
                       f"window [{c.min_deg}, {c.max_deg}]:")
            for d, v in zip(c.degrees(), c.coeffs):
                if v != 0:
                    out.append(f"  deg {d}: {_fmt_complex(v)}")
        out.append("re-verification: ok")
    _emit(args, out)
    return 0


# -- eval ----------------------------------------------------------------------

def _eval_values(args, ctx, a: AlphaRoot, s: int) -> dict[str, complex]:
    """Component s at --z by each --method route: {"series": value} and/or {"closed": value}."""
    methods = ["series", "closed"] if args.method == "both" else [args.method]
    if args.input or args.builtin == "geometric":
        if args.input and "closed" in methods:
            raise ValueError("closed-form evaluation needs a builtin family")
        series = _load_series(args)
        return {m: laurent_component(series, ctx, a, s).evaluate(args.z) if m == "series"
                else g_eval(ctx, a, s, args.z) for m in methods}

    if args.builtin == "expq":
        fam = build_psi_hyperbolic(_q_deformation(args), ctx, a, args.trunc)
    else:
        fam = build_family(args.n, a, args.trunc)
    return {m: h_eval(fam, s, args.z, m) for m in methods}


def _cmd_eval(args) -> int:
    ctx = make_context(args.n)
    a = alpha_root(args.alpha, args.n, args.branch)
    s = int(args.s) % args.n
    values = _eval_values(args, ctx, a, s)
    diff = abs(values["series"] - values["closed"]) if len(values) == 2 else None

    if args.format == "json":
        out = {
            **_family_head(args, a, **_provenance(args)),
            "s": s,
            "z": _pair(args.z),
            "values": {k: _pair(v) for k, v in values.items()},
        }
        if diff is not None:
            out["difference"] = diff
    elif args.format == "csv":
        out = ["method,s,n,z_re,z_im,value_re,value_im"]
        for k, v in values.items():
            out.append(f"{k},{s},{args.n},"
                       f"{_fmt(args.z.real)},{_fmt(args.z.imag)},"
                       f"{_fmt(v.real)},{_fmt(v.imag)}")
    else:
        src, *_ = _provenance(args).values()
        out = [f"component {s} of {src}: {_family_text(args, a)} z={_fmt_complex(args.z)}"]
        for k, v in values.items():
            out.append(f"{k}: {_fmt_complex(v)}")
        if diff is not None:
            out.append(f"difference: {_fmt(diff)}")
    _emit(args, out)
    return 0


# -- verify ----------------------------------------------------------------------

def _cmd_verify(args) -> int:
    a = alpha_root(args.alpha, args.n, args.branch)
    tol = _effective_tolerance(args)
    if args.q == 1 and args.suite in ("qpsi", "all"):
        raise ValueError("q = 1 collapses the qpsi suite to the classical calculus; "
                         "give a --q other than 1")
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
        out = reports_to_json(reports)
    elif args.format == "csv":
        out = reports_to_csv(reports).splitlines()
    else:
        out = _report_lines(reports)
    _emit(args, out)
    return 0 if all_pass(reports) else 1


# -- det -------------------------------------------------------------------------

def _det_components(args, ctx, a) -> list[complex]:
    if args.components is not None:
        if args.z is not None:
            raise ValueError("--z evaluates a series' components; drop it or --components")
        vals = [parse_complex(p) for p in args.components.split(",")]
        if len(vals) != ctx.n:
            raise ValueError(f"expected {ctx.n} components for n={ctx.n}, "
                             f"got {len(vals)}")
        return vals
    if args.z is None:
        raise ValueError("det needs --components, or --builtin or --input with --z")
    base = _load_series(args)
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
        out = {
            **_family_head(args, a),
            "components": [_pair(v) for v in vals],
            "det_spectral": _pair(spectral),
            "det_direct": _pair(direct),
            "difference": diff,
            "tolerance": tol,
            "pass": ok,
        }
    elif args.format == "csv":
        out = ["n,alpha_re,alpha_im,det_spectral_re,det_spectral_im,"
               "det_direct_re,det_direct_im,difference,pass",
               f"{args.n},{_fmt(a.alpha.real)},{_fmt(a.alpha.imag)},"
               f"{_fmt(spectral.real)},{_fmt(spectral.imag)},"
               f"{_fmt(direct.real)},{_fmt(direct.imag)},"
               f"{_fmt(diff)},{'true' if ok else 'false'}"]
    else:
        out = [
            f"twisted circulant determinant: {_family_text(args, a)}",
            f"spectral: {_fmt_complex(spectral)}",
            f"direct:   {_fmt_complex(direct)}",
            f"difference: {_fmt(diff)} (tolerance {_fmt(tol)}) "
            f"{'PASS' if ok else 'FAIL'}",
        ]
    _emit(args, out)
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


def _add_source_options(p: argparse.ArgumentParser) -> argparse._MutuallyExclusiveGroup:
    """--builtin | --input, no defaults: argparse deems an option at its default absent."""
    src = p.add_mutually_exclusive_group()
    src.add_argument("--builtin", choices=("exp", "geometric", "expq"),
                     help="builtin base series (default exp)")
    src.add_argument("--input", help="path to a series JSON file")
    return src


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "text"), default="text",
                   help="output format (default text)")
    p.add_argument("--out", default=None,
                   help="write output to this file instead of stdout")


def _eval_options(p: argparse.ArgumentParser) -> None:
    _add_source_options(p)
    p.add_argument("--s", type=int, default=0, help="component index (default 0)")
    p.add_argument("--z", type=parse_complex, required=True,
                   help="evaluation point")
    p.add_argument("--method", choices=("series", "closed", "both"),
                   default="series", help="evaluation route (default series)")


def _verify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=("demoivre", "circulant", "qpsi", "all"),
                   default="all", help="which battery to run (default all)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized draws (default 0)")
    p.add_argument("--tol", type=float, default=None,
                   help="override the pass tolerance for ordinary checks; "
                        f"falls back to the {TOL_ENV_VAR} environment variable")


def _det_options(p: argparse.ArgumentParser) -> None:
    _add_source_options(p).add_argument(
        "--components", help="comma-separated component values, each like 1.5 or 2+1i")
    p.add_argument("--z", type=parse_complex, default=None,
                   help="take the --builtin or --input series' components at this point")
    p.add_argument("--tol", type=float, default=None,
                   help="mismatch tolerance (default 1e-9; "
                        f"or the {TOL_ENV_VAR} environment variable)")


_SUBCOMMANDS = (
    ("decompose", "sieve a series into weighted cyclic components",
     _add_source_options, _cmd_decompose),
    ("eval", "evaluate one component at a point", _eval_options, _cmd_eval),
    ("verify", "run an identity suite and report residuals", _verify_options, _cmd_verify),
    ("det", "spectral vs LU circulant determinant", _det_options, _cmd_det),
)


def build_parser(argv) -> argparse.ArgumentParser:
    """All subcommands, with options only for those argv names: argparse runs no other."""
    parser = argparse.ArgumentParser(
        prog="cyclofun",
        description="Cyclic decompositions of series, generalized hyperbolic "
                    "components, and twisted circulant identities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_own_options, handler in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name in argv:
            add_own_options(p)
            _add_family_options(p)
            _add_output_options(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
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
    raise SystemExit(main())
