"""Standing CLI fuzz: every argument list ends in an exit code from 0 to 4.

A property-based test in the style of QuickCheck (Claessen and Hughes, ICFP
2000).  Hypothesis draws a subcommand, a subset of its options and edge
values for each: 0, +-1, nan, +-inf, 1e+-308, 5e-324, "1,2" and malformed
text.  `--input` gets random, malformed and deeply nested JSON.  Each call
runs `cyclofun.cli.main` in process with every warning an error; it must
return 0 to 4, let no exception but SystemExit escape and print no traceback.

Orders stay at most 64 and truncations at most 300, so one call takes
milliseconds.  Under the `ci` profile (tests/conftest.py) the module runs in
under 2 s; `HYPOTHESIS_PROFILE=fuzz` draws 3000 lists.

The targeted properties tell the exit codes apart: a domain error exits 4
although DomainError is a ValueError, an overflow exits 4, and an input
error exits 2.
"""

import cmath
import contextlib
import io
import json
import os
import warnings
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cyclofun import alpha_root, laurent_component, make_context, series_exp, series_geometric
from cyclofun.cli import TOL_ENV_VAR, main

EDGE = ("0", "1", "-1", "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-308",
        "-1e-308", "5e-324", "1,2")
MALFORMED = ("", " ", "x", "1+", "1e", "1,", ",", "1,2,3", "--", "i", "j", "nanj", "1e999",
             "0x10", "1_0", "(1+2j)", "2+1i", "1+2i+3", "\x00", "½", "-0", "+inf,0")

edge_text = st.sampled_from(EDGE + MALFORMED)
float_text = st.floats().map(repr)
complex_text = st.one_of(edge_text, float_text, st.complex_numbers().map(str),
                         st.tuples(float_text, float_text).map(",".join), st.text(max_size=6))


def int_text(lo: int, hi: int):
    return st.one_of(st.integers(lo, hi).map(str), edge_text)


# Paths in the drawn lists, resolved in a scratch directory: the input file, a
# missing file, the directory itself, an output file and one in a missing directory.
PATHS = ("series.json", "missing.json", ".", "out.txt", "missing/out.txt")
ORDER = st.one_of(int_text(-3, 9), st.sampled_from(["16", "64", "1.5", "3 "]))
BIG_INT = st.one_of(int_text(-5, 5), st.integers(-10 ** 30, 10 ** 30).map(str))

FAMILY = {"--n": ORDER, "--alpha": complex_text, "--branch": BIG_INT, "--q": complex_text,
          "--trunc": st.one_of(int_text(-2, 40), int_text(41, 300))}
OUTPUT = {"--format": st.sampled_from(["json", "csv", "text", "xml", ""]),
          "--out": st.sampled_from(PATHS[2:]),
          "--help": st.none()}
SOURCE = {"--builtin": st.sampled_from(["exp", "geometric", "expq", "sin", ""]),
          "--input": st.sampled_from(PATHS[:3])}
COMMANDS = {
    "decompose": {**SOURCE, **FAMILY, **OUTPUT},
    "eval": {**SOURCE, "--s": BIG_INT, "--z": complex_text,
             "--method": st.sampled_from(["series", "closed", "both", "other"]),
             **FAMILY, **OUTPUT},
    "verify": {"--suite": st.sampled_from(["demoivre", "circulant", "qpsi", "all", "none"]),
               "--seed": BIG_INT, "--tol": st.one_of(edge_text, float_text),
               **FAMILY, **OUTPUT},
    "det": {**SOURCE, "--components": st.lists(complex_text, max_size=5).map(",".join),
            "--z": complex_text, "--tol": st.one_of(edge_text, float_text), **FAMILY, **OUTPUT},
}

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20),
                         st.floats(), st.text(max_size=5))
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=12)
number = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.floats(), st.sampled_from(
    [0, 1, -1, 1e308, -1e308, 5e-324, True, "1"]))
series_like = st.fixed_dictionaries(
    {"min_deg": st.one_of(st.integers(-400, 400), st.sampled_from([2 ** 63, 1.5, "0", None])),
     "coeffs": st.lists(st.one_of(st.lists(number, max_size=3), json_scalars), max_size=8)},
    optional={"label": json_scalars})
# A file body that holds no series: JSON (NaN and Infinity included; no key is
# "coeffs", which has six letters), nesting far past the recursion limit, or
# text too short to spell a series.
no_series = st.one_of(
    json_values.map(json.dumps),
    st.sampled_from([10, 1000, 100_000]).map(lambda d: "[" * d + "]" * d),
    st.sampled_from([10, 1000, 100_000]).map(lambda d: '{"a":' * d + "1" + "}" * d),
    st.text(max_size=20))
input_body = st.one_of(no_series, series_like.map(json.dumps))


# Hypothesis's explain phase formats the traceback of every failing call
# through pytest, which takes minutes and a gigabyte once most calls fail
# (as with an except clause of main removed); the shrunk example suffices.
QUICK = settings(deadline=None, phases=[p for p in Phase if p is not Phase.explain])


@st.composite
def argv_lists(draw):
    command = draw(st.sampled_from([*COMMANDS, "", "bogus", "--help"]))
    options = draw(st.fixed_dictionaries({}, optional=COMMANDS.get(command, {})))
    argv = [command] if command else []
    for name, value in options.items():
        argv += [name] if value is None else [name, value]
    return argv + draw(st.lists(st.sampled_from(["--n", "3", "--z", "--tol", "-x"]),
                                max_size=2))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_main(argv, workdir, env_tol=None):
    """(exit code, stdout, stderr) of main(argv), with PATHS under workdir, every
    warning an error and CYCLOFUN_TOL set to env_tol or unset."""
    argv = [str(workdir / a) if a in PATHS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        os.environ.pop(TOL_ENV_VAR, None)
        if env_tol is not None:
            os.environ[TOL_ENV_VAR] = env_tol
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@QUICK
@given(argv=argv_lists(), body=input_body,
       env_tol=st.one_of(st.none(), edge_text.filter(lambda t: "\x00" not in t)))
def test_every_argument_list_exits_0_to_4_without_a_traceback(workdir, argv, body, env_tol):
    (workdir / "series.json").write_text(body, encoding="utf-8", errors="surrogatepass")
    code, _, err = run_main(argv, workdir, env_tol)
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@settings(QUICK, max_examples=25)
@given(n=st.integers(2, 8), builtin=st.sampled_from(["exp", "geometric"]),
       alpha=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
       theta=st.floats(-3.1, 3.1), factor=st.floats(1.01, 10), s=st.integers(0, 7))
def test_a_series_point_outside_the_components_disk_exits_4(workdir, n, builtin, alpha,
                                                              theta, factor, s):
    base = series_exp() if builtin == "exp" else series_geometric()
    radius = laurent_component(base, make_context(n), alpha_root(alpha, n), s).radius
    z = cmath.rect(radius * factor, theta)
    argv = ["eval", "--builtin", builtin, "--n", str(n), f"--alpha={alpha!r}", "--s", str(s),
            f"--z={z!r}", "--method", "series"]
    code, out, err = run_main(argv, workdir)
    assert (code, out) == (4, ""), (argv, err)
    assert err.startswith("domain error: |z| = ") and "exceeds the evaluation bound" in err


@settings(QUICK, max_examples=25)
@given(n=st.integers(2, 8), theta=st.floats(-0.5, 0.5), size=st.floats(1000, 1e300))
def test_a_closed_route_overflow_exits_4(workdir, n, theta, size):
    # At alpha = 1 the rotation k = 0 is z itself, whose real part is past 877:
    # exp overflows there.
    argv = ["eval", "--n", str(n), f"--z={cmath.rect(size, theta)!r}", "--method", "closed"]
    code, out, err = run_main(argv, workdir)
    assert (code, out) == (4, ""), (argv, err)
    assert err.startswith("domain error: numeric overflow ("), err


@settings(QUICK, max_examples=25)
@given(body=no_series)
def test_an_input_that_is_no_series_exits_2(workdir, body):
    (workdir / "series.json").write_text(body, encoding="utf-8", errors="surrogatepass")
    code, out, err = run_main(["decompose", "--input", "series.json"], workdir)
    assert (code, out) == (2, ""), (body, err)
    assert err.startswith("error: "), err
