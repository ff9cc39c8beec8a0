"""Command-line behavior: formats, tolerances, exit codes, the parser."""

import argparse
import contextlib
import csv
import io
import json
import re
import shlex
import subprocess
import sys

import pytest
from test_readme import EXAMPLE, README
from test_startup import _numpy_free_commands

from cyclofun import TruncatedSeries, cli, laurent_component
from cyclofun.cli import build_parser, main, parse_complex

COMMAND_NAMES = ("decompose", "eval", "verify", "det")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_forms():
    assert parse_complex("2") == 2
    assert parse_complex("-3") == -3
    assert parse_complex("1.5+0.5i") == 1.5 + 0.5j
    assert parse_complex("1.5-2j") == 1.5 - 2j
    assert parse_complex("0,1") == 1j
    assert parse_complex("-0.25,0.75") == -0.25 + 0.75j
    with pytest.raises(ValueError):
        parse_complex("elephant")
    with pytest.raises(ValueError):
        parse_complex("inf")


def test_decompose_unit_weight_order_two(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--builtin", "exp", "--n", "2",
                           "--trunc", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["n"] == 2
    even = data["components"][0]["coeffs"]
    assert even[0] == [1.0, 0.0]
    assert even[1] == [0.0, 0.0]
    assert even[2] == [0.5, 0.0]
    odd = data["components"][1]["coeffs"]
    assert odd[1] == [1.0, 0.0]


def test_decompose_zero_weight_gives_monomials(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--builtin", "exp", "--n", "3",
                           "--alpha", "0", "--trunc", "9", "--format", "json")
    assert code == 0
    data = json.loads(out)
    comp1 = data["components"][1]["coeffs"]
    assert comp1[1] == [1.0, 0.0]
    assert all(entry == [0.0, 0.0]
               for i, entry in enumerate(comp1) if i != 1)


def test_decompose_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for body in ('{"min_deg": "zero", "coeffs": [[1, 0]]}',
                 '{"min_deg": true, "coeffs": [[1, 0], [2, 0]]}'):
        bad.write_text(body)
        code, out, err = run_cli(capsys, "decompose", "--input", str(bad))
        assert code == 2, body
        assert out == "" and "error" in err


def test_decompose_reads_series_files(tmp_path, capsys):
    src = tmp_path / "series.json"
    src.write_text(json.dumps(
        {"min_deg": 0, "coeffs": [[1, 0], [2, 0], [3, 0], [4, 0]]}))
    code, out, _ = run_cli(capsys, "decompose", "--input", str(src),
                           "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "component,degree,re,im"
    assert "0,0,1,0" in lines
    assert "1,3,4,0" in lines


def test_decompose_text_mentions_reverification(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--builtin", "geometric",
                           "--n", "3", "--trunc", "6")
    assert code == 0
    assert "re-verification: ok" in out


@pytest.mark.parametrize("alpha", ["1", "0", "2+1i"])
def test_decompose_that_fails_its_reverification_exits_3(capsys, monkeypatch, alpha):
    # alpha = 1 (branch 0) re-adds the components exactly, alpha = 0 checks each
    # monomial, any other weight compares the twisted sum with coeff_close.
    def altered(s, ctx, a, k):
        c = laurent_component(s, ctx, a, k)
        if k:
            return c
        return TruncatedSeries(c.min_deg, [c.coeffs[0] + 1, *c.coeffs[1:]], radius=c.radius)

    monkeypatch.setattr(cli, "laurent_component", altered)
    code, out, err = run_cli(capsys, "decompose", "--builtin", "exp", "--n", "3",
                             "--alpha", alpha, "--trunc", "9")
    assert (code, out, err) == (3, "", "decomposition failed re-verification\n")


def test_eval_prints_library_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "--builtin", "exp", "--n", "2",
                           "--s", "0", "--z", "1", "--method", "both")
    assert code == 0
    assert "1.5430806348152437" in out


def test_eval_both_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "eval", "--builtin", "exp", "--n", "3",
                           "--s", "1", "--z", "0.8", "--method", "both",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["difference"] <= 1e-12


def test_eval_csv_rows_match_the_json_values(capsys):
    argv = ["eval", "--builtin", "exp", "--n", "3", "--s", "1", "--z", "0.8+0.1i",
            "--method", "both"]
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    header, *rows = out.splitlines()
    assert header == "method,s,n,z_re,z_im,value_re,value_im"
    _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    values = json.loads(json_out)["values"]
    assert [row.split(",")[0] for row in rows] == ["series", "closed"]
    for row in rows:
        method, s, n, *nums = row.split(",")
        assert (s, n) == ("1", "3")
        assert [float(x) for x in nums] == [0.8, 0.1, *values[method]], row


def test_eval_domain_violation_exits_4(capsys):
    code, _, err = run_cli(capsys, "eval", "--builtin", "exp", "--z", "10")
    assert code == 4
    assert "domain" in err


def test_eval_of_a_value_that_is_not_finite_exits_4(tmp_path, capsys):
    # Every coefficient is finite, but the sum overflows (to nan+nani at
    # z = 3.9, to inf at z = 1e-200 through the negative degrees).
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"min_deg": 0, "coeffs": [[1e300, 0]] * 65}))
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"min_deg": -3, "coeffs": [[1, 0]] * 5}))
    for path, z in ((big, "3.9"), (tiny, "1e-200")):
        code, out, err = run_cli(capsys, "eval", "--input", str(path), "--n", "2",
                                 "--z", z)
        assert code == 4 and out == "", (path, out)
        assert "is not finite" in err


def test_eval_series_route_where_a_class_power_overflows(tmp_path, capsys):
    # A sieved component steps by z**n; where that power overflows, the value
    # and the refusal are those of the dense steps.
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"min_deg": -3, "coeffs": [[1, 0]] * 5}))
    code, out, err = run_cli(capsys, "eval", "--input", str(tiny), "--n", "2", "--z", "1e-200")
    assert code == 4 and out == ""
    assert err == ("domain error: the series value at z = (1e-200+0j) is not finite,"
                   " got (inf+0j)\n")
    for n, s, z, want in (("2", "1", "1e200", "9.9999999999999997e+199"),
                          ("3", "2", "1e120", "5.0000000000000001e+239")):
        code, out, err = run_cli(capsys, "eval", "--builtin", "exp", "--n", n, "--alpha", "0",
                                 "--s", s, "--z", z, "--method", "series")
        assert code == 0 and err == ""
        assert out.splitlines()[1] == f"series: {want}"


def test_eval_series_route_of_a_tiny_negative_degree_term(tmp_path, capsys):
    # (1/4)**40 times the coefficient is below the normal floats; the value,
    # the coefficient over 4, is not, and comes out correctly rounded.
    for c, want in (("1e-300", "2.5000000000000001e-301"), ("1e-290", "2.5000000000000002e-291")):
        src = tmp_path / "tiny.json"
        src.write_text(f'{{"min_deg": -1, "coeffs": [[{c}, 0]]}}')
        code, out, err = run_cli(capsys, "eval", "--input", str(src), "--n", "40", "--s", "39",
                                 "--z", "4", "--method", "series")
        assert code == 0 and err == ""
        assert out.splitlines()[1] == f"series: {want}"


def test_negative_class_powers_of_alpha_outside_the_double_range(tmp_path, capsys):
    # The weight of degree -8 is alpha**-4.  At alpha = 1e-100 it is 1e400, an overflow
    # (exit 4), not an input error; at alpha = 1e100 it is 1e-400, which only underflows:
    # that coefficient is 0 and the decomposition re-verifies.
    src = tmp_path / "low.json"
    src.write_text(json.dumps({"min_deg": -8, "coeffs": [[1, 0]] * 9}))
    for argv in (("decompose", "--alpha", "1e-100"),
                 ("eval", "--s", "0", "--alpha", "1e-100", "--z", "1e-60")):
        code, out, err = run_cli(capsys, *argv, "--input", str(src), "--n", "2")
        assert (code, out) == (4, ""), argv
        assert err == "domain error: numeric overflow (complex exponentiation)\n"
    code, out, err = run_cli(capsys, "decompose", "--input", str(src), "--n", "2",
                             "--alpha", "1e100")
    assert code == 0 and err == ""
    assert "deg -8" not in out and "  deg -6: 1e-300\n" in out
    assert out.endswith("re-verification: ok\n")


def test_eval_of_a_term_whose_power_alone_underflows(tmp_path, capsys):
    # z**20 = 1e-400 is below the doubles, but 1e300 * z**20 = 1e-100 is not.
    src = tmp_path / "high.json"
    src.write_text(json.dumps({"min_deg": 20, "coeffs": [[1e300, 0]]}))
    code, out, err = run_cli(capsys, "eval", "--input", str(src), "--n", "2", "--s", "0",
                             "--z", "1e-20", "--method", "series")
    assert code == 0 and err == ""
    value = float(out.splitlines()[1].removeprefix("series: "))
    assert abs(value - 1e-100) <= 1e-12 * 1e-100


def test_eval_of_a_window_ending_below_degree_minus_one(tmp_path, capsys):
    src = tmp_path / "low.json"
    src.write_text(json.dumps({"min_deg": -6, "coeffs": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    code, out, _ = run_cli(capsys, "eval", "--input", str(src), "--n", "2", "--z", "2")
    assert code == 0
    assert "series: 0.015625\n" in out


def test_eval_at_an_alpha_whose_phase_underflows(capsys):
    # The phase of 2+5e-324i underflows to 0: the value is the one at alpha = 2.
    code, out, err = run_cli(capsys, "eval", "--n", "2", "--alpha", "2+5e-324i", "--z", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "series: 2.1781835566085705"


def test_eval_closed_route_is_not_bounded_by_the_series_disk(capsys):
    code, out, err = run_cli(capsys, "eval", "--builtin", "exp", "--n", "2",
                             "--z", "5", "--method", "closed")
    assert code == 0 and err == ""
    assert out.splitlines()[1].startswith("closed: 74.209948524787848")
    # exp(800) is past double range: the closed route's own overflow check
    code, out, err = run_cli(capsys, "eval", "--builtin", "exp", "--n", "2",
                             "--z", "800", "--method", "closed")
    assert code == 4 and out == ""
    assert err == "domain error: numeric overflow (closed form overflows at z = (800+0j))\n"


def test_eval_closed_route_refuses_an_overflowing_rotated_argument_without_a_warning():
    # |r z| = 257**(1/3) * 1e308 is past double range.  The rotated arguments are
    # formed with numpy's warnings off and the refusal names |r z|, for the vector
    # exp and the deformed family's scalar base alike.  A fresh process turns
    # every warning into an error.
    for builtin in ("exp", "expq"):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "cyclofun", "eval",
             "--builtin", builtin, "--alpha", "257", "--s", "-1", "--z", "1e308",
             "--method", "closed"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4 and proc.stdout == "", builtin
        assert proc.stderr == ("domain error: numeric overflow (closed form overflows at "
                               "z = (1e+308+0j): |r z| = inf)\n"), builtin


def test_eval_closed_route_names_the_point_when_the_deformed_base_refuses(capsys):
    # The deformed base checks its own argument, the rotated omega**k r z with
    # |r z| = 2, against the series bound 1.8; the refusal names z = 1 and |r z|.
    code, out, err = run_cli(capsys, "eval", "--builtin", "expq", "--n", "2", "--alpha", "4",
                             "--z", "1", "--method", "closed")
    assert code == 4 and out == ""
    assert err == ("domain error: closed form at z = (1+0j): |r z| = 2 exceeds the "
                   "evaluation bound 1.8\n")


def test_eval_series_route_uses_the_sieved_radius(capsys):
    # |r z| = 1.6 is outside the geometric bound 0.9: the radius is 0.9 / 2
    for cmd in ("eval", "det"):
        code, out, err = run_cli(capsys, cmd, "--builtin", "geometric", "--n", "2",
                                 "--alpha", "4", "--z", "0.8")
        assert code == 4 and out == "", cmd
        assert err == "domain error: |z| = 0.8 exceeds the evaluation bound 0.45\n", cmd
    code, out, err = run_cli(capsys, "eval", "--builtin", "exp", "--n", "2",
                             "--alpha", "1e4", "--z", "4", "--method", "both")
    assert code == 4 and out == "" and err.count("\n") == 1
    # |r z| = 0.754 is inside the bound 0.9 although |z| = 0.95 is not.  Only
    # the disk is asserted: the value's truncation error is left to tail bounds.
    assert 0.5 ** (1 / 3) * 0.95 < 0.9
    code, out, err = run_cli(capsys, "eval", "--builtin", "geometric", "--n", "3",
                             "--alpha", "0.5", "--z", "0.95", "--method", "series")
    assert code == 0 and err == "" and out.splitlines()[1].startswith("series: ")


def test_eval_series_route_keeps_the_base_disk_when_weights_underflow(capsys):
    # alpha**m underflows to 0 for the higher classes, so the sieved series
    # lost those terms and the disk 4 / |r| would print a truncated value.
    for builtin, alpha, z, bound in (("exp", "1e-100", "3e50", "4"),
                                     ("geometric", "1e-40", "8.5e19", "0.9")):
        code, out, err = run_cli(capsys, "eval", "--builtin", builtin, "--n", "2",
                                 "--alpha", alpha, "--z", z, "--method", "series")
        assert code == 4 and out == "", builtin
        assert err == (f"domain error: |z| = {float(z):.6g} exceeds the "
                       f"evaluation bound {bound}\n"), builtin
    # Inside the base disk the lost terms are far below rounding: cosh(r z).
    code, out, _ = run_cli(capsys, "eval", "--builtin", "exp", "--n", "2",
                           "--alpha", "1e-100", "--z", "3", "--method", "series")
    assert code == 0 and out.splitlines()[1] == "series: 1"


def test_eval_geometric_closed_form(capsys):
    code, out, _ = run_cli(capsys, "eval", "--builtin", "geometric", "--n", "3",
                           "--s", "1", "--z", "0.3", "--method", "closed",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["values"]["closed"][0] - 0.30832476875642345) < 1e-12


def test_eval_geometric_closed_form_at_a_tiny_weight(capsys):
    code, out, err = run_cli(capsys, "eval", "--builtin", "geometric", "--n", "8",
                             "--alpha", "1e-40", "--s", "7", "--z", "0.3",
                             "--method", "both", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["difference"] <= 1e-18


def test_eval_closed_route_without_correct_digits_exits_4(capsys):
    argv = ("eval", "--builtin", "exp", "--n", "8", "--alpha", "1e-40", "--s", "7",
            "--z", "1", "--method")
    code, out, err = run_cli(capsys, *argv, "both")
    assert code == 4
    assert out == "" and "rounding bound" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, *argv, "series")
    assert code == 0
    assert "series: 0.000198" in out


def test_eval_deformed_exponential(capsys):
    code, out, _ = run_cli(capsys, "eval", "--builtin", "expq", "--q", "0.5",
                           "--n", "2", "--s", "0", "--z", "0.9",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert "series" in data["values"]


def test_eval_deformed_exponential_closed_form(capsys):
    code, out, err = run_cli(capsys, "eval", "--builtin", "expq", "--q", "0.5",
                             "--n", "2", "--z", "0.9", "--method", "both",
                             "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    series, closed = data["values"]["series"], data["values"]["closed"]
    assert abs(series[0] - 1.7088869528232216) < 1e-12
    assert abs(closed[0] - series[0]) + abs(closed[1] - series[1]) < 1e-12
    assert data["difference"] < 1e-12


def test_eval_closed_needs_builtin(tmp_path, capsys):
    src = tmp_path / "s.json"
    src.write_text(json.dumps({"min_deg": 0, "coeffs": [[1, 0]]}))
    code, _, err = run_cli(capsys, "eval", "--input", str(src), "--z", "0.1",
                           "--method", "closed")
    assert code == 2


def test_verify_all_suites_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "7",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) >= 30
    assert all(r["pass"] for r in data)
    names = {r["identity"] for r in data}
    assert {"group_law", "group_law_breaks", "q_leibniz"} <= names


def test_verify_text_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "circulant")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "6/6 checks passed"
    assert any(line.startswith("[PASS]") for line in lines)


def test_verify_fails_under_impossible_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "circulant",
                           "--tol", "1e-30", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert any(not r["pass"] for r in data)
    byname = {r["identity"]: r for r in data}
    assert byname["group_law_breaks"]["pass"] is True


def test_verify_reads_tolerance_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOFUN_TOL", "1e-30")
    code, _, _ = run_cli(capsys, "verify", "--suite", "circulant")
    assert code == 1
    monkeypatch.setenv("CYCLOFUN_TOL", "0.5")
    code, _, _ = run_cli(capsys, "verify", "--suite", "circulant")
    assert code == 0


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "-1e-12"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, monkeypatch, value):
    for argv in (["verify", "--suite", "circulant"], ["det", "--n", "2", "--components", "1,0"]):
        code, out, err = run_cli(capsys, *argv, f"--tol={value}")
        assert code == 2, argv
        assert out == "" and err.startswith("error: --tol must be")
        monkeypatch.setenv("CYCLOFUN_TOL", value)
        code, out, err = run_cli(capsys, *argv)
        monkeypatch.delenv("CYCLOFUN_TOL")
        assert code == 2, argv
        assert out == "" and err.startswith("error: CYCLOFUN_TOL must be")
    monkeypatch.setenv("CYCLOFUN_TOL", "abc")
    code, out, err = run_cli(capsys, "det", "--n", "2", "--components", "1,0")
    assert code == 2 and out == "" and err.startswith("error: CYCLOFUN_TOL must be")
    monkeypatch.setenv("CYCLOFUN_TOL", "0")
    assert run_cli(capsys, "det", "--n", "2", "--components", "1,0")[0] == 0


def test_verify_qpsi_refuses_a_truncation_that_empties_the_ladder(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "qpsi", "--trunc", "7")
    assert code == 2 and out == "" and "trunc >= 8" in err
    code, out, _ = run_cli(capsys, "verify", "--suite", "qpsi", "--trunc", "8")
    assert code == 0 and out.endswith("13/13 checks passed\n")


def test_q_one_is_refused_with_a_command_line_remedy(capsys):
    for argv, remedy in (
            (["eval", "--builtin", "expq", "--q", "1", "--z", "0.3"], "use --builtin exp"),
            (["eval", "--builtin", "expq", "--q", "1,0", "--z", "0.3", "--method", "closed"],
             "use --builtin exp"),
            (["decompose", "--builtin", "expq", "--q", "1+0i"], "use --builtin exp"),
            (["verify", "--suite", "qpsi", "--q", "1"], "give a --q other than 1"),
            (["verify", "--q", "1"], "give a --q other than 1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: q = 1 collapses") and err.endswith(f"; {remedy}\n"), argv
        assert "PsiSequence" not in err, argv
    # Only the qpsi battery deforms the calculus; the others run at q = 1.
    code, out, _ = run_cli(capsys, "verify", "--suite", "circulant", "--q", "1")
    assert code == 0 and "FAIL" not in out


def test_verify_qpsi_pulls_the_generating_function_point_into_the_disk(capsys):
    # At q = -0.5 the psi-exponential's component has radius 0.6, so the point
    # x z = 0.8 * 0.9 is pulled in to |x z| = 0.3: z = 0.375, named in its params.
    code, out, err = run_cli(capsys, "verify", "--suite", "qpsi", "--q=-0.5", "--format", "json")
    assert code == 0 and err == ""
    reports = json.loads(out)
    assert len(reports) == 13 and all(r["pass"] for r in reports)
    (gen,) = [r for r in reports if r["identity"] == "generating_function"]
    assert abs(0.8 * gen["params"]["z"][0]) == pytest.approx(0.3, rel=1e-15)
    code, out, _ = run_cli(capsys, "verify", "--suite", "qpsi", "--q=-0.5")
    assert code == 0 and out.count("[PASS]") == 13 and out.endswith("13/13 checks passed\n")
    # Inside the disk the point stays: q = 0.5 keeps z = 0.9.
    code, out, _ = run_cli(capsys, "verify", "--suite", "qpsi", "--format", "json")
    (gen,) = [r for r in json.loads(out) if r["identity"] == "generating_function"]
    assert code == 0 and gen["params"]["z"] == [0.9, 0.0]


def test_decompose_exp_at_a_very_long_truncation(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--builtin", "exp", "--n", "3",
                           "--trunc", "100000")
    assert code == 0
    assert out.endswith("re-verification: ok\n")


def test_zero_coefficients_past_double_range_powers(capsys):
    # Every exp coefficient past degree 177 is 0.0; its weight 2**m or 2**d
    # overflows, so only a nonzero coefficient there may stop the command.
    for argv in (["decompose", "--builtin", "exp", "--n", "2", "--alpha", "2",
                  "--trunc", "2100"],
                 ["verify", "--suite", "circulant", "--trunc", "1100"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
    code, out, err = run_cli(capsys, "decompose", "--builtin", "geometric", "--n", "2",
                             "--alpha", "2", "--trunc", "2100")
    assert code == 4 and out == ""
    assert err.startswith("domain error: numeric overflow")


def test_verify_output_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "demoivre",
                             "--seed", "3", "--format", "json")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "demoivre",
                             "--seed", "3", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_demoivre_at_small_weights_passes(capsys):
    # |r| < 1 lets a unit-disk draw pass the geometric series' bound 0.9 on
    # |z|; the geometric determinant check must rescale such a point too.
    for argv in (["--n", "3", "--alpha", "1e-2"], ["--n", "8", "--alpha", "1e-4"],
                 ["--n", "16", "--alpha", "1e-6"], ["--n", "2", "--alpha", "0"]):
        code, out, err = run_cli(capsys, "verify", "--suite", "demoivre", *argv,
                                 "--format", "json")
        assert code == 0 and err == "", argv
        data = json.loads(out)
        assert all(r["pass"] for r in data), argv
        assert "det_product_geometric" in {r["identity"] for r in data}


def test_verify_csv_header(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "circulant",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "identity,n,alpha_re,alpha_im,residual,pass"


CSV_COMMANDS = [
    *[["verify", "--suite", suite, "--seed", str(seed)]
      for suite in ("demoivre", "circulant", "qpsi", "all") for seed in range(4)],
    *[argv for builtin in ("exp", "geometric", "expq") for argv in (
        ["decompose", "--builtin", builtin, "--n", "3", "--alpha", "2+1i", "--trunc", "12"],
        ["eval", "--builtin", builtin, "--n", "3", "--s", "1", "--z", "0.3-0.2i",
         "--method", "both"],
        ["det", "--builtin", builtin, "--n", "3", "--alpha", "-2", "--z", "0.3"])],
]


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=" ".join)
def test_csv_lines_are_what_a_csv_writer_writes(capsys, argv):
    # The CLI joins its CSV fields by hand, so no field may need quoting.
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    header, *rows = lines = out.splitlines()
    assert rows and out == "\n".join(lines) + "\n"
    width = len(header.split(","))
    for line in lines:
        fields = next(csv.reader([line]))
        assert fields == line.split(",") and len(fields) == width, line
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(fields)
        assert buf.getvalue() == line + "\n"
    if argv[0] == "verify":
        assert all(re.fullmatch(r"[a-z][a-z0-9_]*", row.split(",")[0]) for row in rows)


def test_det_csv_row(capsys):
    code, out, _ = run_cli(capsys, "det", "--components", "1,2,3", "--n", "3",
                           "--format", "csv")
    assert code == 0
    header, row, *rest = out.splitlines()
    assert rest == []
    assert header == ("n,alpha_re,alpha_im,det_spectral_re,det_spectral_im,"
                      "det_direct_re,det_direct_im,difference,pass")
    fields = row.split(",")
    assert fields[:3] == ["3", "1", "0"] and fields[-1] == "true"
    # 1 + 8 + 27 - 3 * 1 * 2 * 3 = 18, printed round-trip (17 significant digits)
    nums = [float(x) for x in fields[3:-1]]
    assert [f"{x:.17g}" for x in nums] == fields[3:-1]
    spec_re, spec_im, dir_re, dir_im, diff = nums
    assert abs(complex(spec_re, spec_im) - 18) <= 1e-13
    assert abs(complex(dir_re, dir_im) - 18) <= 1e-13
    assert 0 <= diff <= 1e-15


def test_verify_csv_leaves_missing_alpha_columns_empty(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "qpsi", "--format", "csv")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.splitlines()[1:]}
    # reports without n or alpha leave those columns empty; n alone fills its own
    assert rows["q_leibniz"][1:4] == ["", "", ""]
    assert rows["derivative_ladder_n2"][1:4] == ["2", "", ""]
    assert rows["generating_function"][1:4] == ["3", "1", "0"]
    assert all(len(r) == 6 and r[5] == "true" for r in rows.values())


def test_det_identity_components(capsys):
    code, out, _ = run_cli(capsys, "det", "--components", "1,0,0", "--n", "3",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["det_spectral"][0] - 1) < 1e-12
    assert data["pass"] is True


def test_det_geometric_frozen_value(capsys):
    code, out, _ = run_cli(capsys, "det", "--builtin", "geometric", "--n", "3",
                           "--z", "0.3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["det_spectral"][0] - 1.027749229188078) < 1e-9


def test_det_exponential_is_unimodular(capsys):
    code, out, _ = run_cli(capsys, "det", "--builtin", "exp", "--n", "3",
                           "--z", "0.7", "--format", "json")
    assert code == 0
    data = json.loads(out)
    det = complex(data["det_spectral"][0], data["det_spectral"][1])
    assert abs(det - 1) < 1e-10


def test_det_component_count_must_match(capsys):
    code, _, err = run_cli(capsys, "det", "--components", "1,2", "--n", "3")
    assert code == 2


def test_det_refuses_components_with_a_point(capsys):
    # --z picks the point for builtin components; given components, it would be ignored.
    code, out, err = run_cli(capsys, "det", "--components", "1,2", "--n", "2", "--z", "0.5")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--components" in err and "--z" in err


def test_det_takes_one_source_of_components(tmp_path, capsys):
    series = tmp_path / "geometric.json"
    series.write_text(json.dumps({"min_deg": 0, "coeffs": [[1, 0]] * 65}))
    for source in (["--builtin", "geometric"], ["--input", str(series)]):
        code, out, err = run_cli(capsys, "det", "--components", "1,2", "--n", "2", *source)
        assert code == 2 and out == "", source
        assert f"error: argument {source[0]}: not allowed with argument --components" in err
    # An empty list is given, not absent: it holds no component for n = 2.
    for point in ([], ["--z", "0.5"]):
        code, out, err = run_cli(capsys, "det", "--components", "", "--n", "2", *point)
        assert code == 2 and out == "" and err.startswith("error: "), point
    # A JSON series reads like the builtin with the same coefficients.
    geometric = run_cli(capsys, "det", "--builtin", "geometric", "--n", "3", "--z", "0.3")
    assert geometric[0] == 0
    assert run_cli(capsys, "det", "--input", str(series), "--n", "3", "--z", "0.3") == geometric


@pytest.mark.parametrize("components", ["1,,2", "1,2,", ",1,2"])
def test_det_refuses_an_empty_component(capsys, components):
    # An empty entry is a missing value, not a shorter list.
    code, out, err = run_cli(capsys, "det", "--components", components, "--n", "2")
    assert code == 2 and out == ""
    assert err == "error: empty complex literal\n"


@pytest.mark.parametrize("command", [["eval", "--z", "0.1"], ["decompose"],
                                     ["det", "--z", "0.1"]])
def test_builtin_with_input_exits_2_in_process_as_in_a_subprocess(tmp_path, capsys,
                                                                   monkeypatch, command):
    # "exp" is an interned literal: were it --builtin's default object, argparse
    # would take the in-process --builtin exp as absent and read the file.
    series = tmp_path / "series.json"
    series.write_text(json.dumps({"min_deg": 0, "coeffs": [[1, 0], [2, 0]]}))
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command[0], "--builtin", "exp", "--input", str(series), *command[1:]]
    proc = subprocess.run([sys.executable, "-m", "cyclofun", *argv],
                          capture_output=True, text=True, timeout=120)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
    assert code == 2 and out == ""
    assert err.endswith("error: argument --input: not allowed with argument --builtin\n")


# The JSON head of decompose, eval and det: the source's provenance (det names
# none), then the family, then the command's own keys.
HEAD_COMMANDS = {
    "decompose": ([], "decomposition of {src}: n=3 alpha=-1 branch=0 "
                  "root=0.50000000000000011+0.8660254037844386i",
                  ["root", "components", "verified"]),
    "eval": (["--s", "1", "--z", "0.5", "--method", "both"],
             "component 1 of {src}: n=3 alpha=-1 branch=0 z=0.5",
             ["s", "z", "values", "difference"]),
    "det": (["--z", "0.5"], "twisted circulant determinant: n=3 alpha=-1 branch=0",
            ["components", "det_spectral", "det_direct", "difference", "tolerance", "pass"]),
}


@pytest.mark.parametrize("command", sorted(HEAD_COMMANDS))
@pytest.mark.parametrize("source", ["exp", "geometric", "expq", "input"])
def test_json_and_text_heads_name_the_source_then_the_family(tmp_path, capsys, command,
                                                              source):
    own_options, first_line, own_keys = HEAD_COMMANDS[command]
    if source == "input":
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"min_deg": 0, "coeffs": [[1, 0], [0.5, -0.25], [2, 1]]}))
        src, argv, provenance = str(path), ["--input", str(path)], {"input": str(path)}
        if command == "eval":
            # The closed route needs a builtin family, so a file takes the series route.
            own_options = own_options[:-1] + ["series"]
            own_keys = own_keys[:-1]
    else:
        src, argv, provenance = source, ["--builtin", source], {"builtin": source}
        if source == "expq":
            provenance["q"] = [0.5, 0.0]
    if command == "det":
        provenance = {}
    family = ["--n", "3", "--alpha=-1", *own_options, *argv]

    code, out, err = run_cli(capsys, command, *family, "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert list(obj) == [*provenance, "n", "alpha", "branch", *own_keys]
    assert {k: obj[k] for k in provenance} == provenance
    assert (obj["n"], obj["alpha"], obj["branch"]) == (3, [-1.0, 0.0], 0)

    code, out, err = run_cli(capsys, command, *family)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == first_line.format(src=src)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "circulant",
                           "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert all(r["pass"] for r in data)


def test_bad_usage_exits_2(capsys):
    assert main(["eval", "--z", "0.5", "--method", "nope"]) == 2
    assert main(["decompose", "--input", "/definitely/not/a/file.json"]) == 2
    assert main(["eval", "--builtin", "exp", "--z", "0.5",
                 "--builtin", "geometric", "--n", "0"]) == 2


@pytest.mark.parametrize("z", ["", "inf", "1e999"])
def test_unparsable_point_exits_2_with_one_error_line(capsys, z):
    reason = {"": "empty complex literal", "inf": "cannot parse complex number from 'inf'",
              "1e999": "complex literal '1e999' is not finite"}[z]
    # argparse prints parse_complex's own reason for each complex option.
    for option in ("--z", "--alpha", "--q"):
        point = ["--z", z] if option == "--z" else ["--z", "0.5", option, z]
        code, out, err = run_cli(capsys, "eval", "--builtin", "exp", "--n", "3", *point)
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(f"argument {option}: {reason}"), option
        assert "Traceback" not in err


def test_coefficient_pairs_that_are_not_numbers_exit_2(tmp_path, capsys):
    src = tmp_path / "f.json"
    src.write_text('{"min_deg": 0, "coeffs": [[null, 0], [1, 0]]}')
    for argv in (["decompose", "--input", str(src)],
                 ["eval", "--input", str(src), "--z", "0.5"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") and "Traceback" not in err


def test_overflow_is_a_domain_error(capsys):
    for argv in (["eval", "--z", "1"], ["det", "--z", "1"], ["decompose"]):
        code, out, err = run_cli(capsys, *argv, "--n", "2", "--alpha", "1e300")
        assert code == 4, argv
        assert out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1
    # A computed coefficient that overflows names its degree.
    for argv, named in ((["verify", "--suite", "qpsi", "--q=-1e10"], "degree 31 "),
                        (["decompose", "--builtin", "expq", "--q=-0.999999999",
                          "--trunc", "200"], "the weight 1/[80]_q!")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == "", argv
        assert err.startswith("domain error: coefficient of degree") and named in err, argv


def test_det_that_overflows_is_a_domain_error(capsys):
    # Both determinants are inf+nan here, so there is no difference to print;
    # the LU route overflows quietly and the one line on stderr is the error.
    for fmt in ("text", "json", "csv"):
        code, out, err = run_cli(capsys, "det", "--components", "1e120,2e120,3e120",
                                 "--n", "3", "--format", fmt)
        assert code == 4, fmt
        assert out == ""
        assert err.startswith("domain error: numeric overflow (") and err.count("\n") == 1, fmt
    # alpha c_k overflows while the circulant is assembled: no RuntimeWarning
    # escapes (tier-1 turns one into an error), and the residual names the inf.
    code, out, err = run_cli(capsys, "det", "--components", "1,2", "--n", "2",
                             "--alpha", "1e308")
    assert code == 4 and out == ""
    assert err.startswith("domain error: numeric overflow (residual of (-inf")
    assert "is not finite" in err and err.count("\n") == 1


def test_deeply_nested_json_input_is_a_usage_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for argv in (["eval", "--z", "0.3"], ["decompose"]):
        code, out, err = run_cli(capsys, *argv, "--input", str(deep), "--n", "2")
        assert code == 2 and out == "", argv
        assert err == f"error: {deep}: JSON nested too deeply\n", argv


def test_expq_whose_q_numbers_overflow_decomposes(capsys):
    # For q = -1e10 the weights 1/[k]_q! underflow to 0.0 from k = 9 on, and
    # the q-numbers themselves overflow from k = 32; neither may turn nan.
    def coefficient_lines(*extra):
        code, out, err = run_cli(capsys, "decompose", "--builtin", "expq",
                                 "--q=-1e10", "--n", "2", *extra)
        assert code == 0 and err == "", extra
        return [line for line in out.splitlines() if line.startswith("  deg ")]

    full = coefficient_lines()
    assert len(full) == 9 and full == coefficient_lines("--trunc", "20")


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclofun", "verify", "--suite", "circulant",
         "--format", "csv"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    header = proc.stdout.splitlines()[0]
    assert header == "identity,n,alpha_re,alpha_im,residual,pass"


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _parse(parser, argv):
    """The namespace without func, or the exit code, and what parsing printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(parser.parse_args(argv))
            del parsed["func"]
        except SystemExit as exc:
            parsed = exc.code
    return parsed, out.getvalue(), err.getvalue()


def test_parser_builds_options_only_for_the_named_subcommand():
    for name in COMMAND_NAMES:
        for other, sub in _subparsers(build_parser([name])).items():
            dests = [action.dest for action in sub._actions]
            if other == name:
                assert {"n", "alpha", "format", "out"} <= set(dests), name
            else:
                assert dests == ["help"], (name, other)


def test_parser_for_argv_parses_and_helps_as_the_full_parser(tmp_path):
    argvs = _numpy_free_commands(str(tmp_path / "series.json"))
    argvs += [shlex.split(cmd) for cmd, _ in EXAMPLE.findall(README.read_text())]
    argvs += [[name, "--help"] for name in COMMAND_NAMES]
    for argv in argvs:
        lazy, full = build_parser(argv), build_parser(COMMAND_NAMES)
        assert _parse(lazy, argv) == _parse(full, argv), argv
        assert lazy.format_help() == full.format_help(), argv
        lazy_subs, full_subs = _subparsers(lazy), _subparsers(full)
        for name in set(argv) & set(COMMAND_NAMES):
            assert lazy_subs[name].format_help() == full_subs[name].format_help(), argv


def test_a_command_name_as_an_option_value_parses(tmp_path, capsys, monkeypatch):
    (tmp_path / "eval").write_text(json.dumps({"min_deg": 0, "coeffs": [[1, 0], [2, 0]]}))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "decompose", "--input", "eval", "--n", "2")
    assert code == 0 and err == ""
    assert out.startswith("decomposition of eval: n=2 ")
    assert out.endswith("re-verification: ok\n")


def test_main_without_arguments_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["cyclofun", "det", "--components", "2,1", "--n", "2"])
    assert main() == 0
    out = capsys.readouterr().out
    assert out.startswith("twisted circulant determinant: n=2 alpha=1 branch=0\nspectral: 3\n")
