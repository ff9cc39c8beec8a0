"""Tests of the benchmark itself: the tracer's exact counts, negative
controls for the output checks, and the smoke run.

    python3 -m pytest benchmarks
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import cyclofun  # noqa: E402
import cyclofun.cli  # noqa: E402
import cyclofun.demoivre  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
from jobs import build_jobs  # noqa: E402
from oracles import oracles  # noqa: E402
from worker import CliRunner, _in_process_op, count_failures, run_pass  # noqa: E402


def test_tracer_counts_are_exact():
    assert tracer.self_test(seed=7) == []


def test_tracer_leaves_no_binding_and_restores_all():
    tr = tracer.Tracer()
    tr.install()
    originals = [orig for _, _, orig in tr._patched]
    assert tr.unpatched(originals) == []
    tr.uninstall()
    assert cyclofun.demoivre.h_eval is cyclofun.hyperbolic.h_eval
    assert not hasattr(cyclofun.h_eval, "__wrapped__")


def test_tracer_self_test_catches_a_hidden_binding(monkeypatch):
    # A closure keeps its own reference to h_eval, which no module attribute
    # shows; the exact counts must then come out wrong.
    hidden = cyclofun.hyperbolic.h_eval

    def component_values(fam, z):
        method = "closed" if fam.root.alpha != 0 and fam.base is not None else "series"
        return [hidden(fam, s, z, method) for s in range(fam.ctx.n)]

    monkeypatch.setattr(cyclofun.demoivre, "_component_values", component_values)
    problems = tracer.self_test(seed=7)
    assert any("hyperbolic.h_eval_closed" in p for p in problems)


def test_tracer_sees_series_arithmetic_of_ops_built_before_install():
    # The worker builds its operations before the tracer is installed, so an
    # operation must look methods up at call time for their spans to count.
    jobs = [(kind, p) for kind, p in build_jobs("qpsi-calculus", seed=5, smoke=True)
            if kind in ("mul", "add", "derivative")]
    ops = [_in_process_op(cyclofun, kind, p) for kind, p in jobs]
    tr = tracer.Tracer()
    tr.install()
    try:
        run_pass(ops)
        snap = tr.snapshot()
    finally:
        tr.uninstall()
    calls, _, self_s = snap["spans"]["series.arith"]
    assert calls == len(jobs)
    assert self_s > 0


def _one_pass(workload):
    jobs = build_jobs(workload, seed=5, smoke=True)
    want = oracles(jobs)
    ops = [_in_process_op(cyclofun, kind, p) for kind, p in jobs]
    _, _, outs = run_pass(ops)
    return jobs, want, outs


def test_clean_pass_has_no_failures():
    for workload in ("component-eval", "matrix-det", "qpsi-calculus"):
        jobs, want, outs = _one_pass(workload)
        assert count_failures(jobs, outs, want, []) == 0, workload


def test_perturbed_component_is_counted():
    jobs, want, outs = _one_pass("component-eval")
    i = next(k for k, (kind, _) in enumerate(jobs) if kind == "exp")
    outs[i] = list(outs[i])
    outs[i][0] += 1e-9
    examples = []
    assert count_failures(jobs, outs, want, examples) == 1
    assert examples and examples[0].startswith(f"job {i} (exp)")


def test_raising_operation_is_counted():
    jobs, want, _ = _one_pass("matrix-det")

    def boom():
        raise ZeroDivisionError("injected")

    ops = [_in_process_op(cyclofun, kind, p) for kind, p in jobs]
    ops[2] = boom
    _, _, outs = run_pass(ops)
    assert count_failures(jobs, outs, want, []) == 1


def test_cli_nonzero_exit_is_counted(monkeypatch):
    jobs = build_jobs("cli-verify", seed=5, smoke=True)
    want = oracles(jobs)
    cli = CliRunner(cyclofun.cli)
    monkeypatch.delenv("CYCLOFUN_TOL", raising=False)
    outs = [cli.run(p["argv"]) for _, p in jobs]
    assert count_failures(jobs, outs, want, []) == 0
    # An absurd tolerance makes ordinary checks FAIL, so verify exits 1.
    monkeypatch.setenv("CYCLOFUN_TOL", "1e-300")
    i = len(jobs) - 1
    outs[i] = cli.run(jobs[i][1]["argv"])
    assert outs[i][0] == 1
    assert count_failures(jobs, outs, want, []) == 1


def test_smoke_emits_declared_metric_names():
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    assert run.smoke() == 0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "matrix-det", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
