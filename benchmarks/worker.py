"""Benchmark worker: runs one workload in a closed loop and times it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports the package, builds the seeded job list, runs one
untimed warm-up pass and prints ``READY``.  Then it reads the pickled
oracles from stdin (none means: exit, this start only measured set-up),
runs passes over the job list until ``--seconds`` have elapsed, checks every
output of every pass after the pass, and prints one JSON summary line.

Every workload calls the package in this process; ``cli-verify`` calls
``cyclofun.cli.main`` with its output captured, after clearing the
``build_family`` cache outside timing, so each operation pays the family
builds a fresh ``python -m cyclofun`` pays.  Its start-up is measured apart:
``run.py`` times a fresh ``python -m cyclofun --help`` for set-up, and with
``--trace 1`` each operation runs in a ``cli_child.py`` process, whose wall
time minus its ``cli.main`` span is the start-up.  Timed as one child
process per operation, its operations moved by 18-30% (quartile spread
over median) between runs of the same code.

Timings are best of passes: every end-to-end timing is built from each
job's fastest latency over the passes (their sum, median and maximum).  On
the shared 2-core machine this benchmark was built on, host contention
slows the CPU by up to 40% for seconds at a time.  The median pass of a run
moved by 20-28% from run to run and the fastest whole pass by up to 16%,
while each job's fastest latency moved by 3-12%.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import Failed, check, twisted_circulant
from jobs import build_jobs
import tracer

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 150


# -- operations ---------------------------------------------------------------

def _in_process_op(cf, kind: str, p: dict):
    """A zero-argument callable for one job.  Inputs are built here, outside
    timing; package functions are looked up at call time so the tracer's
    wrappers are seen."""
    if kind == "exp":
        n, alpha, z, route = p["n"], p["alpha"], p["z"], p["route"]
        return lambda: [cf.h_eval(cf.build_family(n, cf.alpha_root(alpha, n)), s, z, route)
                        for s in range(n)]
    if kind == "pointwise":
        n, alpha, z = p["n"], p["alpha"], p["z"]

        def op():
            ctx, a = cf.make_context(n), cf.alpha_root(alpha, n)
            return [cf.project_pointwise(cmath.exp, ctx, k, a, z) for k in range(n)]
        return op
    if kind == "geo" and p["route"] == "closed":
        n, alpha, z = p["n"], p["alpha"], p["z"]

        def op():
            ctx, a = cf.make_context(n), cf.alpha_root(alpha, n)
            return [cf.g_eval(ctx, a, l, z) for l in range(n)]
        return op
    if kind in ("geo", "laurent"):
        n, alpha, z = p["n"], p["alpha"], p["z"]
        if kind == "geo":
            series = cf.series_geometric()
        else:
            series = cf.make_series((p["min_deg"] + i, c) for i, c in enumerate(p["coeffs"]))

        def op():
            ctx, a = cf.make_context(n), cf.alpha_root(alpha, n)
            return [cf.laurent_component(series, ctx, a, l).evaluate(z) for l in range(n)]
        return op
    if kind == "circulant":
        comps, alpha = p["comps"], p["alpha"]
        return lambda: cf.circulant_from_components(comps, alpha)
    if kind == "det_direct":
        m = twisted_circulant(p["comps"], p["alpha"])
        return lambda: cf.circulant_det_direct(m)
    if kind == "det_spectral":
        n, comps, alpha = p["n"], p["comps"], p["alpha"]
        return lambda: cf.circulant_det_spectral(comps, cf.make_context(n), cf.alpha_root(alpha, n))
    if kind == "sylvester":
        n = p["n"]
        return lambda: cf.sylvester_matrix(cf.make_context(n))
    if kind == "demoivre":
        n, alpha, z, route = p["n"], p["alpha"], p["z"], p["route"]
        return lambda: cf.demoivre_matrix(n, cf.alpha_root(alpha, n), z, route)
    if kind in ("mul", "add", "derivative", "jackson", "psi_derivative"):
        f = cf.make_series(enumerate(p["f"]))
        if kind == "mul":
            g = cf.make_series(enumerate(p["g"]))
            return lambda: f * g
        if kind == "add":
            g = cf.make_series(enumerate(p["g"]))
            return lambda: f + g
        if kind == "derivative":
            return lambda: f.derivative()
        if kind == "jackson":
            q = p["q"]
            return lambda: cf.jackson_derivative(f, q)
        ps = cf.PsiSequence.q_deformation(p["q"])
        return lambda: cf.psi_derivative(f, ps)
    if kind == "psi_family":
        n, alpha, q, trunc = p["n"], p["alpha"], p["q"], p["trunc"]
        return lambda: cf.build_psi_hyperbolic(cf.PsiSequence.q_deformation(q), cf.make_context(n),
                                               cf.alpha_root(alpha, n), trunc)
    if kind == "laguerre":
        q, nmax = p["q"], p["nmax"]

        def op():
            family = cf.laguerre_family(nmax, q)
            return family, [cf.lowering_operator_apply(family[k], q) for k in range(1, nmax + 1)]
        return op
    if kind == "translation":
        poly, y = cf.Polynomial(p["p"]), p["y"]
        ps = cf.PsiSequence.q_deformation(p["q"])
        return lambda: cf.generalized_translation(poly, y, ps)
    if kind == "qpsi_checks":
        q, seed = p["q"], p["seed"]
        return lambda: cf.qpsi_checks(q, seed)
    raise ValueError(f"unknown job kind {kind!r}")


class CliRunner:
    """Runs CLI operations in this process with the output captured, or, when
    traced, each in a cli_child.py process whose span snapshot and start-up
    time are kept for the current pass."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.traced = False
        self.children: list[dict] = []

    def run(self, argv):
        if not self.traced:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
            return rc, buf.getvalue()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "cli_child.py"), *argv],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            return proc.returncode, proc.stdout
        report = json.loads(proc.stdout)
        main_s = report["trace"]["spans"]["cli.main"][1]
        self.children.append({"trace": report["trace"], "startup_s": wall - main_s})
        return report["rc"], report["stdout"]

    def op(self, argv):
        return lambda: self.run(argv)


# -- timing -------------------------------------------------------------------

def run_pass(ops, reset=None):
    """One closed-loop pass: each operation starts when the previous returns.
    `reset`, if given, is called before each operation; the pass wall time
    includes it, the operation latencies do not."""
    lats, outs = [], []
    t_pass = perf_counter()
    for op in ops:
        if reset is not None:
            reset()
        t0 = perf_counter()
        try:
            out = op()
        except Exception as exc:  # an operation that raises is a failure, not a crash
            out = Failed(f"{type(exc).__name__}: {exc}")
        lats.append(perf_counter() - t0)
        outs.append(out)
    return perf_counter() - t_pass, lats, outs


def count_failures(jobs, outs, want, examples: list) -> int:
    failed = 0
    for i, ((kind, _), out, w) in enumerate(zip(jobs, outs, want)):
        try:
            ok = check(kind, out, w)
        except Exception as exc:  # an output the checker cannot read is wrong
            ok, out = False, Failed(f"unreadable output: {type(exc).__name__}: {exc}")
        if not ok:
            failed += 1
            if len(examples) < 5:
                examples.append(f"job {i} ({kind}): {str(out)[:300]}")
    return failed


def tail_latency(lats) -> dict:
    """The slowest job's fastest latency, lats[p][j] being job j in pass p.

    Every other latency of that job lies at or beyond it, so with 11 passes
    or more at least 10 samples lie beyond it; its percentile among all
    samples is returned with it.
    """
    best = [min(job) for job in zip(*lats)]
    value = max(best)
    pooled = [x for row in lats for x in row]
    beyond = sum(1 for x in pooled if x > value)
    return {"value": value, "percentile": 100.0 * (len(pooled) - beyond) / len(pooled),
            "samples": len(pooled), "beyond": beyond}


def layer_metrics(snap: dict, wall: float, startup: float, fastest_traced: float,
                  fastest_untraced: float) -> dict:
    """Per-layer numbers of one traced pass, as name -> (value, unit)."""
    spans = snap["spans"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    m = {}
    for name in ("series.evaluate", "series.arith", "cyclic.project_series",
                 "cyclic.project_pointwise", "hyperbolic.h_eval_closed",
                 "hyperbolic.h_eval_series", "hyperbolic.g_eval",
                 "demoivre.circulant_from_components", "demoivre.identity_suite",
                 "qpsi.jackson_derivative"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("demoivre.circulant_det_spectral", "demoivre.circulant_det_direct",
                 "demoivre.sylvester_matrix", "demoivre.demoivre_matrix_taylor",
                 "demoivre.demoivre_matrix_assembled", "qpsi.psi_derivative",
                 "qpsi.lowering_operator_apply", "qpsi.generalized_translation",
                 "qpsi.build_psi_hyperbolic", "cli.main"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["series.construct.calls"] = (snap["counts"]["series.construct"], "count")
    m["qpsi.q_number.calls"] = (snap["counts"]["qpsi.q_number"], "count")
    m["cyclic.make_context.calls"] = (calls("cyclic.make_context"), "count")
    m["hyperbolic.build_family.calls"] = (calls("hyperbolic.build_family"), "count")
    hits, misses = snap["cache"]
    m["hyperbolic.build_family.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                              "ratio")
    m["cli.startup_s"] = (startup, "s")
    for layer in tracer.LAYERS:
        total = sum(v[2] for k, v in spans.items() if k.split(".", 1)[0] == layer)
        if layer != "cli":  # cli.main is that layer's only span
            m[f"{layer}.self_s"] = (total, "s")
        m[f"{layer}.self_share"] = (total / wall, "ratio")
        m[f"{layer}.fail"] = (snap["fails"][layer], "count")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (fastest_untraced, "s")
    m["trace.overhead_s"] = (fastest_traced - fastest_untraced, "s")
    m["trace.self_sum_s"] = (sum(v[2] for v in spans.values()), "s")
    return m


# -- main -----------------------------------------------------------------------

def measure(jobs, ops, want, seconds: float, trace: bool, cli, reset=None) -> dict:
    """Untraced passes until `seconds` (half of it when tracing), then traced
    passes until `seconds`; at least one pass of each."""
    examples: list[str] = []
    attempted = failed = 0
    walls, lats = [], []  # untraced passes only; lats[p][j] is job j in pass p
    traced = []  # (wall, snapshot, startup)
    tr = tracer.Tracer()
    t_begin = perf_counter()
    phases = [(False, seconds / 2 if trace else seconds)]
    if trace:
        phases.append((True, seconds))
    for traced_phase, until in phases:
        if traced_phase:
            if cli is not None:
                cli.traced = True  # start-up is part of what is traced
            else:
                tr.install()
        while True:
            if traced_phase:
                if cli is not None:
                    cli.children = []
                else:
                    tr.reset()
            wall, pass_lats, outs = run_pass(ops, None if traced_phase else reset)
            if traced_phase:
                if cli is not None:
                    snap = tracer.merge(c["trace"] for c in cli.children)
                    startup = sum(c["startup_s"] for c in cli.children)
                else:
                    snap, startup = tr.snapshot(), 0.0
                traced.append((wall, snap, startup))
            else:
                walls.append(wall)
                lats.append(pass_lats)
            attempted += len(outs)
            failed += count_failures(jobs, outs, want, examples)
            del outs  # so two passes' outputs are never alive at once
            if perf_counter() - t_begin >= until:
                break
        if traced_phase and cli is None:
            tr.uninstall()

    # Best of passes: see the module docstring.
    best = [min(job) for job in zip(*lats)]
    out = {"attempted": attempted, "failed": failed, "failures": examples,
           "passes": len(walls), "walls": walls,
           "wall_s": sum(best),
           "op_p50_ms": 1000 * statistics.median(best),
           "op_tail": {k: (1000 * v if k == "value" else v) for k, v in tail_latency(lats).items()},
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace:
        # Traced cli-verify passes include child start-up; untraced ones do not.
        fastest_traced = min(wall - startup for wall, _, startup in traced)
        traced.sort(key=lambda t: t[0])
        wall, snap, startup = traced[(len(traced) - 1) // 2]
        out["trace"] = {"passes": len(traced), "snapshot": snap,
                        "metrics": layer_metrics(snap, wall, startup, fastest_traced,
                                                 min(walls))}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    src = Path(os.environ["PYTHONPATH"]).resolve()
    import cyclofun as cf
    if not Path(cf.__file__).resolve().is_relative_to(src):
        print(f"cyclofun imported from {cf.__file__}, not from {src}", file=sys.stderr)
        return 2

    jobs = build_jobs(args.workload, args.seed, args.smoke)
    problems = tracer.self_test(args.seed) if args.trace else []
    reset = None
    if args.workload == "cli-verify":
        import cyclofun.cli
        cli = CliRunner(cyclofun.cli)
        ops = [cli.op(p["argv"]) for _, p in jobs]
        # Each process of the real CLI starts with an empty family cache.
        reset = cf.build_family.cache_clear
    else:
        cli = None
        ops = [_in_process_op(cf, kind, p) for kind, p in jobs]
    run_pass(ops, reset)
    print("READY", flush=True)

    blob = sys.stdin.buffer.read()
    if not blob:
        return 0
    want = pickle.loads(blob)
    result = measure(jobs, ops, want, args.seconds, bool(args.trace), cli, reset)
    result["tracer_problems"] = problems
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
