#!/usr/bin/env python3
"""cyclofun benchmark.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmarks/run.py --smoke

Runs one workload of ``jobs.WORKLOADS`` from the checkout's ``src`` in a
worker process, checks every output against an independent oracle, and
prints a detail line (environment, percentiles, failures, spans) followed by
the result line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  ``--smoke`` runs every workload at a tiny
size in both modes and checks the metric names against BENCHMARK.json.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, here and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import pickle
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from jobs import WORKLOADS, build_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh starts per run to measure set-up; the median is reported.
SETUP_REPEATS = 15
# A worker that outlives its run by this much is killed.
WORKER_GRACE_S = 120
SMOKE_SECONDS = 0.3


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "openblas_config": blas.get("openblas configuration", blas.get("name")),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        "commit": commit,
    }


def start_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    """Start a worker and wait for READY; returns (process, seconds to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != b"READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def start_cli() -> float:
    """Wall time of a fresh ``python -m cyclofun --help``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-m", "cyclofun", "--help"], cwd=ROOT,
                   stdin=subprocess.DEVNULL, capture_output=True, check=True,
                   timeout=WORKER_GRACE_S)
    return perf_counter() - t0


def start_probe(workload: str, seed: int, smoke: bool) -> float:
    """Seconds to ready of a worker that exits without running."""
    proc, ready = start_worker(workload, seed, 0, 0, smoke)
    proc.stdin.close()  # no oracles: the worker exits
    proc.wait()
    return ready


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
               want) -> tuple[dict, list[float]]:
    """Measure set-up in fresh starts (untraced runs only), then run a
    worker to completion.  A start is ``cyclofun --help`` for cli-verify and
    a worker up to READY otherwise."""
    setups = []
    for _ in range(0 if trace else SETUP_REPEATS):
        setups.append(start_cli() if workload == "cli-verify"
                      else start_probe(workload, seed, smoke))
    proc, _ = start_worker(workload, seed, seconds, trace, smoke)
    watchdog = threading.Timer(seconds + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate(pickle.dumps(want))
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), setups


def run(workload: str, seed: int, seconds: float, trace: int,
        smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail)."""
    from oracles import oracles

    jobs = build_jobs(workload, seed, smoke)
    want = oracles(jobs)
    res, setups = run_worker(workload, seed, seconds, trace, smoke, want)
    correct = res["failed"] == 0 and not res["tracer_problems"]
    if trace:
        layer = res["trace"]["metrics"]
        # Self times are disjoint parts of span time inside the pass.
        correct = correct and layer["trace.self_sum_s"][0] <= layer["trace.wall_s"][0]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": res["op_tail"]["value"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    detail = {
        "workload": workload, "seconds": seconds, "trace": trace, "smoke": smoke,
        "environment": environment(seed),
        "fail_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "tracer_problems": res["tracer_problems"],
        "passes": res["passes"],
        "pass_walls_s": res["walls"],
        "setup_samples_s": setups,
        "op_tail": res["op_tail"],
    }
    if trace:
        detail["traced_passes"] = res["trace"]["passes"]
        detail["spans"] = res["trace"]["snapshot"]
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    return result, detail


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced; the metric names
    must equal those declared in BENCHMARK.json and every output must pass."""
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in decl["end_to_end"]},
                1: {m["name"] for m in decl["per_layer"]}}
    if {w["name"] for w in decl["workloads"]} != set(WORKLOADS):
        print("smoke: workloads differ from BENCHMARK.json", file=sys.stderr)
        return 1
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, detail = run(workload, 0, SMOKE_SECONDS, trace, smoke=True)
            names = set(result["metrics"])
            good = result["correct"] and names == declared[trace]
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} ({result['attempted']} ops, "
                  f"{result['failed']} failed, {len(names)} metrics)")
            if names != declared[trace]:
                print(f"  missing {sorted(declared[trace] - names)}, "
                      f"extra {sorted(names - declared[trace])}")
            if not result["correct"]:
                print(f"  {detail['failures']} {detail['tracer_problems']}")
            ok = ok and good
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly and check metric names")
    args = ap.parse_args(argv)
    if not (SRC / "cyclofun" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'cyclofun'}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = str(SRC)
    # A tolerance override would change the verdicts being checked.
    os.environ.pop("CYCLOFUN_TOL", None)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
