"""Check that two source trees of cyclofun print the same CLI output.

    python3 scripts/compare_cli.py PARENT_SRC CHANGE_SRC

Runs every argument list in COMMANDS as `python -X dev -W error -m cyclofun`,
once with PYTHONPATH=PARENT_SRC and once with PYTHONPATH=CHANGE_SRC, from a
temporary working directory that holds only SERIES_FILE, and without
CYCLOFUN_TOL.  Prints each command whose stdout, stderr or exit code differs
and exits 1 if any does, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FORMATS = ("text", "json", "csv")
BUILTINS = ("exp", "geometric", "expq")
# A Laurent series for the --input commands, written into the working directory.
SERIES_FILE = "series.json"
SERIES = {"min_deg": -1, "coeffs": [[1, 0], [0.5, -0.25], [2, 1], [0, 0], [-1.5, 0.75]],
          "label": "probe"}


def _commands() -> list[list[str]]:
    cmds: list[list[str]] = []
    for suite in ("demoivre", "circulant", "qpsi", "all"):
        for fmt in FORMATS:
            cmds += [["verify", "--suite", suite, "--format", fmt, "--seed", str(seed)]
                     for seed in (0, 1, 3)]
            cmds.append(["verify", "--suite", suite, "--format", fmt, "--tol", "1e-20"])
    for suite in ("circulant", "all"):
        cmds += [["verify", "--suite", suite, "--format", fmt, "--trunc", "16"]
                 for fmt in FORMATS]
    cmds += [["verify", "--suite", "demoivre", "--n", str(n), f"--alpha={alpha}"]
             for n in (2, 3, 4, 8, 16, 64) for alpha in ("1", "-1", "2+1i", "1e-6", "0", "1e3")]
    # q = 3: factorials that grow; q = 1e3: exit 4, a point past the exponential's bound.
    cmds += [["verify", "--suite", "qpsi", f"--q={q}"]
             for q in ("0.5", "2", "3", "0.3+0.4i", "-0.5", "-1e10", "1e3")]
    # The shortest ladder window (trunc 8) and the psi-sequence cap (trunc 256).
    cmds += [["verify", "--suite", "qpsi", "--trunc", trunc] for trunc in ("8", "256")]
    # Every ladder residual in full: q past 1 on both sides, and the shortest odd window.
    cmds += [["verify", "--suite", "qpsi", "--format", "json", *arg]
             for arg in (["--q=1.5"], ["--q=-2"], ["--trunc", "9"])]
    # Exit 4: twice a component 0 entry overflows, named at degree 76 before any ladder step.
    cmds.append(["verify", "--suite", "qpsi", "--q=-0.9999999989687168", "--trunc", "77"])
    for builtin in BUILTINS:
        for fmt in FORMATS:
            common = ["--builtin", builtin, "--format", fmt]
            cmds += [["decompose", *common, "--n", "3", "--trunc", "12"],
                     ["eval", *common, "--n", "3", "--s", "1", "--z", "0.3",
                      "--method", "both"],
                     ["det", *common, "--n", "3", "--z", "0.3"]]
        # Every weight but alpha = 1 on branch 0 re-verifies through coeff_close.
        cmds += [["decompose", "--builtin", builtin, "--n", "3", "--trunc", "12", *weight]
                 for weight in (["--alpha=-1"], ["--alpha=2+1i"], ["--branch", "1"])]
    for fmt in FORMATS:
        cmds += [["decompose", "--input", SERIES_FILE, "--n", "2", "--format", fmt],
                 ["decompose", "--input", SERIES_FILE, "--n", "3", "--alpha=2+1i",
                  "--format", fmt],
                 ["eval", "--input", SERIES_FILE, "--n", "2", "--s", "1", "--z", "0.3+0.2i",
                  "--method", "series", "--format", fmt],
                 # A passing --components run, whose values have negative imaginary parts.
                 ["det", "--components", "1,2+1i", "--n", "2", "--alpha=2+1i", "--format", fmt]]
    cmds += [["--help"]] + [[cmd, "--help"] for cmd in ("decompose", "eval", "verify", "det")]
    # The exit-2 and exit-4 commands of tests/test_cli.py that need no input file.
    cmds += [
        ["eval", "--builtin", "exp", "--z", "10"],
        ["eval", "--builtin", "exp", "--n", "2", "--z", "800", "--method", "closed"],
        ["eval", "--builtin", "exp", "--alpha", "257", "--s", "-1", "--z", "1e308",
         "--method", "closed"],
        ["eval", "--builtin", "expq", "--alpha", "257", "--s", "-1", "--z", "1e308",
         "--method", "closed"],
        ["eval", "--builtin", "expq", "--n", "2", "--alpha", "4", "--z", "1",
         "--method", "closed"],
        ["eval", "--builtin", "geometric", "--n", "2", "--alpha", "4", "--z", "0.8"],
        ["det", "--builtin", "geometric", "--n", "2", "--alpha", "4", "--z", "0.8"],
        ["eval", "--builtin", "exp", "--n", "2", "--alpha", "1e4", "--z", "4",
         "--method", "both"],
        ["eval", "--builtin", "exp", "--n", "2", "--alpha", "1e-100", "--z", "3e50",
         "--method", "series"],
        ["eval", "--builtin", "geometric", "--n", "2", "--alpha", "1e-40", "--z", "8.5e19",
         "--method", "series"],
        ["eval", "--builtin", "exp", "--n", "8", "--alpha", "1e-40", "--s", "7", "--z", "1",
         "--method", "both"],
        ["verify", "--suite", "circulant", "--tol=-1"],
        ["verify", "--suite", "circulant", "--tol=nan"],
        ["det", "--n", "2", "--components", "1,0", "--tol=inf"],
        ["verify", "--suite", "qpsi", "--trunc", "7"],
        ["decompose", "--builtin", "geometric", "--n", "2", "--alpha", "2", "--trunc", "2100"],
        ["det", "--components", "1,2", "--n", "3"],
        ["eval", "--z", "0.5", "--method", "nope"],
        ["decompose", "--input", "/definitely/not/a/file.json"],
        ["eval", "--builtin", "exp", "--z", "0.5", "--builtin", "geometric", "--n", "0"],
        ["eval", "--builtin", "exp", "--n", "3", "--z", ""],
        ["eval", "--builtin", "exp", "--n", "3", "--z", "inf"],
        ["eval", "--z", "1", "--n", "2", "--alpha", "1e300"],
        ["det", "--z", "1", "--n", "2", "--alpha", "1e300"],
        ["decompose", "--n", "2", "--alpha", "1e300"],
        ["verify", "--suite", "qpsi", "--q=-1e10"],
        ["decompose", "--builtin", "expq", "--q=-0.999999999", "--trunc", "200"],
        ["det", "--components", "1e120,2e120,3e120", "--n", "3"],
        ["det", "--components", "1,2", "--n", "2", "--alpha", "1e308"],
        # The sieve's alpha = 0 rule and its subnormal weights; one closed read.
        ["decompose", "--builtin", "exp", "--n", "3", "--trunc", "12", "--alpha=0"],
        ["decompose", "--builtin", "exp", "--n", "3", "--trunc", "12", "--alpha=1e-160"],
        ["eval", "--builtin", "exp", "--n", "2", "--s", "1", "--z", "0.3", "--method", "closed"],
    ]
    return cmds


COMMANDS = _commands()


def run(src: Path, argv: list[str], cwd: str) -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("CYCLOFUN_TOL", None)
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "cyclofun", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    with tempfile.TemporaryDirectory() as cwd, ThreadPoolExecutor(2) as pool:
        (Path(cwd) / SERIES_FILE).write_text(json.dumps(SERIES))
        pairs = pool.map(lambda cmd: (cmd, run(parent, cmd, cwd), run(change, cmd, cwd)),
                         COMMANDS)
        differ = 0
        for cmd, old, new in pairs:
            fields = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                      if a != b]
            if fields:
                differ += 1
                print(f"DIFFER ({', '.join(fields)}): {' '.join(cmd)}")
    print(f"{len(COMMANDS)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
