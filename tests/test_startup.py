"""Start-up: the package imports without numpy, dataclasses, inspect, json
or csv, and commands that only sieve coefficients run without numpy."""

import contextlib
import io
import json
import subprocess
import sys

from cyclofun.cli import main

# Runs each argv list (JSON in argv[1]) through cli.main with numpy blocked:
# a None entry in sys.modules makes every `import numpy` raise ImportError.
BLOCKED_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from cyclofun.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

# Runs --help, a text decompose and a series eval through cli.main, then prints
# the top-level modules they added to sys.modules; then runs one --format json
# eval and prints whether json is loaded.
ADDED_CHILD = """
import contextlib, io, sys
before = set(sys.modules)
from cyclofun.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["--help"], ["decompose", "--n", "2", "--trunc", "8"],
                 ["eval", "--builtin", "exp", "--n", "3", "--z", "0.5"]):
        main(argv)
print(" ".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
with contextlib.redirect_stdout(io.StringIO()):
    main(["eval", "--builtin", "exp", "--n", "3", "--z", "0.5", "--format", "json"])
print("json" in sys.modules)
"""


def _numpy_free_commands(series_file):
    usage = [["--help"], ["decompose", "--help"], ["eval", "--z", "foo"],
             ["verify", "--suite", "bogus"], ["decompose", "--n", "1"], ["det", "--n", "3"]]
    decompose = [["decompose", *src, *opts, "--format", fmt]
                 for src in (["--builtin", "exp"], ["--builtin", "geometric"],
                             ["--builtin", "expq", "--q", "0.3"], ["--input", series_file])
                 for opts in (["--n", "2"], ["--n", "3", "--alpha", "2+1i", "--trunc", "20"],
                              ["--n", "4", "--alpha", "0", "--trunc", "12"])
                 for fmt in ("text", "json", "csv")]
    evaluate = [["eval", "--builtin", "geometric", "--n", "3", "--alpha", "-2", "--s", "1",
                 "--z", "0.3+0.1i", "--method", m] for m in ("series", "closed", "both")]
    evaluate += [["eval", "--input", series_file, "--n", "2", "--z", "0.3", "--format", fmt]
                 for fmt in ("text", "json", "csv")]
    # The exp and expq families build their closed-form kernel only at a
    # closed-route call, so the series route needs no array.
    evaluate += [["eval", *src, "--n", "3", "--alpha", "2+1i", "--s", "1", "--z", "0.3-0.2i",
                  "--method", "series", "--format", fmt]
                 for src in (["--builtin", "exp"], ["--builtin", "expq", "--q", "0.3"])
                 for fmt in ("text", "json", "csv")]
    return usage + decompose + evaluate


def _run_here(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def test_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cyclofun, cyclofun.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_commands_that_read_no_file_and_write_text_load_only_what_they_run():
    proc = subprocess.run([sys.executable, "-c", ADDED_CHILD],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added, json_loaded = proc.stdout.splitlines()
    assert "cyclofun" in added.split()
    assert not set(added.split()) & {"numpy", "dataclasses", "inspect", "json", "csv"}, added
    # The import was deferred, not lost: --format json loads it.
    assert json_loaded == "True"


def test_sieve_commands_run_byte_identical_without_numpy(tmp_path):
    src = tmp_path / "series.json"
    src.write_text(json.dumps({"min_deg": -2, "coeffs": [
        [1, 0], [0, 0], [2.5, -1], [0, 0], [0.5, 0.5], [3, 0], [0, 0]]}))
    commands = _numpy_free_commands(str(src))
    proc = subprocess.run([sys.executable, "-c", BLOCKED_CHILD, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert len(blocked) == len(commands)
    for argv, got in zip(commands, blocked):
        assert got == _run_here(argv), argv
    # The list covers successes and usage errors, not only refusals.
    assert {code for code, _, _ in blocked} == {0, 2}


def test_array_commands_load_numpy_in_a_fresh_process():
    for argv in (["verify", "--suite", "demoivre", "--n", "3"],
                 ["det", "--builtin", "exp", "--n", "3", "--alpha", "2", "--z", "0.5"]):
        proc = subprocess.run([sys.executable, "-m", "cyclofun", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert "PASS" in proc.stdout and "FAIL" not in proc.stdout, argv
