"""Traced CLI process: ``python cli_child.py <cyclofun arguments>``.

Imports the package, installs the tracer, runs ``cyclofun.cli.main`` on the
arguments with its output captured, and prints one JSON object with the exit
code, the captured output and the span snapshot.  The parent times the whole
process, so start-up is the process wall time minus the ``cli.main`` span.
"""

import contextlib
import io
import json
import sys

import tracer


def main() -> int:
    import cyclofun.cli

    tr = tracer.Tracer()
    tr.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cyclofun.cli.main(sys.argv[1:])
    tr.uninstall()
    json.dump({"rc": rc, "stdout": buf.getvalue(), "trace": tr.snapshot()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
