"""The CLI examples in README.md must print exactly what the README shows."""

import re
import shlex
from pathlib import Path

from cyclofun.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLE = re.compile(r"^```text\n\$ cyclofun ([^\n]*)\n(.*?)^```$", re.M | re.S)


def test_readme_cli_examples_are_byte_identical(capsys):
    examples = EXAMPLE.findall(README.read_text())
    assert {shlex.split(cmd)[0] for cmd, _ in examples} == {
        "decompose", "eval", "det", "verify"}
    for cmd, shown in examples:
        assert main(shlex.split(cmd)) == 0, cmd
        assert capsys.readouterr().out == shown, cmd
