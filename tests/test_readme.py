"""The README's library example and CLI lines run against the current API."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from stabent.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# The files the CLI block names: an EPR pair, and one T gate on a |+>
# entangled with a second qubit.
CIRCUIT_FILES = {
    "bell.qc": "qubits 2\nH 1\nCNOT 1 2\n",
    "magic.qc": "qubits 3\nH 1\nT 1\nCNOT 1 2\nH 3\n",
}


def test_readme_library_example_runs_and_brackets_the_oracle():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    se, report = ns["se"], ns["report"]
    exact = se.entanglement_entropy_oracle(ns["psi"], ns["cut"])
    assert report.lower <= exact <= report.upper


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    lines = [
        line for block in blocks for line in block.splitlines()
        if line.startswith("stabent ")
    ]
    assert {shlex.split(line)[1] for line in lines} == {
        "estimate", "oracle", "weyl", "distinguish",
    }
    for name, text in CIRCUIT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code = main(shlex.split(line)[1:])
        captured = capsys.readouterr()
        assert code == 0, (line, captured.err)
        assert captured.out.startswith("{"), line
