"""The README's library example runs against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_and_brackets_the_oracle():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    se, report = ns["se"], ns["report"]
    exact = se.entanglement_entropy_oracle(ns["psi"], ns["cut"])
    assert report.lower <= exact <= report.upper
