"""The benchmark's span tracer still finds every name it wraps.

`perfbench/run.py:install_tracer` replaces functions at the names their
callers look up. A refactor that removes or bypasses one of those names
would break `perfbench/run.py --trace 1` without failing any library test,
so this runs the tracer in a subprocess (which also keeps run.py's BLAS
thread pinning out of the test process) over small CLI calls.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import contextlib, io, json, pathlib, sys, tempfile
sys.path[:0] = [{perfbench!r}, {src!r}]
import run, spans
import stabent.cli

tracer = spans.Tracer()
original = stabent.cli.main
run.install_tracer(tracer)
with tempfile.TemporaryDirectory() as tmp:
    clifford = pathlib.Path(tmp, "epr.qc")
    clifford.write_text("qubits 2\\nH 1\\nCNOT 1 2\\n")
    magic = pathlib.Path(tmp, "t.qc")
    magic.write_text("qubits 2\\nH 1\\nT 1\\nCNOT 1 2\\n")
    calls = [
        ["estimate", str(clifford), "--cut", "1"],
        ["estimate", str(magic), "--cut", "1", "--seed", "3"],
        ["distinguish", "--n", "4", "--t-prime", "0", "--trials", "1"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [tracer.run_op(i, stabent.cli.main, argv) for i, argv in enumerate(calls)]
tracer.uninstall()
print(json.dumps({{
    "codes": codes,
    "names": sorted({{s[0] for s in tracer.spans}}),
    "restored": stabent.cli.main is original,
}}))
"""

# Every span the three calls above must record if each traced name is still
# the one the code calls through.
EXPECTED = {
    "cli.main",
    "cli.parse_circuit",
    "tableau.simulate_clifford",
    "tableau.weyl_group_from_tableau",
    "statevector.simulate_circuit",
    "statevector.characteristic_distribution",
    "statevector.bell_difference_sample_bits",
    "weyl.expectation_rows",
    "estimator.estimate_entropy",
    "distinguisher.distinguish",
    "symplectic.is_isotropic",
    "symplectic.symplectic_complement",
    "symplectic.restrict_to_cut",
    "symplectic.span",
}


def test_perfbench_tracer_installs_and_records_every_layer():
    script = _SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0, 0, 0]
    assert EXPECTED <= set(out["names"])
    assert out["restored"]
