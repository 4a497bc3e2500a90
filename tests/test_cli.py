"""CLI behaviour: grammar round-trips, backend routing, exit codes, JSON."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import helpers
from stabent import TABLEAU_CAP, random_clifford_t_circuit, tableau
from stabent.cli import CircuitParseError, main, parse_circuit

import numpy as np

EPR = "qubits 2\nH 1\nCNOT 1 2\n"
MAGIC2 = "qubits 2\nH 1\nT 1\n"


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_roundtrip():
    text = "qubits 3  # header\n# full comment\nH 1\ncnot 1 2\nTDG 3\n\n"
    circ = parse_circuit(text)
    assert circ.n == 3
    assert [(g.name, g.qubits) for g in circ.gates] == [
        ("H", (1,)), ("CNOT", (1, 2)), ("TDG", (3,)),
    ]
    assert parse_circuit(helpers.format_circuit(circ)) == circ
    # comment-only lines, trailing and tight comments, tabs, CRLF endings
    # and a signed index parse to the same circuit
    for variant in (
        "# leading comment\nqubits 3\n  # indented comment\nH 1 # trailing\n"
        "CNOT 1 2#tight\nTDG 3\n",
        "qubits\t3\t# header\nh\t1\n\tcnot\t1 \t2\ntdg 3\n",
        "qubits 3\r\n# comment\r\n\r\nH 1\r\nCNOT 1 2\r\nTDG 3\r\n",
        "qubits +3\nH +1\nCNOT +1 2\nTDG +3\n",
    ):
        assert parse_circuit(variant) == circ


def test_parse_roundtrip_random():
    rng = np.random.default_rng(60)
    for _ in range(10):
        circ = random_clifford_t_circuit(int(rng.integers(1, 6)),
                                         int(rng.integers(0, 3)), rng)
        assert parse_circuit(helpers.format_circuit(circ)) == circ


@pytest.mark.parametrize(
    "text",
    [
        "H 1\n",                      # missing header
        "qubits 0\n",                 # bad count
        "qubits two\n",               # unparsable count
        "qubits 3\nCNOT 1 5\n",       # index out of range
        "qubits 3\nFOO 1\n",          # unknown gate
        "qubits 3\nH 1 2\n",          # wrong arity
        "qubits 3\nCNOT 2 2\n",       # repeated qubit
        "qubits 3\nH x\n",            # bad index token
        "# note\n\n  # note\nqubits 3\n# note\nH 4\n",  # comment-only lines
        "qubits 3 # header\nH 1 # ok\nCNOT 1 5 # bad\n",  # trailing comments
        "qubits\t3\nH\t1\nCNOT\t2\t2\n",  # tabs
        "qubits 3\r\nH 1\r\nH 1 2\r\n",  # CRLF line endings
        "qubits 3\nCNOT +1 +1\n",    # signed index
        "qubits 3\nH #1\n",          # the index commented out
    ],
)
def test_parse_errors(text):
    # Each case breaks its last line: the header or its one gate.
    last = text.count("\n")
    with pytest.raises(CircuitParseError, match=f"^line {last}: "):
        parse_circuit(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("qubits 3\nH 1\n# comment\n\nCNOT 1 2\nH 4\nCNOT 3 3\n",
         r"^line 6: H qubit 4 outside 1\.\.3$"),
        # a bad gate before a bad token is still the first error
        ("qubits 3\nH 1\nFOO 2\nH x\n", r"^line 3: unknown gate 'FOO'$"),
        ("# c\r\nqubits 3\r\n\tH 1 # c\r\n\r\nCNOT\t+1 1\r\n",
         r"^line 5: CNOT qubits must be distinct: \(1, 1\)$"),
        ("qubits 3\nH\t1#c\nH +x\n", r"^line 3: bad qubit index$"),
        ("qubits 3\nH #1\n", r"^line 2: H takes 1 qubit\(s\), got \(\)$"),
        ("# only comments\n\t\n", r"^missing 'qubits N' header$"),
    ],
)
def test_parse_error_names_the_first_bad_line(text, message):
    with pytest.raises(CircuitParseError, match=message):
        parse_circuit(text)


def test_estimate_epr_tableau(tmp_path, capsys):
    path = _write(tmp_path, "epr.qc", EPR)
    code, out, _ = _run(capsys, "estimate", path, "--cut", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["lower"] == 1.0 and rec["upper"] == 1.0
    assert rec["backend"] == "tableau"
    assert rec["dim_S"] == 2 and rec["r"] == 0.0
    assert rec["cut_A"] == [1] and rec["k"] == 0
    assert rec["promise_violated"] is False


def test_estimate_identity_three_qubits(tmp_path, capsys):
    path = _write(tmp_path, "id3.qc", "qubits 3\n")
    code, out, _ = _run(capsys, "estimate", path, "--cut", "1")
    rec = json.loads(out)
    assert code == 0 and rec["lower"] == 0.0 and rec["upper"] == 0.0


def test_estimate_parse_error_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.qc", "qubits 3\nCNOT 1 5\n")
    code, _, err = _run(capsys, "estimate", path, "--cut", "1")
    assert code == 2
    assert "line 2" in err


def test_estimate_missing_file_exit_2(capsys):
    code, _, err = _run(capsys, "estimate", "/nonexistent.qc", "--cut", "1")
    assert code == 2 and "cannot read" in err


def test_estimate_cap_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "wide.qc", "qubits 13\nT 1\n")
    code, _, _ = _run(capsys, "estimate", path, "--cut", "1")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl", "{wide}"],
        # the cap is checked before the run settings
        ["estimate", "{wide}", "--cut", "1", "--epsilon", "0.9"],
        ["estimate", "{wide}", "--cut", "1", "--k", "-1"],
        ["distinguish", "--n", "14"],
    ],
)
def test_dense_cap_exit_3(tmp_path, capsys, argv):
    wide = _write(tmp_path, "wide.qc", "qubits 13\nT 1\n")
    code, out, err = _run(capsys, *(a.format(wide=wide) for a in argv))
    assert code == 3 and out == ""
    assert "exceeds dense cap 12" in err


@pytest.mark.parametrize("command", [["estimate", "--cut", "1"], ["weyl"]])
def test_tableau_cap_exit_3(tmp_path, capsys, command):
    """A Clifford file one qubit past the tableau cap is refused before any
    gate is applied, so it exits at once rather than after hours."""
    n = TABLEAU_CAP + 1
    wide = _write(tmp_path, "wide.qc", f"qubits {n}\nH 1\nCNOT 1 {n}\n")
    start = time.perf_counter()
    code, out, err = _run(capsys, command[0], wide, *command[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert f"exceeds tableau cap {TABLEAU_CAP}" in err


def test_tableau_cap_is_inclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tableau, "TABLEAU_CAP", 3)
    at_cap = _write(tmp_path, "three.qc", "qubits 3\nH 1\nCNOT 1 3\n")
    past = _write(tmp_path, "four.qc", "qubits 4\nH 1\nCNOT 1 4\n")
    assert _run(capsys, "weyl", at_cap)[0] == 0
    code, _, err = _run(capsys, "weyl", past)
    assert code == 3 and "exceeds tableau cap 3" in err


@pytest.mark.parametrize("text", [EPR, MAGIC2])
@pytest.mark.parametrize("promise", [["--k", "-1"], ["--t", "-1"]])
def test_negative_promise_exit_2(tmp_path, capsys, text, promise):
    path = _write(tmp_path, "c.qc", text)
    code, out, err = _run(capsys, "estimate", path, "--cut", "1", *promise)
    assert code == 2 and out == ""
    assert "k must be nonnegative" in err


@pytest.mark.parametrize("text", [EPR, MAGIC2])
@pytest.mark.parametrize(
    "settings, message",
    [
        (["--epsilon", "5", "--delta", "-1"], "epsilon must lie"),
        (["--epsilon", "0"], "epsilon must lie"),
        (["--delta", "-1"], "delta must lie"),
        (["--delta", "1.5"], "delta must lie"),
        (["--seed", "-1"], "seed must be nonnegative"),
    ],
)
def test_bad_sampling_settings_exit_2(tmp_path, capsys, text, settings, message):
    # Checked on the tableau backend too, though it draws no samples.
    path = _write(tmp_path, "c.qc", text)
    code, out, err = _run(capsys, "estimate", path, "--cut", "1", *settings)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "setting, message",
    [(["--epsilon", "5"], "epsilon must lie"), (["--k", "-1"], "k must be nonnegative")],
)
def test_bad_settings_exit_2_before_the_tableau_is_built(
    tmp_path, capsys, monkeypatch, setting, message
):
    def refuse(circuit):
        raise AssertionError("simulate_clifford ran before the settings check")

    monkeypatch.setattr("stabent.cli.simulate_clifford", refuse)
    path = _write(tmp_path, "epr.qc", EPR)
    code, out, err = _run(capsys, "estimate", path, "--cut", "1", *setting)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "{t6}", "--cut", "1,2,3", "--epsilon", "1e-4"],
        ["distinguish", "--n", "6", "--epsilon", "1e-4"],
        ["estimate", "{t6}", "--cut", "1,2,3", "--epsilon", "1e-200"],  # eps^2 is 0
        ["estimate", "{t6}", "--cut", "1,2,3", "--epsilon", "1e-160"],  # the count is inf
        ["estimate", "{t6}", "--cut", "1,2,3", "--delta", "1e-320"],  # ln(1/delta) is inf
        ["distinguish", "--n", "8", "--trials", "1", "--epsilon", "1e-200"],
    ],
)
def test_sample_count_limit_exit_2(tmp_path, capsys, argv):
    # Without the limit the first two calls would try to draw ~2.8e9
    # samples; the others need a count past the float range.
    t6 = _write(tmp_path, "t6.qc", "qubits 6\nH 1\nT 1\nCNOT 1 4\n")
    code, out, err = _run(capsys, *(a.format(t6=t6) for a in argv))
    assert code == 2 and out == ""
    assert "limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "{epr}", "--cut", "1", "--backend", "auto"],
        ["estimate", "{epr}", "--cut", "1", "--cap", "12"],
        ["weyl", "{epr}", "--backend", "dense"],
        ["oracle", "{epr}", "--cut", "1", "--cap", "12"],
        ["distinguish", "--cap", "12"],
    ],
)
def test_backend_and_cap_options_are_gone(tmp_path, argv):
    epr = _write(tmp_path, "epr.qc", EPR)
    with pytest.raises(SystemExit) as exc:
        main([a.format(epr=epr) for a in argv])
    assert exc.value.code == 2


def test_estimate_auto_routes_t_to_dense(tmp_path, capsys):
    path = _write(tmp_path, "magic.qc", MAGIC2)
    code, out, _ = _run(capsys, "estimate", path, "--cut", "1", "--seed", "5")
    assert code == 0
    rec = json.loads(out)
    assert rec["backend"] == "dense"
    assert rec["k"] == 2  # defaults to 2t from the file
    assert rec["samples_used"] > 0


def test_estimate_one_qubit_defaults_epsilon_to_a_quarter(tmp_path, capsys):
    # default_epsilon = 1/(8n) is defined from n = 2; at n = 1 the CLI uses 1/4
    path = _write(tmp_path, "one.qc", "qubits 1\nH 1\nT 1\n")
    code, out, _ = _run(capsys, "estimate", path, "--cut", "1", "--seed", "0")
    assert code == 0
    assert json.loads(out)["epsilon"] == 0.25


def test_estimate_promise_violation_exit_4(tmp_path, capsys):
    # one T gate but a k = 0 promise: dim S = 1 < n - k = 2
    path = _write(tmp_path, "magic.qc", MAGIC2)
    code, out, err = _run(
        capsys, "estimate", path, "--cut", "1", "--k", "0", "--seed", "1"
    )
    assert code == 4
    assert "promise" in err
    rec = json.loads(out)
    assert rec["promise_violated"] is True and rec["dim_S"] == 1


def _spanning_samples(dist, rng, count):
    """Samples that span all of F2^(2n), so the sampled S is {0}."""
    return np.resize(1 << np.arange(2 * dist.n, dtype=np.uint64), count)


@pytest.mark.parametrize("promise", [(), ("--k", "0"), ("--k", "100"), ("--t", "1")])
def test_sampled_dimension_below_n_minus_t_exit_5(
    tmp_path, capsys, monkeypatch, promise
):
    """dim S < n - t cannot come from a true sampler, whatever k says: an
    internal fault, reported before anything is written."""
    monkeypatch.setattr("stabent.cli.bell_difference_sample_bits", _spanning_samples)
    path = _write(tmp_path, "magic.qc", MAGIC2)
    code, out, err = _run(
        capsys, "estimate", path, "--cut", "1", "--seed", "1", *promise
    )
    assert code == 5
    assert out == ""
    assert "internal error" in err and "n - t" in err


def test_estimate_seed_determinism(tmp_path, capsys):
    path = _write(tmp_path, "magic.qc", MAGIC2)
    args = ("estimate", path, "--cut", "1", "--seed", "9", "--t", "1")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_estimate_k_and_t_conflict(tmp_path, capsys):
    path = _write(tmp_path, "epr.qc", EPR)
    with pytest.raises(SystemExit) as exc:
        main(["estimate", path, "--cut", "1", "--k", "0", "--t", "0"])
    assert exc.value.code == 2


def test_estimate_output_file(tmp_path, capsys):
    path = _write(tmp_path, "epr.qc", EPR)
    out_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "estimate", path, "--cut", "1", "--output", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == out


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "{epr}", "--cut", "1"],
        ["distinguish", "--n", "4", "--t-prime", "0", "--trials", "1"],
    ],
    ids=["estimate", "distinguish"],
)
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    epr = _write(tmp_path, "epr.qc", EPR)
    target = tmp_path / "missing" / "report.json"
    code, out, err = _run(
        capsys, *(a.format(epr=epr) for a in argv), "--output", str(target)
    )
    assert code == 2 and out == ""
    assert f"cannot write {target}" in err
    assert not target.exists()


def test_oracle_epr(tmp_path, capsys):
    path = _write(tmp_path, "epr.qc", EPR)
    code, out, _ = _run(capsys, "oracle", path, "--cut", "1")
    assert code == 0
    assert json.loads(out)["entropy"] == pytest.approx(1.0)


def test_oracle_product_state(tmp_path, capsys):
    path = _write(tmp_path, "id3.qc", "qubits 3\n")
    code, out, _ = _run(capsys, "oracle", path, "--cut", "1,2")
    assert json.loads(out)["entropy"] == pytest.approx(0.0)


@pytest.mark.parametrize("cut", ["3", "1,2,3"])
def test_oracle_prints_zero_not_minus_zero(tmp_path, capsys, cut):
    """A product cut and A = all qubits have one Schmidt value, 1, whose
    -1 log 1 is -0.0; the JSON must read 0.0."""
    path = _write(tmp_path, "c.qc", "qubits 3\nX 1\nCNOT 1 2\n")
    code, out, _ = _run(capsys, "oracle", path, "--cut", cut)
    assert code == 0
    assert '"entropy": 0.0' in out and "-0.0" not in out


def test_oracle_deterministic_on_t_circuit(tmp_path, capsys):
    path = _write(tmp_path, "t.qc", "qubits 2\nH 1\nT 1\nCNOT 1 2\n")
    _, out1, _ = _run(capsys, "oracle", path, "--cut", "1")
    _, out2, _ = _run(capsys, "oracle", path, "--cut", "1")
    v1 = json.loads(out1)["entropy"]
    assert abs(v1 - json.loads(out2)["entropy"]) < 1e-9
    assert v1 == pytest.approx(1.0, abs=1e-9)  # (|00> + e^{i pi/4}|11>)/sqrt 2


def test_oracle_cap_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "wide.qc", "qubits 14\n")
    code, _, _ = _run(capsys, "oracle", path, "--cut", "1")
    assert code == 3


def test_weyl_epr(tmp_path, capsys):
    path = _write(tmp_path, "epr.qc", EPR)
    code, out, _ = _run(capsys, "weyl", path)
    rec = json.loads(out)
    assert code == 0
    assert rec["dim"] == 2
    assert rec["basis"] == ["XX", "ZZ"]
    assert rec["backend"] == "tableau"


def test_weyl_zero_state(tmp_path, capsys):
    path = _write(tmp_path, "id3.qc", "qubits 3\n")
    _, out, _ = _run(capsys, "weyl", path)
    rec = json.loads(out)
    assert rec["dim"] == 3
    # canonical RREF order puts the lowest pivot bit (qubit n) first
    assert rec["basis"] == ["IIZ", "IZI", "ZII"]


def test_weyl_t_state_dim_zero(tmp_path, capsys):
    path = _write(tmp_path, "t1.qc", "qubits 1\nH 1\nT 1\n")
    _, out, _ = _run(capsys, "weyl", path)
    rec = json.loads(out)
    assert rec["dim"] == 0 and rec["basis"] == []
    assert rec["backend"] == "dense"


def test_distinguish_command(capsys):
    code, out, _ = _run(
        capsys, "distinguish", "--n", "4", "--t-prime", "0",
        "--trials", "10", "--seed", "2",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["trials"] == 10
    assert rec["success_rate"] == 1.0
    assert rec["f_level"] == 2.0 and rec["g_level"] == 0.0


def test_negative_t_prime_exit_2(capsys):
    code, out, err = _run(capsys, "distinguish", "--n", "6", "--t-prime", "-1")
    assert code == 2 and out == ""
    assert "t must be nonnegative, got -1" in err


def test_cli_import_adds_no_third_party_module():
    """A fresh `import stabent.cli` is the benchmark's set-up time; beside
    what a bare interpreter loads, it may load only the standard library,
    numpy and stabent itself."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    show = "import sys; print('\\n'.join(sys.modules))"

    def modules(prelude):
        proc = subprocess.run(
            [sys.executable, "-c", prelude + show],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        )
        return {name.partition(".")[0] for name in proc.stdout.split()}

    bare = modules("")
    loaded = modules("import stabent.cli; ")
    assert {"numpy", "stabent"} <= loaded
    allowed = set(sys.stdlib_module_names) | {"numpy", "stabent"}
    assert sorted(loaded - bare - allowed) == []
