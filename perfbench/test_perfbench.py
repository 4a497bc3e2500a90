"""Self-checks of the benchmark: its references at sizes small enough to
brute force, the tracer's self-time accounting, and BENCHMARK.json.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import spans


def random_gates(n: int, count: int, rng, t: int = 0):
    names = ["H", "S", "X", "Y", "Z"]
    gates = []
    for _ in range(count):
        if n > 1 and rng.random() < 0.4:
            a, b = rng.choice(n, size=2, replace=False) + 1
            gates.append(("CNOT", (int(a), int(b))))
        else:
            gates.append((names[rng.integers(5)], (int(rng.integers(n)) + 1,)))
    for _ in range(t):
        gates.insert(int(rng.integers(len(gates) + 1)), ("T", (int(rng.integers(n)) + 1,)))
    return gates


def brute_rank(mat: np.ndarray) -> int:
    """GF(2) rank as log2 of the number of distinct row combinations."""
    rows = [int("".join(map(str, r)) or "0", 2) for r in mat.astype(int)]
    seen = {0}
    for r in rows:
        seen |= {s ^ r for s in seen}
    return len(seen).bit_length() - 1


def kron_state(n: int, gates) -> np.ndarray:
    """C|0^n> from full 2^n x 2^n matrices (qubit 1 most significant)."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for name, qubits in gates:
        if name == "CNOT":
            c, t = qubits
            mat = np.zeros((1 << n, 1 << n))
            for m in range(1 << n):
                mat[m ^ (1 << (n - t)) if (m >> (n - c)) & 1 else m, m] = 1.0
        else:
            mat = np.eye(1)
            for q in range(1, n + 1):
                mat = np.kron(mat, reference.GATE_MATRICES[name] if q == qubits[0] else np.eye(2))
        psi = mat @ psi
    return psi


def test_prefix_ranks_match_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(30):
        mat = rng.random((int(rng.integers(1, 7)), int(rng.integers(1, 12)))) < 0.4
        pivots = reference.gf2_pivot_columns(mat)
        for j in range(mat.shape[1] + 1):
            assert sum(p < j for p in pivots) == brute_rank(mat[:, :j])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dense_state_matches_matrix_simulation(n):
    rng = np.random.default_rng(n)
    gates = random_gates(n, 8 * n, rng, t=2)
    np.testing.assert_allclose(reference.dense_state(n, gates).reshape(-1),
                               kron_state(n, gates), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_stabilizer_entropies_match_dense_entropies(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(5):
        gates = random_gates(n, 10 * n, rng)
        exact = reference.stabilizer_prefix_entropies(n, gates)
        psi = reference.dense_state(n, gates)
        dense = [reference.prefix_entropy(psi, m) for m in range(n + 1)]
        np.testing.assert_allclose(exact, dense, atol=1e-9)


def test_prefix_entropy_of_known_states():
    bell = np.zeros((2, 2), dtype=complex)
    bell[0, 0] = bell[1, 1] = 2**-0.5
    assert reference.prefix_entropy(bell, 1) == pytest.approx(1.0)
    product = np.zeros((2,) * 3, dtype=complex)
    product[0, 0, 0] = 1.0
    assert all(reference.prefix_entropy(product, m) == pytest.approx(0.0)
               for m in range(4))
    ghz = np.zeros((2,) * 3, dtype=complex)
    ghz[0, 0, 0] = ghz[1, 1, 1] = 2**-0.5
    assert [reference.prefix_entropy(ghz, m) for m in range(4)] == pytest.approx(
        [0.0, 1.0, 1.0, 0.0])
    ghz_gates = [("H", (1,)), ("CNOT", (1, 2)), ("CNOT", (2, 3))]
    assert list(reference.stabilizer_prefix_entropies(3, ghz_gates)) == [0, 1, 1, 0]


def test_self_times_add_up_to_op_wall_time():
    tracer = spans.Tracer()
    leaf = tracer.wrap("weyl.leaf", lambda: time.sleep(0.002))

    def middle():
        leaf()
        time.sleep(0.001)
        leaf()

    middle = tracer.wrap("statevector.middle", middle, after=lambda tr, a, k, r: tr.add("n", 1))
    for op in range(2):
        tracer.run_op(op, lambda: [middle(), time.sleep(0.001)])
    per_op = tracer.per_op()
    assert sorted(per_op) == [0, 1]
    for rec in per_op.values():
        layers = rec["weyl.self_s"] + rec["statevector.self_s"] + rec["trace.self_s"]
        assert layers + rec["op.remainder_s"] == pytest.approx(rec["op.wall_s"], abs=1e-12)
        assert rec["weyl.leaf.calls"] == 2 and rec["n"] == 1
        assert rec["statevector.middle_s"] > rec["weyl.leaf_s"] >= 0.004


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    run.import_stabent()
    import workloads

    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
