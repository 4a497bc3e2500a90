"""Dense backend: simulation, characteristic distribution, Bell sampling,
and the entanglement entropy oracle."""

from __future__ import annotations

import numpy as np
import pytest

import helpers
from stabent import (
    CapExceededError,
    Circuit,
    Cut,
    Gate,
    StateVector,
    SympVec,
    bell_difference_sample_bits,
    characteristic_distribution,
    entanglement_entropy_oracle,
    from_pauli_string,
    random_clifford_t_circuit,
    simulate_circuit,
    simulate_clifford,
    symplectic_product,
    weyl_expectation,
)

_SQRT1_2 = 1 / np.sqrt(2)


def test_simulate_examples():
    plus = simulate_circuit(Circuit.from_ops(1, ("H", 1)))
    assert np.allclose(plus.amplitudes, [_SQRT1_2, _SQRT1_2])

    epr = simulate_circuit(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    assert np.allclose(epr.amplitudes, [_SQRT1_2, 0, 0, _SQRT1_2])

    magic = simulate_circuit(Circuit.from_ops(1, ("H", 1), ("T", 1)))
    assert np.allclose(
        magic.amplitudes, [_SQRT1_2, _SQRT1_2 * np.exp(1j * np.pi / 4)]
    )


def test_simulate_matches_matrix_oracle():
    rng = np.random.default_rng(30)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        circ = random_clifford_t_circuit(n, int(rng.integers(0, 3)), rng)
        got = simulate_circuit(circ).amplitudes
        want = helpers.matrix_simulate(circ)
        assert np.allclose(got, want, atol=1e-12)


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))  # wrong length
    sv = StateVector(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        sv.amplitudes[0] = 0.5  # read-only after construction


def test_simulate_cap():
    assert simulate_circuit(Circuit(12, ())).n == 12  # at the cap is allowed
    with pytest.raises(CapExceededError):
        simulate_circuit(Circuit(13, ()))
    # A 13-qubit state is only 8192 amplitudes; the 4^n table and the SVD
    # oracle refuse it anyway.
    wide = StateVector(13, np.eye(1, 1 << 13).ravel())
    with pytest.raises(CapExceededError):
        characteristic_distribution(wide)
    with pytest.raises(CapExceededError):
        entanglement_entropy_oracle(wide, Cut(13, {1}))


def test_characteristic_examples():
    zero = simulate_circuit(Circuit.from_ops(1))
    dist = characteristic_distribution(zero)
    assert dist.prob(from_pauli_string("I")) == pytest.approx(0.5)
    assert dist.prob(from_pauli_string("Z")) == pytest.approx(0.5)
    assert dist.prob(from_pauli_string("X")) == pytest.approx(0.0)
    assert dist.prob(from_pauli_string("Y")) == pytest.approx(0.0)

    epr = simulate_circuit(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    dist = characteristic_distribution(epr)
    for s in ("II", "XX", "YY", "ZZ"):
        assert dist.prob(from_pauli_string(s)) == pytest.approx(0.25)
    assert dist.prob(from_pauli_string("XI")) == pytest.approx(0.0)


def test_characteristic_matches_expectations():
    # dual route: WHT table vs one-at-a-time expectations
    rng = np.random.default_rng(31)
    for _ in range(8):
        n = int(rng.integers(1, 3))
        circ = random_clifford_t_circuit(n, int(rng.integers(0, 2)), rng)
        psi = simulate_circuit(circ)
        dist = characteristic_distribution(psi)
        for v in helpers.all_vectors(n):
            want = weyl_expectation(v, psi) ** 2 / (1 << n)
            assert dist.prob(v) == pytest.approx(want, abs=1e-12)


def test_characteristic_sums_to_one():
    rng = np.random.default_rng(32)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        circ = random_clifford_t_circuit(n, int(rng.integers(0, 4)), rng)
        dist = characteristic_distribution(simulate_circuit(circ))
        assert float(dist.p.sum()) == pytest.approx(1.0, abs=1e-9)
        assert (dist.p >= 0).all()


def test_bell_samples_support_on_stabilizer_group():
    circ = Circuit.from_ops(3, ("H", 1), ("CNOT", 1, 2), ("S", 2), ("H", 3))
    psi = simulate_circuit(circ)
    dist = characteristic_distribution(psi)
    rng = np.random.default_rng(33)
    samples = bell_difference_sample_bits(dist, rng, 500)
    group = simulate_clifford(circ)
    for b in samples:
        for row in group.rows:
            assert symplectic_product(SympVec(3, int(b)), row) == 0


def test_bell_samples_epr_group_only():
    epr = simulate_circuit(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    dist = characteristic_distribution(epr)
    rng = np.random.default_rng(34)
    allowed = {from_pauli_string(s).bits for s in ("II", "XX", "YY", "ZZ")}
    assert set(
        int(b) for b in bell_difference_sample_bits(dist, rng, 2000)
    ) <= allowed


def test_bell_sample_frequencies():
    zero = simulate_circuit(Circuit.from_ops(1))
    dist = characteristic_distribution(zero)
    rng = np.random.default_rng(35)
    bits = bell_difference_sample_bits(dist, rng, 10_000)
    vals, counts = np.unique(bits, return_counts=True)
    freq = dict(zip((int(v) for v in vals), counts / 10_000))
    assert set(freq) <= {0b00, 0b10}  # I and Z only
    # three-sigma band around 1/2 at 1e4 draws
    assert abs(freq.get(0b00, 0.0) - 0.5) < 3 * 0.005
    assert abs(freq.get(0b10, 0.0) - 0.5) < 3 * 0.005


def test_bell_sample_tv_against_convolution():
    circ = Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2), ("T", 2))
    dist = characteristic_distribution(simulate_circuit(circ))
    q = helpers.convolve_q(dist.p)
    rng = np.random.default_rng(36)
    count = 100_000
    bits = bell_difference_sample_bits(dist, rng, count)
    emp = np.bincount(bits.astype(np.int64), minlength=len(q)) / count
    tv = 0.5 * float(np.abs(emp - q).sum())
    assert tv < 0.02


def test_bell_sample_determinism_and_wrapper():
    dist = characteristic_distribution(
        simulate_circuit(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    )
    a = bell_difference_sample_bits(dist, np.random.default_rng(37), 100)
    b = bell_difference_sample_bits(dist, np.random.default_rng(37), 100)
    assert (a == b).all()
    assert a.dtype == np.uint64 and a.shape == (100,)


def test_entropy_examples():
    epr = simulate_circuit(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    assert entanglement_entropy_oracle(epr, Cut(2, {1})) == pytest.approx(1.0)

    zeros = simulate_circuit(Circuit.from_ops(2))
    assert entanglement_entropy_oracle(zeros, Cut(2, {1})) == pytest.approx(0.0)

    # CZ (H x H)|00> as H1; CNOT 1 2; H2 -- a two-qubit graph state
    graph = simulate_circuit(
        Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2), ("H", 2))
    )
    assert entanglement_entropy_oracle(graph, Cut(2, {1})) == pytest.approx(1.0)


def test_entropy_symmetry_and_eig_oracle():
    rng = np.random.default_rng(38)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        circ = random_clifford_t_circuit(n, int(rng.integers(0, 3)), rng)
        psi = simulate_circuit(circ)
        a = frozenset(
            int(q) + 1 for q in rng.choice(n, size=int(rng.integers(1, n)),
                                           replace=False)
        )
        cut = Cut(n, a)
        s_a = entanglement_entropy_oracle(psi, cut)
        s_b = entanglement_entropy_oracle(psi, Cut(n, cut.b))
        assert s_a == pytest.approx(s_b, abs=1e-9)
        assert s_a == pytest.approx(helpers.reduced_density_entropy(psi, cut),
                                    abs=1e-9)


def test_entropy_invariant_under_cut_local_cliffords():
    rng = np.random.default_rng(39)
    for _ in range(10):
        n = 4
        circ = random_clifford_t_circuit(n, 1, rng)
        cut = Cut(n, {1, 2})
        base = entanglement_entropy_oracle(simulate_circuit(circ), cut)
        # extend with gates that stay inside one side of the cut
        local = [("H", 1), ("S", 2), ("CNOT", 2, 1), ("CNOT", 3, 4), ("H", 4)]
        extended = Circuit(
            n, circ.gates + tuple(Gate(nm, tuple(qs)) for nm, *qs in local)
        )
        after = entanglement_entropy_oracle(simulate_circuit(extended), cut)
        assert after == pytest.approx(base, abs=1e-9)


def test_oracle_cut_mismatch():
    psi = simulate_circuit(Circuit.from_ops(2))
    with pytest.raises(ValueError):
        entanglement_entropy_oracle(psi, Cut(3, {1}))
