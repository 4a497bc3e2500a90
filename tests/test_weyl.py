"""Weyl operator action, expectations, and the brute-force group oracle."""

from __future__ import annotations

import numpy as np
import pytest

import helpers
from stabent import (
    CapExceededError,
    Circuit,
    StateVector,
    SympVec,
    apply_weyl,
    from_pauli_string,
    is_isotropic,
    random_clifford_t_circuit,
    simulate_circuit,
    span,
    symplectic_product,
    to_pauli_string,
    weyl_expectation,
    weyl_group_oracle,
)

_SQRT1_2 = 1 / np.sqrt(2)


def _state(*amps):
    arr = np.array(amps, dtype=complex)
    return StateVector(int(np.log2(len(arr))), arr)


def test_apply_examples():
    zero = _state(1, 0)
    out = apply_weyl(from_pauli_string("X"), zero)
    assert np.allclose(out.amplitudes, [0, 1])

    out = apply_weyl(from_pauli_string("Y"), zero)  # (1|1): iXZ = Y
    assert np.allclose(out.amplitudes, [0, 1j])

    plus = _state(_SQRT1_2, _SQRT1_2)
    out = apply_weyl(from_pauli_string("Z"), plus)
    assert np.allclose(out.amplitudes, [_SQRT1_2, -_SQRT1_2])


def test_apply_matches_dense_weyl_matrix():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        for _ in range(15):
            circ = random_clifford_t_circuit(n, int(rng.integers(0, 3)), rng)
            psi = simulate_circuit(circ)
            v = SympVec(n, helpers.rand_bits(rng, 2 * n))
            got = apply_weyl(v, psi).amplitudes
            want = helpers.weyl_matrix(v) @ psi.amplitudes
            assert np.allclose(got, want, atol=1e-12)


def test_apply_involution_and_commutation():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        circ = random_clifford_t_circuit(n, int(rng.integers(0, 2)), rng)
        psi = simulate_circuit(circ)
        v = SympVec(n, helpers.rand_bits(rng, 2 * n))
        u = SympVec(n, helpers.rand_bits(rng, 2 * n))
        # involution
        back = apply_weyl(v, apply_weyl(v, psi))
        assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-12)
        # commutation up to (-1)^[v,u]
        vu = apply_weyl(v, apply_weyl(u, psi)).amplitudes
        uv = apply_weyl(u, apply_weyl(v, psi)).amplitudes
        sign = (-1.0) ** symplectic_product(v, u)
        assert np.allclose(vu, sign * uv, atol=1e-12)


def test_expectation_examples():
    zero = _state(1, 0)
    assert weyl_expectation(from_pauli_string("Z"), zero) == pytest.approx(1.0)
    assert weyl_expectation(from_pauli_string("X"), zero) == pytest.approx(0.0)
    epr = _state(_SQRT1_2, 0, 0, _SQRT1_2)
    assert weyl_expectation(from_pauli_string("XX"), epr) == pytest.approx(1.0)


def test_group_oracle_examples():
    zeros3 = simulate_circuit(Circuit.from_ops(3))
    g = weyl_group_oracle(zeros3)
    assert g.provenance == "exact-oracle"
    assert g.subspace == span(
        [from_pauli_string(s) for s in ("ZII", "IZI", "IIZ")]
    )

    epr = simulate_circuit(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    g = weyl_group_oracle(epr)
    assert [to_pauli_string(v) for v in g.subspace.basis] == ["XX", "ZZ"]

    # T|+> on qubit 1, |0> on qubit 2: only IZ survives
    magic = simulate_circuit(Circuit.from_ops(2, ("H", 1), ("T", 1)))
    g = weyl_group_oracle(magic)
    assert g.dim == 1
    assert [to_pauli_string(v) for v in g.subspace.basis] == ["IZ"]


def test_group_oracle_closure_and_isotropy():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        circ = random_clifford_t_circuit(n, int(rng.integers(0, 3)), rng)
        psi = simulate_circuit(circ)
        group = weyl_group_oracle(psi)
        # independent route: per-vector expectations
        hits = [
            v
            for v in helpers.all_vectors(n)
            if abs(weyl_expectation(v, psi)) >= 1 - 1e-9
        ]
        assert span(hits, n=n) == group.subspace
        assert len(hits) == 1 << group.dim  # hit set closed under addition
        assert is_isotropic(group.subspace)


def test_stabilizer_dimension_lower_bound():
    # Clifford circuit with t non-Clifford gates keeps dimension >= n - 2t
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(0, 4))
        circ = random_clifford_t_circuit(n, t, rng)
        psi = simulate_circuit(circ)
        assert weyl_group_oracle(psi).dim >= n - 2 * t


def test_group_estimate_validation():
    from stabent import StabilizerGroupEstimate, Subspace

    iso = span([from_pauli_string("XX"), from_pauli_string("ZZ")])
    StabilizerGroupEstimate(iso, "tableau")
    with pytest.raises(ValueError):
        StabilizerGroupEstimate(Subspace.full(2), "tableau")  # not isotropic
    with pytest.raises(ValueError):
        StabilizerGroupEstimate(iso, "guessed")  # unknown provenance


def test_cap_and_mismatch_errors():
    zero = _state(1, 0)
    with pytest.raises(ValueError):
        apply_weyl(from_pauli_string("XX"), zero)
    wide = StateVector(13, np.eye(1, 1 << 13).ravel())
    with pytest.raises(CapExceededError):
        weyl_group_oracle(wide)  # 4^13 expectations
    # One operator on a state already in memory is O(2^n): no cap applies.
    x1 = from_pauli_string("X" + "I" * 12)
    assert apply_weyl(x1, wide).amplitudes[1 << 12] == 1
    assert weyl_expectation(from_pauli_string("Z" * 13), wide) == 1.0
