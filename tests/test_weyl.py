"""Weyl operator action, expectations, and the brute-force group oracle."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from stabent import (
    CapExceededError,
    Circuit,
    StateVector,
    SympVec,
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
from stabent import weyl
from stabent.weyl import _wht_rows, expectation_rows

_SQRT1_2 = 1 / np.sqrt(2)


def _state(*amps):
    arr = np.array(amps, dtype=complex)
    return StateVector(int(np.log2(len(arr))), arr)


def test_expectation_phase_examples():
    # (1|1) is iXZ = Y, so the Y eigenstates |+-i> have <W> = +-1; a dropped
    # i^(a.b) phase would make these expectations imaginary
    plus_i = _state(_SQRT1_2, 1j * _SQRT1_2)
    minus_i = _state(_SQRT1_2, -1j * _SQRT1_2)
    y = from_pauli_string("Y")
    assert weyl_expectation(y, plus_i) == pytest.approx(1.0)
    assert weyl_expectation(y, minus_i) == pytest.approx(-1.0)
    for psi, want in ((plus_i, 1.0), (minus_i, -1.0)):
        dense = np.vdot(psi.amplitudes, helpers.weyl_matrix(y) @ psi.amplitudes)
        assert dense == pytest.approx(want)

    plus = _state(_SQRT1_2, _SQRT1_2)
    assert weyl_expectation(from_pauli_string("X"), plus) == pytest.approx(1.0)
    assert weyl_expectation(from_pauli_string("Z"), plus) == pytest.approx(0.0)


def test_expectation_matches_dense_weyl_matrix():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        for _ in range(15):
            psi = _random_state(n, rng)
            v = SympVec(n, helpers.rand_bits(rng, 2 * n))
            want = np.vdot(psi.amplitudes, helpers.weyl_matrix(v) @ psi.amplitudes)
            assert abs(want.imag) < 1e-12
            assert weyl_expectation(v, psi) == pytest.approx(want.real, abs=1e-12)


def test_expectation_involution_and_commutation():
    # on W_u|psi>, <W_v> is <psi| W_u W_v W_u |psi> = (-1)^[u,v] <psi|W_v|psi>:
    # W_u squares to 1 (u = v) and commutes with W_v up to (-1)^[u,v]
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        psi = _random_state(n, rng)
        v = SympVec(n, helpers.rand_bits(rng, 2 * n))
        u = SympVec(n, helpers.rand_bits(rng, 2 * n))
        for w, sign in ((u, (-1.0) ** symplectic_product(v, u)), (v, 1.0)):
            moved = StateVector(n, helpers.weyl_matrix(w) @ psi.amplitudes)
            want = sign * weyl_expectation(v, psi)
            assert weyl_expectation(v, moved) == pytest.approx(want, abs=1e-12)


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
        weyl_expectation(from_pauli_string("XX"), zero)
    wide = StateVector(13, np.eye(1, 1 << 13).ravel())
    with pytest.raises(CapExceededError):
        weyl_group_oracle(wide)  # 4^13 expectations
    # One operator on a state already in memory is O(2^n): no cap applies.
    assert weyl_expectation(from_pauli_string("Z" * 13), wide) == 1.0
    # |+> on qubit 1, the top index bit: X there is a stabilizer
    plus1 = np.zeros(1 << 13)
    plus1[[0, 1 << 12]] = _SQRT1_2
    x1 = from_pauli_string("X" + "I" * 12)
    assert weyl_expectation(x1, StateVector(13, plus1)) == pytest.approx(1.0)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 12),
    rows=st.integers(1, 4),
    complex_rows=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=11, rows=3, complex_rows=True, seed=0)  # odd n: 2^5 x 2^6 factors
@example(n=12, rows=2, complex_rows=False, seed=1)
def test_wht_rows_matches_butterflies(n, rows, complex_rows, seed):
    rng = np.random.default_rng(seed)
    mat = rng.uniform(-1.0, 1.0, (rows, 1 << n))
    if complex_rows:
        mat = mat + 1j * rng.uniform(-1.0, 1.0, (rows, 1 << n))
    got = _wht_rows(mat)
    assert got.dtype == mat.dtype and got.shape == mat.shape
    assert np.allclose(got, helpers.wht_butterfly(mat), rtol=0.0, atol=1e-12)


def _random_state(n: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    drawn=st.lists(st.integers(0, 2**7 - 1), max_size=6),
)
def test_expectation_rows_match_unfolded_rows_and_single_expectations(n, seed, drawn):
    """Every X half: 0, each top bit, repeats, in shuffled order; signs kept."""
    rng = np.random.default_rng(seed)
    psi = _random_state(n, rng)
    size = 1 << n
    tops = [(1 << j) + int(rng.integers(0, 1 << j)) for j in range(n)]
    a_values = rng.permutation([0, *tops, tops[-1], *(a % size for a in drawn)])
    got = expectation_rows(psi.amplitudes, a_values)
    assert got.shape == (len(a_values), size) and got.dtype == np.float64
    want = helpers.expectation_rows_complex(psi.amplitudes, a_values)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    for row, a in zip(got, a_values):
        single = [
            weyl_expectation(SympVec(n, (b << n) | int(a)), psi) for b in range(size)
        ]
        assert np.allclose(row, single, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("start", [0, 2048])
def test_expectation_rows_match_unfolded_rows_at_the_cap(start):
    """The sampler's first batch (every top bit up to 6) and a batch whose
    rows all have top bit 11, on a Clifford+T state at n = 12."""
    psi = simulate_circuit(random_clifford_t_circuit(12, 2, np.random.default_rng(7)))
    a_values = np.arange(start, start + 128)
    got = expectation_rows(psi.amplitudes, a_values)
    want = helpers.expectation_rows_complex(psi.amplitudes, a_values)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "a_values", [[-1], [4], np.array([-1]), np.array([4], dtype=np.uint64), [1.0]]
)
def test_expectation_rows_reject_x_halves_out_of_range(a_values):
    psi = _random_state(2, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"in \[0, 4\)"):
        expectation_rows(psi.amplitudes, a_values)


def test_expectation_rows_check_their_energy(monkeypatch):
    psi = _random_state(5, np.random.default_rng(1))
    real_wht = weyl._wht_rows
    monkeypatch.setattr(weyl, "_wht_rows", lambda mat: 0.5 * real_wht(mat))
    for a_values in ([0], [3], [16, 17]):
        with pytest.raises(RuntimeError, match="energy"):
            expectation_rows(psi.amplitudes, a_values)


def test_expectation_rows_batch_memory():
    """One 128-row batch at n = 12 returns 4 MiB and allocates at most ~6x that."""
    psi = simulate_circuit(random_clifford_t_circuit(12, 2, np.random.default_rng(8)))
    for start in (0, 2048):
        a_values = np.arange(start, start + 128)
        tracemalloc.start()
        try:
            rows = expectation_rows(psi.amplitudes, a_values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.nbytes == 4 << 20
        assert peak < 6 * rows.nbytes, peak
