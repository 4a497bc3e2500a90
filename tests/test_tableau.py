"""Tableau simulation, cross-backend agreement, and vector conjugation."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from stabent import (
    Circuit,
    Gate,
    SympVec,
    Tableau,
    conjugate_vector,
    from_pauli_string,
    is_isotropic,
    random_clifford_circuit,
    simulate_circuit,
    simulate_clifford,
    symplectic_product,
    to_pauli_string,
    weyl_group_from_tableau,
    weyl_group_oracle,
)


def test_empty_circuit():
    tab = simulate_clifford(Circuit.from_ops(3))
    rows = helpers.tableau_rows(tab)
    assert [to_pauli_string(v) for v in rows] == ["ZII", "IZI", "IIZ"]
    assert tab.signs == (0, 0, 0)


def test_h_gate():
    tab = simulate_clifford(Circuit.from_ops(1, ("H", 1)))
    assert to_pauli_string(helpers.tableau_rows(tab)[0]) == "X"
    assert tab.signs == (0,)


def test_epr():
    tab = simulate_clifford(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    assert {to_pauli_string(v) for v in helpers.tableau_rows(tab)} == {"XX", "ZZ"}
    assert tab.signs == (0, 0)


def test_rejects_non_clifford():
    with pytest.raises(ValueError):
        simulate_clifford(Circuit.from_ops(1, ("T", 1)))


def test_rows_isotropic_and_full_rank():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        tab = simulate_clifford(random_clifford_circuit(n, rng))
        group = weyl_group_from_tableau(tab)
        assert group.provenance == "tableau"
        assert group.dim == n
        assert is_isotropic(group.subspace)


def test_rows_stay_valid_after_every_gate():
    # the Tableau constructor enforces commuting rank-n rows, so building
    # the tableau of every circuit prefix checks the invariant gate by gate
    rng = np.random.default_rng(25)
    circ = random_clifford_circuit(5, rng, n_gates=40)
    for cutoff in range(len(circ.gates) + 1):
        simulate_clifford(Circuit(5, circ.gates[:cutoff]))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130])
def test_rows_are_conjugated_z_at_byte_and_word_boundaries(n):
    # row q-1 starts as Z_q, so it must end as C(Z_q)
    circ = random_clifford_circuit(n, np.random.default_rng(26 + n), n_gates=10 * n)
    rows = helpers.tableau_rows(simulate_clifford(circ))
    for q in range(1, n + 1):
        z_q = from_pauli_string("I" * (q - 1) + "Z" + "I" * (n - q))
        assert rows[q - 1] == conjugate_vector(circ, z_q)


def test_tableau_rejects_row_anticommuting_only_with_last_row():
    # the only odd pair is (first row, last row), found in the last block
    n = 300
    circ = random_clifford_circuit(n, np.random.default_rng(27), n_gates=10 * n)
    rows = helpers.tableau_rows(simulate_clifford(circ))
    # C(X_n) anticommutes with C(Z_n) = rows[-1] and commutes with the rest
    rows[0] ^= conjugate_vector(circ, from_pauli_string("I" * (n - 1) + "X"))
    assert [symplectic_product(rows[0], r) for r in rows[1:]] == [0] * (n - 2) + [1]
    with pytest.raises(ValueError, match="isotropic"):
        Tableau(n, [v.bits for v in rows], (0,) * n)


def test_rows_are_a_read_only_packed_matrix():
    n = 70  # three uint64 words per 140-bit row
    tab = simulate_clifford(random_clifford_circuit(n, np.random.default_rng(29)))
    assert tab.rows.dtype == np.uint64 and tab.rows.shape == (n, 3)
    assert not tab.rows.flags.writeable
    with pytest.raises(ValueError):
        tab.rows[0, 0] = 0
    # the packed form and the int form of the rows build the same group
    again = Tableau(n, [v.bits for v in helpers.tableau_rows(tab)], tab.signs)
    assert np.array_equal(again.rows, tab.rows)
    assert again.group.subspace == tab.group.subspace


def test_simulate_clifford_peak_memory_is_small():
    # the 2n x n tableau unpacked to one byte per bit would be 2 MB alone at
    # n = 1000; blocked unpacking keeps the peak near the packed columns
    n = 1000
    circ = random_clifford_circuit(n, np.random.default_rng(28), n_gates=10 * n)
    tracemalloc.start()
    try:
        simulate_clifford(circ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


@pytest.mark.parametrize(
    "n, rows, signs",
    [
        (2, ("XI", "ZI"), (0, 0)),  # anticommuting
        (2, ("ZI", "ZI"), (0, 0)),  # dependent
        (2, ("ZI",), (0,)),  # wrong row count
        (2, ("ZI", "IZ"), (0,)),  # wrong sign count
        (2, ("ZI", "IZI"), (0, 0)),  # a row over the wrong n
        (2, ("ZIZ", "IZI"), (0, 0)),  # every row over the wrong n
    ],
    ids=["anticommuting", "dependent", "rows", "signs", "row-n", "all-n"],
)
def test_tableau_rejects_invalid_rows(n, rows, signs):
    bits = [from_pauli_string(r).bits for r in rows]
    # as ints, and as a packed matrix: every case fits one uint64 word
    for form in (bits, np.array(bits, dtype=np.uint64)[:, None]):
        with pytest.raises(ValueError):
            Tableau(n, form, signs)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.integers(0, 4**n - 1), min_size=n, max_size=n).map(
            lambda bits: (n, bits)
        )
    )
)
def test_tableau_accepts_iff_independent_and_commuting(case):
    n, bits = case
    rows = tuple(SympVec(n, b) for b in bits)
    mats = [helpers.weyl_matrix(v) for v in rows]
    valid = helpers.dense_gf2_rank(bits, 2 * n) == n and all(
        np.allclose(u @ w, w @ u) for u, w in itertools.combinations(mats, 2)
    )
    if valid:
        assert Tableau(n, bits, (0,) * n).group.dim == n
    else:
        with pytest.raises(ValueError):
            Tableau(n, bits, (0,) * n)


def test_group_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        circ = random_clifford_circuit(n, rng)
        from_tableau = weyl_group_from_tableau(simulate_clifford(circ))
        from_dense = weyl_group_oracle(simulate_circuit(circ))
        assert from_tableau.subspace == from_dense.subspace


def test_signed_generators_stabilize_dense_state():
    # (-1)^sign W_row |psi> = |psi> pins the tracked sign convention
    # (rows carry literal Y at a=b=1 positions, i.e. the i^(a.b) phase).
    rng = np.random.default_rng(22)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        circ = random_clifford_circuit(n, rng)
        tab = simulate_clifford(circ)
        psi = simulate_circuit(circ)
        for row, sign in zip(helpers.tableau_rows(tab), tab.signs):
            applied = helpers.weyl_matrix(row) @ psi.amplitudes
            assert np.allclose((-1.0) ** sign * applied, psi.amplitudes, atol=1e-10)


def test_conjugate_examples():
    h = Circuit.from_ops(1, ("H", 1))
    assert conjugate_vector(h, from_pauli_string("X")) == from_pauli_string("Z")
    cnot = Circuit.from_ops(2, ("CNOT", 1, 2))
    assert conjugate_vector(cnot, from_pauli_string("XI")) == from_pauli_string("XX")


def test_conjugate_preserves_product_and_addition():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        circ = random_clifford_circuit(n, rng)
        x = SympVec(n, helpers.rand_bits(rng, 2 * n))
        y = SympVec(n, helpers.rand_bits(rng, 2 * n))
        cx, cy = conjugate_vector(circ, x), conjugate_vector(circ, y)
        assert symplectic_product(cx, cy) == symplectic_product(x, y)
        assert conjugate_vector(circ, x ^ y) == cx ^ cy


def test_conjugate_matches_dense_conjugation():
    # W_{C(x)} = +- C W_x C^dagger, checked against explicit matrices
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        circ = random_clifford_circuit(n, rng, n_gates=8)
        u = helpers.matrix_simulate_unitary(circ)
        x = SympVec(n, helpers.rand_bits(rng, 2 * n))
        conjugated = u @ helpers.weyl_matrix(x) @ u.conj().T
        want = helpers.weyl_matrix(conjugate_vector(circ, x))
        ratio = conjugated @ np.linalg.inv(want)
        assert np.allclose(ratio, ratio[0, 0] * np.eye(1 << n), atol=1e-10)
        assert abs(abs(ratio[0, 0]) - 1.0) < 1e-10
        assert abs(ratio[0, 0].imag) < 1e-10  # sign only, never +-i


def test_gate_index_validation():
    with pytest.raises(ValueError):
        Circuit.from_ops(2, ("CNOT", 1, 5))
    with pytest.raises(ValueError):
        Circuit.from_ops(2, ("Q", 1))
    # A Gate is a plain record; the Circuit it joins checks it.
    for gate, message in [
        (Gate("H", (1, 2)), "takes 1 qubit"),
        (Gate("CNOT", (2,)), "takes 2 qubit"),
        (Gate("CNOT", (2, 2)), "must be distinct"),
    ]:
        with pytest.raises(ValueError, match=message):
            Circuit(2, (gate,))
