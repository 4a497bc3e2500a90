"""Dense backend: simulation, characteristic distribution, Bell sampling,
and the entanglement entropy oracle."""

from __future__ import annotations

import contextlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from stabent import (
    DEFAULT_DENSE_CAP,
    CapExceededError,
    Circuit,
    Cut,
    EstimatorParams,
    Gate,
    StateVector,
    Subspace,
    SympVec,
    bell_difference_sample_bits,
    characteristic_distribution,
    default_epsilon,
    entanglement_entropy_oracle,
    estimate_entropy,
    from_pauli_string,
    random_clifford_t_circuit,
    required_sample_count,
    simulate_circuit,
    simulate_clifford,
    symplectic_complement,
    symplectic_product,
    weyl_expectation,
    weyl_group_oracle,
)
from stabent import estimator, statevector, weyl

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
    # A 13-qubit state is only 8192 amplitudes; the dense sampler and the SVD
    # oracle refuse it anyway.
    wide = StateVector(13, np.eye(1, 1 << 13).ravel())
    with pytest.raises(CapExceededError):
        characteristic_distribution(wide)
    with pytest.raises(CapExceededError):
        entanglement_entropy_oracle(wide, Cut(13, {1}))


def test_characteristic_examples():
    zero = simulate_circuit(Circuit.from_ops(1))
    table = helpers.characteristic_table(zero)
    assert table[from_pauli_string("I").bits] == pytest.approx(0.5)
    assert table[from_pauli_string("Z").bits] == pytest.approx(0.5)
    assert table[from_pauli_string("X").bits] == pytest.approx(0.0)
    assert table[from_pauli_string("Y").bits] == pytest.approx(0.0)

    epr = simulate_circuit(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    table = helpers.characteristic_table(epr)
    for s in ("II", "XX", "YY", "ZZ"):
        assert table[from_pauli_string(s).bits] == pytest.approx(0.25)
    assert table[from_pauli_string("XI").bits] == pytest.approx(0.0)


def test_characteristic_matches_expectations():
    # dual route: WHT expectation rows vs one-at-a-time expectations
    rng = np.random.default_rng(31)
    for _ in range(8):
        n = int(rng.integers(1, 3))
        circ = random_clifford_t_circuit(n, int(rng.integers(0, 2)), rng)
        psi = simulate_circuit(circ)
        table = helpers.characteristic_table(psi)
        for v in helpers.all_vectors(n):
            want = weyl_expectation(v, psi) ** 2 / (1 << n)
            assert table[v.bits] == pytest.approx(want, abs=1e-12)


def test_characteristic_sums_to_one():
    rng = np.random.default_rng(32)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        circ = random_clifford_t_circuit(n, int(rng.integers(0, 4)), rng)
        psi = simulate_circuit(circ)
        table = helpers.characteristic_table(psi)
        assert float(table.sum()) == pytest.approx(1.0, abs=1e-9)
        assert (table >= 0).all()
        dist = characteristic_distribution(psi)
        assert float(dist.marginal.sum()) == pytest.approx(1.0, abs=1e-9)
        assert (dist.marginal >= 0).all()


def test_marginal_matches_table_x_sums():
    # autocorrelation of |psi|^2 vs summing the 4^n table over Z halves
    rng = np.random.default_rng(40)
    for _ in range(24):
        n = int(rng.integers(1, 7))
        circ = random_clifford_t_circuit(n, int(rng.integers(0, 4)), rng)
        psi = simulate_circuit(circ)
        dist = characteristic_distribution(psi)
        size = 1 << n
        x_sums = helpers.characteristic_table(psi).reshape(size, size).sum(axis=0)
        assert np.allclose(dist.marginal, x_sums, rtol=0.0, atol=1e-12)


def test_characteristic_distribution_holds_no_table():
    """At the dense cap, computing the marginal takes O(2^n) memory and
    drawing the default sample count O(2^n * block + samples); building the
    4^n table and its cdf peaks near 370 MB."""
    n = DEFAULT_DENSE_CAP
    psi = simulate_circuit(random_clifford_t_circuit(n, 2, np.random.default_rng(41)))
    count = required_sample_count(n, default_epsilon(n), 0.125)
    tracemalloc.start()
    try:
        dist = characteristic_distribution(psi)
        dist_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        bits = bell_difference_sample_bits(dist, np.random.default_rng(42), count)
        sample_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits.shape == (count,)
    assert dist_peak < 1_000_000, dist_peak
    assert sample_peak < 200_000_000, sample_peak


def test_group_draw_peak_memory_is_small():
    """At the dense cap with the default count, a group-path draw holds its
    8-byte samples and one chunk of temporaries, at most one row batch's
    bytes. A sampler that sorted the cells, counted the draws' multiset and
    shuffled it peaked at 12.2 MB traced on this draw (11.9-12.1 MB on
    four other t = 2 states)."""
    n = DEFAULT_DENSE_CAP
    psi = simulate_circuit(random_clifford_t_circuit(n, 2, np.random.default_rng(41)))
    dist = characteristic_distribution(psi)
    assert _on_group_path(dist)
    count = required_sample_count(n, default_epsilon(n), 0.125)
    tracemalloc.start()
    try:
        bits = bell_difference_sample_bits(dist, np.random.default_rng(42), count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits.shape == (count,)
    assert peak <= 8 * count + weyl._ROW_BLOCK_BYTES, peak
    assert peak < 11_400_000


@pytest.mark.parametrize("count", [0, 1, 5, 70_000])
def test_group_draw_of_a_stabilizer_state(count):
    """A stabilizer state has one coset, G itself, and q is uniform on it:
    every count, none and more than one chunk included, gives that many
    uint64 samples, each in G."""
    n = 5
    circ = random_clifford_t_circuit(n, 0, np.random.default_rng(48))
    dist = characteristic_distribution(simulate_circuit(circ))
    gens, reps, _ = statevector._cells_from_group(dist)
    assert gens.size == n and reps.size == 1
    bits = bell_difference_sample_bits(dist, np.random.default_rng(49), count)
    assert bits.dtype == np.uint64 and bits.shape == (count,)
    group = set(_span_of(v.bits for v in helpers.tableau_rows(simulate_clifford(circ))))
    assert set(bits.tolist()) <= group
    if count == 70_000:
        assert len(set(bits.tolist())) == 1 << n


def test_bell_samples_support_on_stabilizer_group():
    circ = Circuit.from_ops(3, ("H", 1), ("CNOT", 1, 2), ("S", 2), ("H", 3))
    psi = simulate_circuit(circ)
    dist = characteristic_distribution(psi)
    rng = np.random.default_rng(33)
    samples = bell_difference_sample_bits(dist, rng, 500)
    rows = helpers.tableau_rows(simulate_clifford(circ))
    for b in samples:
        for row in rows:
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
    psi = simulate_circuit(circ)
    dist = characteristic_distribution(psi)
    q = helpers.convolve_q(helpers.characteristic_table(psi))
    rng = np.random.default_rng(36)
    count = 100_000
    bits = bell_difference_sample_bits(dist, rng, count)
    emp = np.bincount(bits.astype(np.int64), minlength=len(q)) / count
    tv = 0.5 * float(np.abs(emp - q).sum())
    assert tv < 0.02


def test_sampler_rejects_rows_that_miss_the_marginal(monkeypatch):
    epr = simulate_circuit(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    dist = characteristic_distribution(epr)
    real_rows = statevector.expectation_rows
    monkeypatch.setattr(
        statevector, "expectation_rows", lambda amps, a: 0.5 * real_rows(amps, a)
    )
    with pytest.raises(RuntimeError, match="X marginal"):
        bell_difference_sample_bits(dist, np.random.default_rng(0), 10)


def test_sampler_checks_rows_it_does_not_draw():
    """A marginal that drops the EPR X half 11 draws only X half 00, whose
    row still matches; the check of row 11 against its zero must fail."""
    epr = simulate_circuit(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    dropped = statevector.CharacteristicDistribution(
        2, epr.amplitudes, np.array([0.5, 0.0, 0.0, 0.0])
    )
    with pytest.raises(RuntimeError, match="X marginal"):
        bell_difference_sample_bits(dropped, np.random.default_rng(0), 10)


def _count_rows(monkeypatch) -> list[int]:
    """Patch the sampler's row kernel to log how many rows each call asks for."""
    real_rows = statevector.expectation_rows
    rows: list[int] = []

    def counted(amps, a_values):
        rows.append(len(a_values))
        return real_rows(amps, a_values)

    monkeypatch.setattr(statevector, "expectation_rows", counted)
    return rows


def test_sampler_work_does_not_depend_on_the_state(monkeypatch):
    """|0^n> has one X half in the support of p_X, H on every qubit has all
    2^n, and a Clifford+T state with t = 2 some in between. Each draw reads
    its cells off the state's Weyl group G from at most n + 1 rows that
    find G, dim G <= n rows that check it, and 4^(n - dim G) <= 4^t rows at
    coset representatives: 2n + 1 + 4^t, whatever the support."""
    rows = _count_rows(monkeypatch)
    n = 6
    plus = Circuit.from_ops(n, *(("H", q) for q in range(1, n + 1)))
    magic = random_clifford_t_circuit(n, 2, np.random.default_rng(43))
    supports = []
    for circ in (Circuit.from_ops(n), plus, magic):
        rows.clear()
        dist = characteristic_distribution(simulate_circuit(circ))
        bell_difference_sample_bits(dist, np.random.default_rng(0), 100)
        assert sum(rows) <= 2 * n + 1 + 4**circ.t
        supports.append(np.count_nonzero(dist.marginal))
    assert supports[:2] == [1, 1 << n] and 1 < supports[2] < 1 << n


@pytest.mark.parametrize("state", ["magic", "generic"])
def test_sampler_falls_back_to_rows_on_the_support(monkeypatch, state):
    """Where the cosets of G in Weyl(psi)^perp do not fit one row batch (a
    generic state has G = {0}; with one row per batch, any non-stabilizer
    state), the draw computes the rows of the support of p_X, after at most
    n + 1 rows spent finding G."""
    rows = _count_rows(monkeypatch)
    n = 6
    if state == "magic":
        psi = simulate_circuit(random_clifford_t_circuit(n, 2, np.random.default_rng(40)))
        batch = 1
    else:
        psi, batch = _generic_state(n, 3), None
    dist = characteristic_distribution(psi)
    support = np.count_nonzero(dist.marginal)
    with _rows_per_batch(n, batch):
        assert statevector._cells_from_group(dist) is None
        rows.clear()
        bell_difference_sample_bits(dist, np.random.default_rng(0), 100)
    assert support <= sum(rows) <= support + n + 1


def test_group_path_declines_a_group_of_non_stabilizers(monkeypatch):
    """If the rows meant to find G miss part of Weyl(psi)^perp, the group
    they give holds a non-stabilizer, and its generators' check sends the
    draw to the rows, which draw as the all-rows sampler does. Planted here
    by handing the sampler the whole space as G."""
    n = 5
    psi = simulate_circuit(random_clifford_t_circuit(n, 2, np.random.default_rng(45)))
    dist = characteristic_distribution(psi)
    assert weyl_group_oracle(psi).dim < n
    assert statevector._cells_from_group(dist) is not None
    monkeypatch.setattr(statevector, "symplectic_complement", lambda v: Subspace.full(v.n))
    assert statevector._cells_from_group(dist) is None
    got = bell_difference_sample_bits(dist, np.random.default_rng(1), 500)
    want = helpers.bell_difference_sample_bits_all_rows(dist, np.random.default_rng(1), 500)
    assert got.tobytes() == want.tobytes()


def test_group_path_declines_a_coset_the_marginal_cut(monkeypatch):
    """|10> + e(|01> + |11>) at e = 1e-6: p_X is ~2e-12 on X halves 01 and
    11, kept, and ~e^4 on 10, cut to zero; yet X half 10's row holds a
    cell above the cell cut. So p is not constant on the cosets the
    marginal leaves, and the group path, past its generator check, declines
    for the rows, which drop that X half's cells one by one."""
    amps = np.array([0.0, 1e-6, 1.0, 1e-6])
    dist = characteristic_distribution(StateVector(2, amps / np.linalg.norm(amps)))
    assert dist.marginal[0b10] == 0.0 and (dist.marginal[[0b01, 0b11]] > 0).all()
    table = helpers.characteristic_table(StateVector(2, dist.amplitudes))
    assert table.reshape(4, 4)[:, 0b10].max() * 4 > statevector._CELL_TOL
    real = statevector._expectations
    calls = []
    monkeypatch.setattr(
        statevector, "_expectations", lambda a, x: calls.append(len(x)) or real(a, x)
    )
    assert statevector._cells_from_group(dist) is None
    assert len(calls) == 2  # the generators, then the representatives
    got = bell_difference_sample_bits(dist, np.random.default_rng(2), 500)
    want = helpers.bell_difference_sample_bits_all_rows(dist, np.random.default_rng(2), 500)
    assert got.tobytes() == want.tobytes()


def test_group_path_checks_every_x_half_against_the_marginal():
    """A marginal off by half its value at any one support X half is
    caught by the group path itself: by the rows that find G where
    it computes that X half's row, and otherwise by its cells' row sums,
    with no fallback to the rows path."""
    n = 6
    psi = simulate_circuit(random_clifford_t_circuit(n, 2, np.random.default_rng(44)))
    dist = characteristic_distribution(psi)
    assert statevector._cells_from_group(dist) is not None
    support = np.flatnonzero(dist.marginal)
    assert support.size > n + 1  # more X halves than the rows that find G
    for a in support:
        marginal = dist.marginal.copy()
        marginal[a] *= 1.5
        off = statevector.CharacteristicDistribution(n, psi.amplitudes, marginal)
        with pytest.raises(RuntimeError, match="X marginal"):
            statevector._cells_from_group(off)


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_sampler_catches_a_support_x_half_the_marginal_dropped(rows):
    """Neither path trusts the marginal's zeros: the group path's row sums
    and the rows path's total-mass check must each catch a marginal that
    zeroes any one true-support X half (one row per batch, and three, send
    this state to the rows path), whether its batch keeps other X halves or
    none."""
    n = 6
    psi = simulate_circuit(random_clifford_t_circuit(n, 2, np.random.default_rng(44)))
    dist = characteristic_distribution(psi)
    support = np.flatnonzero(dist.marginal)
    assert support.size > 1
    with _rows_per_batch(n, rows):
        for a in support:
            marginal = dist.marginal.copy()
            marginal[a] = 0.0
            dropped = statevector.CharacteristicDistribution(
                n, psi.amplitudes, marginal
            )
            with pytest.raises(RuntimeError, match="X marginal"):
                bell_difference_sample_bits(dropped, np.random.default_rng(0), 50)


def _cli_epsilon(n):
    """The CLI's default epsilon: default_epsilon(n), and 0.25 at n = 1."""
    return default_epsilon(n) if n >= 2 else 0.25


def _default_count(n):
    return required_sample_count(n, _cli_epsilon(n), 0.125)


def _table_cells(psi, marginal):
    """(keys, <W>^2) of the cells above the cut on X halves with p_X > 0,
    key a * 2^n + b ascending, from the brute-force characteristic table."""
    size = 1 << psi.n
    # table index (b << n) | a; transposed, the flat index is a * 2^n + b
    sq = helpers.characteristic_table(psi).reshape(size, size).T.ravel() * size
    keep = (sq > statevector._CELL_TOL) & np.repeat(marginal > 0, size)
    return np.flatnonzero(keep), sq[keep]


def _span_of(gens):
    """Every XOR of a subset of the given ints, one Python loop per generator."""
    elems = [0]
    for g in gens:
        elems += [e ^ int(g) for e in elems]
    return elems


def _coset_cells(n, cosets):
    """(keys, <W>^2) of the cells a group-path result stands for, key
    a * 2^n + b ascending: each representative above the cut plus every
    element of the span of the generators, with the representative's
    weight."""
    gens, reps, sq = cosets
    elems = _span_of(gens.tolist())
    live = sq > statevector._CELL_TOL
    cells = (np.array(elems)[:, None] ^ reps[live]).ravel()
    weights = np.broadcast_to(sq[live], (len(elems), int(live.sum()))).ravel()
    keys = ((cells & ((1 << n) - 1)) << n) | (cells >> n)
    order = np.argsort(keys)
    return keys[order], weights[order]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    t=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from([None, 1, 3]),
)
def test_group_cells_match_the_characteristic_table(n, t, seed, rows):
    """The cells read off Weyl(psi) are the table's cells above the cut,
    with the same <W>^2; the group path declines exactly where its
    4^(n - dim Weyl(psi)) cosets do not fit one row batch."""
    psi = simulate_circuit(random_clifford_t_circuit(n, t, np.random.default_rng(seed)))
    dist = characteristic_distribution(psi)
    with _rows_per_batch(n, rows):
        block = statevector._rows_per_block(n)
        cells = statevector._cells_from_group(dist)
    cosets = 4 ** (n - weyl_group_oracle(psi).dim)
    assert (cells is None) == (cosets > block)
    if cells is not None:
        keys, sq = _table_cells(psi, dist.marginal)
        got_keys, got_sq = _coset_cells(n, cells)
        assert np.array_equal(got_keys, keys)
        np.testing.assert_allclose(got_sq, sq, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), t=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_coset_representatives_off_the_pivots_match_the_reduction(n, t, seed):
    """The group path's coset basis, the rows of V = G^perp's canonical
    basis pivoted outside G's pivots, is exactly the basis the reduction by
    G's basis followed by an elimination gives."""
    psi = simulate_circuit(random_clifford_t_circuit(n, t, np.random.default_rng(seed)))
    cosets = statevector._cells_from_group(characteristic_distribution(psi))
    assume(cosets is not None)
    gens, reps, _ = cosets
    group = Subspace.from_bit_rows(n, gens.astype(np.uint64)[:, None])
    want = helpers.coset_basis_by_reduction(symplectic_complement(group), group)
    assert np.array_equal(reps, statevector._span_elements(want))


@pytest.mark.parametrize("seed, support", [(6, 256), (1, 512), (0, 4096)])
def test_group_cells_match_the_all_rows_table_at_the_cap(seed, support):
    n = DEFAULT_DENSE_CAP
    psi = simulate_circuit(random_clifford_t_circuit(n, 2, np.random.default_rng(seed)))
    dist = characteristic_distribution(psi)
    assert np.count_nonzero(dist.marginal) == support
    keys, sq = _coset_cells(n, statevector._cells_from_group(dist))
    want_keys, want_sq = helpers.characteristic_cells_all_rows(dist)
    assert np.array_equal(keys, want_keys)
    np.testing.assert_allclose(sq, want_sq, rtol=0, atol=1e-12)


def test_group_path_samples_match_the_convolution():
    """Drawn through the group path, samples follow q = p * p."""
    n = 4
    psi = simulate_circuit(random_clifford_t_circuit(n, 2, np.random.default_rng(47)))
    dist = characteristic_distribution(psi)
    assert weyl_group_oracle(psi).dim < n
    assert statevector._cells_from_group(dist) is not None
    q = helpers.convolve_q(helpers.characteristic_table(psi))
    count = 200_000
    bits = bell_difference_sample_bits(dist, np.random.default_rng(47), count)
    emp = np.bincount(bits.astype(np.int64), minlength=len(q)) / count
    assert 0.5 * float(np.abs(emp - q).sum()) < 0.02


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    t=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.0, 1.0),
    rows=st.sampled_from([None, 1, 3]),
)
def test_rows_path_matches_the_all_rows_sampler(n, t, seed, fraction, rows):
    """With the group path declined, rows on the support alone draw
    byte-identical samples to the sampler that computed every X half's
    row, for the same generator state, at any count from 1 to the default
    and any row batch size."""
    psi = simulate_circuit(random_clifford_t_circuit(n, t, np.random.default_rng(seed)))
    dist = characteristic_distribution(psi)
    count = max(1, round(fraction * _default_count(n)))
    with _rows_per_batch(n, rows), pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "_cells_from_group", lambda dist: None)
        got = bell_difference_sample_bits(dist, np.random.default_rng(seed), count)
        want = helpers.bell_difference_sample_bits_all_rows(
            dist, np.random.default_rng(seed), count
        )
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), t=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_bell_samples_orthogonal_to_weyl_group(n, t, seed):
    """<psi|W_x|psi> = 0 when W_x anticommutes with a stabilizer, so every
    Bell difference sample has zero symplectic product with Weyl(psi),
    whatever sampler drew it."""
    rng = np.random.default_rng(seed)
    psi = simulate_circuit(random_clifford_t_circuit(n, t, rng))
    group = weyl_group_oracle(psi)
    bits = bell_difference_sample_bits(characteristic_distribution(psi), rng, 300)
    for x in np.unique(bits):
        for w in group.subspace.basis:
            assert symplectic_product(SympVec(n, int(x)), w) == 0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), t=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_sampled_dimension_is_at_least_the_weyl_group_and_n_minus_t(n, t, seed):
    """A Clifford circuit with t T gates leaves at least n - t independent
    stabilizers, and every sample lies in Weyl(psi)^perp, so the sampled S
    contains Weyl(psi): n - t <= dim Weyl(psi) <= dim S."""
    rng = np.random.default_rng(seed)
    circ = random_clifford_t_circuit(n, t, rng)
    psi = simulate_circuit(circ)
    count = _default_count(n)
    bits = bell_difference_sample_bits(characteristic_distribution(psi), rng, count)
    params = EstimatorParams(epsilon=_cli_epsilon(n), delta=0.125, k=2 * circ.t)
    dim_s = estimate_entropy(samples=bits, cut=Cut(n, {1}), params=params).dim_s
    assert n - circ.t <= weyl_group_oracle(psi).dim <= dim_s


def test_bell_sample_determinism_and_wrapper():
    dist = characteristic_distribution(
        simulate_circuit(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    )
    a = bell_difference_sample_bits(dist, np.random.default_rng(37), 100)
    b = bell_difference_sample_bits(dist, np.random.default_rng(37), 100)
    assert (a == b).all()
    assert a.dtype == np.uint64 and a.shape == (100,)


def test_bell_sample_count_must_be_a_nonnegative_int():
    dist = characteristic_distribution(simulate_circuit(Circuit.from_ops(2)))
    rng = np.random.default_rng(0)
    for bad in (-1, 2.5, "3", None, True):
        with pytest.raises(ValueError, match="count"):
            bell_difference_sample_bits(dist, rng, bad)
    for ok in (0, np.int64(3)):
        bits = bell_difference_sample_bits(dist, rng, ok)
        assert bits.dtype == np.uint64 and bits.shape == (int(ok),)


def test_bell_sample_count_above_the_limit_is_refused_before_drawing():
    # 2 * count int64 draws would take 0.4 GB; the refusal comes first
    dist = characteristic_distribution(simulate_circuit(Circuit.from_ops(1)))
    limit = statevector.MAX_SAMPLE_COUNT
    assert estimator.MAX_SAMPLE_COUNT == limit
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"more than the limit {limit}"):
        bell_difference_sample_bits(dist, np.random.default_rng(0), limit + 1)
    assert time.monotonic() - start < 1.0


class _RecordingGenerator:
    """A generator that records the weights of every multinomial the rows
    path draws and the multiset of packed draws it shuffles."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.pvals: list[np.ndarray] = []
        self.multiset = None

    def multinomial(self, total, pvals):
        self.pvals.append(np.asarray(pvals))
        return self._rng.multinomial(total, pvals)

    def shuffle(self, x):
        self.multiset = np.sort(x)
        self._rng.shuffle(x)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _generic_state(n, seed):
    amps = np.array([1.0, 1j]) @ np.random.default_rng(seed).normal(size=(2, 1 << n))
    return StateVector(n, amps / np.linalg.norm(amps))


@contextlib.contextmanager
def _rows_path():
    """Decline the group path, so the draw is the rows path's shuffled multiset."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "_cells_from_group", lambda dist: None)
        yield


def _on_group_path(dist):
    return statevector._cells_from_group(dist) is not None


def test_x_half_histogram_tv_against_marginal():
    """A generic state, whose p_X is far from uniform on its support; the
    rows path's draws from p."""
    n, count = 4, 50_000
    dist = characteristic_distribution(_generic_state(n, 5))
    rng = _RecordingGenerator(6)
    with _rows_path():
        bell_difference_sample_bits(dist, rng, count)
    hist = np.bincount(rng.multiset & ((1 << n) - 1), minlength=1 << n)
    assert hist.sum() == 2 * count
    tv = 0.5 * float(np.abs(hist / (2 * count) - dist.marginal).sum())
    assert tv < 0.02


def test_group_path_x_half_histogram_tv_against_the_convolved_marginal():
    """The same state on the group path (G = {0}, one coset per cell): the
    samples' X halves follow q's X marginal, p_X * p_X."""
    n, count = 4, 100_000
    dist = characteristic_distribution(_generic_state(n, 5))
    assert _on_group_path(dist)
    bits = bell_difference_sample_bits(dist, np.random.default_rng(6), count)
    hist = np.bincount(bits.astype(np.int64) & ((1 << n) - 1), minlength=1 << n)
    tv = 0.5 * float(np.abs(hist / count - helpers.convolve_q(dist.marginal)).sum())
    assert tv < 0.02


@contextlib.contextmanager
def _rows_per_batch(n, rows):
    """Sample in row batches of `rows` rows (None: the default size)."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(weyl, "_ROW_BLOCK_BYTES", rows * (16 << n))
        yield


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_draw_histogram_tv_against_characteristic_table(n, rows):
    """Every one of the 4^n cells (a generic state has p > 0 on all of
    them) against p itself, not only the X halves; the rows path's draws,
    in one row batch, and split over batches of 1 and 3 rows, so the batch
    multinomial is checked too."""
    count = 200_000
    psi = _generic_state(n, 40 + n)
    rng = _RecordingGenerator(7)
    with _rows_per_batch(n, rows), _rows_path():
        bell_difference_sample_bits(characteristic_distribution(psi), rng, count)
    hist = np.bincount(rng.multiset, minlength=1 << (2 * n))
    tv = 0.5 * float(np.abs(hist / (2 * count) - helpers.characteristic_table(psi)).sum())
    assert tv < 0.02


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_group_path_histogram_tv_against_the_convolution(n):
    """The same generic states on the group path, where G = {0} and every
    cell is a coset: the samples themselves against q = p * p on all 4^n
    points, as many samples as the rows path makes draws."""
    count = 400_000
    psi = _generic_state(n, 40 + n)
    dist = characteristic_distribution(psi)
    assert _on_group_path(dist)
    bits = bell_difference_sample_bits(dist, np.random.default_rng(7), count)
    hist = np.bincount(bits.astype(np.int64), minlength=1 << (2 * n))
    q = helpers.convolve_q(helpers.characteristic_table(psi))
    assert 0.5 * float(np.abs(hist / count - q).sum()) < 0.02


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    t=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from([None, 1, 2]),
)
def test_no_x_half_drawn_where_marginal_is_zero(n, t, seed, rows):
    """numpy hands the multinomial's rounding remainder to its last
    category, so every category, row batches included, must have positive
    weight, and none may be a residue cell; no draw lands on a cell where p
    is zero; and no sample carries an X half that two draws from the
    support of p_X cannot make."""
    psi = simulate_circuit(random_clifford_t_circuit(n, t, np.random.default_rng(seed)))
    dist = characteristic_distribution(psi)
    rng = _RecordingGenerator(seed)
    with _rows_per_batch(n, rows), _rows_path():
        bits = bell_difference_sample_bits(dist, rng, 500)
    # Categories carry real weight: <W>^2 > 1e-6 on these states (the
    # property below), never rounding residue near 1e-32.
    assert all((pvals > 1e-12).all() for pvals in rng.pvals)
    table = helpers.characteristic_table(psi)
    assert table[rng.multiset].min() > statevector._CELL_TOL / (1 << n)
    support = np.flatnonzero(dist.marginal)
    pair_xors = set((support[:, None] ^ support[None, :]).ravel().tolist())
    assert set((bits & ((1 << n) - 1)).tolist()) <= pair_xors


def _q_at(p, xs):
    """q(x) = sum_a p(a) p(x ^ a) at each x in xs, from the table p."""
    a = np.arange(len(p))
    return np.array([p @ p[a ^ x] for x in xs.tolist()])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), t=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_group_path_samples_stay_on_the_support_of_q(n, t, seed):
    """Drawn on the group path, no sample lands where q = p * p is zero, and
    every sample's X half is the XOR of two X halves in the support of p_X.
    Real values of q are at least (1e-6 / 2^n)^2 on these states (the cell
    gap below); rounding residue is far under the cut."""
    psi = simulate_circuit(random_clifford_t_circuit(n, t, np.random.default_rng(seed)))
    dist = characteristic_distribution(psi)
    assert _on_group_path(dist)
    bits = bell_difference_sample_bits(dist, np.random.default_rng(seed), 500)
    drawn = np.unique(bits.astype(np.int64))
    q = _q_at(helpers.characteristic_table(psi), drawn)
    assert q.min() > statevector._CELL_TOL / 4**n
    support = np.flatnonzero(dist.marginal)
    pair_xors = set((support[:, None] ^ support[None, :]).ravel().tolist())
    assert set((drawn & ((1 << n) - 1)).tolist()) <= pair_xors


def _alias_weights(prob, alias):
    """The category weights an alias table draws: (prob[i] plus the
    1 - prob[j] of every j aliased to i) / m."""
    weights = prob.copy()
    np.add.at(weights, alias, 1.0 - prob)
    return weights / prob.size


def _check_alias_table(weights):
    prob, alias = statevector._alias_table(weights)
    np.testing.assert_allclose(_alias_weights(prob, alias), weights, rtol=0, atol=1e-12)
    assert ((prob >= 0) & (prob <= 1)).all()
    zero = weights == 0
    # a zero-weight category is never kept, and no category that can fall
    # through to its alias points at one
    assert (prob[zero] == 0).all()
    assert not zero[alias[prob < 1]].any()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), t=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_coset_masses_and_alias_table_match_q(n, t, seed):
    """q's mass on each coset, from the WHT convolution of the
    representatives' weights, equals the brute-force q summed over the
    coset within 1e-12; the alias table built on it draws each coset with
    that weight, and never one of zero weight."""
    psi = simulate_circuit(random_clifford_t_circuit(n, t, np.random.default_rng(seed)))
    dist = characteristic_distribution(psi)
    cosets = statevector._cells_from_group(dist)
    assume(cosets is not None)
    gens, reps, sq = cosets
    masses = statevector._coset_masses(sq)
    q = helpers.convolve_q(helpers.characteristic_table(psi))
    brute = q[np.array(_span_of(gens.tolist()))[:, None] ^ reps].sum(axis=0)
    np.testing.assert_allclose(masses, brute, rtol=0, atol=1e-12)
    # zero exactly where q has no mass: the residue is cut, nothing real is
    assert np.array_equal(masses == 0, brute <= statevector._MARGINAL_TOL)
    _check_alias_table(masses)


@settings(max_examples=100, deadline=None)
@given(j=st.integers(0, 10), dim=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_coset_masses_vanish_off_the_span_of_their_support(j, dim, seed):
    """Weights on a random subgroup of the 2^j coset indices: the
    convolution lives on that subgroup too, and the transforms' rounding
    residue off it (~1e-17) must be cut to exactly zero, so no such coset
    is a category. On the subgroup the masses equal the brute-force
    XOR self-convolution."""
    rng = np.random.default_rng(seed)
    m = 1 << j
    members = _span_of(rng.integers(0, m, size=min(dim, j)).tolist())
    sq = np.zeros(m)
    sq[members] = rng.random(len(members)) + 1e-3
    masses = statevector._coset_masses(sq)
    p = sq / sq.sum()
    idx = np.arange(m)
    brute = p[idx[:, None] ^ idx] @ p
    np.testing.assert_allclose(masses, brute, rtol=0, atol=1e-12)
    off = np.ones(m, dtype=bool)
    off[members] = False
    assert (masses[off] == 0).all()
    _check_alias_table(masses)


@settings(max_examples=200, deadline=None)
@given(
    j=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    zero=st.floats(0.0, 1.0),
    tiny=st.floats(0.0, 1.0),
    equal=st.booleans(),
)
def test_alias_table_draws_its_weights(j, seed, zero, tiny, equal):
    """On any weights over 2^j categories, j <= 10 (m = 1024 is a generic
    n = 5 state's coset count): equal weights, or random ones with a
    fraction set to zero and another scaled down to ~1e-9."""
    rng = np.random.default_rng(seed)
    weights = np.ones(1 << j) if equal else rng.random(1 << j)
    pick = rng.random(1 << j)
    weights[pick < tiny] *= 1e-9
    weights[pick < zero] = 0.0
    assume(weights.sum() > 0)
    _check_alias_table(weights / weights.sum())


def test_x_half_cut_from_the_marginal_is_no_category():
    """cos(h)|0> + sin(h)|1> with h^2 = 2.5e-13 has p_X(1) ~ 5e-13, which
    the marginal sets to 0; its row still holds <X>^2 ~ 1e-12, above the
    cell cut, but no cell of an X half with p_X = 0 is a category."""
    h = 5e-7
    dist = characteristic_distribution(StateVector(1, np.array([np.cos(h), np.sin(h)])))
    assert dist.marginal[1] == 0.0
    rng = _RecordingGenerator(0)
    with _rows_path():
        bell_difference_sample_bits(dist, rng, 100)
    assert [len(pvals) for pvals in rng.pvals] == [1, 2]  # one batch; cells I and Z
    assert (rng.multiset & 1 == 0).all()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), t=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_squared_expectations_leave_a_gap_around_the_cell_cut(n, t, seed):
    """The sampler drops cells with <W>^2 <= _CELL_TOL as rounding residue.
    On Clifford+T states every <W>^2 is either residue or a real value well
    clear of the cut."""
    psi = simulate_circuit(random_clifford_t_circuit(n, t, np.random.default_rng(seed)))
    sq = statevector.expectation_rows(psi.amplitudes, np.arange(1 << n)) ** 2
    assert not ((sq > statevector._CELL_TOL) & (sq < 1e-6)).any()


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
