"""Dense backend: simulation, characteristic distribution, Bell sampling,
and the entanglement entropy oracle."""

from __future__ import annotations

import contextlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from stabent import (
    DEFAULT_DENSE_CAP,
    CapExceededError,
    Circuit,
    Cut,
    Gate,
    StateVector,
    SympVec,
    bell_difference_sample_bits,
    characteristic_distribution,
    default_epsilon,
    entanglement_entropy_oracle,
    from_pauli_string,
    random_clifford_t_circuit,
    required_sample_count,
    simulate_circuit,
    simulate_clifford,
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


def test_sampler_work_does_not_depend_on_the_state(monkeypatch):
    """|0^n> has one X half in the support of p_X and H on every qubit has
    all 2^n; both draws compute the same 2^n rows."""
    real_rows = statevector.expectation_rows
    rows: list[int] = []

    def counted(amps, a_values):
        rows.append(len(a_values))
        return real_rows(amps, a_values)

    monkeypatch.setattr(statevector, "expectation_rows", counted)
    n = 6
    plus = Circuit.from_ops(n, *(("H", q) for q in range(1, n + 1)))
    for circ in (Circuit.from_ops(n), plus):
        rows.clear()
        dist = characteristic_distribution(simulate_circuit(circ))
        bell_difference_sample_bits(dist, np.random.default_rng(0), 100)
        assert sum(rows) == 1 << n


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
    """A generator that records the weights of every multinomial the sampler
    draws and the multiset of packed draws it shuffles."""

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


def test_x_half_histogram_tv_against_marginal():
    """A generic state, whose p_X is far from uniform on its support."""
    n, count = 4, 50_000
    dist = characteristic_distribution(_generic_state(n, 5))
    rng = _RecordingGenerator(6)
    bell_difference_sample_bits(dist, rng, count)
    hist = np.bincount(rng.multiset & ((1 << n) - 1), minlength=1 << n)
    assert hist.sum() == 2 * count
    tv = 0.5 * float(np.abs(hist / (2 * count) - dist.marginal).sum())
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
    them) against p itself, not only the X halves; in one row batch, and
    split over batches of 1 and 3 rows, so the batch multinomial is
    checked too."""
    count = 200_000
    psi = _generic_state(n, 40 + n)
    rng = _RecordingGenerator(7)
    with _rows_per_batch(n, rows):
        bell_difference_sample_bits(characteristic_distribution(psi), rng, count)
    hist = np.bincount(rng.multiset, minlength=1 << (2 * n))
    tv = 0.5 * float(np.abs(hist / (2 * count) - helpers.characteristic_table(psi)).sum())
    assert tv < 0.02


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
    with _rows_per_batch(n, rows):
        bits = bell_difference_sample_bits(dist, rng, 500)
    # Categories carry real weight: <W>^2 > 1e-6 on these states (the
    # property below), never rounding residue near 1e-32.
    assert all((pvals > 1e-12).all() for pvals in rng.pvals)
    table = helpers.characteristic_table(psi)
    assert table[rng.multiset].min() > statevector._CELL_TOL / (1 << n)
    support = np.flatnonzero(dist.marginal)
    pair_xors = set((support[:, None] ^ support[None, :]).ravel().tolist())
    assert set((bits & ((1 << n) - 1)).tolist()) <= pair_xors


def test_x_half_cut_from_the_marginal_is_no_category():
    """cos(h)|0> + sin(h)|1> with h^2 = 2.5e-13 has p_X(1) ~ 5e-13, which
    the marginal sets to 0; its row still holds <X>^2 ~ 1e-12, above the
    cell cut, but no cell of an X half with p_X = 0 is a category."""
    h = 5e-7
    dist = characteristic_distribution(StateVector(1, np.array([np.cos(h), np.sin(h)])))
    assert dist.marginal[1] == 0.0
    rng = _RecordingGenerator(0)
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
