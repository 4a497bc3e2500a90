"""Bound computation and the sampled estimation pipeline."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from stabent import (
    Circuit,
    Cut,
    EstimatorParams,
    StabilizerGroupEstimate,
    Subspace,
    bell_difference_sample_bits,
    binary_entropy,
    characteristic_distribution,
    default_epsilon,
    entanglement_entropy_oracle,
    estimate_entropy,
    from_pauli_string,
    random_clifford_circuit,
    random_clifford_t_circuit,
    required_sample_count,
    simulate_circuit,
    simulate_clifford,
    span,
    symplectic_complement,
    weyl_group_from_tableau,
)
from stabent import estimator


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_binary_entropy_power_bound():
    # H(p) <= e * p^0.72 (weakest link of the standard chain)
    for p in np.linspace(0.001, 0.999, 200):
        assert binary_entropy(float(p)) <= math.e * p**0.72


def test_default_epsilon():
    assert default_epsilon(2) == pytest.approx(1 / 16)
    assert default_epsilon(8) == pytest.approx(1 / 64)
    with pytest.raises(ValueError):
        default_epsilon(1)


def test_default_epsilon_kills_slack():
    # at eps = 1/(8n) the extra width 2(eps n + H(eps)) - 1 is negative
    for n in (2, 5, 50):
        eps = default_epsilon(n)
        assert 2 * (eps * n + binary_entropy(eps)) - 1 < 0
    # spot value at n = 2: about -0.075
    margin = 2 * (1 / 8 + binary_entropy(1 / 16)) - 1
    assert margin == pytest.approx(-0.0754, abs=1e-3)


def test_required_sample_count():
    assert required_sample_count(2, 1 / 16, 1 / 8) == 3113
    assert required_sample_count(2, 1 / 16, 1.0) == math.ceil(8 * 256)
    with pytest.raises(ValueError):
        required_sample_count(2, 0.5, 0.1)  # eps must stay below 3/8
    with pytest.raises(ValueError):
        required_sample_count(2, 0.1, 0.0)
    # The default dense run at the cap is far below the limit; an epsilon
    # that would need gigabytes of draws is refused before any is drawn.
    assert required_sample_count(12, default_epsilon(12), 1 / 8) == 480_697
    with pytest.raises(ValueError, match="limit"):
        required_sample_count(6, 1e-4, 1 / 8)  # 2,815,888,309 samples


def test_params_validation():
    with pytest.raises(ValueError):
        EstimatorParams(0.5, 0.1, 0)
    with pytest.raises(ValueError):
        EstimatorParams(0.1, 2.0, 0)
    with pytest.raises(ValueError):
        EstimatorParams(0.1, 0.1, -1)


def _group_bounds(group, cut):
    """(lower, upper) from estimate_entropy's group path."""
    if isinstance(group, Subspace):
        group = StabilizerGroupEstimate(group, "exact-oracle")
    report = estimate_entropy(group=group, cut=cut)
    return report.lower, report.upper


def test_bounds_from_group_examples():
    epr = StabilizerGroupEstimate(
        span([from_pauli_string("XX"), from_pauli_string("ZZ")]), "tableau"
    )
    assert _group_bounds(epr, Cut(2, {1})) == (1.0, 1.0)

    zs = span([from_pauli_string("ZII"), from_pauli_string("IZI"),
               from_pauli_string("IIZ")])
    assert _group_bounds(zs, Cut(3, {2})) == (0.0, 0.0)
    assert _group_bounds(zs, Cut(3, {1, 3})) == (0.0, 0.0)

    trivial = Subspace.zero(4)
    assert _group_bounds(trivial, Cut(4, {1})) == (0.0, 1.0)
    assert _group_bounds(trivial, Cut(4, {1, 2, 3})) == (0.0, 1.0)


def test_bounds_contain_oracle_entropy():
    # bounds from the exact group must bracket the oracle entropy
    rng = np.random.default_rng(40)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        circ = random_clifford_t_circuit(n, int(rng.integers(0, 3)), rng)
        psi = simulate_circuit(circ)
        from stabent import weyl_group_oracle

        group = weyl_group_oracle(psi)
        a = frozenset(
            int(q) + 1
            for q in rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        )
        cut = Cut(n, a)
        lo, hi = _group_bounds(group, cut)
        s = entanglement_entropy_oracle(psi, cut)
        assert lo - 1e-9 <= s <= hi + 1e-9


def test_bounds_monotone_in_group():
    # growing the isotropic group never loosens either bound
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = frozenset(
            int(q) + 1
            for q in rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        )
        cut = Cut(n, a)
        sub = Subspace.zero(n)
        prev = _group_bounds(sub, cut)
        while True:
            comp = symplectic_complement(sub)
            candidates = [v for v in comp.basis if not helpers.contains(sub, v)]
            if not candidates:
                break
            pick = candidates[int(rng.integers(len(candidates)))]
            sub = Subspace.from_bit_rows(n, [v.bits for v in sub.basis] + [pick.bits])
            cur = _group_bounds(sub, cut)
            assert cur[0] >= prev[0]  # lower never decreases
            assert cur[1] <= prev[1]  # upper never increases
            prev = cur


def test_estimate_group_path_exact_on_stabilizer_states():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        circ = random_clifford_circuit(n, rng)
        group = weyl_group_from_tableau(simulate_clifford(circ))
        cut = Cut(n, {int(rng.integers(1, n + 1))})
        report = estimate_entropy(group=group, cut=cut)
        assert report.lower == report.upper
        assert float(report.upper).is_integer()
        assert report.r == 0.0 and report.samples_used == 0
        assert not report.promise_violated
        oracle = entanglement_entropy_oracle(simulate_circuit(circ), cut)
        assert report.upper == pytest.approx(oracle, abs=1e-9)


def test_estimate_epr_sampled_path():
    circ = Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2))
    dist = characteristic_distribution(simulate_circuit(circ))
    rng = np.random.default_rng(43)
    params = EstimatorParams(epsilon=1 / 16, delta=1 / 8, k=0, seed=43)
    count = required_sample_count(2, 1 / 16, 1 / 8)
    bits = bell_difference_sample_bits(dist, rng, count)
    report = estimate_entropy(samples=bits, cut=Cut(2, {1}), params=params)
    assert report.dim_s == 2
    assert report.r == 0.0
    assert (report.lower, report.upper) == (1.0, 1.0)
    assert report.estimate == 1.0
    assert report.samples_used == count
    assert report.seed == 43
    assert not report.promise_violated


def test_estimate_group_path_large_n_integral():
    rng = np.random.default_rng(45)
    circ = random_clifford_circuit(50, rng)
    group = weyl_group_from_tableau(simulate_clifford(circ))
    report = estimate_entropy(group=group, cut=Cut(50, frozenset(range(1, 26))))
    assert report.lower == report.upper
    assert float(report.upper).is_integer()


def test_samples_reused_across_cuts():
    # sampling happens once; bounds per cut are classical post-processing
    circ = Circuit.from_ops(3, ("H", 1), ("CNOT", 1, 2))
    psi = simulate_circuit(circ)
    dist = characteristic_distribution(psi)
    params = EstimatorParams(epsilon=1 / 24, delta=1 / 8, k=0)
    count = required_sample_count(3, 1 / 24, 1 / 8)
    bits = bell_difference_sample_bits(dist, np.random.default_rng(46), count)
    for a in ({1}, {2}, {3}, {1, 2}, {1, 3}):
        report = estimate_entropy(samples=bits, cut=Cut(3, a), params=params)
        oracle = entanglement_entropy_oracle(psi, Cut(3, a))
        assert report.lower == report.upper == pytest.approx(oracle, abs=1e-9)


def test_estimate_r_correction_branch():
    # EPR sampled with a loose promise (k = 1): dim S = 2 > n - k, so the
    # trace-distance slack widens the bounds by exactly eps*n + H(eps)
    circ = Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2))
    dist = characteristic_distribution(simulate_circuit(circ))
    eps = 1 / 16
    params = EstimatorParams(epsilon=eps, delta=1 / 8, k=1)
    count = required_sample_count(2, eps, 1 / 8)
    bits = bell_difference_sample_bits(dist, np.random.default_rng(47), count)
    report = estimate_entropy(samples=bits, cut=Cut(2, {1}), params=params)
    r = eps * 2 + binary_entropy(eps)
    assert report.dim_s == 2
    assert report.r == pytest.approx(r)
    assert report.upper == 1.0  # clamped at min(|A|, |B|)
    assert report.lower == pytest.approx(1.0 - r)
    # width stays within k + max(0, 2r - 1); the slack term is negative here
    assert report.upper - report.lower <= 1 + 1e-9
    assert not report.promise_violated


def test_copy_count_matches_cubic_formula():
    # four copies per sample; at eps = 1/(8n) the copy total is the closed
    # form 1024 n^3 + 512 n^2 ln(1/delta)
    for n, delta in ((2, 1 / 3), (5, 1 / 8), (9, 0.5)):
        samples = required_sample_count(n, default_epsilon(n), delta)
        closed = 1024 * n**3 + 512 * n**2 * math.log(1 / delta)
        assert 4 * samples == pytest.approx(closed, abs=4.0)  # ceil slack


def test_estimate_insufficient_samples():
    params = EstimatorParams(epsilon=1 / 16, delta=1 / 8, k=0)
    bits = np.zeros(10, dtype=np.uint64)
    with pytest.raises(ValueError, match="at least"):
        estimate_entropy(samples=bits, cut=Cut(2, {1}), params=params)


def test_estimate_rejects_malformed_samples():
    # packed integer arrays are the one sample format; the range check holds
    params = EstimatorParams(epsilon=0.3, delta=1.0, k=0)
    need = required_sample_count(2, 0.3, 1.0)
    with pytest.raises(ValueError, match="packed"):
        estimate_entropy(samples=[0] * need, cut=Cut(2, {1}), params=params)
    bits = np.zeros(need, dtype=np.uint64)
    bits[0] = 16  # 4^n for n = 2
    with pytest.raises(ValueError, match="out of range"):
        estimate_entropy(samples=bits, cut=Cut(2, {1}), params=params)


def test_estimate_rejects_samples_that_are_not_1d():
    params = EstimatorParams(epsilon=0.3, delta=1.0, k=0)
    need = required_sample_count(2, 0.3, 1.0)
    with pytest.raises(ValueError, match="1-D"):
        estimate_entropy(
            samples=np.zeros((need, 1), dtype=np.uint64), cut=Cut(2, {1}), params=params
        )


@settings(max_examples=200, deadline=None)
@given(
    values=hnp.arrays(
        st.sampled_from([np.uint64, np.int64]),
        st.integers(0, 300),
        elements=st.integers(0, 40) | st.integers(0, 2**62),
    )
)
def test_sorted_distinct_matches_unique(values):
    got = estimator._sorted_distinct(values)
    want = np.unique(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_estimate_requires_exactly_one_input():
    with pytest.raises(ValueError):
        estimate_entropy(cut=Cut(2, {1}))


def test_estimate_promise_violation_flag():
    # samples spanning all of F2^4 force S = {0}; with k = 0 the promised
    # dimension is 2, so the run must be flagged
    params = EstimatorParams(epsilon=0.3, delta=1.0, k=0)
    need = required_sample_count(2, 0.3, 1.0)
    bits = np.array([i % 16 for i in range(need)], dtype=np.uint64)
    report = estimate_entropy(samples=bits, cut=Cut(2, {1}), params=params)
    assert report.promise_violated
    assert report.dim_s == 0


def test_estimate_clifford_plus_t_statistical():
    # n = 4, one T gate, promise k = 2: width <= 2 always, and the oracle
    # entropy falls inside the bounds in at least a 1 - delta fraction
    n, eps, delta = 4, 1 / 32, 1 / 8
    cut = Cut(n, {1, 2})
    count = required_sample_count(n, eps, delta)
    trials = 200
    hits = 0
    for trial in range(trials):
        rng = np.random.default_rng(4500 + trial)
        circ = random_clifford_t_circuit(n, 1, rng)
        psi = simulate_circuit(circ)
        dist = characteristic_distribution(psi)
        bits = bell_difference_sample_bits(dist, rng, count)
        params = EstimatorParams(epsilon=eps, delta=delta, k=2)
        report = estimate_entropy(samples=bits, cut=cut, params=params)
        assert not report.promise_violated
        assert report.upper - report.lower <= 2 + 1e-9
        oracle = entanglement_entropy_oracle(psi, cut)
        inside = report.lower - 1e-9 <= oracle <= report.upper + 1e-9
        hits += inside
        if inside:
            # midpoint guarantee: within half the interval width
            assert abs(report.estimate - oracle) <= (
                report.upper - report.lower
            ) / 2 + 1e-9
    assert hits >= (1 - delta) * trials


def test_report_serialization():
    group = weyl_group_from_tableau(
        simulate_clifford(Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2)))
    )
    report = estimate_entropy(group=group, cut=Cut(2, {1}))
    d = report.to_dict()
    assert d == {
        "lower": 1.0,
        "upper": 1.0,
        "estimate": 1.0,
        "dim_S": 2,
        "r": 0.0,
        "samples_used": 0,
        "cut_A": [1],
        "promise_violated": False,
        "seed": None,
    }
