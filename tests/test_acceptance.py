"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import helpers
from stabent import (
    Circuit,
    Cut,
    EstimatorParams,
    Subspace,
    bell_difference_sample_bits,
    bell_pair_ensemble,
    binary_entropy,
    characteristic_distribution,
    distinguish,
    entanglement_entropy_oracle,
    estimate_entropy,
    extract_symplectic_subspace,
    is_isotropic,
    magic_product_ensemble,
    random_clifford_circuit,
    random_clifford_t_circuit,
    required_sample_count,
    restrict_to_cut,
    simulate_circuit,
    simulate_clifford,
    symplectic_complement,
    symplectic_product,
    weyl_group_from_tableau,
    weyl_group_oracle,
)


def _report(num: int, msg: str) -> None:
    print(f"criterion {num} PASS: {msg}")


def test_criterion_1_stabilizer_exactness():
    # 100 random Clifford circuits per n in 2..6, every single-qubit cut:
    # tableau bounds are equal, integral, and match the dense oracle.
    start = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    for n in range(2, 7):
        for _ in range(100):
            circ = random_clifford_circuit(n, rng)
            group = weyl_group_from_tableau(simulate_clifford(circ))
            psi = simulate_circuit(circ)
            for q in range(1, n + 1):
                cut = Cut(n, {q})
                rep = estimate_entropy(group=group, cut=cut)
                assert rep.lower == rep.upper
                assert float(rep.upper).is_integer()
                assert rep.r == 0.0
                oracle = entanglement_entropy_oracle(psi, cut)
                assert abs(rep.upper - oracle) < 1e-9
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, f"{checked} cut checks exact in {elapsed:.1f}s")


def test_criterion_2_large_n_self_consistency():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    n = 200
    cut = Cut(n, frozenset(range(1, 101)))
    for _ in range(20):
        circ = random_clifford_circuit(n, rng)
        group = weyl_group_from_tableau(simulate_clifford(circ))
        rep = estimate_entropy(group=group, cut=cut)
        assert rep.lower == rep.upper
        assert float(rep.upper).is_integer()
        assert 0 <= rep.upper <= 100
        # both A/B orientations of the bounds coincide at dim S = n
        sub = group.subspace
        dim_a = restrict_to_cut(sub, cut.a).rank
        dim_b = restrict_to_cut(sub, cut.b).rank
        assert 100 - dim_a == 100 - dim_b == rep.upper
        assert sub.rank - dim_b - 100 == sub.rank - dim_a - 100 == rep.lower
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(2, f"20 circuits at n=200 exact and symmetric in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def sampled_trials():
    """50 seeded runs per (n, t) configuration, shared by criteria 3 and 4."""
    start = time.monotonic()
    delta = 1 / 8
    results: dict[tuple[int, int], list[tuple[float, bool]]] = {}
    for n in (4, 5, 6):
        eps = 1 / (8 * n)
        count = required_sample_count(n, eps, delta)
        cut = Cut(n, frozenset(range(1, n // 2 + 1)))
        for t in (1, 2, 3):
            rows = []
            for trial in range(50):
                rng = np.random.default_rng(103_000 + 97 * n + 13 * t + trial)
                circ = random_clifford_t_circuit(n, t, rng)
                psi = simulate_circuit(circ)
                dist = characteristic_distribution(psi)
                bits = bell_difference_sample_bits(dist, rng, count)
                params = EstimatorParams(epsilon=eps, delta=delta, k=2 * t)
                rep = estimate_entropy(samples=bits, cut=cut, params=params)
                assert not rep.promise_violated
                oracle = entanglement_entropy_oracle(psi, cut)
                inside = rep.lower - 1e-9 <= oracle <= rep.upper + 1e-9
                rows.append((rep.upper - rep.lower, inside))
            results[(n, t)] = rows
    return results, time.monotonic() - start, delta


def test_criterion_3_gap_bound(sampled_trials):
    results, elapsed, _ = sampled_trials
    for (n, t), rows in results.items():
        for width, _ in rows:
            assert width <= 2 * t + 1e-9, (n, t, width)
    assert elapsed < 600.0
    worst = max(w for rows in results.values() for w, _ in rows)
    _report(3, f"450 sampled runs, max width {worst:.3f} <= 2t, {elapsed:.1f}s")


def test_criterion_4_soundness(sampled_trials):
    results, _, delta = sampled_trials
    rates = {}
    for (n, t), rows in results.items():
        rate = sum(inside for _, inside in rows) / len(rows)
        assert rate >= 1 - delta - 0.05, (n, t, rate)
        rates[(n, t)] = rate
    _report(4, f"coverage per config >= {1 - delta - 0.05:.3f}: "
               f"min {min(rates.values()):.3f}")


def test_criterion_5_sampling_correctness():
    fixtures = [
        ("zeros", Circuit.from_ops(3)),
        ("epr+0", Circuit.from_ops(3, ("H", 1), ("CNOT", 1, 2))),
        ("1T", Circuit.from_ops(3, ("H", 1), ("CNOT", 1, 2), ("T", 2),
                                ("CNOT", 2, 3))),
    ]
    tvs = []
    for i, (name, circ) in enumerate(fixtures):
        psi = simulate_circuit(circ)
        dist = characteristic_distribution(psi)
        q = helpers.convolve_q(helpers.characteristic_table(psi))
        rng = np.random.default_rng(105 + i)
        count = 100_000
        bits = bell_difference_sample_bits(dist, rng, count)
        emp = np.bincount(bits.astype(np.int64), minlength=len(q)) / count
        tv = 0.5 * float(np.abs(emp - q).sum())
        assert tv < 0.02, (name, tv)
        tvs.append(tv)
    _report(5, f"TV distances at 1e5 samples: {['%.4f' % t for t in tvs]}")


def test_criterion_6_symplectic_oracle_equivalence():
    rng = np.random.default_rng(106)
    per_size = 250
    for n in (1, 2, 3, 4):
        for _ in range(per_size):
            sub = helpers.random_subspace(n, rng)
            comp = symplectic_complement(sub)
            assert comp == helpers.brute_complement(sub)
            assert sub.rank + comp.rank == 2 * n
            assert symplectic_complement(comp) == sub
            side = {q for q in range(1, n + 1) if rng.random() < 0.5}
            assert restrict_to_cut(sub, side) == helpers.brute_restrict(sub, side)
    _report(6, "1000 random subspaces match brute-force enumeration")


def test_criterion_7_symplectic_extraction():
    rng = np.random.default_rng(107)
    for _ in range(500):
        v = int(rng.integers(1, 7))
        n = v + int(rng.integers(0, 3))
        es, fs = helpers.random_symplectic_basis(n, v, rng)
        basis = es + fs
        rows = []
        for _ in range(int(rng.integers(0, 2 * v + 1))):
            mask = int(rng.integers(1, 1 << (2 * v)))
            w = 0
            for i in range(2 * v):
                if (mask >> i) & 1:
                    w ^= basis[i]
            rows.append(w)
        sub = Subspace.from_bit_rows(n, rows)
        pairs, residual = extract_symplectic_subspace(sub)
        assert len(pairs) >= sub.rank - v
        assert is_isotropic(residual)
        assert 2 * len(pairs) + residual.rank == sub.rank
        for i, (e_i, f_i) in enumerate(pairs):
            for j, (e_j, f_j) in enumerate(pairs):
                assert symplectic_product(e_i, f_j) == (1 if i == j else 0)
                assert symplectic_product(e_i, e_j) == 0
                assert symplectic_product(f_i, f_j) == 0
    _report(7, "500 extractions satisfy the pair-count and basis relations")


def test_criterion_8_stabilizer_dimension_bound():
    rng = np.random.default_rng(108)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(0, 4))
        circ = random_clifford_t_circuit(n, t, rng)
        dim = weyl_group_oracle(simulate_circuit(circ)).dim
        assert dim >= n - 2 * t, (n, t, dim)
    _report(8, "200 random circuits keep stabilizer dimension >= n - 2t")


def test_criterion_9_distinguisher():
    start = time.monotonic()
    high = bell_pair_ensemble(6)          # entropy 3 at the half cut
    low = magic_product_ensemble(6, t=1)  # entropy 0, one T gate
    trials = 100
    res = distinguish(high, low, 1 / 3, trials=trials, seed=109)
    p = 2 / 3
    floor = p - 3 * math.sqrt(p * (1 - p) / trials)
    assert res.success_rate >= floor
    elapsed = time.monotonic() - start
    _report(9, f"success rate {res.success_rate:.2f} >= {floor:.3f} "
               f"over {trials} trials, {elapsed:.1f}s")


def test_criterion_10_binary_entropy_bound():
    grid = [i / 1000 for i in range(1, 1000)]
    violations = [p for p in grid if binary_entropy(p) > math.e * p**0.72]
    assert violations == []
    _report(10, "H(p) <= e p^0.72 on all 999 grid points")
