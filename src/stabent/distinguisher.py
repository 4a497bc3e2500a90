"""Ensemble distinguishing harness.

Two constructed ensembles on n qubits fix everything the distinguisher
needs: n, the half cut (qubits 1..n/2 against the rest), their entropy
levels at that cut, and t', the larger of their two non-Clifford budgets.
When the levels differ by more than 2 t', the estimator run with k = 2 t'
gives bounds of width u - l <= 2 t', so the interval contains at most one
level, and checking whether the high level lies inside it decides the
ensemble. The ensembles here are explicit (Bell pairs across the cut versus
cut-local magic states) with entropy levels known by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuits import Circuit, Gate, _random_clifford_gates
from .estimator import (
    BoundReport,
    EstimatorParams,
    _check_nullity,
    default_epsilon,
    estimate_entropy,
    required_sample_count,
)
from .statevector import (
    bell_difference_sample_bits,
    characteristic_distribution,
    simulate_circuit,
)
from .symplectic import Cut

__all__ = [
    "DistinguisherResult",
    "EnsembleSpec",
    "bell_pair_ensemble",
    "distinguish",
    "magic_product_ensemble",
]


@dataclass(frozen=True)
class EnsembleSpec:
    """A keyed state family on n qubits: a seeded circuit generator plus its
    declared non-Clifford budget and entropy level at the half cut, qubits
    1..n/2."""

    name: str
    n: int
    t_budget: int
    entropy_level: float
    make_circuit: Callable[[np.random.Generator], Circuit]


@dataclass(frozen=True)
class DistinguisherResult:
    """Outcome of a trial run; guess and bounds are from the final trial."""

    guess: str
    bounds: BoundReport
    trials: int
    success_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.success_rate <= 1.0:
            raise ValueError("success rate must lie in [0, 1]")

    def to_dict(self) -> dict:
        out = self.bounds.to_dict()
        out.update(
            guess=self.guess,
            trials=int(self.trials),
            success_rate=float(self.success_rate),
        )
        return out


def _half_cut_sides(n: int, what: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if n < 2 or n % 2:
        raise ValueError(f"{what} ensemble needs even n >= 2")
    return tuple(range(1, n // 2 + 1)), tuple(range(n // 2 + 1, n + 1))


def bell_pair_ensemble(n: int) -> EnsembleSpec:
    """n/2 Bell pairs across the half cut, scrambled by cut-local Cliffords.

    Local scrambling leaves the cut entropy at exactly n/2 bits.
    """
    a_side, b_side = _half_cut_sides(n, "bell pair")
    half = n // 2

    def make(rng: np.random.Generator) -> Circuit:
        gates = []
        for q in a_side:
            gates.append(Gate("H", (q,)))
            gates.append(Gate("CNOT", (q, q + half)))
        gates += _random_clifford_gates(a_side, rng, 4 * half)
        gates += _random_clifford_gates(b_side, rng, 4 * half)
        return Circuit(n, tuple(gates))

    return EnsembleSpec("bell-pairs", n, 0, float(half), make)


def magic_product_ensemble(n: int, t: int = 1) -> EnsembleSpec:
    """States that are product across the half cut but carry t magic qubits.

    All gates stay inside one side of the cut, so the cut entropy is exactly
    0 while the state is genuinely non-stabilizer (each T acts on a |+>).
    """
    a_side, b_side = _half_cut_sides(n, "magic product")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    half = n // 2

    def make(rng: np.random.Generator) -> Circuit:
        gates = []
        for _ in range(t):
            q = a_side[int(rng.integers(half))]
            gates.append(Gate("H", (q,)))
            gates.append(Gate("T", (q,)))
        gates += _random_clifford_gates(a_side, rng, 4 * half)
        gates += _random_clifford_gates(b_side, rng, 4 * half)
        return Circuit(n, tuple(gates))

    return EnsembleSpec("magic-product", n, t, 0.0, make)


def distinguish(
    high: EnsembleSpec,
    low: EnsembleSpec,
    delta: float,
    *,
    trials: int = 1,
    seed: int = 0,
    epsilon: float | None = None,
) -> DistinguisherResult:
    """Run the estimator-based distinguisher for `trials` coin-flip trials.

    The pair fixes the run: n is their common qubit count, the cut is
    qubits 1..n/2, and t' is the larger of their non-Clifford budgets.
    Per trial: draw the true ensemble uniformly, prepare a fresh state,
    estimate entropy bounds with k = 2 t', and guess the high ensemble iff
    its level lies inside [l, u]. Requires the entropy gap to exceed 2 t'.
    A trial whose sampled dim S is below n - t, for the t of its circuit, is
    an internal fault and raises RuntimeError.
    """
    n = high.n
    if low.n != n:
        raise ValueError(
            f"ensembles disagree on n: {high.name!r} has {n} qubits, "
            f"{low.name!r} has {low.n}"
        )
    if n < 2 or n % 2:
        raise ValueError(f"distinguisher needs even n >= 2, got {n}")
    f_level, g_level = high.entropy_level, low.entropy_level
    if f_level <= g_level:
        raise ValueError("high ensemble must have the larger entropy level")
    t_prime = max(high.t_budget, low.t_budget)
    if f_level - g_level <= 2 * t_prime:
        raise ValueError(
            f"entropy gap {f_level - g_level} does not exceed 2*t' = {2 * t_prime}"
        )
    if trials < 1:
        raise ValueError("need at least one trial")
    cut = Cut(n, frozenset(range(1, n // 2 + 1)))
    eps = default_epsilon(n) if epsilon is None else epsilon
    params = EstimatorParams(epsilon=eps, delta=delta, k=2 * t_prime, seed=seed)
    count = required_sample_count(n, eps, delta)
    # Separate streams: the trials drawn do not depend on the sampler's use.
    rng, sample_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))

    correct = 0
    for _ in range(trials):
        truth = high if rng.random() < 0.5 else low
        circuit = truth.make_circuit(rng)
        if circuit.n != n:
            raise ValueError(
                f"ensemble {truth.name!r} produced a {circuit.n}-qubit "
                f"circuit, expected n = {n}"
            )
        if circuit.t > truth.t_budget:
            raise ValueError(
                f"ensemble {truth.name!r} produced {circuit.t} non-Clifford "
                f"gates, budget is {truth.t_budget}"
            )
        psi = simulate_circuit(circuit)
        dist = characteristic_distribution(psi)
        bits = bell_difference_sample_bits(dist, sample_rng, count)
        report = estimate_entropy(samples=bits, cut=cut, params=params)
        _check_nullity(report.dim_s, n, circuit.t)
        in_high = report.lower <= f_level <= report.upper
        if not report.promise_violated:
            in_low = report.lower <= g_level <= report.upper
            # With the promise intact the interval is narrower than the gap.
            if in_high and in_low:
                raise RuntimeError(
                    f"interval [{report.lower}, {report.upper}] contains both "
                    "levels despite an intact promise"
                )
        guess = high.name if in_high else low.name
        correct += guess == truth.name
    return DistinguisherResult(guess, report, trials, correct / trials)
