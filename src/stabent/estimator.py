"""Entanglement entropy bounds from stabilizer-group data.

The bound pair for an isotropic group S and cut (A, B) is

    upper = min(|A| - dim S_A, |B| - dim S_B)
    lower = max(dim S - dim S_B - |A|, dim S - dim S_A - |B|, 0)

which collapses to the exact entropy when dim S = n. An isotropic S of
dimension n is Lagrangian, and then |A| - dim S_A = |B| - dim S_B (Fattal
et al. 2004), so a known group of that dimension is restricted to the
smaller side only; any other S needs both restrictions. The sampled pipeline
takes Bell-difference samples, forms the symplectic complement of their
span, and widens the bounds by the trace-distance slack r = eps*n + H(eps)
whenever the recovered group could be approximate (dim S above the promised
n - k). Sampling happens once; bounds for any cut are classical
post-processing on the same samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevector import MAX_SAMPLE_COUNT
from .symplectic import (
    Cut,
    Subspace,
    is_isotropic,  # noqa: F401  unused; perfbench/run.py wraps it at this name
    restrict_to_cut,
    symplectic_complement,
)
from .weyl import StabilizerGroupEstimate

__all__ = [
    "BoundReport",
    "EstimatorParams",
    "MAX_SAMPLE_COUNT",
    "binary_entropy",
    "default_epsilon",
    "estimate_entropy",
    "required_sample_count",
]


def binary_entropy(p: float) -> float:
    """H(p) in bits, with H(0) = H(1) = 0 by continuity."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy needs p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def default_epsilon(n: int) -> float:
    """eps = 1/(8n): the setting at which the slack term 2(eps n + H(eps)) - 1
    goes negative, so the bound width never exceeds k. Needs n >= 2."""
    if n < 2:
        raise ValueError("default epsilon is defined for n >= 2")
    return 1.0 / (8.0 * n)


def _validate_epsilon_delta(epsilon: float, delta: float) -> None:
    if not 0.0 < epsilon < 0.375:
        raise ValueError(f"epsilon must lie in (0, 3/8), got {epsilon}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")


def required_sample_count(n: int, epsilon: float, delta: float) -> int:
    """ceil((2 ln(1/delta) + 4n) / eps^2) Bell-difference samples.

    Raises ValueError when that exceeds MAX_SAMPLE_COUNT, before anything
    is drawn.
    """
    _validate_epsilon_delta(epsilon, delta)
    square = epsilon**2  # 0 for a tiny epsilon; the count may be inf, so ceil last
    count = (2.0 * math.log(1.0 / delta) + 4.0 * n) / square if square else math.inf
    if count > MAX_SAMPLE_COUNT:
        shown = math.ceil(count) if count < math.inf else count
        raise ValueError(
            f"epsilon={epsilon}, delta={delta} at n={n} need {shown} samples, "
            f"more than the limit {MAX_SAMPLE_COUNT}"
        )
    return math.ceil(count)


def _check_nullity(dim_s: int, n: int, t: int) -> None:
    """Raise RuntimeError when a sampled dim S is below n - t.

    p vanishes off Weyl(psi)^perp, so every Bell difference sample lies in
    it and the sampled S contains Weyl(psi), whose dimension is at least
    n - t for a Clifford circuit with t T/TDG gates. A smaller dim S is an
    internal fault, whatever k promises.
    """
    if dim_s < n - t:
        raise RuntimeError(f"sampled dim S = {dim_s} is below n - t = {n - t}")


@dataclass(frozen=True)
class EstimatorParams:
    """Knobs for the sampled pipeline.

    k is the promised stabilizer-dimension deficit: the state is promised to
    have stabilizer dimension at least n - k.
    """

    epsilon: float
    delta: float
    k: int
    seed: int | None = None

    def __post_init__(self) -> None:
        _validate_epsilon_delta(self.epsilon, self.delta)
        if self.k < 0:
            raise ValueError(f"k must be nonnegative, got {self.k}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class BoundReport:
    """Estimator output: lower <= S(rho_A) <= upper with probability 1-delta.

    `estimate` is the interval midpoint; `promise_violated` flags dim S below
    the promised n - k, which is impossible under a true promise and so marks
    bad input metadata rather than sampling noise.
    """

    lower: float
    upper: float
    estimate: float
    dim_s: int
    r: float
    samples_used: int
    cut: Cut
    promise_violated: bool
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")

    def to_dict(self) -> dict:
        return {
            "lower": float(self.lower),
            "upper": float(self.upper),
            "estimate": float(self.estimate),
            "dim_S": int(self.dim_s),
            "r": float(self.r),
            "samples_used": int(self.samples_used),
            "cut_A": [int(q) for q in self.cut.a_sorted],
            "promise_violated": bool(self.promise_violated),
            "seed": None if self.seed is None else int(self.seed),
        }


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array, by a sort and a neighbour mask (np.unique
    hashes integers, which is several times slower here)."""
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def estimate_entropy(
    *,
    samples: np.ndarray | None = None,
    group: StabilizerGroupEstimate | None = None,
    cut: Cut,
    params: EstimatorParams | None = None,
) -> BoundReport:
    """Entropy bound report from Bell-difference samples or a known group.

    Sampled path: `samples` is the packed uint64 array from
    bell_difference_sample_bits, and S is the symplectic complement of the
    sample span; r = 0 when dim S hits the promised n - k exactly (the
    group was recovered exactly) and eps*n + H(eps) otherwise. The sample
    count must meet required_sample_count for the stated guarantee.

    Group path (tableau or oracle provenance): sampling is bypassed, r = 0,
    and the bounds are exact consequences of the supplied group. The group
    is isotropic (StabilizerGroupEstimate checks it), so at dim S = n the
    smaller side's restriction gives the other side's dimension through
    |A| - dim S_A = |B| - dim S_B, and only that side is restricted. A
    sampled S need not be isotropic, and a smaller group need not satisfy
    the identity, so both of those restrict both sides.
    """
    if (samples is None) == (group is None):
        raise ValueError("pass exactly one of samples= or group=")
    n = cut.n

    if group is not None:
        sub = group.subspace
        if sub.n != n:
            raise ValueError("group qubit count mismatch")
        r = 0.0
        used = 0
        violated = False
    else:
        if params is None:
            raise ValueError("the sampled path needs EstimatorParams")
        if not isinstance(samples, np.ndarray) or samples.dtype.kind not in "iu":
            raise ValueError("samples must be a packed integer array")
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        used = int(samples.size)
        need = required_sample_count(n, params.epsilon, params.delta)
        if used < need:
            raise ValueError(f"need at least {need} samples, got {used}")
        # one uint64 per sample is a packed (m, 1) matrix; from_bit_rows
        # checks its range
        distinct = _sorted_distinct(samples)[:, None]
        sub = symplectic_complement(Subspace.from_bit_rows(n, distinct))
        # k above n is a vacuous promise; floor the promised dimension at 0.
        promised = max(n - params.k, 0)
        violated = sub.rank < promised
        r = (
            0.0
            if sub.rank == promised
            else params.epsilon * n + binary_entropy(params.epsilon)
        )

    na, nb, d = len(cut.a), n - len(cut.a), sub.rank
    if group is not None and d == n:
        # a Lagrangian group: |A| - dim S_A = |B| - dim S_B, so the smaller
        # side's restriction gives both
        side, size = (cut.a, na) if na <= nb else (cut.b, nb)
        entropy = size - restrict_to_cut(sub, side).rank
        dim_a, dim_b = na - entropy, nb - entropy
    else:
        dim_a = restrict_to_cut(sub, cut.a).rank
        dim_b = restrict_to_cut(sub, cut.b).rank
    # r widens both counting bounds; entropy lives in [0, min(|A|, |B|)]
    upper = min(min(na - dim_a, nb - dim_b) + r, float(min(na, nb)))
    lower = max(d - dim_b - na - r, d - dim_a - nb - r, 0.0)
    lower = min(lower, upper)
    return BoundReport(
        lower=lower,
        upper=upper,
        estimate=(lower + upper) / 2.0,
        dim_s=d,
        r=r,
        samples_used=used,
        cut=cut,
        promise_violated=violated,
        seed=params.seed if params is not None else None,
    )
