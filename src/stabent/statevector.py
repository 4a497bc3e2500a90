"""Dense 2^n backend: Clifford+T simulation, the characteristic distribution,
Bell difference sampling, and the exact entanglement entropy oracle.

The characteristic distribution p(a|b) = 2^-n <psi|W_(a|b)|psi>^2 has 4^n
points but is never tabulated. Draws from it take two exact steps: the X
half a from its marginal p_X, which is the XOR autocorrelation of |psi|^2
(two length-2^n Walsh-Hadamard transforms), then the Z half b from
p(a|b) / p_X(a), from the expectation rows of every a, streamed in row
batches. Memory is O(2^n * block + samples).

Amplitude index convention: qubit 1 is the most significant index bit, which
matches the packed-vector convention in `symplectic` (qubit q sits at bit
n - q of each half), so no index reshuffling happens between the two layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .symplectic import Cut, SympVec
from .weyl import (
    _check_cap,
    _rows_per_block,
    _wht_rows,
    expectation_rows,
    weyl_expectation,
)

__all__ = [
    "CharacteristicDistribution",
    "StateVector",
    "bell_difference_sample_bits",
    "characteristic_distribution",
    "entanglement_entropy_oracle",
    "simulate_circuit",
]

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_T_PHASE = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))

# Where p_X is zero its transforms leave rounding residue near 1e-15; values
# at or below this are set to zero, and each drawn row's sum must match its
# p_X value to within it, so a drawn X half never has an empty row.
_MARGINAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state; amplitudes are read-only after construction."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got {amps.shape}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > 1e-10:
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def _apply_1q(amps: np.ndarray, name: str, q: int, n: int) -> None:
    view = amps.reshape(-1, 2, 1 << (n - q))
    if name == "H":
        x0 = view[:, 0, :].copy()
        x1 = view[:, 1, :].copy()
        view[:, 0, :] = (x0 + x1) * _SQRT1_2
        view[:, 1, :] = (x0 - x1) * _SQRT1_2
    elif name == "X":
        view[:, 0, :], view[:, 1, :] = view[:, 1, :].copy(), view[:, 0, :].copy()
    elif name == "Y":
        x0 = view[:, 0, :].copy()
        x1 = view[:, 1, :].copy()
        view[:, 0, :] = -1j * x1
        view[:, 1, :] = 1j * x0
    elif name == "Z":
        view[:, 1, :] *= -1.0
    elif name == "S":
        view[:, 1, :] *= 1j
    elif name == "T":
        view[:, 1, :] *= _T_PHASE
    elif name == "TDG":
        view[:, 1, :] *= _T_PHASE.conjugate()
    else:
        raise ValueError(f"unknown single-qubit gate {name!r}")


def _apply_cnot(amps: np.ndarray, c: int, t: int, n: int) -> None:
    view = amps.reshape([2] * n)
    sel: list = [slice(None)] * n
    sel[c - 1] = 1
    sub = view[tuple(sel)]
    t_axis = (t - 1) - (1 if t > c else 0)
    sub[...] = np.flip(sub, axis=t_axis).copy()


def simulate_circuit(c: Circuit) -> StateVector:
    """C |0^n> with per-gate O(2^n) updates."""
    _check_cap(c.n)
    amps = np.zeros(1 << c.n, dtype=np.complex128)
    amps[0] = 1.0
    for g in c.gates:
        if g.name == "CNOT":
            _apply_cnot(amps, g.qubits[0], g.qubits[1], c.n)
        else:
            _apply_1q(amps, g.name, g.qubits[0], c.n)
    return StateVector(c.n, amps)


@dataclass(frozen=True, eq=False)
class CharacteristicDistribution:
    """p(a|b) = 2^-n <psi|W_(a|b)|psi>^2 on F2^(2n), held without its 4^n table.

    `marginal[a]` is the X-half marginal p_X(a) = sum_b p(a|b) and
    `marginal_cdf` its prefix sums scaled to end at exactly 1; single values
    of p come from `prob`.
    """

    n: int
    amplitudes: np.ndarray
    marginal: np.ndarray
    marginal_cdf: np.ndarray

    def prob(self, v: SympVec) -> float:
        if v.n != self.n:
            raise ValueError("qubit count mismatch")
        # n and amplitudes are all that weyl_expectation reads of a state.
        return weyl_expectation(v, self) ** 2 / (1 << self.n)


def characteristic_distribution(psi: StateVector) -> CharacteristicDistribution:
    """The X-half marginal of p, in O(n 2^n) time and O(2^n) memory.

    p_X(a) = sum_u |psi(u)|^2 |psi(u xor a)|^2 by Parseval, which is the
    inverse WHT of the squared WHT of |psi|^2. It must sum to 1 for a pure
    state; since StateVector is normalized on construction, a miss is an
    internal fault and raises RuntimeError.
    """
    n = psi.n
    _check_cap(n)
    spectrum = _wht_rows(np.abs(psi.amplitudes)[None, :] ** 2)
    marginal = _wht_rows(spectrum * spectrum)[0] / (1 << n)
    marginal[marginal <= _MARGINAL_TOL] = 0.0
    total = float(marginal.sum())
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"characteristic distribution sums to {total!r}, not 1")
    cdf = np.cumsum(marginal)
    cdf /= cdf[-1]
    marginal.setflags(write=False)
    cdf.setflags(write=False)
    return CharacteristicDistribution(n, psi.amplitudes, marginal, cdf)


def bell_difference_sample_bits(
    dist: CharacteristicDistribution, rng: np.random.Generator, count: int
) -> np.ndarray:
    """`count` packed samples from q = p * p (XOR convolution).

    Each output is the XOR of two independent draws from p, which is
    distributed exactly as the convolution. A draw takes its X half a by
    inverse CDF over `marginal_cdf`, then its Z half b by inverse CDF over
    the squared expectation row of a. The X halves are drawn in sorted
    order, which groups equal ones, and the draws are shuffled at the end:
    an i.i.d. sequence is its sorted multiset in uniformly random order.
    Deterministic given the generator. The uint64 array, one SympVec.bits
    value per sample, is the sample format estimate_entropy takes.

    Every X half's row is computed, in row batches, whether or not it was
    drawn, and each must sum to its p_X value, zeros included. So the
    whole marginal the X halves came from is checked against p, and the
    work is set by n and count alone, not by the support of p_X, which
    ranges from 1 to 2^n points between states.
    """
    n = dist.n
    size = 1 << n
    u = rng.random(2 * count)
    u.sort()
    a = np.searchsorted(dist.marginal_cdf, u, side="right")
    rng.random(out=u)
    # The draws with X half a sit at bounds[a]:bounds[a + 1], since a is sorted.
    bounds = np.searchsorted(a, np.arange(size + 1))
    b = np.empty(2 * count, dtype=np.int64)
    block = _rows_per_block(n)
    for start in range(0, size, block):
        a_vals = np.arange(start, min(start + block, size))
        sq = expectation_rows(dist.amplitudes, a_vals) ** 2
        miss = np.abs(sq.sum(axis=1) / size - dist.marginal[a_vals]).max()
        if miss > _MARGINAL_TOL:
            raise RuntimeError(f"expectation rows miss the X marginal by {miss:.3e}")
        cdf = np.cumsum(sq, axis=1)
        # A row that sums to 0 stays 0; every other ends at exactly 1, above every u.
        cdf /= np.maximum(cdf[:, -1:], np.finfo(float).tiny)
        for row, lo, hi in zip(cdf, bounds[a_vals], bounds[a_vals + 1]):
            b[lo:hi] = np.searchsorted(row, u[lo:hi], side="right")
    b <<= n
    b |= a
    rng.shuffle(b)
    return (b[:count] ^ b[count:]).astype(np.uint64)


def entanglement_entropy_oracle(psi: StateVector, cut: Cut) -> float:
    """Exact von Neumann entropy (bits) across the cut, via SVD.

    Squared singular values below 1e-12 contribute nothing.
    """
    n = psi.n
    _check_cap(n)
    if cut.n != n:
        raise ValueError(f"cut is over {cut.n} qubits, state has {n}")
    order = [q - 1 for q in cut.a_sorted + cut.b_sorted]
    mat = (
        psi.amplitudes.reshape([2] * n)
        .transpose(order)
        .reshape(1 << len(cut.a), -1)
    )
    sing = np.linalg.svd(mat, compute_uv=False)
    lam = sing * sing
    lam = lam[lam > 1e-12]
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log2(lam)))
