"""Dense 2^n backend: Clifford+T simulation, the characteristic distribution,
Bell difference sampling, and the exact entanglement entropy oracle.

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
from .weyl import DEFAULT_DENSE_CAP, _check_cap, expectation_rows

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


def simulate_circuit(c: Circuit, cap: int = DEFAULT_DENSE_CAP) -> StateVector:
    """C |0^n> with per-gate O(2^n) updates."""
    _check_cap(c.n, cap)
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
    """p(x) = 2^-n <psi|W_x|psi>^2 on all of F2^(2n), indexed by SympVec.bits.

    `cdf` is the prefix-sum table used for inverse-CDF sampling.
    """

    n: int
    p: np.ndarray
    cdf: np.ndarray

    def prob(self, v: SympVec) -> float:
        if v.n != self.n:
            raise ValueError("qubit count mismatch")
        return float(self.p[v.bits])


def characteristic_distribution(
    psi: StateVector, cap: int = DEFAULT_DENSE_CAP
) -> CharacteristicDistribution:
    """All 4^n characteristic-function values; sums to 1 for pure input.

    Computed in WHT batches over the X half; blocks bound peak memory at
    large n. The purity identity (sum = 1) is checked, not assumed; since
    StateVector is normalized on construction, a miss is an internal fault
    and raises RuntimeError.
    """
    n = psi.n
    _check_cap(n, cap)
    size = 1 << n
    p = np.empty(size * size, dtype=np.float64)
    p_mat = p.reshape(size, size)  # [b, a] so that flat index is (b << n) | a
    block = max(1, (1 << 22) // size)
    for start in range(0, size, block):
        stop = min(start + block, size)
        rows = expectation_rows(
            psi.amplitudes, np.arange(start, stop, dtype=np.uint64)
        )
        p_mat[:, start:stop] = (rows * rows).T / size
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"characteristic distribution sums to {total!r}, not 1")
    cdf = np.cumsum(p)
    p.setflags(write=False)
    cdf.setflags(write=False)
    return CharacteristicDistribution(n=n, p=p, cdf=cdf)


def bell_difference_sample_bits(
    dist: CharacteristicDistribution, rng: np.random.Generator, count: int
) -> np.ndarray:
    """`count` packed samples from q = p * p (XOR convolution).

    Each output is the XOR of two independent inverse-CDF draws from p,
    which is distributed exactly as the convolution; deterministic given
    the generator state. The uint64 array, one SympVec.bits value per
    sample, is the sample format estimate_entropy takes.
    """
    u = rng.random(2 * count)
    pos = np.searchsorted(dist.cdf, u, side="right")
    np.minimum(pos, len(dist.cdf) - 1, out=pos)
    return (pos[:count] ^ pos[count:]).astype(np.uint64)


def entanglement_entropy_oracle(
    psi: StateVector, cut: Cut, cap: int = DEFAULT_DENSE_CAP
) -> float:
    """Exact von Neumann entropy (bits) across the cut, via SVD.

    Squared singular values below 1e-12 contribute nothing.
    """
    n = psi.n
    _check_cap(n, cap)
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
