"""Dense 2^n backend: Clifford+T simulation, the characteristic distribution,
Bell difference sampling, and the exact entanglement entropy oracle.

The characteristic distribution p(a|b) = 2^-n <psi|W_(a|b)|psi>^2 has 4^n
points but is never tabulated. A batch of draws from it is made as its
sorted multiset, in two exact steps: how many draws take each X half a, as
one multinomial over the marginal p_X, which is the XOR autocorrelation of
|psi|^2 (two length-2^n Walsh-Hadamard transforms); then the Z halves b of
those draws, as sorted uniforms mapped through the inverse CDF of
p(a|b) / p_X(a). That CDF comes from the expectation row of a; the rows of
every a are streamed in row batches. Each row costs one complex
Walsh-Hadamard transform of length 2^(n-1), done as real matrix products
(`weyl.expectation_rows`). Memory is O(2^n * block + samples).

Amplitude index convention: qubit 1 is the most significant index bit, which
matches the packed-vector convention in `symplectic` (qubit q sits at bit
n - q of each half), so no index reshuffling happens between the two layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .symplectic import Cut
from .weyl import _check_cap, _rows_per_block, _wht_rows, expectation_rows

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

    `marginal[a]` is the X-half marginal p_X(a) = sum_b p(a|b).
    """

    n: int
    amplitudes: np.ndarray
    marginal: np.ndarray


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
    marginal.setflags(write=False)
    return CharacteristicDistribution(n, psi.amplitudes, marginal)


def _inverse_cdf_sorted(cdf: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """`np.searchsorted(cdf, keys, side="right")` for sorted `keys`.

    Both are sorted, so the merge can run from the shorter side: with more
    keys than cdf entries, the keys below each entry are counted in one
    search and the indices rebuilt from those counts. Both sides return the
    same array.
    """
    if keys.size <= cdf.size:
        return np.searchsorted(cdf, keys, side="right")
    # below[i + 1] keys lie below cdf[i]; np.diff with prepend/append costs
    # more than the search at these sizes.
    below = np.empty(cdf.size + 2, dtype=np.intp)
    below[0], below[-1] = 0, keys.size
    below[1:-1] = np.searchsorted(keys, cdf, side="left")
    return np.repeat(np.arange(cdf.size + 1), below[1:] - below[:-1])


def bell_difference_sample_bits(
    dist: CharacteristicDistribution, rng: np.random.Generator, count: int
) -> np.ndarray:
    """`count` packed samples from q = p * p (XOR convolution).

    Each output is the XOR of two independent draws from p, which is
    distributed exactly as the convolution. The 2 * count draws are made as
    their sorted multiset, then shuffled: an i.i.d. sequence is its sorted
    multiset in uniformly random order. The multiset takes two exact steps.
    The X halves' histogram is one multinomial over the support of p_X,
    which is how the X halves of i.i.d. draws are distributed. Then the c_a
    Z halves of X half a are c_a sorted uniforms mapped through the inverse
    CDF of the squared expectation row of a; the inverse CDF is monotone, so
    they come out as the sorted multiset of c_a i.i.d. draws from p(.|a).
    Deterministic given the generator. The uint64 array, one SympVec.bits
    value per sample, is the sample format estimate_entropy takes.

    Every X half's row is computed, in row batches, whether or not it was
    drawn, and each must sum to its p_X value, zeros included. So the
    whole marginal the X halves came from is checked against p, and the
    work is set by n and count alone, not by the support of p_X, which
    ranges from 1 to 2^n points between states.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    n = dist.n
    size = 1 << n
    # numpy hands any rounding remainder to the last category, so only
    # points with p_X > 0 are categories.
    support = np.flatnonzero(dist.marginal)
    p = dist.marginal[support]
    draws = np.zeros(size, dtype=np.int64)
    draws[support] = rng.multinomial(2 * count, p / p.sum())
    # The draws with X half a sit at bounds[a]:bounds[a + 1].
    bounds = np.concatenate(([0], np.cumsum(draws)))
    u = rng.random(2 * count)
    block = _rows_per_block(n)
    for start in range(0, size, block):
        a_vals = np.arange(start, min(start + block, size))
        # Squared and accumulated in the rows' own buffer: a fresh batch-sized
        # array costs page faults comparable to the arithmetic on it.
        sq = expectation_rows(dist.amplitudes, a_vals)
        np.square(sq, out=sq)
        miss = np.abs(sq.sum(axis=1) / size - dist.marginal[a_vals]).max()
        if miss > _MARGINAL_TOL:
            raise RuntimeError(f"expectation rows miss the X marginal by {miss:.3e}")
        cdf = np.cumsum(sq, axis=1, out=sq)
        # A row that sums to 0 stays 0, and is never drawn; every other ends
        # at exactly 1, above every u.
        cdf /= np.maximum(cdf[:, -1:], np.finfo(float).tiny)
        for a in a_vals[draws[a_vals] > 0]:
            keys = u[bounds[a] : bounds[a + 1]]
            keys.sort()
            # The packed draws overwrite the uniforms they were mapped from.
            packed = keys.view(np.int64)
            packed[:] = _inverse_cdf_sorted(cdf[a - start], keys)
            packed <<= n
            packed |= a
    b = u.view(np.int64)
    rng.shuffle(b)
    return np.bitwise_xor(b[:count], b[count:]).view(np.uint64)


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
