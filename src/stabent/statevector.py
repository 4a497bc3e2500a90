"""Dense 2^n backend: Clifford+T simulation, the characteristic distribution,
Bell difference sampling, and the exact entanglement entropy oracle.

The characteristic distribution p(a|b) = 2^-n <psi|W_(a|b)|psi>^2 has 4^n
points but is never tabulated. A batch of draws from it is made as its
multiset, a count per cell, in two exact multinomial steps: first how many
draws fall in each batch of X halves, weighted by the X-half marginal p_X
(the XOR autocorrelation of |psi|^2, two length-2^n Walsh-Hadamard
transforms); then, within each batch, how many fall on each of its nonzero
cells (a, b), weighted by <W_(a|b)>^2. The rows of every a are streamed in
row batches of about `weyl._ROW_BLOCK_BYTES`. Each row costs one complex
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
    "MAX_SAMPLE_COUNT",
    "StateVector",
    "bell_difference_sample_bits",
    "characteristic_distribution",
    "entanglement_entropy_oracle",
    "simulate_circuit",
]

# The most Bell-difference samples one call may ask for. A sample is two
# draws, each one int64 in the buffer the draws are counted into, shuffled
# and paired in, plus one uint64 for the sample the pair XORs to: 24 bytes
# per sample, beside row batches of a few MB at any count. A traced draw of
# 2^22 samples peaked at 101 MB (n = 8) and one of 2^21 at 52 MB (n = 12),
# so this bounds a draw near 0.40 GB; the default n = 12 run needs 480,697.
MAX_SAMPLE_COUNT = 1 << 24

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_T_PHASE = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))

# Where p_X is zero its transforms leave rounding residue near 1e-15; values
# at or below this are set to zero, and each drawn row's sum must match its
# p_X value to within it, so a drawn X half never has an empty row.
_MARGINAL_TOL = 1e-12

# A drawn cell needs <W>^2 above this. Where <W> is zero, rounding leaves
# <W>^2 up to ~2.5e-32; on Clifford+T states (n = 8-12, t = 1-30) every
# other cell measured at least 0.0156. The cut drops at most 2^n * 1e-24
# of p's mass.
_CELL_TOL = 1e-24


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


def bell_difference_sample_bits(
    dist: CharacteristicDistribution, rng: np.random.Generator, count: int
) -> np.ndarray:
    """`count` packed samples from q = p * p (XOR convolution).

    Each output is the XOR of two independent draws from p, which is
    distributed exactly as the convolution. The 2 * count draws are made as
    their multiset, then shuffled: an i.i.d. sequence is its multiset in
    uniformly random order. The multiset takes two exact steps. A
    multinomial over all cells, conditioned on the total of each group of
    cells, is one multinomial per group; so the draws are first split over
    the row batches by one multinomial on the batches' p_X mass, then each
    batch's share is split over its cells by one multinomial on
    <W_(a|b)>^2. Cells with <W>^2 <= _CELL_TOL, and cells whose X half has
    p_X = 0, are rounding residue and no category. Deterministic given the
    generator. The uint64 array, one SympVec.bits value per sample, is the
    sample format estimate_entropy takes.

    Every X half's row is computed, whether or not its batch was drawn, and
    each must sum to its p_X value, zeros included. So the whole marginal
    the batches were weighted by is checked against p, and the row work is
    set by n alone, not by the support of p_X, which ranges from 1 to 2^n
    points between states.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count > MAX_SAMPLE_COUNT:
        raise ValueError(f"count {count} is more than the limit {MAX_SAMPLE_COUNT}")
    n = dist.n
    size = 1 << n
    block = _rows_per_block(n)
    # numpy hands any rounding remainder to the last category, so only
    # batches and cells of positive mass are categories.
    mass = np.add.reduceat(dist.marginal, np.arange(0, size, block))
    live = np.flatnonzero(mass)
    per_batch = np.zeros(mass.size, dtype=np.int64)
    per_batch[live] = rng.multinomial(2 * count, mass[live] / mass[live].sum())
    # Each run of equal draws holds, at its first slot, the step from the
    # value before it; one cumsum at the end fills the runs in place.
    packed = np.zeros(2 * count, dtype=np.int64)
    filled = last = 0
    for batch, start in enumerate(range(0, size, block)):
        stop = min(start + block, size)
        # Squared in the rows' own buffer: a fresh batch-sized array costs
        # page faults comparable to the arithmetic on it.
        sq = expectation_rows(dist.amplitudes, np.arange(start, stop))
        np.square(sq, out=sq)
        miss = np.abs(sq.sum(axis=1) / size - dist.marginal[start:stop]).max()
        if miss > _MARGINAL_TOL:
            raise RuntimeError(f"expectation rows miss the X marginal by {miss:.3e}")
        if not per_batch[batch]:
            continue
        cells = sq > _CELL_TOL
        cells[dist.marginal[start:stop] == 0] = False
        cell = np.flatnonzero(cells)
        weight = sq.ravel()[cell]
        hits = rng.multinomial(per_batch[batch], weight / weight.sum())
        drawn = np.flatnonzero(hits)
        cell, runs = cell[drawn], hits[drawn]
        # Flat cell i is row i >> n (X half start + (i >> n)), column b = i mod 2^n.
        vals = ((cell & (size - 1)) << n) | (start + (cell >> n))
        packed[filled + np.cumsum(runs) - runs] = np.diff(vals, prepend=last)
        filled += per_batch[batch]
        last = vals[-1]
    np.cumsum(packed, out=packed)
    rng.shuffle(packed)
    return np.bitwise_xor(packed[:count], packed[count:]).view(np.uint64)


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
