"""Weyl operators acting on dense amplitude vectors.

W_x for x = (a|b) is i^(a.b) (X^a1 Z^b1) x ... x (X^an Z^bn). The i^(a.b)
phase makes every W_x Hermitian and self-inverse, so expectations are real
and the unsigned stabilizer group {x : W_x|psi> = +-|psi>} is well defined
without tracking signs.

On a basis state, W_x|s> = i^(a.b) (-1)^(b.s) |s xor a|, which is what the
kernels below vectorize. Expectation tables over all b for a batch of a
values go through a Walsh-Hadamard transform instead of O(4^n) naive work
per row. The transform is Kronecker-factored, H_(2^n) = H_(2^lo) (x)
H_(2^hi) with lo = floor(n/2) and hi = ceil(n/2), so one batch of rows costs
two BLAS matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import Subspace, SympVec, is_isotropic

__all__ = [
    "DEFAULT_DENSE_CAP",
    "CapExceededError",
    "StabilizerGroupEstimate",
    "apply_weyl",
    "expectation_rows",
    "weyl_expectation",
    "weyl_group_oracle",
]

DEFAULT_DENSE_CAP = 12

# Largest imaginary residue a Weyl expectation may carry: the i^(a.b) phase
# makes every W_x Hermitian, so anything above this is a broken convention.
_IMAG_TOL = 1e-10

# |<psi|W_x|psi>| >= 1 - _ORACLE_TOL marks x as a stabilizer of psi.
_ORACLE_TOL = 1e-9

# Bytes of one complex128 batch of expectation rows (2^n values per row), so
# batched callers hold O(2^n * rows) at any n, never the 4^n table.
_ROW_BLOCK_BYTES = 1 << 23

PROVENANCES = ("exact-oracle", "tableau")

_I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex128)


class CapExceededError(ValueError):
    """Dense-backend request beyond DEFAULT_DENSE_CAP qubits."""


def _check_cap(n: int) -> None:
    if n > DEFAULT_DENSE_CAP:
        raise CapExceededError(f"n={n} exceeds dense cap {DEFAULT_DENSE_CAP}")


def _rows_per_block(n: int) -> int:
    """Expectation rows per batch: about _ROW_BLOCK_BYTES, at least one."""
    return max(1, _ROW_BLOCK_BYTES // (16 << n))


@dataclass(frozen=True)
class StabilizerGroupEstimate:
    """A subspace standing in for Weyl(|psi>), tagged with how it was got.

    This is the one place that checks a recovered group is isotropic.
    """

    subspace: Subspace
    provenance: str

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not is_isotropic(self.subspace):
            raise ValueError(f"{self.provenance} group must be isotropic")

    @property
    def dim(self) -> int:
        return self.subspace.rank


def _apply_weyl_amps(n: int, bits: int, amps: np.ndarray) -> np.ndarray:
    a = bits & ((1 << n) - 1)
    b = bits >> n
    idx = np.arange(1 << n, dtype=np.uint64)
    src = idx ^ np.uint64(a)
    signs = 1.0 - 2.0 * (np.bitwise_count(src & np.uint64(b)) & 1)
    return _I_POWERS[(a & b).bit_count() & 3] * signs * amps[src]


def apply_weyl(v: SympVec, psi):
    """W_v |psi>, in O(2^n) without materializing the operator."""
    if v.n != psi.n:
        raise ValueError(f"qubit count mismatch: {v.n} vs {psi.n}")
    out = _apply_weyl_amps(v.n, v.bits, np.asarray(psi.amplitudes))
    return type(psi)(psi.n, out)


def weyl_expectation(v: SympVec, psi) -> float:
    """<psi| W_v |psi>, real by Hermiticity.

    An imaginary residue above `_IMAG_TOL` means the phase convention broke
    somewhere upstream: an internal fault, raised as RuntimeError rather
    than truncated.
    """
    if v.n != psi.n:
        raise ValueError(f"qubit count mismatch: {v.n} vs {psi.n}")
    amps = np.asarray(psi.amplitudes)
    val = complex(np.vdot(amps, _apply_weyl_amps(v.n, v.bits, amps)))
    if abs(val.imag) > _IMAG_TOL:
        raise RuntimeError(f"non-real Weyl expectation {val!r}")
    return val.real


def _hadamard(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester Hadamard matrix, entry (-1)^popcount(i & j)."""
    idx = np.arange(1 << k, dtype=np.uint64)
    return 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1)


def _wht_rows(mat: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row of an (m, 2^n) array.

    Row i read as a 2^lo x 2^hi matrix X (the high index bits pick the
    row of X) transforms to H_(2^lo) X H_(2^hi), since H_(2^n) is their
    Kronecker product. Returns a new array; real and complex rows both work.
    """
    m, size = mat.shape
    n = size.bit_length() - 1
    h_lo, h_hi = _hadamard(n // 2), _hadamard(n - n // 2)
    half = mat.reshape(m * len(h_lo), len(h_hi)) @ h_hi
    return (h_lo @ half.reshape(m, len(h_lo), len(h_hi))).reshape(m, size)


def expectation_rows(amps: np.ndarray, a_values: np.ndarray) -> np.ndarray:
    """<psi| W_(a|b) |psi> for each a in `a_values` and every b at once.

    Row i, column b of the result is the expectation of W with X half
    a_values[i] and Z half b. For fixed a the map over b is the WHT of
    conj(psi[u xor a]) psi[u] times the i^(a.b) phase.
    """
    size = len(amps)
    idx = np.arange(size, dtype=np.uint64)
    a_col = np.asarray(a_values, dtype=np.uint64)[:, None]
    g = np.conj(amps[idx[None, :] ^ a_col]) * amps[None, :]
    wht = _wht_rows(g)
    table = _I_POWERS[np.bitwise_count(a_col & idx[None, :]) & 3] * wht
    resid = float(np.abs(table.imag).max(initial=0.0))
    if resid > _IMAG_TOL:
        raise RuntimeError(f"non-real Weyl expectation row (residue {resid:.3e})")
    return table.real


def weyl_group_oracle(psi) -> StabilizerGroupEstimate:
    """Brute-force Weyl(|psi>): every x with |<psi|W_x|psi>| >= 1 - _ORACLE_TOL.

    4^n expectations, evaluated in WHT batches; the dense cap keeps it
    feasible.
    The hit set of a pure state is always a subspace and isotropic.
    """
    n = psi.n
    _check_cap(n)
    amps = np.asarray(psi.amplitudes)
    size = 1 << n
    block = _rows_per_block(n)
    hits: list[int] = []
    for start in range(0, size, block):
        a_vals = np.arange(start, min(start + block, size), dtype=np.uint64)
        rows = expectation_rows(amps, a_vals)
        for i, b in zip(*np.nonzero(np.abs(rows) >= 1.0 - _ORACLE_TOL)):
            hits.append((int(b) << n) | (start + int(i)))
    return StabilizerGroupEstimate(Subspace.from_bit_rows(n, hits), "exact-oracle")
