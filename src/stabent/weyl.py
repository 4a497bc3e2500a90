"""Weyl operators acting on dense amplitude vectors.

W_x for x = (a|b) is i^(a.b) (X^a1 Z^b1) x ... x (X^an Z^bn). The i^(a.b)
phase makes every W_x Hermitian and self-inverse, so expectations are real
and the unsigned stabilizer group {x : W_x|psi> = +-|psi>} is well defined
without tracking signs.

On a basis state, W_x|s> = i^(a.b) (-1)^(b.s) |s xor a|, which is what the
kernels below vectorize. Expectation tables over all b for a batch of a
values go through a Walsh-Hadamard transform instead of O(4^n) naive work
per row. For a != 0 the length-2^n transform of each row folds onto the
2^(n-1) points with the top bit of a clear, so a row costs one complex
half-length transform, that is two real ones (see `expectation_rows`). The
transform is Kronecker-factored, H_(2^n) = H_(2^lo) (x) H_(2^hi) with
lo = floor(n/2) and hi = ceil(n/2), so one batch of rows costs two float64
BLAS matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import Subspace, SympVec, is_isotropic

__all__ = [
    "DEFAULT_DENSE_CAP",
    "CapExceededError",
    "StabilizerGroupEstimate",
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

# Sizes a batch of expectation rows at 16 bytes per row value, twice the
# float64 rows themselves; the kernel's work arrays peak near 4.5 times the
# rows (4.7 MiB traced for 32 rows at n = 12). At this size the allocator
# keeps those arrays between batches instead of handing them back: all 4096
# rows at n = 12 fault ~100 pages in 32-row batches against ~80,000 in
# 128-row ones (8 MiB), and run in 0.21-0.23 s against 0.31-0.36 s on one
# core. So batched callers hold O(2^n * rows) at any n, never the 4^n table.
_ROW_BLOCK_BYTES = 1 << 21

# Largest miss, relative to 2^n, between the energy sum_b <W_(a|b)>^2 of an
# expectation row and 2^n sum_u |psi(u)|^2 |psi(u xor a)|^2 (Parseval). The
# row values are at most 1 in size, so rounding leaves ~1e-16 per term.
_ENERGY_TOL = 1e-9

PROVENANCES = ("exact-oracle", "tableau")

_I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex128)


class CapExceededError(ValueError):
    """A request beyond a backend's qubit cap: DEFAULT_DENSE_CAP for the
    dense backend, tableau.TABLEAU_CAP for the tableau."""


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


def weyl_expectation(v: SympVec, psi) -> float:
    """<psi| W_v |psi>, real by Hermiticity, in O(2^n).

    An imaginary residue above `_IMAG_TOL` means the phase convention broke
    somewhere upstream: an internal fault, raised as RuntimeError rather
    than truncated.
    """
    if v.n != psi.n:
        raise ValueError(f"qubit count mismatch: {v.n} vs {psi.n}")
    n = v.n
    a, b = v.bits & ((1 << n) - 1), v.bits >> n
    amps = np.asarray(psi.amplitudes)
    src = np.arange(1 << n, dtype=np.uint64) ^ np.uint64(a)
    signs = 1.0 - 2.0 * (np.bitwise_count(src & np.uint64(b)) & 1)
    val = complex(np.vdot(amps, _I_POWERS[(a & b).bit_count() & 3] * signs * amps[src]))
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
    Kronecker product. Returns a new float64 or complex128 array. Complex
    rows are transformed as their interleaved float64 view, with
    H_(2^hi) (x) I_2 acting on each (real, imaginary) pair, so every matrix
    product is real.
    """
    m, size = mat.shape
    n = size.bit_length() - 1
    h_lo, h_hi = _hadamard(n // 2), _hadamard(n - n // 2)
    pairs = np.iscomplexobj(mat)
    if pairs:
        mat = np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64)
        h_hi = np.kron(h_hi, np.eye(2))
    half = mat.reshape(m * len(h_lo), -1) @ h_hi
    out = (h_lo @ half.reshape(m, len(h_lo), -1)).reshape(m, -1)
    return out.view(np.complex128) if pairs else out


def _rows_with_top_bit(
    amps: np.ndarray, j: int, a: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Write the expectation rows of X halves `a`, whose top set bit is j, to `rows`.

    Returns each row's reference energy 2^n sum_u |psi(u)|^2 |psi(u xor a)|^2.
    """
    m, size = rows.shape
    split = amps.reshape(-1, 2, 1 << j)  # [bits above j, bit j, bits below j]
    clear, setbit = split[:, 0, :].ravel(), split[:, 1, :].ravel()
    # The u with bit j clear, packed by deleting bit j: there u xor a is u
    # with bit j set and a_low xored into the bits below j.
    a_low = a ^ (1 << j)
    idx = np.arange(size >> 1) ^ a_low[:, None]
    energy = (2 * size) * (np.abs(setbit) ** 2)[idx] @ (np.abs(clear) ** 2)
    g = setbit[idx]
    g *= 2 * np.conj(clear)  # conj(2 f(u))
    # WHT(g) = conj(2 Z). Times i^(-a.b) for b with bit j clear it is
    # conj(2 i^(a.b) Z), whose real part is the row where bit j of b is clear
    # and whose imaginary part is the row where it is set. a.b reads only
    # the bits below j; they are split in two so the phase tables are small.
    z = _wht_rows(g).reshape(m, -1, 1 << (j - j // 2), 1 << (j // 2))
    upper = np.arange(0, 1 << j, 1 << (j // 2))
    lower = np.arange(1 << (j // 2))
    z *= _I_POWERS[-np.bitwise_count(a_low[:, None] & upper) & 3][:, None, :, None]
    z *= _I_POWERS[-np.bitwise_count(a_low[:, None] & lower) & 3][:, None, None, :]
    pairs = z.view(np.float64).reshape(m, -1, 1 << j, 2)
    rows.reshape(m, -1, 2, 1 << j)[...] = pairs.swapaxes(2, 3)
    return energy


def expectation_rows(amps: np.ndarray, a_values: np.ndarray) -> np.ndarray:
    """<psi| W_(a|b) |psi> for each a in `a_values` and every b at once.

    Row i, column b of the result is the expectation of W with X half
    a_values[i] and Z half b; every a must be an integer in [0, 2^n), or
    ValueError. For fixed a the map over b is the WHT of
    f(u) = conj(psi[u xor a]) psi[u] times the i^(a.b) phase. Row a = 0 is
    the WHT of |psi|^2. For a != 0 with top set bit j, f(u xor a) =
    conj f(u), so <W_(a|b)> = 2 Re(i^(a.b) Z(b \\ j)), where Z is the WHT
    of f over the 2^(n-1) points u with bit j clear and b \\ j is b with
    bit j deleted. Bit j of b multiplies i^(a.b) by i, so Z gives both
    halves of the row: 2 Re(i^(a.b) Z) where bit j of b is clear and
    -2 Im(i^(a.b) Z) where it is set.

    Every row must keep its energy, sum_b <W_(a|b)>^2 = 2^n sum_u |f(u)|^2
    (Parseval), which a lost or doubled half breaks: a miss is an internal
    fault, raised as RuntimeError.
    """
    size = len(amps)
    n = size.bit_length() - 1
    a = np.asarray(a_values)
    if a.ndim != 1 or a.size and (
        a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= size
    ):
        raise ValueError(f"a_values must be a list of integers in [0, {size})")
    a = a.astype(np.intp)
    out = np.empty((len(a), size))
    energy = np.empty(len(a))
    zero = np.flatnonzero(a == 0)
    if zero.size:
        sq = np.abs(amps) ** 2
        out[zero] = _wht_rows(sq[None, :])
        energy[zero] = size * np.dot(sq, sq)
    for j in range(n):
        sel = np.flatnonzero(a >> j == 1)
        if not sel.size:
            continue
        if sel.size == len(a):  # one top bit, as in every aligned batch but the first
            energy = _rows_with_top_bit(amps, j, a, out)
        else:
            rows = np.empty((sel.size, size))
            energy[sel] = _rows_with_top_bit(amps, j, a[sel], rows)
            out[sel] = rows
    miss = np.abs(np.einsum("ij,ij->i", out, out) - energy).max(initial=0.0)
    if miss > _ENERGY_TOL * size:
        raise RuntimeError(f"expectation rows lost energy (miss {miss:.3e})")
    return out


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
