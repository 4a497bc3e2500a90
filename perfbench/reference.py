"""Reference answers for the benchmark's output checks.

Nothing here calls into `stabent`. The stabilizer reference tracks the
generator matrix as dense bool arrays and takes GF(2) ranks by elimination
on `np.packbits` rows; the state reference applies gate matrices with
`np.tensordot` and takes entropies from reduced density matrix eigenvalues.
Gates arrive as plain (name, qubits) pairs with 1-based qubit indices.
"""

from __future__ import annotations

import math

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)
_T = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
GATE_MATRICES = {
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "T": np.array([[1, 0], [0, _T]], dtype=complex),
    "TDG": np.array([[1, 0], [0, _T.conjugate()]], dtype=complex),
}
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
).reshape(2, 2, 2, 2)


def gf2_pivot_columns(mat: np.ndarray) -> list[int]:
    """Pivot columns of a 0/1 matrix under left-to-right forward elimination.

    The number of pivots below column j is the GF(2) rank of the first j
    columns, so one elimination gives the rank of every column prefix.
    """
    rows, cols = mat.shape
    packed = np.packbits(mat.astype(bool), axis=1)
    rank = 0
    pivots: list[int] = []
    for col in range(cols):
        if rank == rows:
            break
        byte, mask = col >> 3, np.uint8(0x80 >> (col & 7))
        hits = np.flatnonzero(packed[rank:, byte] & mask)
        if hits.size == 0:
            continue
        p = rank + int(hits[0])
        if p != rank:
            packed[[rank, p]] = packed[[p, rank]]
        below = rank + 1 + np.flatnonzero(packed[rank + 1 :, byte] & mask)
        packed[below] ^= packed[rank]
        pivots.append(col)
        rank += 1
    return pivots


def stabilizer_prefix_entropies(n: int, gates) -> np.ndarray:
    """Exact S(1..m) in bits for m = 0..n, for C|0^n> with C Clifford.

    The unsigned generators evolve as bool columns (phases never matter to
    the entropy). With the columns ordered x_1, z_1, x_2, z_2, ..., the first
    2m columns are the projection of the stabilizer group onto qubits 1..m,
    and S(1..m) = rank of that projection - m.
    """
    x = np.zeros((n + 1, n), dtype=bool)  # x[q, g]: X part of generator g on qubit q
    z = np.zeros((n + 1, n), dtype=bool)
    z[1:] = np.eye(n, dtype=bool)
    for name, qubits in gates:
        if name == "H":
            (q,) = qubits
            x[q], z[q] = z[q].copy(), x[q].copy()
        elif name == "S":
            (q,) = qubits
            z[q] ^= x[q]
        elif name == "CNOT":
            c, t = qubits
            x[t] ^= x[c]
            z[c] ^= z[t]
        elif name not in ("X", "Y", "Z"):
            raise ValueError(f"not a Clifford gate: {name!r}")
    mat = np.empty((n, 2 * n), dtype=bool)
    mat[:, 0::2] = x[1:].T
    mat[:, 1::2] = z[1:].T
    ranks = np.zeros(2 * n + 1, dtype=np.int64)
    for col in gf2_pivot_columns(mat):
        ranks[col + 1 :] += 1
    return ranks[0::2] - np.arange(n + 1)


def dense_state(n: int, gates) -> np.ndarray:
    """C|0^n> as an n-axis tensor; axis q-1 is qubit q."""
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for name, qubits in gates:
        axes = [q - 1 for q in qubits]
        if name == "CNOT":
            psi = np.tensordot(CNOT_MATRIX, psi, axes=([2, 3], axes))
            psi = np.moveaxis(psi, [0, 1], axes)
        else:
            psi = np.tensordot(GATE_MATRICES[name], psi, axes=([1], axes))
            psi = np.moveaxis(psi, 0, axes[0])
    return psi


def prefix_entropy(psi: np.ndarray, m: int) -> float:
    """Von Neumann entropy in bits of qubits 1..m of the tensor state."""
    n = psi.ndim
    mat = psi.reshape(1 << m, 1 << (n - m))
    rho = mat @ mat.conj().T if m <= n - m else mat.T @ mat.conj()
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-12]
    return float(-np.sum(lam * np.log2(lam)))


def required_samples(n: int, epsilon: float, delta: float) -> int:
    """The sample count the estimator's guarantee is stated for."""
    return math.ceil((2.0 * math.log(1.0 / delta) + 4.0 * n) / epsilon**2)
