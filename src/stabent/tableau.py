"""Stabilizer tableau backend for pure Clifford circuits at large n, up to
TABLEAU_CAP qubits.

During the gate loop the tableau stores one n-bit column per qubit per half
(X and Z), packed in Python ints over the generator index, so each gate is an
O(n)-bit column update. The 2n columns are then packed into a uint64 matrix
once, and `symplectic._transpose`, one word column at a time, turns them into
the n generator rows, which stay packed in the layout of `Subspace.rows`.
Signs are tracked through every gate with the textbook update rules but
nothing downstream consumes them: the unsigned stabilizer group is all the
estimator needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit
from .symplectic import Subspace, SympVec, _checked_rows, _pack, _transpose, _words
from .weyl import CapExceededError, StabilizerGroupEstimate

__all__ = [
    "TABLEAU_CAP",
    "Tableau",
    "conjugate_vector",
    "simulate_clifford",
    "weyl_group_from_tableau",
]

# Most qubits simulate_clifford takes. A half-cut `estimate` of a random
# Clifford circuit with 10n gates took 22 s and 118 MB at n = 8000, and
# about 106 s and 479 MB peak RSS (circuit generation included) at this
# cap, on one core of a 2-vCPU host. Its eliminations grow as n^3 and its
# matrices as n^2, so a file such as `qubits 100000` would otherwise run
# for hours.
TABLEAU_CAP = 16384


@dataclass(frozen=True, eq=False)
class Tableau:
    """Stabilizer generators of an n-qubit state: n rows plus sign bits.

    `rows` is a read-only packed (n, words) uint64 matrix in the layout of
    `Subspace.rows`; the constructor also takes SympVec.bits ints, or any
    integer matrix of that shape, and keeps a checked copy. Construction
    spans the rows once into `group`, the unsigned stabilizer group;
    StabilizerGroupEstimate rejects anticommuting rows, and the dimension
    check here rejects dependent ones.
    """

    n: int
    rows: np.ndarray
    signs: tuple[int, ...]
    group: StabilizerGroupEstimate = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = _checked_rows(self.rows, self.n)
        if len(rows) != self.n or len(self.signs) != self.n:
            raise ValueError("tableau needs exactly n generator rows and signs")
        group = StabilizerGroupEstimate(Subspace.from_bit_rows(self.n, rows), "tableau")
        if group.dim != self.n:
            raise ValueError("tableau generators must be independent")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "group", group)


def simulate_clifford(c: Circuit) -> Tableau:
    """Tableau of C|0^n> for a Clifford-only circuit of at most TABLEAU_CAP
    qubits; more raise CapExceededError before any gate is applied."""
    if c.t:
        raise ValueError("tableau backend takes Clifford gates only")
    n = c.n
    if n > TABLEAU_CAP:
        raise CapExceededError(f"n={n} exceeds tableau cap {TABLEAU_CAP}")
    mask = (1 << n) - 1
    # Column q holds that qubit's coordinate across all n generators.
    x = [0] * (n + 1)
    z = [0] * (n + 1)
    for i in range(n):
        z[i + 1] = 1 << i  # generator i starts as Z on qubit i+1
    s = 0
    for g in c.gates:
        if g.name == "H":
            (q,) = g.qubits
            s ^= x[q] & z[q]
            x[q], z[q] = z[q], x[q]
        elif g.name == "S":
            (q,) = g.qubits
            s ^= x[q] & z[q]
            z[q] ^= x[q]
        elif g.name == "CNOT":
            qc, qt = g.qubits
            s ^= x[qc] & z[qt] & ~(x[qt] ^ z[qc]) & mask
            x[qt] ^= x[qc]
            z[qc] ^= z[qt]
        elif g.name == "X":
            s ^= z[g.qubits[0]]
        elif g.name == "Y":
            s ^= x[g.qubits[0]] ^ z[g.qubits[0]]
        elif g.name == "Z":
            s ^= x[g.qubits[0]]
        else:
            raise ValueError(f"unknown Clifford gate {g.name!r}")
    # Row bit c is qubit n - c of the X half for c < n, of the Z half above.
    rows = _transpose(_pack(x[n:0:-1] + z[n:0:-1], _words(n)))[:n]
    return Tableau(n, rows, tuple((s >> i) & 1 for i in range(n)))


def weyl_group_from_tableau(t: Tableau) -> StabilizerGroupEstimate:
    """Span of the generator rows with signs dropped; dim is exactly n."""
    return t.group


def conjugate_vector(c: Circuit, v: SympVec) -> SympVec:
    """C(v): the packed vector of C W_v C^dagger, phase discarded.

    Preserves symplectic products and distributes over addition.
    """
    if c.t:
        raise ValueError("conjugation is defined for Clifford circuits only")
    if c.n != v.n:
        raise ValueError(f"qubit count mismatch: {c.n} vs {v.n}")
    n = c.n
    bits = v.bits
    for g in c.gates:
        if g.name == "CNOT":
            qc, qt = g.qubits
            ac, bt = 1 << (n - qc), 1 << (2 * n - qt)
            if bits & ac:
                bits ^= 1 << (n - qt)
            if bits & bt:
                bits ^= 1 << (2 * n - qc)
            continue
        (q,) = g.qubits
        abit, bbit = 1 << (n - q), 1 << (2 * n - q)
        if g.name == "H":
            a_set, b_set = bits & abit, bits & bbit
            bits &= ~(abit | bbit)
            if a_set:
                bits |= bbit
            if b_set:
                bits |= abit
        elif g.name == "S":
            if bits & abit:
                bits ^= bbit
        # X, Y, Z only change phases, never the packed vector.
    return SympVec(n, bits)
