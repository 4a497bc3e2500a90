"""Bit-packed linear algebra over F2^(2n) with the standard symplectic form.

A length-2n binary vector is stored in a single Python int: the low n bits
hold the X half, the high n bits the Z half, and qubit q (1-based) occupies
bit ``n - q`` of each half. Python ints are word-backed bignums, so XOR, AND
and popcount already run word-parallel; every row operation costs O(n/64)
machine words and the symplectic product is one swap plus two AND/popcounts.

Subspace bases are kept in reduced row-echelon form (pivot = lowest set bit,
pivots strictly increasing), so two subspaces are equal iff their bases are
equal, which keeps tests and reports deterministic.

Two passes leave Python ints. The isotropy check packs each half of the basis
into uint64 words and tests a block of rows against all earlier rows at once,
by the parity of a popcount. Restriction to a cut is one elimination over the
full rows, pivoting on coordinates outside the cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Cut",
    "Subspace",
    "SympVec",
    "extract_symplectic_subspace",
    "from_pauli_string",
    "is_isotropic",
    "restrict_to_cut",
    "span",
    "symplectic_complement",
    "symplectic_product",
    "to_pauli_string",
]

# Bytes of one (block, rank) uint64 accumulator in is_isotropic.
_ISOTROPY_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True, slots=True)
class SympVec:
    """An element (a|b) of F2^(2n): a is the X half, b the Z half."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        if not 0 <= self.bits < 1 << (2 * self.n):
            raise ValueError(f"bits out of range for n={self.n}: {self.bits:#x}")

    @property
    def a_bits(self) -> int:
        return self.bits & ((1 << self.n) - 1)

    @property
    def b_bits(self) -> int:
        return self.bits >> self.n

    def a(self, q: int) -> int:
        """X-half coordinate on qubit q (1-based)."""
        return (self.bits >> (self.n - q)) & 1

    def b(self, q: int) -> int:
        """Z-half coordinate on qubit q (1-based)."""
        return (self.bits >> (2 * self.n - q)) & 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        """Qubits on which either coordinate is nonzero, ascending."""
        return tuple(q for q in range(1, self.n + 1) if self.a(q) or self.b(q))

    def __xor__(self, other: "SympVec") -> "SympVec":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return SympVec(self.n, self.bits ^ other.bits)

    def __repr__(self) -> str:
        return f"SympVec({self.n}, {to_pauli_string(self)!r})"


def _product_bits(u: int, v: int, n: int) -> int:
    """symplectic_product on raw packed ints (hot path)."""
    return ((u & (v >> n)).bit_count() ^ ((u >> n) & v).bit_count()) & 1


def symplectic_product(x: SympVec, y: SympVec) -> int:
    """Standard symplectic product [x, y] = a_x . b_y + b_x . a_y over F2.

    Vanishes exactly when the corresponding Weyl operators commute.
    """
    if x.n != y.n:
        raise ValueError(f"qubit count mismatch: {x.n} vs {y.n}")
    return _product_bits(x.bits, y.bits, x.n)


def _rref(rows: Iterable[int]) -> list[int]:
    """Reduced row-echelon form of int-packed rows; pivots ascending.

    Each row's pivot is its lowest set bit; the full-reduction invariant
    (a pivot bit appears in no other row) makes single-pass reduction valid.
    """
    pivots: dict[int, int] = {}
    for v in rows:
        for p, r in pivots.items():
            if v & p:
                v ^= r
        if v:
            p = v & -v
            for q, r in pivots.items():
                if r & p:
                    pivots[q] = r ^ v
            pivots[p] = v
    return [pivots[p] for p in sorted(pivots)]


def _reduce(v: int, pivots: dict[int, int]) -> int:
    for p, r in pivots.items():
        if v & p:
            v ^= r
    return v


@dataclass(frozen=True)
class Subspace:
    """A subspace of F2^(2n), held as a canonical RREF basis."""

    n: int
    basis: tuple[SympVec, ...]

    def __post_init__(self) -> None:
        last_pivot = 0
        for v in self.basis:
            if v.n != self.n:
                raise ValueError("basis vector has wrong qubit count")
            if v.bits == 0:
                raise ValueError("zero vector in basis")
            pivot = v.bits & -v.bits
            if pivot <= last_pivot:
                raise ValueError("basis is not in canonical RREF order")
            last_pivot = pivot

    @classmethod
    def from_bit_rows(cls, n: int, rows: Iterable[int]) -> "Subspace":
        return cls(n, tuple(SympVec(n, r) for r in _rref(rows)))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, ())

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, tuple(SympVec(n, 1 << j) for j in range(2 * n)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def bit_rows(self) -> list[int]:
        return [v.bits for v in self.basis]

    def contains(self, v: SympVec) -> bool:
        if v.n != self.n:
            raise ValueError("qubit count mismatch")
        pivots = {r.bits & -r.bits: r.bits for r in self.basis}
        return _reduce(v.bits, pivots) == 0

    __contains__ = contains

    def elements(self) -> Iterator[SympVec]:
        """All 2^rank members, by Gray-code walk over the basis."""
        rows = self.bit_rows()
        cur = 0
        yield SympVec(self.n, 0)
        for i in range(1, 1 << len(rows)):
            cur ^= rows[(i & -i).bit_length() - 1]
            yield SympVec(self.n, cur)


def span(vectors: Iterable[SympVec], n: int | None = None) -> Subspace:
    """Span of the given vectors; `n` is required when the input is empty."""
    vecs = list(vectors)
    if vecs:
        vn = vecs[0].n
        if any(v.n != vn for v in vecs):
            raise ValueError("mixed qubit counts in span input")
        if n is not None and n != vn:
            raise ValueError(f"explicit n={n} conflicts with vectors (n={vn})")
        n = vn
    elif n is None:
        raise ValueError("empty span needs an explicit qubit count")
    return Subspace.from_bit_rows(n, (v.bits for v in vecs))


def _kernel_basis(rows: list[int], width: int) -> list[int]:
    """Basis of {x : parity(r & x) = 0 for every r in rows}."""
    rref = _rref(rows)
    pivot_rows = {r & -r: r for r in rref}
    out = []
    for f in range(width):
        fbit = 1 << f
        if fbit in pivot_rows:
            continue
        v = fbit
        for p, r in pivot_rows.items():
            if r & fbit:
                v |= p
        out.append(v)
    return out


def symplectic_complement(t: Subspace) -> Subspace:
    """T-perp = {x : [v, x] = 0 for all v in T}.

    [v, x] equals the plain dot product of x with v's halves swapped, so the
    complement is the kernel of the half-swapped basis matrix.
    """
    n = t.n
    mask = (1 << n) - 1
    swapped = [((r & mask) << n) | (r >> n) for r in t.bit_rows()]
    return Subspace.from_bit_rows(n, _kernel_basis(swapped, 2 * n))


def restrict_to_cut(s: Subspace, side: Iterable[int]) -> Subspace:
    """Members of s supported only on the given qubits.

    One elimination over the full basis rows, each pivot at a row's lowest
    coordinate outside `side`: the rows that end with no such coordinate
    are a basis of the restriction.
    """
    n = s.n
    qubits = set(side)
    if not qubits <= set(range(1, n + 1)):
        raise ValueError(f"side must be a subset of 1..{n}")
    keep = 0
    for q in qubits:
        keep |= (1 << (n - q)) | (1 << (2 * n - q))
    forbidden = ((1 << (2 * n)) - 1) & ~keep
    pivots: dict[int, int] = {}
    inside = []
    for v in s.bit_rows():
        # pivots in insertion order: each pivot row is clear at earlier pivots
        for p, r in pivots.items():
            if v & p:
                v ^= r
        outside = v & forbidden
        if outside:
            pivots[outside & -outside] = v
        else:
            inside.append(v)
    return Subspace.from_bit_rows(n, inside)


def _packed_half(rows: list[int], shift: int, n: int) -> np.ndarray:
    """Bits shift..shift+n-1 of each row as a (words, len(rows)) uint64 array."""
    words = (n + 63) // 64
    mask = (1 << n) - 1
    packed = b"".join(((r >> shift) & mask).to_bytes(8 * words, "little") for r in rows)
    return np.frombuffer(packed, dtype="<u8").reshape(len(rows), words).T.copy()


def is_isotropic(s: Subspace) -> bool:
    """True iff all members pairwise commute (pairwise-on-basis suffices).

    Checks a block of basis rows i against themselves and every earlier row
    j at once: XOR (X_i & Z_j) ^ (Z_i & X_j) over the 64-bit words of each
    half; the pair commutes iff the result has even popcount.
    """
    m, n = s.rank, s.n
    rows = s.bit_rows()
    xs, zs = _packed_half(rows, 0, n), _packed_half(rows, n, n)
    step = max(1, _ISOTROPY_BLOCK_BYTES // (8 * max(m, 1)))
    for start in range(0, m, step):
        stop = min(start + step, m)
        acc = np.zeros((stop - start, stop), dtype=np.uint64)
        for xw, zw in zip(xs, zs):
            acc ^= np.bitwise_and.outer(xw[start:stop], zw[:stop])
            acc ^= np.bitwise_and.outer(zw[start:stop], xw[:stop])
        if (np.bitwise_count(acc) & 1).any():
            return False
    return True


def extract_symplectic_subspace(
    s: Subspace,
) -> tuple[list[tuple[SympVec, SympVec]], Subspace]:
    """Greedy symplectic Gram-Schmidt.

    Repeatedly picks the first basis pair (e, f) with [e, f] = 1 (scanning in
    basis order), records it, and projects the rest of the space into the
    complement of <e, f> via v -> v + [v,e] f + [v,f] e.

    Returns the hyperbolic pairs and the isotropic residual. The pairs obey
    [e_i, f_j] = delta_ij and [e_i, e_j] = [f_i, f_j] = 0 exactly, and
    pairs + residual span s. If s sits inside a 2v-dimensional symplectic
    subspace, at least dim(s) - v pairs come back.
    """
    n = s.n
    work = s.bit_rows()
    pairs: list[tuple[SympVec, SympVec]] = []
    while True:
        hit = None
        for e in work:
            for f in work:
                if _product_bits(e, f, n):
                    hit = (e, f)
                    break
            if hit:
                break
        if hit is None:
            break
        e, f = hit
        pairs.append((SympVec(n, e), SympVec(n, f)))
        projected = []
        for v in work:
            w = v
            if _product_bits(v, e, n):
                w ^= f
            if _product_bits(v, f, n):
                w ^= e
            projected.append(w)
        work = _rref(projected)
    return pairs, Subspace(n, tuple(SympVec(n, r) for r in work))


@dataclass(frozen=True)
class Cut:
    """A bipartition A | B of the qubits 1..n; `a` holds the A-side indices."""

    n: int
    a: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", frozenset(self.a))
        if self.n < 1:
            raise ValueError("qubit count must be positive")
        if not self.a <= set(range(1, self.n + 1)):
            raise ValueError(f"cut indices must lie in 1..{self.n}")

    @property
    def b(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.a

    @property
    def a_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.a))

    @property
    def b_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.b))


_PAULI_FROM_CHAR = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_PAULI_TO_CHAR = {v: k for k, v in _PAULI_FROM_CHAR.items()}


def from_pauli_string(s: str) -> SympVec:
    """Parse "XZIY"-style notation; character i addresses qubit i."""
    n = len(s)
    if n == 0:
        raise ValueError("empty Pauli string")
    a = b = 0
    for q, ch in enumerate(s.upper(), start=1):
        try:
            xa, zb = _PAULI_FROM_CHAR[ch]
        except KeyError:
            raise ValueError(f"invalid Pauli character {ch!r}") from None
        if xa:
            a |= 1 << (n - q)
        if zb:
            b |= 1 << (n - q)
    return SympVec(n, a | (b << n))


def to_pauli_string(v: SympVec) -> str:
    return "".join(_PAULI_TO_CHAR[v.a(q), v.b(q)] for q in range(1, v.n + 1))
