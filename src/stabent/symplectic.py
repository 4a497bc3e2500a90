"""Bit-packed linear algebra over F2^(2n) with the standard symplectic form.

A length-2n binary vector has two forms. At the API edge, a `SympVec` holds
it in a single Python int: the low n bits hold the X half, the high n bits
the Z half, and qubit q (1-based) occupies bit ``n - q`` of each half.
Everywhere else a set of vectors is a packed uint64 matrix of shape
(rows, words), in which bit j of a row sits in bit j % 64 of word j // 64
(the layout of Gidney's Stim, Quantum 2021). Ints are packed once on the
way in (`Subspace.from_bit_rows`, `span`) and unpacked only on the way out
(`Subspace.basis`, `extract_symplectic_subspace`).

A `Subspace` holds its canonical RREF basis as such a matrix (pivot =
lowest set bit, pivots strictly increasing, each pivot bit set in its own
row alone), so two subspaces are equal iff their bases are equal, which
keeps tests and reports deterministic. Construction checks all of it, so
every kernel may rely on it.

One Gauss-Jordan kernel, `_eliminate`, reduces a packed matrix a 64-column
word at a time in the style of the Method of Four Russians (Albrecht, Bard
& Hart, ACM TOMS 2010): the word's pivots come from its 64 bit columns,
held as m-bit ints, and every row is then cleared with tables of all XOR
combinations of 8 pivot rows, one gather and one XOR per table. A column
mask says where pivots may fall, and the rows left without a pivot are zero
on every allowed column:

- all columns allowed: the pivot rows are the canonical RREF (`span`);
- the columns outside a cut: the rows left span the members supported on
  the cut (`restrict_to_cut`). Its input is a canonical basis, whose
  pivot bits are each set in one row alone, so a row pivoted outside the
  cut is in no member on the cut and is dropped before this pass.

The symplectic complement needs no elimination of its own: each free
column of a canonical basis names one kernel vector, read off the RREF,
and swapping its X and Z halves puts it in the complement. The isotropy
check reads the RREF too. The Gram matrix of the symplectic form is
M + M^T with M = X . Z^T, and a row pivoted at X column p has X half e_p
plus bits on the free X columns only. So M is a gather of the Z
coordinates at the pivot columns plus one Four-Russians product over the
f free X columns, O(n^2 f / 64) in place of the O(n^3 / 64) Gram product,
and it is still exact. `_transpose` is the one bit transpose; the
complement, the isotropy check and the tableau use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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

# Most bytes of one (block, words) uint64 temporary in a blocked pass.
_GATHER_BLOCK_BYTES = 1 << 18


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

    def a(self, q: int) -> int:
        """X-half coordinate on qubit q (1-based)."""
        return (self.bits >> (self.n - q)) & 1

    def b(self, q: int) -> int:
        """Z-half coordinate on qubit q (1-based)."""
        return (self.bits >> (2 * self.n - q)) & 1

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


_WORD = (1 << 64) - 1
_BIT_SHIFTS = np.arange(8, dtype=np.uint8)[:, None]


def _words(width: int) -> int:
    return (width + 63) // 64


def _block_rows(rows: int, words: int) -> int:
    """Rows per block of a pass over a (rows, words) matrix: a quarter, at
    most `_GATHER_BLOCK_BYTES`, so its temporaries stay small and in cache."""
    return max(1, min(rows // 4, _GATHER_BLOCK_BYTES // (8 * words)))


def _pack(rows: Iterable[int], words: int) -> np.ndarray:
    """Python-int rows as a writable (rows, words) uint64 matrix.

    Bit j of a row lands in bit j % 64 of word j // 64.
    """
    rows = list(rows)
    size = 8 * words
    data = bytearray(size * len(rows))
    view = memoryview(data)
    try:
        for i, r in enumerate(rows):
            view[i * size : (i + 1) * size] = r.to_bytes(size, "little")
    except OverflowError:
        raise ValueError(f"row out of range for {64 * words} bits") from None
    except AttributeError:
        raise ValueError(f"rows must be ints, got {type(r).__name__}") from None
    return np.frombuffer(data, dtype="<u8").reshape(-1, words)


def _unpack(mat: np.ndarray) -> list[int]:
    """The rows of a packed matrix back as Python ints."""
    data = memoryview(np.ascontiguousarray(mat, dtype="<u8").view(np.uint8).reshape(-1))
    size = 8 * mat.shape[1]
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


def _bit_columns(strip: np.ndarray) -> np.ndarray:
    """The 64 bit columns of one uint64 per row, as (64, ceil(rows / 8))
    packed bytes: bit i of row b is bit b of strip[i]."""
    data = strip.astype("<u8").view(np.uint8).reshape(-1, 8).T
    planes = data[:, None, :] >> _BIT_SHIFTS  # [byte, bit, row]
    planes &= 1
    return np.packbits(planes.reshape(64, -1), axis=1, bitorder="little")


def _transpose(mat: np.ndarray) -> np.ndarray:
    """Bit transpose of a packed (m, words) matrix, one word column at a time.

    Returns (64 * words, ceil(m / 64)) packed rows: row c holds column c of
    `mat`, with row i of `mat` at bit i.
    """
    m, words = mat.shape
    out = np.zeros((64 * words, 8 * _words(m)), dtype=np.uint8)
    for w in range(words):
        out[64 * w : 64 * w + 64, : (m + 7) // 8] = _bit_columns(mat[:, w])
    return out.view("<u8").astype(np.uint64, copy=False)


def _combine(coeffs: np.ndarray, src: np.ndarray, out: np.ndarray) -> None:
    """out ^= coeffs . src over GF(2), by Four-Russians table lookups.

    Bit b of coeffs[g, i] selects src row 8g + b for out row i. Each group
    of 8 src rows becomes a table of its 256 XOR combinations, and each block
    of out rows (`_block_rows`) takes one gather and one XOR per table.
    """
    rows, words = out.shape
    step = _block_rows(rows, words)
    table = np.zeros((256, words), dtype=np.uint64)
    gathered = np.empty((min(step, rows), words), dtype=np.uint64)
    for g in range(0, len(src), 8):
        for b, row in enumerate(src[g : g + 8]):
            np.bitwise_xor(table[: 1 << b], row, out=table[1 << b : 2 << b])
        idx = coeffs[g // 8]
        for start in range(0, rows, step):
            block = out[start : start + step]
            buf = gathered[: len(block)]
            np.take(table, idx[start : start + step], axis=0, out=buf, mode="clip")
            block ^= buf


def _eliminate(mat: np.ndarray, allowed: int) -> list[int]:
    """Gauss-Jordan elimination of a packed matrix in place, pivoting only on
    the columns set in `allowed`; returns the pivot rows by pivot column.

    Afterwards every row that is not a pivot row is zero on all allowed
    columns, and each pivot column is set in its pivot row alone. The row
    operations are invertible, so the rows span what they spanned before.

    Works one 64-column word at a time. The word's bit columns, as m-bit
    ints, are reduced against each other, each pivot picked among the rows
    that are not pivots yet, until each pivot column is set in its own pivot
    row alone among the pivot rows. A tag above bit m records which original
    columns each reduced column sums. Reduced column j then lists the rows
    that must add pivot row j, and the tags invert the pivot rows' square
    block B: pivot row j becomes row j of B^-1 times the pivot rows. One
    _combine applies both.
    """
    m, words = mat.shape
    rowmask = free = (1 << m) - 1
    order: list[int] = []
    for w in range(words):
        colmask = (allowed >> (64 * w)) & _WORD
        if not free:
            break
        if not colmask:
            continue
        packed = _bit_columns(mat[:, w]).tobytes()
        step = len(packed) // 64
        lows: list[int] = []
        cols: list[int] = []
        pcols: list[int] = []
        for c in range(64):
            if not colmask >> c & 1:
                continue
            v = int.from_bytes(packed[c * step : (c + 1) * step], "little")
            if not v:
                continue
            v |= 1 << (m + c)
            for low, u in zip(lows, cols):
                if v & low:
                    v ^= u
            candidates = v & free
            if not candidates:
                continue  # a sum of earlier pivot columns on the free rows
            low = candidates & -candidates
            for i, u in enumerate(cols):
                if u & low:
                    cols[i] = u ^ v
            lows.append(low)
            cols.append(v)
            pcols.append(c)
        if not pcols:
            continue
        k = len(pcols)
        prows = [low.bit_length() - 1 for low in lows]
        free &= ~sum(lows)
        groups = (k + 7) // 8
        adds = b"".join((u & rowmask).to_bytes(step, "little") for u in cols)
        adds = np.frombuffer(adds.ljust(8 * groups * step, b"\0"), np.uint8)
        adds = np.unpackbits(adds.reshape(8 * groups, step), axis=1, count=m, bitorder="little")
        coeffs = np.bitwise_or.reduce(adds.reshape(groups, 8, m) << _BIT_SHIFTS, axis=1)
        del adds
        tags = np.array([u >> m for u in cols], dtype=np.uint64)
        inverse = (tags >> np.array(pcols, dtype=np.uint64)[:, None]) & np.uint64(1)
        inverse[np.arange(k), np.arange(k)] ^= np.uint64(1)  # pivot rows drop themselves
        coeffs[:, prows] = np.packbits(inverse.astype(np.uint8), axis=1, bitorder="little").T
        _combine(coeffs, mat[prows], mat)
        order.extend(prows)
    return order


def _identity(width: int) -> np.ndarray:
    """The packed (width, words) identity: row j has bit j alone."""
    out = np.zeros((width, _words(width)), dtype=np.uint64)
    c = np.arange(width)
    out[c, c // 64] = np.uint64(1) << (c % 64).astype(np.uint64)
    return out


def _pivots(rows: np.ndarray) -> np.ndarray:
    """The lowest set bit of each nonzero packed row."""
    first = (rows != 0).argmax(axis=1)
    word = rows[np.arange(len(rows)), first]
    return 64 * first + np.bitwise_count((word & (~word + np.uint64(1))) - np.uint64(1))


def _checked_rows(rows: Iterable[int] | np.ndarray, n: int) -> np.ndarray:
    """A writable packed copy of rows over F2^(2n): Python ints, or an
    integer (m, words) matrix. Rejects n < 1, rows that are not ints,
    negative rows and any bit at or above 2n, stray bits in the last word
    included."""
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    words = _words(2 * n)
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != words or rows.dtype.kind not in "iu":
            raise ValueError(f"packed rows for n={n} must be an integer (m, {words}) matrix")
        if rows.dtype.kind == "i" and (rows < 0).any():
            raise ValueError(f"row out of range for n={n}: negative")
        mat = rows.astype(np.uint64)
    else:
        mat = _pack(rows, words)
    stray = np.uint64(_WORD ^ ((1 << (2 * n - 64 * (words - 1))) - 1))
    if (mat[:, -1] & stray).any():
        raise ValueError(f"row out of range for n={n}: a bit at or above {2 * n}")
    return mat


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of F2^(2n), held as its canonical RREF basis.

    `rows` is a read-only packed (rank, words) uint64 matrix: pivot = lowest
    set bit, pivots ascending, each pivot bit set in its own row alone. So
    two subspaces are equal iff their rows are. `from_bit_rows` and `span`
    build one from arbitrary rows.

    Construction verifies that whole invariant: no zero row, ascending
    pivots, and no pivot bit set outside its own row, in O(rank x words), a
    block of rows at a time. `restrict_to_cut` and `is_isotropic` rely on
    the last part.
    """

    n: int
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = self.rows
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        words = _words(2 * self.n)
        if not isinstance(rows, np.ndarray) or rows.dtype != np.uint64 or rows.shape[1:] != (words,):
            raise ValueError(f"basis must be a packed (rank, {words}) uint64 matrix")
        if not rows.any(axis=1).all():
            raise ValueError("zero vector in basis")
        pivots = _pivots(rows)
        if (np.diff(pivots) <= 0).any():
            raise ValueError("basis is not in canonical RREF order")
        # Each row holds its own pivot bit, so no row holds another's iff
        # the rows, masked to the pivot columns, hold rank bits in all.
        on_pivot = np.zeros(64 * words, dtype=bool)
        on_pivot[pivots] = True
        mask = np.packbits(on_pivot, bitorder="little").view("<u8")
        step = _block_rows(len(rows), words)
        held = sum(
            int(np.bitwise_count(rows[start : start + step] & mask).sum())
            for start in range(0, len(rows), step)
        )
        if held != len(rows):
            raise ValueError("basis is not reduced: a pivot bit is set in another row")
        rows.flags.writeable = False

    @classmethod
    def from_bit_rows(cls, n: int, rows: Iterable[int] | np.ndarray) -> "Subspace":
        """Span of rows given as Python ints (SympVec.bits values) or as a
        packed integer (m, words) matrix, which is left unchanged."""
        mat = _checked_rows(rows, n)
        return cls(n, mat[_eliminate(mat, (1 << (2 * n)) - 1)])

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((0, _words(2 * n)), dtype=np.uint64))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, _identity(2 * n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.n, self.rows.tobytes()))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[SympVec, ...]:
        """The RREF rows as SympVec, in pivot order."""
        return tuple(SympVec(self.n, r) for r in _unpack(self.rows))


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


def symplectic_complement(t: Subspace) -> Subspace:
    """T-perp = {x : [v, x] = 0 for all v in T}: the kernel of the basis
    matrix, with its halves swapped.

    The basis is an RREF, so each free column f names one kernel vector:
    e_f plus e_p for each pivot p whose row is set at f. That vector is
    column f of the identity with each pivot row XORed with its basis row.
    """
    n = t.n
    pivots = _pivots(t.rows)
    cols = _identity(2 * n)
    cols[pivots] ^= t.rows
    # rolling the coordinates by n swaps the halves of every column
    perp = _transpose(np.roll(cols, n, axis=0))[: 2 * n]
    del cols
    return Subspace.from_bit_rows(n, np.delete(perp, pivots, axis=0))


def restrict_to_cut(s: Subspace, side: Iterable[int]) -> Subspace:
    """Members of s supported only on the given qubits.

    The basis is a canonical RREF, so each pivot bit is set in its own row
    alone, and any sum that takes a row carries that row's pivot bit. A row
    whose pivot lies outside `side` is therefore in no member supported on
    it, and is dropped first. One elimination over the rows left, pivoting
    only on coordinates outside `side`, then leaves the rows without a
    pivot zero there, and they are a basis of the restriction.
    """
    n = s.n
    qubits = set(side)
    if not qubits <= set(range(1, n + 1)):
        raise ValueError(f"side must be a subset of 1..{n}")
    q = np.fromiter(qubits, dtype=np.intp, count=len(qubits))
    on_side = np.zeros(2 * n, dtype=bool)
    on_side[n - q] = on_side[2 * n - q] = True
    keep = int.from_bytes(np.packbits(on_side, bitorder="little").tobytes(), "little")
    mat = s.rows[on_side[_pivots(s.rows)]]
    pivots = _eliminate(mat, ((1 << (2 * n)) - 1) & ~keep)
    # the rows left are zero outside `keep`, so their RREF pivots lie in it
    inside = np.delete(mat, pivots, axis=0)
    return Subspace(n, inside[_eliminate(inside, keep)])


def is_isotropic(s: Subspace) -> bool:
    """True iff all members pairwise commute (pairwise-on-basis suffices).

    Exact, read off the canonical RREF. With M = X . Z^T over the basis
    rows (entry (i, j) is x_i . z_j), the Gram matrix of the symplectic
    form is M + M^T, so s is isotropic iff M is symmetric. A row pivoted
    at X column p has X half e_p plus bits on the X columns that are no
    row's pivot (the free ones); a row pivoted in the Z half has no X
    half. So entry (i, j) of M is z_j at column p_i, a gather of the
    transposed columns, plus one `_combine` product over the f free X
    columns, and the rows pivoted in the Z half are zero. The cost is
    O(n^2 f / 64) rather than the O(n^3 / 64) of the Gram product. An
    isotropic subspace has rank at most n, so a larger one is refused at
    once.
    """
    n, m = s.n, s.rank
    if m > n:
        return False
    pivots = _pivots(s.rows)
    k = int(np.searchsorted(pivots, n))  # rows pivoted in the X half
    if not k:
        return True
    cols = _transpose(s.rows)  # row c: column c over the basis rows
    is_free = np.ones(n, dtype=bool)
    is_free[pivots[:k]] = False
    free = np.flatnonzero(is_free)
    mat = cols[n + pivots[:k]]  # z_j at p_i: the e_(p_i) part of x_i
    if len(free):
        # bit b of byte g of coeffs[:, i]: x_i on free column 8g + b
        coeffs = _transpose(cols[free])[:k].view(np.uint8).T
        _combine(coeffs, cols[n + free], mat)
    del cols
    # M is symmetric iff its transpose equals its first k columns and it
    # is zero in the columns of the rows pivoted in the Z half
    flip = _transpose(mat)
    words = _words(k)
    head = mat[:, :words]
    head[:, -1] &= np.uint64(_WORD >> (64 * words - k))
    return bool(np.array_equal(flip[:k], head) and not flip[k:m].any())


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
    pairs: list[tuple[SympVec, SympVec]] = []
    while True:
        work = _unpack(s.rows)
        hit = next(((e, f) for e in work for f in work if _product_bits(e, f, n)), None)
        if hit is None:
            return pairs, s
        e, f = hit
        pairs.append((SympVec(n, e), SympVec(n, f)))
        projected = [
            v ^ (f if _product_bits(v, e, n) else 0) ^ (e if _product_bits(v, f, n) else 0)
            for v in work
        ]
        s = Subspace.from_bit_rows(n, projected)


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
_PAULI_TO_CHAR = {(str(a), str(b)): k for k, (a, b) in _PAULI_FROM_CHAR.items()}


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
    """Inverse of from_pauli_string: each half formatted once, qubit 1 first."""
    n = v.n
    xs = format(v.bits & ((1 << n) - 1), f"0{n}b")
    zs = format(v.bits >> n, f"0{n}b")
    return "".join(map(_PAULI_TO_CHAR.__getitem__, zip(xs, zs)))
