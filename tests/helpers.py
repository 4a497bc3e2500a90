"""Brute-force oracles shared across the test suite.

Everything here is deliberately independent of the package internals: dense
0/1 matrices instead of packed ints, Kronecker products instead of in-place
gate kernels, butterflies instead of the matmul Walsh-Hadamard transform,
full-length complex expectation rows instead of the folded half-length
kernel, explicit convolutions instead of two-draw sampling. The suite checks
the fast paths against these. Two exceptions share the row kernel on
purpose: the all-rows Bell difference sampler, which pins the rows path's
draws byte for byte, and the all-rows cell table, which pins the cells the
group path reads off at sizes the brute-force table cannot reach.
"""

from __future__ import annotations

import numpy as np

from stabent import (
    Circuit,
    Cut,
    StateVector,
    Subspace,
    SympVec,
    from_pauli_string,
    span,
    symplectic_product,
)
from stabent import statevector, symplectic, weyl

# ---------------------------------------------------------------------------
# GF(2) oracles on dense 0/1 matrices


def dense_gf2_rref(rows: list[int], width: int) -> list[int]:
    """Reduced row-echelon form over GF(2) by dense elimination on a uint8
    matrix: columns in ascending bit order, so each row's pivot is its lowest
    set bit, pivots ascend, and a pivot bit is set in its own row alone."""
    if not rows:
        return []
    mat = np.array(
        [[(r >> j) & 1 for j in range(width)] for r in rows], dtype=np.uint8
    )
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(rows)):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        for r in range(len(rows)):
            if r != rank and mat[r, col]:
                mat[r] ^= mat[rank]
        rank += 1
    return [sum(int(b) << j for j, b in enumerate(row)) for row in mat[:rank]]


def dense_gf2_rank(rows: list[int], width: int) -> int:
    """Rank over GF(2) by dense elimination on a uint8 matrix."""
    return len(dense_gf2_rref(rows, width))


def contains(sub: Subspace, v: SympVec) -> bool:
    """Whether v lies in sub: clear each pivot (lowest set bit) of sub's
    canonical RREF basis from v in turn and see if anything is left."""
    if v.n != sub.n:
        raise ValueError("qubit count mismatch")
    bits = v.bits
    for row in sub.basis:
        if bits & row.bits & -row.bits:
            bits ^= row.bits
    return bits == 0


def pairwise_isotropic(sub: Subspace) -> bool:
    """Whether every pair of basis rows commutes, by one symplectic product
    per pair of SympVec rows."""
    basis = sub.basis
    return all(
        symplectic_product(u, w) == 0
        for i, u in enumerate(basis)
        for w in basis[i + 1 :]
    )


def all_vectors(n: int):
    for bits in range(1 << (2 * n)):
        yield SympVec(n, bits)


def brute_complement(sub: Subspace) -> Subspace:
    """T-perp by checking every vector of F2^(2n) against the basis."""
    hits = [
        v
        for v in all_vectors(sub.n)
        if all(symplectic_product(v, w) == 0 for w in sub.basis)
    ]
    return span(hits, n=sub.n)


def support(v: SympVec) -> set[int]:
    """Qubits on which either half of v is nonzero."""
    return {q for q in range(1, v.n + 1) if v.a(q) or v.b(q)}


def brute_restrict(sub: Subspace, side: set[int]) -> Subspace:
    """S_side by filtering every member of S on its support. The members
    are enumerated as the XORs of all subsets of the basis."""
    basis = [v.bits for v in sub.basis]
    hits = []
    for subset in range(1 << len(basis)):
        bits = 0
        for i, row in enumerate(basis):
            if subset >> i & 1:
                bits ^= row
        v = SympVec(sub.n, bits)
        if support(v) <= side:
            hits.append(v)
    return span(hits, n=sub.n)


def dense_restricted_dim(sub: Subspace, side) -> int:
    """dim S_side as dim S minus the dense rank of S's basis rows with the
    side's coordinates zeroed (Fattal et al. 2004)."""
    n = sub.n
    off_side = 0
    for q in set(range(1, n + 1)) - set(side):
        off_side |= from_pauli_string("I" * (q - 1) + "Y" + "I" * (n - q)).bits
    return sub.rank - dense_gf2_rank([v.bits & off_side for v in sub.basis], 2 * n)


def tableau_rows(tab) -> list[SympVec]:
    """The generator rows of a Tableau as SympVec, read from its packed
    little-endian uint64 words."""
    return [
        SympVec(tab.n, int.from_bytes(row.astype("<u8").tobytes(), "little"))
        for row in tab.rows
    ]


def rand_bits(rng: np.random.Generator, nbits: int) -> int:
    """Uniform nbits-bit int, composed from 32-bit chunks (any width)."""
    out = 0
    for shift in range(0, nbits, 32):
        out |= int(rng.integers(0, 1 << 32)) << shift
    return out & ((1 << nbits) - 1)


def random_subspace(n: int, rng: np.random.Generator) -> Subspace:
    count = int(rng.integers(0, 2 * n + 1))
    rows = [rand_bits(rng, 2 * n) for _ in range(count)]
    return Subspace.from_bit_rows(n, rows)


def random_symplectic_basis(
    n: int, v: int, rng: np.random.Generator, transvections: int = 0
) -> tuple[list[int], list[int]]:
    """A random symplectic basis (e_1..e_v, f_1..f_v) inside F2^(2n).

    Starts from the standard X/Z pairs on the first v qubits and scrambles
    with random transvections, which preserve the symplectic form.
    """
    es = [1 << (n - i) for i in range(1, v + 1)]
    fs = [1 << (2 * n - i) for i in range(1, v + 1)]
    if transvections == 0:
        transvections = 4 * n
    for _ in range(transvections):
        h = rand_bits(rng, 2 * n)
        if h == 0:
            continue

        def tv(w: int) -> int:
            prod = ((w & (h >> n)).bit_count() ^ ((w >> n) & h).bit_count()) & 1
            return w ^ (h if prod else 0)

        es = [tv(w) for w in es]
        fs = [tv(w) for w in fs]
    return es, fs


# ---------------------------------------------------------------------------
# Dense-state oracles


_I2 = np.eye(2, dtype=complex)
_GATE_MATS = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
    "TDG": np.diag([1, np.exp(-1j * np.pi / 4)]).astype(complex),
}


def _embed_1q(mat: np.ndarray, q: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for pos in range(1, n + 1):
        out = np.kron(out, mat if pos == q else _I2)
    return out


def _cnot_matrix(c: int, t: int, n: int) -> np.ndarray:
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        m2 = m ^ (1 << (n - t)) if (m >> (n - c)) & 1 else m
        mat[m2, m] = 1.0
    return mat


def matrix_simulate_unitary(c: Circuit) -> np.ndarray:
    """The full circuit unitary by explicit Kronecker products."""
    out = np.eye(1 << c.n, dtype=complex)
    for g in c.gates:
        if g.name == "CNOT":
            mat = _cnot_matrix(g.qubits[0], g.qubits[1], c.n)
        else:
            mat = _embed_1q(_GATE_MATS[g.name], g.qubits[0], c.n)
        out = mat @ out
    return out


def matrix_simulate(c: Circuit) -> np.ndarray:
    """C|0^n> by explicit unitary matrices; independent of the fast kernels."""
    state = np.zeros(1 << c.n, dtype=complex)
    state[0] = 1.0
    return matrix_simulate_unitary(c) @ state


def literal_pauli_matrix(v: SympVec) -> np.ndarray:
    """X^a Z^b as a dense matrix (no Weyl phase)."""
    out = np.eye(1, dtype=complex)
    for q in range(1, v.n + 1):
        mat = _I2
        if v.b(q):
            mat = _GATE_MATS["Z"] @ mat
        if v.a(q):
            mat = _GATE_MATS["X"] @ mat
        out = np.kron(out, mat)
    return out


def weyl_matrix(v: SympVec) -> np.ndarray:
    """i^(a.b) X^a Z^b, with the halves a and b read from v.bits."""
    a, b = v.bits & ((1 << v.n) - 1), v.bits >> v.n
    phase = 1j ** ((a & b).bit_count() % 4)
    return phase * literal_pauli_matrix(v)


def reduced_density_entropy(psi: StateVector, cut: Cut) -> float:
    """Entropy via the reduced density matrix eigenvalues (not SVD)."""
    order = [q - 1 for q in cut.a_sorted + cut.b_sorted]
    mat = (
        psi.amplitudes.reshape([2] * psi.n)
        .transpose(order)
        .reshape(1 << len(cut.a), -1)
    )
    rho = mat @ mat.conj().T
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-12]
    return float(-np.sum(lam * np.log2(lam)))


def wht_butterfly(mat: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row, by radix-2 butterflies."""
    out = np.array(mat)
    m, size = out.shape
    h = 1
    while h < size:
        view = out.reshape(m, -1, 2, h)
        top = view[:, :, 0, :].copy()
        bot = view[:, :, 1, :]
        view[:, :, 0, :] = top + bot
        view[:, :, 1, :] = top - bot
        h *= 2
    return out


_I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex128)


def expectation_rows_complex(amps: np.ndarray, a_values: np.ndarray) -> np.ndarray:
    """<psi| W_(a|b) |psi> for each a in `a_values` and every b, unfolded.

    Row a is the full-length complex WHT (by butterflies) of
    conj(psi[u xor a]) psi[u] times the i^(a.b) phase, whose imaginary
    residue must vanish.
    """
    size = len(amps)
    idx = np.arange(size, dtype=np.uint64)
    a_col = np.asarray(a_values, dtype=np.uint64)[:, None]
    g = np.conj(amps[idx[None, :] ^ a_col]) * amps[None, :]
    wht = wht_butterfly(g)
    table = _I_POWERS[np.bitwise_count(a_col & idx[None, :]) & 3] * wht
    resid = float(np.abs(table.imag).max(initial=0.0))
    if resid > 1e-10:
        raise RuntimeError(f"non-real Weyl expectation row (residue {resid:.3e})")
    return table.real


def characteristic_table(psi: StateVector) -> np.ndarray:
    """p(x) = 2^-n <psi|W_x|psi>^2 on all of F2^(2n), indexed by SympVec.bits.

    The whole 4^n table, one unfolded expectation row per X half; small n
    only.
    """
    size = 1 << psi.n
    rows = expectation_rows_complex(psi.amplitudes, np.arange(size, dtype=np.uint64))
    return ((rows * rows).T / size).ravel()  # [b, a], flat index (b << n) | a


def convolve_q(p: np.ndarray) -> np.ndarray:
    """Explicit XOR self-convolution q(x) = sum_a p(a) p(x ^ a)."""
    size = len(p)
    q = np.zeros(size)
    for a in range(size):
        if p[a] == 0.0:
            continue
        for x in range(size):
            q[x] += p[a] * p[x ^ a]
    return q


def bell_difference_sample_bits_all_rows(
    dist: statevector.CharacteristicDistribution,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Bell difference samples as the dense sampler drew them when it computed
    the expectation row of every X half, zeros of p_X included.

    It shares the package's row kernel, batch size and cell cut, and masks
    the cells of X halves with p_X = 0 instead of skipping their rows, so for
    the same generator state it must draw the same samples as
    `bell_difference_sample_bits` when its group path is declined. Each row
    is checked against its p_X value.
    """
    n = dist.n
    size = 1 << n
    block = weyl._rows_per_block(n)
    mass = np.add.reduceat(dist.marginal, np.arange(0, size, block))
    live = np.flatnonzero(mass)
    per_batch = np.zeros(mass.size, dtype=np.int64)
    per_batch[live] = rng.multinomial(2 * count, mass[live] / mass[live].sum())
    draws = []
    for batch, start in enumerate(range(0, size, block)):
        stop = min(start + block, size)
        sq = weyl.expectation_rows(dist.amplitudes, np.arange(start, stop)) ** 2
        miss = np.abs(sq.sum(axis=1) / size - dist.marginal[start:stop]).max()
        if miss > statevector._MARGINAL_TOL:
            raise RuntimeError(f"expectation rows miss the X marginal by {miss:.3e}")
        if not per_batch[batch]:
            continue
        cells = sq > statevector._CELL_TOL
        cells[dist.marginal[start:stop] == 0] = False
        cell = np.flatnonzero(cells)
        weight = sq.ravel()[cell]
        hits = rng.multinomial(per_batch[batch], weight / weight.sum())
        vals = ((cell & (size - 1)) << n) | (start + (cell >> n))
        draws.append(np.repeat(vals, hits))
    packed = np.concatenate(draws) if draws else np.zeros(0, dtype=np.int64)
    rng.shuffle(packed)
    return np.bitwise_xor(packed[:count], packed[count:]).view(np.uint64)


def coset_basis_by_reduction(seen: Subspace, group: Subspace) -> np.ndarray:
    """A basis of a complement of `group` in `seen` (group inside seen), as
    the group path built it by elimination: every row of seen's canonical
    basis reduced by group's canonical basis, then the canonical basis of
    what is left, as an int64 array."""
    rest = seen.rows[:, 0].astype(np.int64)
    for g, p in zip(group.rows[:, 0].astype(np.int64), symplectic._pivots(group.rows)):
        rest ^= ((rest >> p) & 1) * g
    left = Subspace.from_bit_rows(seen.n, rest[:, None].astype(np.uint64))
    return left.rows[:, 0].astype(np.int64)


def characteristic_cells_all_rows(
    dist: statevector.CharacteristicDistribution,
) -> tuple[np.ndarray, np.ndarray]:
    """(keys, <W>^2) of every cell above the sampler's cut on an X half with
    p_X > 0, key a * 2^n + b ascending, from the package's row kernel run on
    every X half in row batches: the cells the all-rows sampler draws from."""
    n = dist.n
    size = 1 << n
    block = weyl._rows_per_block(n)
    keys, weights = [], []
    for start in range(0, size, block):
        stop = min(start + block, size)
        sq = weyl.expectation_rows(dist.amplitudes, np.arange(start, stop)) ** 2
        sq[dist.marginal[start:stop] == 0] = 0.0
        cell = np.flatnonzero(sq > statevector._CELL_TOL)
        keys.append(start * size + cell)
        weights.append(sq.ravel()[cell])
    return np.concatenate(keys), np.concatenate(weights)


# ---------------------------------------------------------------------------
# Circuit files


def format_circuit(c: Circuit) -> str:
    """The circuit file text of c: the `qubits N` header, one gate a line."""
    lines = [f"qubits {c.n}"]
    lines += [" ".join((g.name, *map(str, g.qubits))) for g in c.gates]
    return "\n".join(lines) + "\n"
