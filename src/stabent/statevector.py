"""Dense 2^n backend: Clifford+T simulation, the characteristic distribution,
Bell difference sampling, and the exact entanglement entropy oracle.

The characteristic distribution p(a|b) = 2^-n <psi|W_(a|b)|psi>^2 has 4^n
points but is never tabulated; it is read through its X-half marginal p_X
(the XOR autocorrelation of |psi|^2, two length-2^n Walsh-Hadamard
transforms) and one of two paths. Where the unsigned stabilizer group G =
Weyl(psi) is large, as on Clifford+T states with few T gates, p is zero off
G^perp and constant on each coset of G in it, and so is the Bell difference
distribution q = p * p. A few rows find G and, off their RREF's pivots, G's
cosets; one O(2^n) sum per coset gives p there (`_cells_from_group`); and
each sample is drawn on its own: a coset from q's coset masses by an alias
table, plus a uniform element of G. A draw's time is then set by n and the
sample count, not by the state. Otherwise the rows of the X halves with
p_X(a) > 0, the only ones a draw from p can land on, are streamed in row
batches of about `weyl._ROW_BLOCK_BYTES`, each row one complex
Walsh-Hadamard transform of length 2^(n-1) done as real matrix products
(`weyl.expectation_rows`), and the 2 * count draws from p are made as their
multiset, a count per cell, in two exact multinomial steps (batches of X
halves by p_X, then each batch's cells by <W_(a|b)>^2), repeated out,
shuffled and paired. Memory is O(2^n * block + samples).

Amplitude index convention: qubit 1 is the most significant index bit, which
matches the packed-vector convention in `symplectic` (qubit q sits at bit
n - q of each half), so no index reshuffling happens between the two layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .symplectic import Cut, Subspace, _pivots, symplectic_complement
from .weyl import (
    _ROW_BLOCK_BYTES,
    _check_cap,
    _expectations,
    _rows_per_block,
    _wht_rows,
    expectation_rows,
)

__all__ = [
    "CharacteristicDistribution",
    "MAX_SAMPLE_COUNT",
    "StateVector",
    "bell_difference_sample_bits",
    "characteristic_distribution",
    "entanglement_entropy_oracle",
    "simulate_circuit",
]

# The most Bell-difference samples one call may ask for. On the rows path a
# sample is two int64 draws in the shuffled multiset plus its uint64, and
# each distinct cell drawn adds its value and count, twice while joined:
# traced draws on generic states peaked at 104 MB for 2^22 samples (n = 8)
# and 136 MB for 2^21 (n = 12), so this bounds a draw near 1.1 GB. The
# group path holds only the 8-byte samples and one chunk of temporaries.
# The default n = 12 run needs 480,697.
MAX_SAMPLE_COUNT = 1 << 24

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_T_PHASE = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))

# Where p_X is zero its transforms leave rounding residue near 1e-15; values
# at or below this are set to zero, and so are q's coset masses, which come
# from transforms of length at most one row batch. Each X half's cells must
# sum to its p_X value to within it, so a drawn X half never has an empty
# row, and all the cells must together carry all of p's mass to within it.
_MARGINAL_TOL = 1e-12

# A drawn cell needs <W>^2 above this. Where <W> is zero, rounding leaves
# <W>^2 up to ~2.5e-32; on Clifford+T states (n = 8-12, t = 1-30) every
# other cell measured at least 0.0156. The cut drops at most 2^n * 1e-24
# of p's mass.
_CELL_TOL = 1e-24

# A generator g of the group the cells are read off needs <W_g>^2 at least
# 1 minus this: then p leaks at most half of it off the cosets.
_STABILIZER_TOL = 1e-12


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
    """`count` i.i.d. packed samples from q = p * p (XOR convolution).

    Only the X halves with p_X > 0 have cells, and cells with
    <W>^2 <= _CELL_TOL are rounding residue and no category. Deterministic
    given the generator. The uint64 array, one SympVec.bits value per
    sample, is the sample format estimate_entropy takes.

    Group path, where the cosets of G = Weyl(psi) in G^perp fit one row batch
    (`_cells_from_group`): at most n + 1 rows and n + 4^(n - dim G) O(2^n)
    sums are computed, whatever the support of p_X, and the coset
    representatives come off the RREF those rows give, with no further
    elimination. p, and so q, is constant on each coset, so a sample is
    reps[c] xor g, with c drawn from q's coset masses and g uniform on G,
    one sample at a time (`_draw_from_cosets`). A coset's weight, read at
    its representative, can differ from each of its cells' own rows in the
    last bits.

    Rows path, otherwise: the rows of the support of p_X, batch by batch
    (`_cells_from_rows`). Each output is the XOR of two independent draws
    from p, which is distributed exactly as the convolution. The 2 * count
    draws are made as their multiset, each drawn cell repeated by its count,
    then shuffled: an i.i.d. sequence is its multiset in uniformly random
    order. The multiset takes two exact steps. A multinomial over all cells,
    conditioned on the total of each group of cells, is one multinomial per
    group; so the draws are first split over the row batches by one
    multinomial on the batches' p_X mass, then each batch's share is split
    over its cells by one multinomial on <W_(a|b)>^2.

    On either path every X half's cells must sum to its p_X value, and all
    cells to 2^n ||psi||^4 (Parseval), so a marginal that misses mass, or
    puts mass where p has none, is an internal fault and raises
    RuntimeError.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count > MAX_SAMPLE_COUNT:
        raise ValueError(f"count {count} is more than the limit {MAX_SAMPLE_COUNT}")
    cosets = _cells_from_group(dist)
    if cosets is not None:
        return _draw_from_cosets(*cosets, rng, count)
    block = _rows_per_block(dist.n)
    # numpy hands any rounding remainder to the last category, so only
    # batches and cells of positive mass are categories.
    mass = np.add.reduceat(dist.marginal, np.arange(0, 1 << dist.n, block))
    live = np.flatnonzero(mass)
    per_batch = rng.multinomial(2 * count, mass[live] / mass[live].sum())
    drawn_vals, drawn_runs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for i, (vals, weight) in enumerate(_cells_from_rows(dist, live, block)):
        if not per_batch[i]:
            continue
        hits = rng.multinomial(per_batch[i], weight / weight.sum())
        drawn = np.flatnonzero(hits)
        drawn_vals.append(vals[drawn])
        drawn_runs.append(hits[drawn])
    packed = np.repeat(np.concatenate(drawn_vals), np.concatenate(drawn_runs))
    rng.shuffle(packed)
    return np.bitwise_xor(packed[:count], packed[count:]).view(np.uint64)


def _draw_from_cosets(
    gens: np.ndarray, reps: np.ndarray, sq: np.ndarray, rng: np.random.Generator, count: int
) -> np.ndarray:
    """`count` i.i.d. samples reps[c] xor g: c from the coset masses of q by
    an alias table, g uniform on the span of `gens`.

    One uniform integer below m * 2^k, for m cosets and k generators, gives
    both the alias table's uniform index (its high bits) and g's index (its
    low k bits); one uniform float is the table's coin. Samples are written
    in chunks whose temporaries, under 64 bytes a sample, take at most one
    row batch's bytes, so the draw holds the 8-byte output and one chunk.
    """
    prob, alias = _alias_table(_coset_masses(sq))
    elems = _span_elements(gens)
    k = gens.size
    out = np.empty(count, dtype=np.int64)
    chunk = _ROW_BLOCK_BYTES // 64
    for start in range(0, count, chunk):
        part = out[start : start + chunk]
        draw = rng.integers(0, reps.size << k, size=part.size)
        coset = draw >> k
        keep = rng.random(part.size) < prob[coset]
        other = alias[coset]
        # coset where kept, else its alias, without a data-dependent branch
        coset ^= other
        coset *= keep
        coset ^= other
        np.take(reps, coset, out=part)
        draw &= (1 << k) - 1
        part ^= elems[draw]
    return out.view(np.uint64)


def _coset_masses(sq: np.ndarray) -> np.ndarray:
    """q's mass on each coset, from <W>^2 at each coset's representative.

    reps[i] xor reps[j] = reps[i ^ j] (`_span_elements`), so coset
    arithmetic is index XOR, p's coset masses are sq / sum(sq), and q's are
    their XOR self-convolution: a Walsh-Hadamard transform, squared,
    transformed back and divided by the m cosets. Rounding residue at or
    below _MARGINAL_TOL is set to zero, so a coset q misses is no category.
    """
    spectrum = _wht_rows(sq[None, :] / sq.sum())
    mass = _wht_rows(spectrum * spectrum)[0] / sq.size
    mass[mass <= _MARGINAL_TOL] = 0.0
    return mass / mass.sum()


def _alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table for weights summing to 1, by Vose's method.

    Category i is drawn by picking i uniformly, keeping it when a uniform
    coin falls below prob[i], else taking alias[i]. Each alias is a
    category that held at least 1/m of the mass when it was picked, and a
    zero weight gets prob 0, so a zero-weight category is never drawn.
    """
    m = weights.size
    scaled = (weights * m).tolist()
    prob = np.ones(m)
    alias = np.arange(m)
    small = [i for i, w in enumerate(scaled) if w < 1.0]
    large = [i for i, w in enumerate(scaled) if w >= 1.0]
    while small and large:
        s, big = small.pop(), large[-1]
        prob[s], alias[s] = scaled[s], big
        scaled[big] = (scaled[big] + scaled[s]) - 1.0
        if scaled[big] < 1.0:
            small.append(large.pop())
    # What is left holds, up to rounding, exactly its 1/m and keeps prob 1.
    return prob, alias


def _span_elements(basis: np.ndarray) -> np.ndarray:
    """All 2^len(basis) sums of the given bit vectors, as an int64 array."""
    elems = np.zeros(1, dtype=np.int64)
    for v in basis:
        elems = np.concatenate([elems, elems ^ v])
    return elems


def _checked_rows(dist: CharacteristicDistribution, a: np.ndarray):
    """(<W_(a|b)>^2 for each X half in `a` and every b, the rows' mass
    over 2^n, summed from the rows so that a Parseval check on it sees
    their error); RuntimeError if a row's mass misses its p_X value."""
    size = 1 << dist.n
    # Squared in the rows' own buffer: a fresh batch-sized array costs page
    # faults comparable to the arithmetic on it.
    sq = expectation_rows(dist.amplitudes, a)
    np.square(sq, out=sq)
    row_mass = sq.sum(axis=1) / size
    miss = np.abs(row_mass - dist.marginal[a]).max()
    if miss > _MARGINAL_TOL:
        raise RuntimeError(f"expectation rows miss the X marginal by {miss:.3e}")
    return sq, row_mass.sum()


def _cells_from_group(dist: CharacteristicDistribution):
    """The cells of p as cosets of the unsigned stabilizer group G:
    (gens, reps, sq), G's generators, the packed representatives of its
    cosets in V = G^perp, and <W>^2 at each representative, zero at or
    below _CELL_TOL; or None where the rows below do not find G, its
    cosets do not fit one row batch, or a coset of positive weight has a
    cell on an X half with p_X = 0. The cells are the representatives of
    positive weight plus each element of G, all on X halves with p_X > 0,
    and reps[i] xor reps[j] = reps[i ^ j].

    The rows of X half 0 and of a basis of the span of p_X's support,
    picked from that support, give cells whose span V is, on every state
    tried, span(supp p) = Weyl(psi)^perp; these rows are checked against p_X
    like any other. G = V^perp must then hold stabilizers only: each
    generator's <W>^2 is checked to be 1, so W_g psi = +-psi and
    p(x xor g) = p(x) for every g in G and x. (Had the rows missed part of
    Weyl(psi)^perp, G would hold a non-stabilizer and so would one of its
    generators.) So p, zero off V, takes one value per coset of G in V, read
    at one representative each, and the other rows are never computed.
    """
    n = dist.n
    size = 1 << n
    amps = dist.amplitudes
    support = np.flatnonzero(dist.marginal)
    spanned = np.zeros(size, dtype=bool)
    spanned[0] = True
    picked = [0]
    while (left := support[~spanned[support]]).size:
        picked.append(int(left[0]))
        spanned |= spanned[np.arange(size) ^ picked[-1]]
    a = np.array(picked)
    row, b = np.nonzero(_checked_rows(dist, a)[0] > _CELL_TOL)
    seen = Subspace.from_bit_rows(n, ((b << n) | a[row]).astype(np.uint64)[:, None])
    group = symplectic_complement(seen)
    if seen.rank - group.rank > _rows_per_block(n).bit_length() - 1:
        return None
    gens = group.rows[:, 0].astype(np.int64)
    if (_expectations(amps, gens) ** 2 < 1.0 - _STABILIZER_TOL).any():
        return None
    # G's pivots are pivots of V's RREF, whose rows are zero below their own
    # pivot and on the others', so a sum of rows pivoted off G's pivots has
    # its lowest bit off them and is not in G: they span a complement of G.
    outside = ~np.isin(_pivots(seen.rows), _pivots(group.rows))
    reps = _span_elements(seen.rows[outside, 0].astype(np.int64))
    sq = _expectations(amps, reps) ** 2
    sq[sq <= _CELL_TOL] = 0.0
    live = sq > 0
    # Every cell: a representative of positive weight plus an element of G.
    x_half = (_span_elements(gens)[:, None] ^ reps[live]) & (size - 1)
    weights = np.broadcast_to(sq[live], x_half.shape)
    row_mass = np.bincount(x_half.ravel(), weights=weights.ravel(), minlength=size) / size
    miss = np.abs(row_mass - dist.marginal).max()
    if miss > _MARGINAL_TOL:
        raise RuntimeError(f"stabilizer cosets miss the X marginal by {miss:.3e}")
    total = float(np.vdot(amps, amps).real) ** 2
    if abs(row_mass.sum() - total) > _MARGINAL_TOL:
        raise RuntimeError(
            f"cells read off the X marginal's group carry {row_mass.sum():.15g} "
            f"of p's mass {total:.15g}"
        )
    # As in the rows, an X half with p_X = 0 has no cells; a coset with a
    # cell there would not be whole, so the rows draw instead.
    if not dist.marginal[x_half].all():
        return None
    return gens, reps, sq


def _cells_from_rows(dist: CharacteristicDistribution, batches: np.ndarray, block: int):
    """(samples, <W>^2) of the cells of each row batch in `batches`, those
    with p_X mass, from the rows of its X halves with p_X > 0; each cell as
    its packed sample b << n | a, in ascending a * 2^n + b.

    Each row must sum to its p_X value (`_checked_rows`). The X halves left
    out are checked at once: sum_(a,b) <W_(a|b)>^2 = 2^n ||psi||^4
    (Parseval), so the support's rows must carry all of that mass, and any
    mass p_X missed shows as a shortfall once the last batch is read.
    """
    n = dist.n
    size = 1 << n
    found = 0.0
    for batch in batches:
        start = batch * block
        support = start + np.flatnonzero(dist.marginal[start : start + block])
        sq, mass = _checked_rows(dist, support)
        found += mass
        cell = np.flatnonzero(sq > _CELL_TOL)
        # Flat cell i is row i >> n (X half support[i >> n]), column b = i mod 2^n.
        yield ((cell & (size - 1)) << n) | support[cell >> n], sq.ravel()[cell]
    total = float(np.vdot(dist.amplitudes, dist.amplitudes).real) ** 2
    if abs(found - total) > _MARGINAL_TOL:
        raise RuntimeError(
            f"rows on the X marginal's support carry {found:.15g} "
            f"of p's mass {total:.15g}"
        )


def entanglement_entropy_oracle(psi: StateVector, cut: Cut) -> float:
    """Exact von Neumann entropy (bits) across the cut, via SVD.

    Squared singular values below 1e-12 contribute nothing; clamped at 0,
    a product cut gives 0.0, not -0.0.
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
    return max(0.0, float(-np.sum(lam * np.log2(lam))))
