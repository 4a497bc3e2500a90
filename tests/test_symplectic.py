"""Symplectic F2 linear algebra against brute-force enumeration."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from stabent import symplectic
from stabent import (
    Cut,
    StabilizerGroupEstimate,
    Subspace,
    SympVec,
    estimate_entropy,
    extract_symplectic_subspace,
    from_pauli_string,
    is_isotropic,
    random_clifford_circuit,
    restrict_to_cut,
    simulate_clifford,
    span,
    symplectic_complement,
    symplectic_product,
    to_pauli_string,
)


_ALL_QUBITS = 2**70 - 1
_ODD_QUBITS = int("01" * 35, 2)  # bit q - 1 for q = 1, 3, 5, ...


def test_product_examples():
    assert symplectic_product(from_pauli_string("X"), from_pauli_string("Z")) == 1
    assert symplectic_product(from_pauli_string("XX"), from_pauli_string("ZZ")) == 0


def test_product_alternating_and_symmetric():
    rng = np.random.default_rng(0)
    for n in (1, 3, 9, 40):
        for _ in range(50):
            x = SympVec(n, helpers.rand_bits(rng, 2 * n))
            y = SympVec(n, helpers.rand_bits(rng, 2 * n))
            assert symplectic_product(x, x) == 0
            assert symplectic_product(x, y) == symplectic_product(y, x)


def test_product_bilinear():
    rng = np.random.default_rng(1)
    for n in (2, 5, 17):
        for _ in range(50):
            x, y, z = (SympVec(n, helpers.rand_bits(rng, 2 * n)) for _ in range(3))
            assert symplectic_product(x ^ y, z) == (
                symplectic_product(x, z) ^ symplectic_product(y, z)
            )


def test_product_dimension_mismatch():
    with pytest.raises(ValueError):
        symplectic_product(from_pauli_string("X"), from_pauli_string("XX"))


def test_span_examples():
    x = from_pauli_string("X")
    z = from_pauli_string("Z")
    assert span([x, x]).rank == 1
    assert span([x, z, x ^ z]).rank == 2
    assert span([], n=2).rank == 0
    with pytest.raises(ValueError):
        span([])


def test_span_rank_matches_dense_elimination():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4, 11):
        for _ in range(30):
            rows = [
                helpers.rand_bits(rng, 2 * n)
                for _ in range(int(rng.integers(0, 2 * n + 2)))
            ]
            got = Subspace.from_bit_rows(n, rows).rank
            assert got == helpers.dense_gf2_rank(rows, 2 * n)


def _structured_rows(rng: np.random.Generator, width: int, kind: str) -> list[int]:
    """Rows for the elimination oracles: dense, of low rank with repeats, or
    sparse; with zero and duplicate rows, sometimes more rows than columns."""
    count = int(rng.integers(0, width + 8))
    if kind == "dense":
        rows = [helpers.rand_bits(rng, width) for _ in range(count)]
    elif kind == "low-rank":
        gens = [helpers.rand_bits(rng, width) for _ in range(int(rng.integers(0, 6)))]
        rows = []
        for _ in range(count):
            v = 0
            for g in gens:
                if rng.random() < 0.5:
                    v ^= g
            rows.append(v)
    else:
        rows = [
            sum(1 << int(j) for j in set(rng.integers(0, width, int(rng.integers(1, 4)))))
            for _ in range(count)
        ]
    rows += [0] * int(rng.integers(0, 3))
    if rows:
        rows += [rows[int(i)] for i in rng.integers(0, len(rows), int(rng.integers(0, 4)))]
    rng.shuffle(rows)
    return rows


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["dense", "low-rank", "sparse"]),
)
@example(n=32, seed=1, kind="dense")  # 2n = 64: exactly one word
@example(n=64, seed=2, kind="sparse")  # 2n = 128: exactly two words
def test_span_equals_dense_rref(n, seed, kind):
    rows = _structured_rows(np.random.default_rng(seed), 2 * n, kind)
    basis = Subspace.from_bit_rows(n, rows).basis
    assert [v.bits for v in basis] == helpers.dense_gf2_rref(rows, 2 * n)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["dense", "low-rank", "sparse"]),
)
@example(n=31, seed=3, kind="dense")  # 2n = 62: one word, two bits spare
@example(n=32, seed=4, kind="low-rank")  # 2n = 64: exactly one word
@example(n=33, seed=5, kind="sparse")  # 2n = 66: a second word of 2 bits
@example(n=64, seed=6, kind="dense")  # 2n = 128: exactly two words
@example(n=65, seed=7, kind="low-rank")  # 2n = 130: a third word of 2 bits
def test_complement_rank_and_orthogonality(n, seed, kind):
    sub = Subspace.from_bit_rows(n, _structured_rows(np.random.default_rng(seed), 2 * n, kind))
    comp = symplectic_complement(sub)
    assert sub.rank + comp.rank == 2 * n
    assert helpers.dense_gf2_rank([v.bits for v in comp.basis], 2 * n) == comp.rank
    for v in comp.basis:
        assert all(symplectic_product(v, w) == 0 for w in sub.basis)


@pytest.mark.parametrize("width", [63, 64, 65, 127, 128, 129])
def test_rref_at_word_boundaries(width):
    rng = np.random.default_rng(width)
    top = 1 << (width - 1)
    cases = [
        [],
        [0, 0, 0],
        [top, top, 1 << 63 if width > 63 else 1, top | 1],
        [(1 << width) - 1, (1 << width) - 2, 1 << (width // 2)],
        [helpers.rand_bits(rng, width) for _ in range(width + 5)],
    ]
    cases += [_structured_rows(rng, width, kind) for kind in ("dense", "low-rank", "sparse")]
    words = (width + 63) // 64
    for rows in cases:
        want = helpers.dense_gf2_rref(rows, width)
        mat = symplectic._pack(rows, words)
        assert symplectic._unpack(mat[symplectic._eliminate(mat, -1)]) == want


@settings(max_examples=100, deadline=None)
@given(
    width=st.sampled_from([5, 64, 65, 130]),
    kind=st.sampled_from(["dense", "low-rank", "sparse"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_elimination_on_allowed_columns(width, kind, seed):
    """Under any column mask, the rows without a pivot are zero on every
    allowed column, each pivot column is set in its pivot row alone, the
    pivots count the rank on the allowed columns, and the rows span what
    they spanned before."""
    rng = np.random.default_rng(seed)
    rows = _structured_rows(rng, width, kind)
    allowed = helpers.rand_bits(rng, width)
    mat = symplectic._pack(rows, (width + 63) // 64)
    pivots = symplectic._eliminate(mat, allowed)
    out = symplectic._unpack(mat)
    assert len(set(pivots)) == len(pivots)
    assert len(pivots) == helpers.dense_gf2_rank([r & allowed for r in rows], width)
    assert all(out[i] & allowed == 0 for i in range(len(rows)) if i not in pivots)
    cols = [(out[i] & allowed & -(out[i] & allowed)).bit_length() - 1 for i in pivots]
    assert cols == sorted(cols)  # the pivot rows come in pivot-column order
    for i, c in zip(pivots, cols):
        assert [j for j, r in enumerate(out) if r >> c & 1] == [i]
    rank = helpers.dense_gf2_rank(rows, width)
    assert helpers.dense_gf2_rank(out, width) == rank
    assert helpers.dense_gf2_rank(rows + out, width) == rank


class _TakeSpy:
    """numpy, with the block length of each np.take(..., out=...) recorded."""

    def __init__(self) -> None:
        self.blocks: list[int] = []

    def __getattr__(self, name):
        return getattr(np, name)

    def take(self, *args, out, **kwargs):
        self.blocks.append(len(out))
        return np.take(*args, out=out, **kwargs)


def test_kernels_agree_with_the_oracles_across_gather_blocks(monkeypatch):
    # _combine splits its rows into quarters, at most _GATHER_BLOCK_BYTES
    # each; at the default the byte cap binds on an n x 2n matrix only
    # from n ~ 2048 up, so a 24-byte cap (three one-word rows) makes small
    # inputs take it too, with a short last block
    spy = _TakeSpy()
    combines: list[tuple[int, list[int]]] = []
    combine = symplectic._combine

    def recorded(*args):
        spy.blocks = []
        combine(*args)
        combines.append((len(args[2]), spy.blocks))

    monkeypatch.setattr(symplectic, "_GATHER_BLOCK_BYTES", 24)
    monkeypatch.setattr(symplectic, "np", spy)
    monkeypatch.setattr(symplectic, "_combine", recorded)
    rng = np.random.default_rng(31)
    for n in (3, 4, 5, 9, 33, 70):
        for trial in range(12):
            rows = _structured_rows(rng, 2 * n, ("dense", "low-rank", "sparse")[trial % 3])
            assert [v.bits for v in Subspace.from_bit_rows(n, rows).basis] == (
                helpers.dense_gf2_rref(rows, 2 * n)
            )
            tab = simulate_clifford(random_clifford_circuit(n, rng))
            group = [v.bits for v in helpers.tableau_rows(tab)]
            if trial % 2:
                group[int(rng.integers(n))] ^= 1 << int(rng.integers(2 * n))
            for sub in (Subspace.from_bit_rows(n, group), helpers.random_subspace(n, rng)):
                assert is_isotropic(sub) == helpers.pairwise_isotropic(sub)
                side = {q for q in range(1, n + 1) if rng.random() < 0.5}
                got = restrict_to_cut(sub, side)
                if n <= 5:
                    assert got == helpers.brute_restrict(sub, side)
                else:
                    assert got.rank == helpers.dense_restricted_dim(sub, side)
                    assert all(helpers.support(v) <= side for v in got.basis)
    # the cap bound a block below a quarter of the rows, and the last
    # block was short
    assert any(
        blocks and max(blocks) < rows // 4 and rows % max(blocks) for rows, blocks in combines
    )


def test_span_and_restrict_peak_memory_is_small():
    # 1000 rows of 2000 bits pack into 1000 x 32 words x 8 B = 256 kB; the
    # kernel gathers its table rows in blocks, so neither call, output
    # included, peaks above three times that
    n = 1000
    packed = n * 32 * 8
    rng = np.random.default_rng(29)
    vecs = [SympVec(n, helpers.rand_bits(rng, 2 * n)) for _ in range(n)]
    tracemalloc.start()
    try:
        sub = span(vecs, n=n)
        span_peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        restrict_to_cut(sub, range(1, n // 2 + 1))
        cut_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sub.rank == n
    assert span_peak <= 3 * packed
    assert cut_peak <= 3 * packed


@pytest.mark.parametrize("n", [1, 31, 32, 33])
def test_from_bit_rows_rejects_a_bit_just_past_2n(n):
    # bit 2n is a stray bit inside the last word at n = 1, 31 and 33, and
    # starts a word of its own at n = 32; ints and packed rows share one check
    words = (2 * n + 63) // 64
    top = (1 << (2 * n)) - 1
    assert Subspace.from_bit_rows(n, [top]).rank == 1
    for rows in ([1 << (2 * n)], [1, top | (1 << (2 * n))], [-1]):
        with pytest.raises(ValueError, match="out of range"):
            Subspace.from_bit_rows(n, rows)
        if all(0 <= r < 1 << (64 * words) for r in rows):
            with pytest.raises(ValueError, match="out of range"):
                Subspace.from_bit_rows(n, symplectic._pack(rows, words))
    with pytest.raises(ValueError, match="out of range"):
        Subspace.from_bit_rows(n, np.full((2, words), -1, dtype=np.int64))
    # rows that are not ints, and a qubit count below 1, fail before packing
    for rows, name in (([top, SympVec(n, top)], "SympVec"), ([1.0], "float")):
        with pytest.raises(ValueError, match=f"rows must be ints, got {name}"):
            Subspace.from_bit_rows(n, rows)
    with pytest.raises(ValueError, match="qubit count must be positive"):
        Subspace.from_bit_rows(0, [])


@pytest.mark.parametrize(
    "n, rows",
    [
        (2, [0b0011, 0b0010]),  # row 1 holds row 2's pivot bit
        (2, [0b0101, 0b0110, 0b1100]),  # row 2 holds row 3's pivot bit
        (33, [1 | 1 << 65, 1 << 65]),  # across a word: pivot 65 set in row 1
        (33, [1 << 3 | 1 << 64, 1 << 40, 1 << 64 | 1 << 65]),  # pivot 64 in word 1
    ],
    ids=["one-word", "middle-row", "word-boundary", "second-word"],
)
def test_subspace_rejects_a_basis_that_is_not_reduced(n, rows):
    # the rows are in echelon order (pivots ascending, each row's lowest set
    # bit), but a pivot bit is also set in an earlier row
    words = (2 * n + 63) // 64
    packed = symplectic._pack(rows, words)
    assert (np.diff(symplectic._pivots(packed)) > 0).all()
    with pytest.raises(ValueError, match="not reduced"):
        Subspace(n, packed)
    assert Subspace(n, Subspace.from_bit_rows(n, rows).rows.copy()).rank == len(rows)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 70),
    side_bits=st.integers(0, _ALL_QUBITS),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "clifford"]),
)
@example(n=32, side_bits=_ODD_QUBITS, seed=1, kind="clifford")
@example(n=33, side_bits=1 << 32, seed=2, kind="random")
@example(n=64, side_bits=1, seed=3, kind="clifford")
@example(n=65, side_bits=_ALL_QUBITS, seed=4, kind="random")
def test_kernel_outputs_pass_construction(n, side_bits, seed, kind):
    # every Subspace the kernels return is a canonical RREF: rebuilt from a
    # copy of its rows it passes the reducedness check, and its rows are
    # the dense elimination's
    rng = np.random.default_rng(seed)
    if kind == "random":
        sub = helpers.random_subspace(n, rng)
    else:
        sub = simulate_clifford(random_clifford_circuit(n, rng)).group.subspace
    side = {q for q in range(1, n + 1) if (side_bits >> (q - 1)) & 1}
    outputs = [
        sub,
        span(sub.basis, n=n),
        symplectic_complement(sub),
        restrict_to_cut(sub, side),
        Subspace.full(n),
        Subspace.zero(n),
    ]
    for out in outputs:
        assert Subspace(n, out.rows.copy()) == out
        rows = [v.bits for v in out.basis]
        assert rows == helpers.dense_gf2_rref(rows, 2 * n)


def test_kernels_leave_their_inputs_unchanged():
    n = 70
    rng = np.random.default_rng(30)
    es, _ = helpers.random_symplectic_basis(n, n, rng)
    packed = symplectic._pack(es[:50] + es[:5], 3)
    before = packed.tobytes()
    sub = Subspace.from_bit_rows(n, packed)
    assert packed.tobytes() == before
    assert not sub.rows.flags.writeable
    with pytest.raises(ValueError):
        sub.rows[0, 0] = 0
    rows = sub.rows.tobytes()
    cut = Cut(n, frozenset(range(1, 36)))
    restrict_to_cut(sub, cut.a)
    restrict_to_cut(sub, cut.b)
    symplectic_complement(sub)
    assert is_isotropic(sub)
    estimate_entropy(group=StabilizerGroupEstimate(sub, "tableau"), cut=cut)
    assert sub.rows.tobytes() == rows
    assert sub == Subspace.from_bit_rows(n, es[:50])
    # a Lagrangian group under an unbalanced cut, which restricts one side
    tab = simulate_clifford(random_clifford_circuit(n, rng))
    group_rows, tab_rows = tab.group.subspace.rows.tobytes(), tab.rows.tobytes()
    report = estimate_entropy(group=tab.group, cut=Cut(n, frozenset(range(60, 71))))
    assert tab.group.subspace.rows.tobytes() == group_rows
    assert tab.rows.tobytes() == tab_rows
    assert report.dim_s == n


def test_span_canonical_equality():
    rng = np.random.default_rng(3)
    for _ in range(30):
        rows = [helpers.rand_bits(rng, 4) for _ in range(4)]
        a = Subspace.from_bit_rows(2, rows)
        rng.shuffle(rows)
        extra = rows + [rows[0] ^ rows[1]]
        b = Subspace.from_bit_rows(2, extra)
        assert a == b


def test_membership():
    x = from_pauli_string("XI")
    z = from_pauli_string("IZ")
    sub = span([x, z])
    assert helpers.contains(sub, x)
    assert helpers.contains(sub, x ^ z)
    assert not helpers.contains(sub, from_pauli_string("ZI"))
    assert helpers.contains(sub, SympVec(2, 0))


def test_complement_examples():
    x = from_pauli_string("X")
    assert symplectic_complement(span([x])) == span([x])
    assert symplectic_complement(Subspace.zero(3)) == Subspace.full(3)
    assert symplectic_complement(Subspace.full(5)) == Subspace.zero(5)


def test_complement_matches_bruteforce():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for _ in range(40):
            sub = helpers.random_subspace(n, rng)
            assert symplectic_complement(sub) == helpers.brute_complement(sub)


def test_complement_involution_and_dimension():
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 8, 30):
        for _ in range(20):
            sub = helpers.random_subspace(n, rng)
            comp = symplectic_complement(sub)
            assert sub.rank + comp.rank == 2 * n
            assert symplectic_complement(comp) == sub


def test_restrict_examples():
    epr = span([from_pauli_string("XX"), from_pauli_string("ZZ")])
    assert restrict_to_cut(epr, {1}).rank == 0
    zs = span([from_pauli_string("ZII"), from_pauli_string("IZI"),
               from_pauli_string("IIZ")])
    assert restrict_to_cut(zs, {1}) == span([from_pauli_string("ZII")])
    assert restrict_to_cut(zs, {1, 2, 3}) == zs


def test_restrict_matches_bruteforce():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4):
        for _ in range(30):
            sub = helpers.random_subspace(n, rng)
            side = {q for q in range(1, n + 1) if rng.random() < 0.5}
            got = restrict_to_cut(sub, side)
            assert got == helpers.brute_restrict(sub, side)
            # output is inside the input and on the right support
            for v in got.basis:
                assert helpers.contains(sub, v)
                assert helpers.support(v) <= side


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 70),
    side_bits=st.integers(0, _ALL_QUBITS),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "clifford"]),
)
# 2n crosses a word: 64, 66, 128 and 130 bits
@example(n=32, side_bits=0, seed=1, kind="clifford")
@example(n=32, side_bits=_ODD_QUBITS, seed=2, kind="random")
@example(n=33, side_bits=_ALL_QUBITS, seed=3, kind="clifford")
@example(n=33, side_bits=1 << 32, seed=4, kind="clifford")  # qubit 33 alone
@example(n=64, side_bits=_ODD_QUBITS, seed=5, kind="clifford")
@example(n=64, side_bits=1, seed=6, kind="random")  # qubit 1 alone
@example(n=65, side_bits=1 << 31, seed=7, kind="clifford")  # qubit 32 alone
@example(n=65, side_bits=_ODD_QUBITS, seed=8, kind="clifford")
def test_restrict_rank_matches_dense_rank(n, side_bits, seed, kind):
    # dim S_side = dim S - rank of S's rows with the side's coordinates zeroed.
    # A Clifford circuit's group is Lagrangian, with pivots on both sides of
    # most cuts, so restrict_to_cut drops some rows before its elimination.
    rng = np.random.default_rng(seed)
    if kind == "random":
        sub = helpers.random_subspace(n, rng)
    else:
        sub = simulate_clifford(random_clifford_circuit(n, rng)).group.subspace
        assert sub.rank == n
    side = {q for q in range(1, n + 1) if (side_bits >> (q - 1)) & 1}
    got = restrict_to_cut(sub, side)
    assert got.rank == helpers.dense_restricted_dim(sub, side)
    for v in got.basis:
        assert helpers.contains(sub, v)
        assert helpers.support(v) <= side


def test_restrict_bad_side():
    with pytest.raises(ValueError):
        restrict_to_cut(Subspace.zero(2), {3})


def test_isotropic_examples():
    assert is_isotropic(span([from_pauli_string("XX"), from_pauli_string("ZZ")]))
    assert not is_isotropic(span([from_pauli_string("X"), from_pauli_string("Z")]))
    assert is_isotropic(Subspace.zero(4))


def _free_x_columns(sub: Subspace) -> int:
    """X columns that are no basis row's pivot: n minus the rows whose
    lowest set bit lies in the X half."""
    return sub.n - sum(v.bits & -v.bits < 1 << sub.n for v in sub.basis)


_ISOTROPY_KINDS = ["random", "isotropic", "one-pair", "lagrangian", "fault", "z-only", "over-n"]


@settings(max_examples=250, deadline=None)
@given(
    n=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_ISOTROPY_KINDS),
)
@example(n=70, seed=1, kind="isotropic")  # two words per half
@example(n=65, seed=2, kind="one-pair")
# 2n crosses a word: 64, 66, 128 and 130 bits
@example(n=32, seed=3, kind="lagrangian")
@example(n=33, seed=4, kind="fault")
@example(n=33, seed=5, kind="lagrangian")
@example(n=64, seed=6, kind="z-only")
@example(n=64, seed=7, kind="fault")
@example(n=65, seed=8, kind="over-n")
@example(n=65, seed=9, kind="lagrangian")
def test_isotropic_matches_pairwise_products(n, seed, kind):
    # is_isotropic reads M = X . Z^T off the RREF: a gather at the pivot
    # columns plus a product over the free X columns. The Lagrangian groups
    # of Clifford circuits have both, and a one-bit fault breaks them.
    rng = np.random.default_rng(seed)
    if kind == "random":
        rows = [helpers.rand_bits(rng, 2 * n) for _ in range(int(rng.integers(0, 2 * n + 1)))]
    elif kind in ("lagrangian", "fault"):
        tab = simulate_clifford(random_clifford_circuit(n, rng))
        rows = [v.bits for v in helpers.tableau_rows(tab)]
        if kind == "fault":
            rows[int(rng.integers(n))] ^= 1 << int(rng.integers(2 * n))
    elif kind == "z-only":
        rows = [helpers.rand_bits(rng, n) << n for _ in range(int(rng.integers(0, n + 1)))]
    else:
        # the e_i commute pairwise; f_j anticommutes with e_j alone
        es, fs = helpers.random_symplectic_basis(n, n, rng)
        if kind == "over-n":
            rows = es + fs[: int(rng.integers(1, n + 1))]
        else:
            rows = [e for e in es if rng.random() < 0.7]
        if kind == "one-pair":
            rows.append(fs[int(rng.integers(n))])
    sub = Subspace.from_bit_rows(n, rows)
    if kind == "lagrangian":
        assert sub.rank == n
        assume(_free_x_columns(sub) > 0)
    elif kind == "z-only":
        assert _free_x_columns(sub) == n
    elif kind == "over-n":
        assert sub.rank > n
    assert is_isotropic(sub) == helpers.pairwise_isotropic(sub)


def test_isotropic_examples_cover_the_free_column_product():
    # the @example groups above are Lagrangian with free X columns
    for n, seed in ((32, 3), (33, 5), (65, 9)):
        rng = np.random.default_rng(seed)
        sub = simulate_clifford(random_clifford_circuit(n, rng)).group.subspace
        assert _free_x_columns(sub) > 0


def test_isotropic_refuses_rank_above_n_at_once(monkeypatch):
    # an isotropic subspace has rank at most n: no transpose, no product
    subs = [Subspace.full(3), span([from_pauli_string("XX"), from_pauli_string("ZZ"),
                                    from_pauli_string("ZI")])]

    def fail(*args):
        raise AssertionError("is_isotropic did work on a rank above n")

    monkeypatch.setattr(symplectic, "_transpose", fail)
    monkeypatch.setattr(symplectic, "_combine", fail)
    for sub in subs:
        assert sub.rank > sub.n
        assert is_isotropic(sub) is False


def test_extract_examples():
    full1 = span([from_pauli_string("X"), from_pauli_string("Z")])
    pairs, residual = extract_symplectic_subspace(full1)
    assert len(pairs) == 1 and residual.rank == 0

    iso = span([from_pauli_string("XX"), from_pauli_string("ZZ")])
    pairs, residual = extract_symplectic_subspace(iso)
    assert pairs == [] and residual == iso

    sub = span([from_pauli_string("XI"), from_pauli_string("ZI"),
                from_pauli_string("IX")])
    pairs, residual = extract_symplectic_subspace(sub)
    assert len(pairs) >= 1


def _check_extraction(sub):
    pairs, residual = extract_symplectic_subspace(sub)
    es = [e for e, _ in pairs]
    fs = [f for _, f in pairs]
    for i, e in enumerate(es):
        for j, f in enumerate(fs):
            assert symplectic_product(e, f) == (1 if i == j else 0)
        for j in range(i):
            assert symplectic_product(e, es[j]) == 0
            assert symplectic_product(fs[i], fs[j]) == 0
    assert is_isotropic(residual)
    assert 2 * len(pairs) + residual.rank == sub.rank
    assert span(es + fs + list(residual.basis), n=sub.n) == sub
    return pairs


def test_extract_postconditions_random():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5):
        for _ in range(30):
            _check_extraction(helpers.random_subspace(n, rng))


def test_extract_pair_count_inside_symplectic():
    # dim(S) = v + k inside a 2v-dimensional symplectic space forces >= k pairs
    rng = np.random.default_rng(8)
    for _ in range(60):
        v = int(rng.integers(1, 5))
        n = v + int(rng.integers(0, 3))
        es, fs = helpers.random_symplectic_basis(n, v, rng)
        basis = es + fs
        target = int(rng.integers(0, 2 * v + 1))
        rows = []
        for _ in range(target):
            mask = int(rng.integers(1, 1 << (2 * v)))
            w = 0
            for i in range(2 * v):
                if (mask >> i) & 1:
                    w ^= basis[i]
            rows.append(w)
        sub = Subspace.from_bit_rows(n, rows)
        pairs = _check_extraction(sub)
        assert len(pairs) >= sub.rank - v


def test_pauli_string_roundtrip():
    v = from_pauli_string("XZIY")
    assert to_pauli_string(v) == "XZIY"
    assert v.a(1) == 1 and v.b(1) == 0
    assert v.a(4) == 1 and v.b(4) == 1
    rng = np.random.default_rng(9)
    for n in (1, 2, 7, 31, 32, 33, 63, 64, 65):
        for _ in range(20):
            w = SympVec(n, helpers.rand_bits(rng, 2 * n))
            assert from_pauli_string(to_pauli_string(w)) == w
    with pytest.raises(ValueError):
        from_pauli_string("XQ")
    with pytest.raises(ValueError):
        from_pauli_string("")


def test_sympvec_validation():
    with pytest.raises(ValueError):
        SympVec(1, 4)
    with pytest.raises(ValueError):
        SympVec(0, 0)


def test_cut_basics():
    cut = Cut(4, frozenset({2, 4}))
    assert cut.b == frozenset({1, 3})
    assert cut.a_sorted == (2, 4)
    with pytest.raises(ValueError):
        Cut(4, frozenset({5}))
    assert Cut(3, ()).b == frozenset({1, 2, 3})
