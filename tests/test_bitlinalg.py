import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wiretapcodes
from wiretapcodes import bitlinalg, codes
from wiretapcodes import _kernels
from wiretapcodes._kernels import _rank_words_numpy
from wiretapcodes.bitlinalg import BitMatrix


def dense_rref(mat, ncols=None) -> tuple[np.ndarray, list[int]]:
    """Independent GF(2) oracle: plain uint8 Gauss-Jordan elimination.

    Pivots are searched in the first ``ncols`` columns (all by default);
    returns the reduced matrix and the pivot columns.
    """
    a = np.array(mat, dtype=np.uint8) % 2
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols if ncols is None else ncols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def dense_rank(mat) -> int:
    return len(dense_rref(mat)[1])


def dense_right_inverse(mat) -> np.ndarray:
    """Oracle right inverse: the row operations of ``[mat | I]`` at the pivots."""
    a = np.array(mat, dtype=np.uint8)
    rows, cols = a.shape
    reduced, pivots = dense_rref(np.hstack([a, np.eye(rows, dtype=np.uint8)]), cols)
    assert len(pivots) == rows
    d = np.zeros((cols, rows), dtype=np.uint8)
    d[pivots] = reduced[:, cols:]
    return d


def low_rank_dense(rng, rows, cols, rank) -> np.ndarray:
    left = rng.integers(0, 2, size=(rows, rank))
    right = rng.integers(0, 2, size=(rank, cols))
    return ((left @ right) % 2).astype(np.uint8)


def rowspace(mat) -> set[bytes]:
    """All GF(2) combinations of the rows (rows <= 16)."""
    a = np.array(mat, dtype=np.uint8)
    out = set()
    for sel in range(1 << a.shape[0]):
        v = np.zeros(a.shape[1], dtype=np.uint8)
        for i in range(a.shape[0]):
            if (sel >> i) & 1:
                v ^= a[i]
        out.add(v.tobytes())
    return out


def random_bitmatrix(rng, rows, cols) -> BitMatrix:
    return BitMatrix.from_dense(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


class TestRank:
    def test_identity(self):
        assert bitlinalg.rank(BitMatrix.identity(3)) == 3

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (4, 70)])
    def test_zero_matrix(self, shape):
        assert bitlinalg.rank(BitMatrix.zeros(*shape)) == 0

    def test_dependent_row(self):
        # third row is the GF(2) sum of the first two; row space has 4 elements
        rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        assert len(rowspace(rows)) == 4
        assert bitlinalg.rank(BitMatrix.from_dense(rows)) == 2

    def test_input_unchanged(self):
        m = BitMatrix.from_dense([[1, 1], [1, 1]])
        before = m.words.copy()
        bitlinalg.rank(m)
        assert np.array_equal(m.words, before)

    @pytest.mark.parametrize("seed", range(10))
    def test_against_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 90, size=2)
        dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        assert bitlinalg.rank(BitMatrix.from_dense(dense)) == dense_rank(dense)

    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_variants_agree(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = (int(x) for x in rng.integers(1, 120, size=2))
        full = random_bitmatrix(rng, rows, cols)
        rank = int(rng.integers(0, min(rows, cols)))
        for m in (full, BitMatrix.from_dense(low_rank_dense(rng, rows, cols, rank))):
            assert _rank_words_numpy(m.words.copy(), m.cols) == dense_rank(m.to_dense())


def junk_past(words, ncols, rng) -> np.ndarray:
    """``words`` with random bits set past column ``ncols``."""
    width = words.shape[1]
    inside = bitlinalg.pack_vector(np.arange(64 * width) < ncols, 64 * width)
    return words | rng.integers(0, 2**64, size=words.shape, dtype=np.uint64) & ~inside


class TestNarrowRank:
    """The list-indexed XOR basis on the shapes of the per-trial ranks."""

    def test_rank_words_is_the_numpy_kernel(self):
        # the benchmark reads this identity and wraps rank_words by name
        assert _kernels.rank_words is _kernels._rank_words_numpy

    @pytest.mark.parametrize("rows,cols", [(700, 760), (850, 1100), (1000, 1300), (1000, 900)])
    def test_core_like(self, rows, cols):
        # weight-3 columns like a stopping-set core, lightest rows first as
        # _core_rank orders them, with the last 40 rows sums of two others
        rng = np.random.default_rng(rows + cols)
        dense = np.zeros((rows, cols), dtype=np.uint8)
        for c in range(cols):
            dense[rng.choice(rows - 40, size=3, replace=False), c] = 1
        pairs = rng.integers(0, rows - 40, size=(40, 2))
        dense[rows - 40 :] = dense[pairs[:, 0]] ^ dense[pairs[:, 1]]
        dense = dense[np.argsort(dense.sum(axis=1), kind="stable")]
        want = dense_rank(dense)
        assert want < rows
        words = BitMatrix.from_dense(dense).words
        assert words.shape[1] < _kernels._BLOCKED_MIN_WORDS
        assert _rank_words_numpy(words.copy(), cols) == want
        assert _rank_words_numpy(junk_past(words, cols, rng), cols) == want

    @pytest.mark.parametrize("rows,rank", [(190, None), (240, 200), (290, None), (290, 150)])
    def test_dense_rest_like(self, rows, rank):
        # dense rows of h1 (or of its transpose) masked to the kept columns
        rng = np.random.default_rng(rows)
        cols = 1000
        if rank is None:
            dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        else:
            dense = low_rank_dense(rng, rows, cols, rank)
        dense[:, rng.random(cols) < 0.3] = 0
        want = dense_rank(dense)
        assert want == (min(rows, rank) if rank else rows)
        words = BitMatrix.from_dense(dense).words
        assert _rank_words_numpy(junk_past(words, cols, rng), cols) == want

    @pytest.mark.parametrize("ncols", [
        0, 1, 63, 64, 65, 64 * (_kernels._BLOCKED_MIN_WORDS - 1),
        64 * (_kernels._BLOCKED_MIN_WORDS - 1) + 1,
    ])
    def test_widths(self, ncols):
        # ncols at word boundaries and on both sides of the width rule; a
        # trailing junk word moves the first boundary case to the wide path
        rng = np.random.default_rng(ncols)
        dense = low_rank_dense(rng, 70, ncols, min(50, ncols))
        want = dense_rank(dense)
        words = BitMatrix.from_dense(dense).words
        for w in (words, np.hstack([words, np.zeros((70, 1), dtype=np.uint64)])):
            assert _rank_words_numpy(junk_past(w, ncols, rng), ncols) == want


class TestRref:
    def test_identity(self):
        r, piv = bitlinalg.rref(BitMatrix.identity(3))
        assert r == BitMatrix.identity(3)
        assert piv == [0, 1, 2]

    def test_zero(self):
        r, piv = bitlinalg.rref(BitMatrix.zeros(2, 3))
        assert piv == []
        assert not r.to_dense().any()

    def test_hand_elimination(self):
        r, piv = bitlinalg.rref(BitMatrix.from_dense([[1, 1], [0, 1]]))
        assert r.to_dense().tolist() == [[1, 0], [0, 1]]
        assert piv == [0, 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_row_space_preserved_and_idempotent(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = random_bitmatrix(rng, rng.integers(1, 9), rng.integers(1, 9))
        r, piv = bitlinalg.rref(m)
        assert rowspace(m.to_dense()) == rowspace(r.to_dense())
        assert len(piv) == bitlinalg.rank(m)
        again, piv2 = bitlinalg.rref(r)
        assert again == r and piv2 == piv

    # rows and columns on both sides of a word boundary, none a multiple of 64
    @pytest.mark.parametrize("rows,cols,rank", [
        (65, 130, None), (100, 70, None), (70, 190, 69), (130, 127, 100),
        (129, 200, 33), (5, 193, None),
    ])
    def test_against_dense_oracle(self, rows, cols, rank):
        rng = np.random.default_rng(rows * 1000 + cols)
        if rank is None:
            dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        else:
            dense = low_rank_dense(rng, rows, cols, rank)
        r, piv = bitlinalg.rref(BitMatrix.from_dense(dense))
        expect, expect_piv = dense_rref(dense)
        assert piv == expect_piv
        assert np.array_equal(r.to_dense(), expect)
        if rank is not None:
            assert len(piv) == rank


class TestNullspace:
    def test_single_parity(self):
        basis = bitlinalg.nullspace_basis(BitMatrix.from_dense([[1, 1]]))
        # enumerate all 4 vectors: only 00 and 11 satisfy v1 + v2 = 0
        assert basis.to_dense().tolist() == [[1, 1]]

    def test_identity_has_trivial_nullspace(self):
        assert bitlinalg.nullspace_basis(BitMatrix.identity(4)).rows == 0

    def test_zero_row_spans_everything(self):
        basis = bitlinalg.nullspace_basis(BitMatrix.zeros(1, 3))
        assert basis.rows == 3
        assert bitlinalg.rank(basis) == 3

    @pytest.mark.parametrize("seed", range(8))
    def test_dimension_and_membership(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = random_bitmatrix(rng, rng.integers(1, 12), rng.integers(1, 12))
        basis = bitlinalg.nullspace_basis(m)
        assert basis.rows == m.cols - bitlinalg.rank(m)
        assert bitlinalg.rank(basis) == basis.rows
        for row in basis.to_dense():
            assert not bitlinalg.mat_vec(m, row).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_basis_is_identity_on_free_columns(self, seed):
        # The null vector with given entries on the non-pivot columns is
        # unique, so this pins the exact basis, not only its span.
        rng = np.random.default_rng(700 + seed)
        m = random_bitmatrix(rng, int(rng.integers(5, 60)), int(rng.integers(5, 140)))
        _, pivots = bitlinalg.rref(m)
        free = [c for c in range(m.cols) if c not in pivots]
        basis = bitlinalg.nullspace_basis(m).to_dense()
        assert np.array_equal(basis[:, free], np.eye(len(free)))
        assert not ((m.to_dense() @ basis.T) % 2).any()


class TestMatVec:
    def test_identity(self):
        v = np.array([1, 0, 1], dtype=np.uint8)
        assert bitlinalg.mat_vec(BitMatrix.identity(3), v).tolist() == [1, 0, 1]

    def test_zero(self):
        assert bitlinalg.mat_vec(BitMatrix.zeros(2, 3), [1, 1, 1]).tolist() == [0, 0]

    def test_hand_product(self):
        m = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
        assert bitlinalg.mat_vec(m, [1, 0, 1]).tolist() == [1, 1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            bitlinalg.mat_vec(BitMatrix.identity(3), [1, 0])

    @pytest.mark.parametrize("seed", range(5))
    def test_against_dense(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = random_bitmatrix(rng, 7, 130)
        v = rng.integers(0, 2, size=130, dtype=np.uint8)
        expect = (m.to_dense() @ v) % 2
        assert np.array_equal(bitlinalg.mat_vec(m, v), expect)
        w = rng.integers(0, 2, size=7, dtype=np.uint8)
        expect_l = (w @ m.to_dense()) % 2
        assert np.array_equal(bitlinalg.vec_mat(w, m), expect_l)


class TestRightInverse:
    def test_identity(self):
        assert bitlinalg.right_inverse(BitMatrix.identity(4)) == BitMatrix.identity(4)

    def test_wide_matrix(self):
        m = BitMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
        d = bitlinalg.right_inverse(m)
        assert np.array_equal((m.to_dense() @ d.to_dense()) % 2, np.eye(2))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            bitlinalg.right_inverse(BitMatrix.zeros(1, 3))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_full_row_rank(self, seed):
        rng = np.random.default_rng(400 + seed)
        cols = int(rng.integers(2, 40))
        rows = int(rng.integers(1, cols + 1))
        while True:
            m = random_bitmatrix(rng, rows, cols)
            if bitlinalg.rank(m) == rows:
                break
        d = bitlinalg.right_inverse(m)
        assert np.array_equal((m.to_dense() @ d.to_dense()) % 2, np.eye(rows))

    @pytest.mark.parametrize("rows,cols", [(65, 130), (70, 71), (100, 190), (129, 200)])
    def test_against_dense_oracle(self, rows, cols):
        rng = np.random.default_rng(rows * 1000 + cols)
        while True:
            dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            if dense_rank(dense) == rows:
                break
        d = bitlinalg.right_inverse(BitMatrix.from_dense(dense))
        assert d.shape == (cols, rows)
        assert np.array_equal(d.to_dense(), dense_right_inverse(dense))

    def test_dual_parity_check_against_dense_oracle(self):
        # the dual's h is the parent's generator, which is not in reduced form
        h = codes.dual(codes.regular_ldpc(150, 3, 6, seed=4)).h
        assert h.rows > 64
        assert bitlinalg.rref(h)[0] != h
        d = bitlinalg.right_inverse(h)
        assert np.array_equal(d.to_dense(), dense_right_inverse(h.to_dense()))


class TestBlockedElimination:
    """The blocked step against the dense oracle and the per-pivot step."""

    # wide enough for the blocked step; no row or column count is a multiple of 64
    @pytest.mark.parametrize("rows,cols,rank", [
        (70, 3000, None), (70, 3000, 41), (130, 2600, None), (201, 2700, 150),
        (65, 2561, 64), (3, 2600, None),
    ])
    def test_rref_and_rank_against_dense_oracle(self, rows, cols, rank):
        assert bitlinalg._nwords(cols) >= _kernels._BLOCKED_MIN_WORDS
        rng = np.random.default_rng(rows * 1000 + cols)
        if rank is None:
            dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        else:
            dense = low_rank_dense(rng, rows, cols, rank)
        m = BitMatrix.from_dense(dense)
        r, piv = bitlinalg.rref(m)
        expect, expect_piv = dense_rref(dense)
        assert piv == expect_piv
        assert np.array_equal(r.to_dense(), expect)
        assert bitlinalg.rank(m) == _rank_words_numpy(m.words.copy(), cols) == len(expect_piv)
        if rank is not None:
            assert len(piv) <= rank < rows

    @pytest.mark.parametrize("rows,cols", [(70, 2600), (129, 2700)])
    def test_right_inverse_against_dense_oracle(self, rows, cols):
        rng = np.random.default_rng(rows * 1000 + cols)
        dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        assert dense_rank(dense) == rows
        d = bitlinalg.right_inverse(BitMatrix.from_dense(dense))
        assert np.array_equal(d.to_dense(), dense_right_inverse(dense))

    @staticmethod
    def assert_matches_oracle(words, ncols, width):
        """``_eliminate`` in both modes against the dense oracle, on packed
        rows ``width`` bits wide whose pivots are searched in ``ncols``."""
        dense = bitlinalg._unpack_rows(words, width)
        expect, expect_piv = dense_rref(dense, ncols)
        r = len(expect_piv)
        for clear_above in (True, False):
            reduced = words.copy()
            assert _kernels._eliminate(reduced, ncols, clear_above) == expect_piv
            got = bitlinalg._unpack_rows(reduced, width)
            assert not got[r:, :ncols].any()
            if clear_above and r == words.shape[0]:
                # rref is unique, and at full rank so is the row-operation
                # record past ncols (the right inverse, for [m | I])
                assert np.array_equal(got, expect)
            elif clear_above:
                assert np.array_equal(got[:r, :ncols], expect[:r, :ncols])
            else:
                # echelon rows: row i starts at pivot i and spans the oracle's rows
                lead = [int(np.flatnonzero(row)[0]) for row in got[:r, :ncols]]
                assert lead == expect_piv
                assert dense_rank(np.vstack([got[:r, :ncols], expect[:r, :ncols]])) == r

    @pytest.mark.parametrize("seed", range(40))
    def test_blocked_step_equals_per_pivot_step(self, seed):
        # the block step on narrow shapes against the per-pivot dense oracle;
        # the words past ncols stand for the identity that right_inverse carries
        rng = np.random.default_rng(seed)
        rows, cols = (int(x) for x in rng.integers(1, 200, size=2))
        if seed % 3 == 0:
            rank = int(rng.integers(0, min(rows, cols) + 1))
            dense = low_rank_dense(rng, rows, cols, rank)
        elif seed % 3 == 1:
            dense = (rng.random((rows, cols)) < 0.03).astype(np.uint8)
        else:
            dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        with_eye = np.hstack([dense, np.eye(rows, dtype=np.uint8)])
        words = BitMatrix.from_dense(with_eye).words
        assert words.shape[1] < _kernels._BLOCKED_MIN_WORDS
        self.assert_matches_oracle(words, cols, with_eye.shape[1])

    @pytest.mark.parametrize("args", [(600, 3, 6, 2), (600, 4, 6, 3)])
    def test_sparse_checks_with_pivot_gaps(self, args):
        # sparse checks whose pivots skip columns, so some bytes hold fewer
        # than 8 pivots and some none; the (4,6) checks are rank-deficient
        checks = codes.regular_ldpc(*args).checks
        _, piv = dense_rref(checks.to_dense())
        per_byte = np.bincount(np.array(piv) // 8)
        assert ((per_byte > 0) & (per_byte < 8))[:-1].any()
        assert (per_byte == 0).any()
        self.assert_matches_oracle(checks.words, checks.cols, checks.cols)

    @pytest.mark.parametrize("rows,ncols,rank", [
        (20, 61, None), (70, 203, None), (70, 203, 50), (90, 2605, None), (90, 2605, 40),
    ])
    def test_junk_past_ncols_in_the_same_byte(self, rows, ncols, rank):
        # ncols % 8 != 0: the last byte mixes pivot candidates with junk bits,
        # which are carried along but never chosen as pivots
        assert ncols % 8
        rng = np.random.default_rng(rows + ncols)
        width = 64 * bitlinalg._nwords(ncols) + 64
        dense = rng.integers(0, 2, size=(rows, width), dtype=np.uint8)
        if rank is not None:
            dense[:, :ncols] = low_rank_dense(rng, rows, ncols, rank)
        assert dense[:, ncols : ncols + 8 - ncols % 8].any()
        self.assert_matches_oracle(BitMatrix.from_dense(dense).words, ncols, width)

    def test_width_rule(self, monkeypatch):
        # rref takes the block step at any width; only ranks have a width rule
        calls = []
        eliminate = _kernels._eliminate

        def spy(words, ncols, clear_above):
            calls.append(words.shape)
            return eliminate(words, ncols, clear_above)

        monkeypatch.setattr(_kernels, "_eliminate", spy)
        monkeypatch.setattr(bitlinalg, "_eliminate", spy)
        narrow = BitMatrix.zeros(3, 64 * (_kernels._BLOCKED_MIN_WORDS - 1))
        wide = BitMatrix.zeros(3, 64 * (_kernels._BLOCKED_MIN_WORDS - 1) + 1)
        tiny = BitMatrix.identity(2)
        for m in (tiny, narrow, wide):
            bitlinalg.rref(m)
        assert calls == [tiny.words.shape, narrow.words.shape, wide.words.shape]
        calls.clear()
        assert _rank_words_numpy(narrow.words.copy(), narrow.cols) == 0
        assert calls == []
        assert _rank_words_numpy(wide.words.copy(), wide.cols) == 0
        assert calls == [wide.words.shape]


class TestTranspose:
    SHAPES = [(0, 0), (0, 5), (5, 0), (0, 130), (130, 0), (1, 1), (63, 64),
              (64, 65), (65, 63), (127, 129), (200, 3), (3, 200)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_against_dense(self, shape):
        dense = np.random.default_rng(sum(shape)).integers(0, 2, size=shape, dtype=np.uint8)
        m = BitMatrix.from_dense(dense)
        t = m.transpose()
        assert t == BitMatrix.from_dense(dense.T)
        assert t.words.flags.c_contiguous
        assert t.transpose() == m

    @pytest.mark.parametrize("shape", SHAPES)
    def test_column_weights_against_dense(self, shape):
        dense = np.random.default_rng(sum(shape)).integers(0, 2, size=shape, dtype=np.uint8)
        weights = BitMatrix.from_dense(dense).column_weights()
        assert weights.dtype == np.int64
        assert np.array_equal(weights, dense.sum(axis=0, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 64),
    cols=st.integers(1, 64),
)
def test_rank_equals_transpose_rank(seed, rows, cols):
    rng = np.random.default_rng(seed)
    m = random_bitmatrix(rng, rows, cols)
    assert bitlinalg.rank(m) == bitlinalg.rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
)
def test_rank_nullity(seed, rows, cols):
    rng = np.random.default_rng(seed)
    m = random_bitmatrix(rng, rows, cols)
    basis = bitlinalg.nullspace_basis(m)
    assert bitlinalg.rank(basis) + bitlinalg.rank(m) == m.cols


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 48),
    ncols=st.one_of(
        st.integers(0, 200),
        st.integers(64 * (_kernels._BLOCKED_MIN_WORDS - 2), 64 * _kernels._BLOCKED_MIN_WORDS + 70),
    ),
    extra_words=st.integers(0, 2),
    rank=st.none() | st.integers(0, 48),
)
@example(seed=0, rows=3, ncols=0, extra_words=0, rank=None)  # a 0-word array
@example(seed=0, rows=0, ncols=130, extra_words=1, rank=None)
@example(seed=1, rows=40, ncols=64 * _kernels._BLOCKED_MIN_WORDS - 1, extra_words=1, rank=20)
def test_numpy_rank_equals_oracle(seed, rows, ncols, extra_words, rank):
    # junk bits past ncols, in the last word and in extra trailing words
    # (like right_inverse's identity tail), must not count
    rng = np.random.default_rng(seed)
    if rank is None:
        dense = rng.integers(0, 2, size=(rows, ncols), dtype=np.uint8)
    else:
        dense = low_rank_dense(rng, rows, ncols, min(rank, rows, ncols))
    words = np.zeros((rows, bitlinalg._nwords(ncols) + extra_words), dtype=np.uint64)
    words[:, : bitlinalg._nwords(ncols)] = BitMatrix.from_dense(dense).words
    words = junk_past(words, ncols, rng)
    want = dense_rank(dense)
    assert _rank_words_numpy(words.copy(), ncols) == want


def test_padding_bits_stay_zero():
    # operations on a 70-column matrix never touch the pad bits of word 2
    rng = np.random.default_rng(7)
    m = random_bitmatrix(rng, 9, 70)
    reduced, _ = bitlinalg.rref(m)
    for mat in (m, reduced, m.transpose().transpose()):
        spill = mat.words[:, -1] >> np.uint64(70 - 64)
        assert not spill.any()


def test_import_is_silent_and_loads_no_numba():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(wiretapcodes.__file__).parents[1])
    code = "import wiretapcodes, sys; assert 'numba' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
