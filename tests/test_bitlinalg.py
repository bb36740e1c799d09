import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wiretapcodes
from wiretapcodes import bitlinalg, codes
from wiretapcodes._kernels import _rank_words_loops, _rank_words_numpy
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
            r_loops = _rank_words_loops(m.words.copy(), m.cols)
            r_numpy = _rank_words_numpy(m.words.copy(), m.cols)
            assert r_loops == r_numpy == dense_rank(m.to_dense())


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


def test_padding_bits_stay_zero():
    # operations on a 70-column matrix never touch the pad bits of word 2
    rng = np.random.default_rng(7)
    m = random_bitmatrix(rng, 9, 70)
    reduced, _ = bitlinalg.rref(m)
    for mat in (m, reduced, m.transpose().transpose()):
        spill = mat.words[:, -1] >> np.uint64(70 - 64)
        assert not spill.any()


def _import_without_numba(**env_extra):
    """Import the package in a fresh interpreter where numba cannot be found."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("WIRETAPCODES_NO_NUMBA", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = str(Path(wiretapcodes.__file__).parents[1])
    env.update(env_extra)
    code = (
        "import sys; sys.modules['numba'] = None; "
        "from wiretapcodes import _kernels; print(_kernels.BACKEND)"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )


class TestNumpyFallbackWarning:
    def test_missing_numba_warns_once(self):
        proc = _import_without_numba()
        assert proc.stdout == "numpy\n"
        assert proc.stderr.count("RuntimeWarning") == 1
        assert "_rank_words_numpy" in proc.stderr
        assert "8-10x slower" in proc.stderr

    def test_chosen_fallback_is_silent(self):
        proc = _import_without_numba(WIRETAPCODES_NO_NUMBA="1")
        assert proc.stdout == "numpy\n"
        assert proc.stderr == ""
