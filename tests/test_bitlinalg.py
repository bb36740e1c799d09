import ast
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wiretapcodes
from wiretapcodes import bitlinalg, codes, secrecy
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

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (4, 70), (0, 0), (0, 5), (5, 0)])
    def test_zero_matrix(self, shape):
        assert bitlinalg.rank(BitMatrix.from_dense(np.zeros(shape))) == 0

    def test_dependent_row(self):
        # third row is the GF(2) sum of the first two; row space has 4 elements
        rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        assert len(rowspace(rows)) == 4
        assert bitlinalg.rank(BitMatrix.from_dense(rows)) == 2

    def test_input_unchanged(self):
        # rank works on the caller's words, at the per-trial widths too
        wide = random_bitmatrix(np.random.default_rng(5), 70, 64 * 40 + 3)
        for m in (BitMatrix.from_dense([[1, 1], [1, 1]]), wide):
            before = m.words.copy()
            assert bitlinalg.rank(m) == dense_rank(m.to_dense())
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

    @pytest.mark.parametrize("ncols", [0, 1, 63, 64, 65, 64 * 39, 64 * 39 + 1])
    def test_widths(self, ncols):
        # ncols at word boundaries, up to the 40 words of the n=5004 ranks,
        # with and without a trailing junk word
        rng = np.random.default_rng(ncols)
        dense = low_rank_dense(rng, 70, ncols, min(50, ncols))
        want = dense_rank(dense)
        words = BitMatrix.from_dense(dense).words
        for w in (words, np.hstack([words, np.zeros((70, 1), dtype=np.uint64)])):
            assert _rank_words_numpy(junk_past(w, ncols, rng), ncols) == want

    def test_no_columns(self):
        rng = np.random.default_rng(0)
        for width in (0, 1, 2):
            words = rng.integers(0, 2**64, size=(5, width), dtype=np.uint64)
            assert _rank_words_numpy(words, 0) == 0

    @pytest.mark.parametrize("ncols", [1, 64, 130])
    def test_no_rows(self, ncols):
        words = np.zeros((0, bitlinalg._nwords(ncols) + 1), dtype=np.uint64)
        assert _rank_words_numpy(words, ncols) == 0

    @pytest.mark.parametrize("ncols", [64, 128, 64 * 5])
    def test_ncols_a_multiple_of_64(self, ncols):
        # the last word is whole; a trailing word of junk must not count
        rng = np.random.default_rng(ncols)
        dense = low_rank_dense(rng, 90, ncols, 40)
        words = BitMatrix.from_dense(dense).words
        wide = np.hstack([words, rng.integers(0, 2**64, size=(90, 1), dtype=np.uint64)])
        assert _rank_words_numpy(wide, ncols) == dense_rank(dense) == 40

    def test_junk_past_ncols(self):
        # rows whose only bits lie past ncols are zero rows
        words = np.array([[1 << 5 | 1 << 63], [1 << 7], [1 << 5]], dtype=np.uint64)
        before = words.copy()
        assert _rank_words_numpy(words, 6) == 1
        assert _rank_words_numpy(words, 7) == 1
        assert _rank_words_numpy(words, 8) == 2
        assert np.array_equal(words, before)

    @pytest.mark.parametrize("ncols", [5, 64, 100])
    def test_dependent_rows_after_full_column_rank(self, ncols):
        # the rank stops at ncols however many rows follow, junk included
        rng = np.random.default_rng(ncols)
        dense = np.vstack([np.eye(ncols, dtype=np.uint8),
                           rng.integers(0, 2, size=(30, ncols), dtype=np.uint8)])
        words = junk_past(BitMatrix.from_dense(dense).words, ncols, rng)
        assert _rank_words_numpy(words, ncols) == ncols
        assert _rank_words_numpy(words[::-1].copy(), ncols) == ncols


class TestRref:
    def test_identity(self):
        r, piv = bitlinalg.rref(BitMatrix.identity(3))
        assert r == BitMatrix.identity(3)
        assert piv == [0, 1, 2]

    def test_zero(self):
        r, piv = bitlinalg.rref(BitMatrix.from_dense(np.zeros((2, 3))))
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


def peelable(rng, rows, cols, weights) -> np.ndarray:
    """A ``rows x cols`` 0/1 array (``rows >= cols``) whose column ``j`` has
    ``min(weights[j], rows - j)`` ones: none for a zero weight, else one at
    row ``perm[j]`` and the rest at rows ``perm[k]``, ``k > j``.  Row
    ``perm[j]`` then holds column ``j`` and earlier columns only, so every
    column prefix without a zero column peels completely."""
    perm = rng.permutation(rows)
    dense = np.zeros((rows, cols), dtype=np.uint8)
    for j, w in enumerate(weights):
        if w:
            dense[perm[j], j] = 1
            dense[rng.choice(perm[j + 1 :], size=min(w, rows - j) - 1, replace=False), j] = 1
    return dense


class TestPeeledRref:
    """``rref`` peels the longest whole-word column prefix and eliminates
    only the Schur complement of the rest.  The RREF is unique, so it must
    equal whole-matrix elimination and the dense oracle bit for bit."""

    @staticmethod
    def check(m, oracle=True) -> int:
        """``rref(m)`` against ``_eliminate`` on the whole matrix and, with
        ``oracle``, against ``dense_rref``; returns the peeled word count."""
        r, piv = bitlinalg.rref(m)
        w0 = bitlinalg._peeled_prefix(m)[0]
        # only the words past the peeled prefix's identity are stored
        if w0:
            assert r._words is None and r._tail.shape == (m.rows, bitlinalg._nwords(m.cols) - w0)
        else:
            assert r._tail is None
        whole = m.words.copy()
        assert piv == _kernels._eliminate(whole, m.cols)
        assert np.array_equal(r.words, whole)
        if oracle:
            expect, expect_piv = dense_rref(m.to_dense())
            assert piv == expect_piv
            assert np.array_equal(r.to_dense(), expect)
        return w0

    @pytest.mark.parametrize("n,seed", [(240, s) for s in range(3)]
                             + [(606, s) for s in range(3)] + [(1002, s) for s in range(2)])
    def test_regular_ldpc(self, n, seed):
        assert self.check(codes.regular_ldpc(n, 3, 6, seed=seed).checks) > 0

    def test_rank_deficient(self):
        checks = codes.regular_ldpc(600, 4, 6, seed=3).checks
        assert self.check(checks) > 0
        assert bitlinalg.rank(checks) < checks.rows

    def test_duplicate_and_zero_rows(self):
        rng = np.random.default_rng(7)
        dense = codes.regular_ldpc(606, 3, 6, seed=1).checks.to_dense()
        extra = [dense[rng.choice(len(dense), 60)], np.zeros((20, 606), np.uint8)]
        dense = np.vstack([dense, *extra])
        assert self.check(BitMatrix.from_dense(dense[rng.permutation(len(dense))])) > 0

    def test_weight_one_and_zero_columns(self):
        # a zero column never resolves yet leaves no stopping-set core, so
        # the one at column 150 must stop the prefix at its word
        rng = np.random.default_rng(11)
        weights = rng.integers(1, 4, size=300)
        assert (weights == 1).any()
        weights[[150, 280]] = 0
        assert self.check(BitMatrix.from_dense(peelable(rng, 360, 300, weights))) == 2

    @pytest.mark.parametrize("zero,words", [
        (192, 3), (191, 2), (128, 2), (127, 1), (64, 1), (63, 0),
    ])
    def test_prefix_ends_at_a_word_boundary(self, zero, words):
        # the columns before the zero one peel, so the prefix is the whole
        # words before it; 3 words are found by the bisection, not the gallop
        rng = np.random.default_rng(zero)
        weights = rng.integers(1, 4, size=260)
        weights[zero] = 0
        assert self.check(BitMatrix.from_dense(peelable(rng, 300, 260, weights))) == words

    @pytest.mark.parametrize("rows,cols,words", [(300, 256, 4), (300, 130, 2), (128, 128, 2)])
    def test_every_whole_word_peels(self, rows, cols, words):
        # the Schur complement has no column left, or only the partial last
        # word, which is never peeled
        rng = np.random.default_rng(rows + cols)
        dense = peelable(rng, rows, cols, rng.integers(1, 4, size=cols))
        assert self.check(BitMatrix.from_dense(dense)) == words

    def test_dense_peels_nothing(self):
        rng = np.random.default_rng(3)
        assert self.check(random_bitmatrix(rng, 100, 300)) == 0

    @pytest.mark.parametrize("shape", [(0, 0), (0, 130), (130, 0), (3, 64), (64, 64)])
    def test_empty_and_zero(self, shape):
        assert self.check(BitMatrix.from_dense(np.zeros(shape, dtype=np.uint8))) == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cols=st.integers(1, 400),
           extra=st.integers(0, 80), zeros=st.sampled_from([0.0, 0.002, 0.02]),
           noise=st.integers(0, 40))
    def test_random_sparse(self, seed, cols, extra, zeros, noise):
        rng = np.random.default_rng(seed)
        weights = rng.integers(1, 4, size=cols) * (rng.random(cols) >= zeros)
        dense = peelable(rng, cols + extra, cols, weights)
        dense[rng.integers(0, cols + extra, noise), rng.integers(0, cols, noise)] ^= 1
        self.check(BitMatrix.from_dense(dense), oracle=False)

    def test_eliminates_only_the_schur_complement(self, monkeypatch):
        # a silent fall-back to whole-matrix elimination would hand all 1000
        # rows to _eliminate
        checks = codes.regular_ldpc(2000, 3, 6, seed=101).checks
        seen = []
        eliminate = _kernels._eliminate

        def spy(words, ncols):
            seen.append(words.shape)
            return eliminate(words, ncols)

        monkeypatch.setattr(bitlinalg, "_eliminate", spy)
        bitlinalg.rref(checks)
        assert len(seen) == 1 and seen[0][0] < checks.rows // 4

    @pytest.mark.parametrize("backing", ["keyed", "words"])
    def test_reads_the_pivot_bits_in_one_pass(self, monkeypatch, backing):
        # Checks that keep their keys are never packed: the peel and the
        # pivot bits of the second solve are read off the keys, with no
        # edges extracted.  A copy that holds words has its peel strips'
        # edges extracted (all rows), and the second solve reads the pivot
        # bits of all 21 rounds' checks in one pass.
        checks = codes.regular_ldpc(2000, 3, 6, seed=101).checks
        assert checks._keys is not None and checks._words is None
        if backing == "words":
            checks = checks.copy()
        _, _, via, bounds, _, _ = bitlinalg._peeled_prefix(checks)
        assert bounds.size - 1 == 21
        calls = []
        edges = _kernels._edges

        def spy(words):
            calls.append(words.shape)
            return edges(words)

        monkeypatch.setattr(bitlinalg, "_edges", spy)
        bitlinalg.rref(checks)
        if backing == "keyed":
            assert calls == [] and checks._words is None
        else:
            pivot_pass = [shape for shape in calls if shape[0] != checks.rows]
            assert len(pivot_pass) == 1 and pivot_pass[0][0] == via.size

    @pytest.fixture(scope="class")
    def long_code_checks(self):
        return codes.regular_ldpc(10002, 4, 6, seed=8).checks

    @pytest.fixture(params=["keyed", "keyless"])
    def long_checks(self, request, long_code_checks):
        """The long code's checks, which keep their edge keys, or a copy
        without them: the peel's two pools, the keys and the galloping
        word strips."""
        checks = long_code_checks if request.param == "keyed" else long_code_checks.copy()
        assert (checks._keys is not None) == (request.param == "keyed")
        return checks

    def test_long_code_round_by_round(self, long_checks):
        # 31 peel rounds of up to 599 columns (665 resolving edges), and a
        # 1676-row Schur complement, against whole-matrix elimination
        w0, resolved, via, bounds, _, _ = bitlinalg._peeled_prefix(long_checks)
        assert (w0, bounds.size - 1, np.diff(bounds).max()) == (78, 31, 599)
        assert resolved.size == 64 * w0 and long_checks.rows - via.size == 1676
        assert self.check(long_checks, oracle=False) == 78

    def test_peak_memory_of_the_long_code(self, long_checks):
        # The peak, 2.69 (keyless) to 2.89 MiB (keyed) above the 4.02 MiB
        # stored output (the 79 words past the 78-word identity), is in
        # _eliminate: the 1.01 MiB Schur complement and one table-row
        # temporary per byte.  The keyed rref reads the check words of the
        # second solve off the keys again rather than keep them through it.
        # The pivot bits are read after it is freed, from the 33 pivot words
        # of the 4992 resolving checks (1.26 MiB).  Gathering the whole
        # words of those checks at once would set the peak instead: 6.43 MiB
        # above the full output when the first solve does it, 4.64 MiB when
        # the second does.
        bitlinalg.rref(long_checks)
        tracemalloc.start()
        try:
            reduced, _ = bitlinalg.rref(long_checks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reduced._words is None and reduced._tail.shape == (6668, 79)
        assert peak < reduced._tail.nbytes + 3.8 * 2**20

    @pytest.mark.parametrize("ones", [1, 3])
    def test_all_ones_rows(self, ones):
        # rows that hold every column are unmatched, and their Schur rows
        # depend on the whole prefix
        rng = np.random.default_rng(ones)
        dense = peelable(rng, 330, 300, rng.integers(1, 4, size=300))
        dense = np.vstack([dense, np.ones((ones, 300), dtype=np.uint8)])
        assert self.check(BitMatrix.from_dense(dense[rng.permutation(len(dense))])) == 4

    def test_all_ones_row_resolves_the_last_column(self):
        # column 255 is in no row but the all-ones one, which resolves it
        # in the last round, with all 255 other prefix columns as its
        # dependencies
        rng = np.random.default_rng(5)
        weights = rng.integers(1, 4, size=300)
        weights[255] = 0
        dense = np.vstack([peelable(rng, 320, 300, weights), np.ones((1, 300), dtype=np.uint8)])
        m = BitMatrix.from_dense(dense)
        w0, resolved, via, bounds, _, _ = bitlinalg._peeled_prefix(m)
        last = slice(bounds[-2], bounds[-1])
        assert w0 == 4 and list(resolved[last]) == [255] and list(via[last]) == [320]
        assert self.check(m) == 4


class TestEdgeKeys:
    """A matrix packed from its edges keeps their sorted keys, and no other
    matrix has any, so no keys outlive the words they were read from."""

    @pytest.fixture(scope="class")
    def checks(self):
        return codes.regular_ldpc(606, 3, 6, seed=1).checks

    def test_a_copy_carries_none_and_reduces_after_a_flip(self, checks):
        assert checks._keys is not None
        copy = checks.copy()
        assert copy._keys is None
        copy.words[0, 0] = ~copy.words[0, 0]  # a word of the peeled prefix
        reduced, pivots = bitlinalg.rref(copy)
        expect, expect_piv = dense_rref(copy.to_dense())
        assert pivots == expect_piv and np.array_equal(reduced.to_dense(), expect)

    def test_words_are_packed_once_on_first_read(self):
        # built from keys, a matrix holds no words until they are read; the
        # first read packs the ones of the keys, and every read gives them
        keys = codes.regular_ldpc(606, 3, 6, seed=1).checks._keys
        m = bitlinalg._pack_keys(keys, 303, 606)
        assert m._words is None
        words = m.words
        assert m.words is words and m._keys is keys
        dense = np.zeros((303, 606), dtype=np.uint8)
        dense[keys >> 32, keys & (2**32 - 1)] = 1
        assert m == BitMatrix.from_dense(dense)

    def test_threads_racing_to_pack_read_equal_words(self):
        # packing on first read is the one state a keyed matrix shares
        keys = codes.regular_ldpc(2000, 3, 6, seed=101).checks._keys
        want = bitlinalg._pack_keys(keys, 1000, 2000).words
        for _ in range(5):
            m = bitlinalg._pack_keys(keys, 1000, 2000)
            assert all(np.array_equal(w, want) for w in read_words_racing(m))

    @pytest.mark.parametrize("form", ["keys", "tail"])
    def test_a_copy_leaves_the_original_unpacked(self, checks, form):
        # a copy packs into its own words and caches none on the original
        if form == "keys":
            m = bitlinalg._pack_keys(checks._keys, checks.rows, checks.cols)
        else:
            m = bitlinalg.rref(checks)[0]
            assert m._tail is not None
        copy = m.copy()
        assert m._words is None
        assert copy._keys is None and copy._tail is None
        assert np.array_equal(copy.words, m.words)

    def test_only_the_packer_gives_keys(self, checks):
        assert checks.transpose()._keys is None
        assert BitMatrix.from_dense(checks.to_dense())._keys is None
        assert BitMatrix.identity(5)._keys is None
        assert BitMatrix(checks.rows, checks.cols, checks.words)._keys is None


def read_words_racing(m, threads=4) -> list[np.ndarray]:
    """``m.words`` as read by ``threads`` threads at once, on two cores with
    a short switch interval, then once more: the first read packs a matrix
    that holds keys or a tail, the one state such a matrix shares."""
    got = []
    workers = [threading.Thread(target=lambda: got.append(m.words)) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers) and len(got) == threads
    return got + [m.words]


class TestTail:
    """``rref`` stores the words of its result past the peeled prefix's
    identity (``_tail``), and packs the identity with them on first read."""

    @pytest.fixture(scope="class")
    def reduced(self):
        return bitlinalg.rref(codes.regular_ldpc(2000, 3, 6, seed=101).checks)

    def test_stores_19_of_32_words_and_packs_them_once(self, reduced):
        # the 832-column prefix is 13 words, held as the identity; packing
        # keeps one copy, the tail becoming a view of the words
        m, pivots = reduced
        m = bitlinalg._pack_tail(m._tail, m.rows, m.cols)
        assert m._words is None and m._tail.shape == (1000, 19)
        assert pivots[:832] == list(range(832))
        words = m.words
        assert m.words is words and np.shares_memory(m._tail, words)
        assert np.array_equal(words[:832, :13], BitMatrix.identity(832).words)
        assert not words[832:, :13].any() and np.array_equal(words[:, 13:], m._tail)

    def test_threads_racing_to_pack_read_equal_words(self, reduced):
        want = reduced[0].copy().words
        for _ in range(5):
            m = bitlinalg._pack_tail(reduced[0]._tail, 1000, 2000)
            assert all(np.array_equal(w, want) for w in read_words_racing(m))
        assert reduced[0]._words is None

    def test_leading_rows_keep_the_tail(self, reduced):
        m, pivots = reduced
        h = bitlinalg._leading_rows(m, len(pivots))
        assert h._words is None and np.shares_memory(h._tail, m._tail)
        assert h == BitMatrix(len(pivots), m.cols, m.copy().words[: len(pivots)])
        dense = BitMatrix.from_dense(np.eye(3, 70, dtype=np.uint8))
        assert np.shares_memory(bitlinalg._leading_rows(dense, 2).words, dense.words)

    @pytest.mark.parametrize("rows, cols, shape, dtype", [
        (63, 130, (63, 2), np.uint64),  # the 64-row identity does not fit the rows
        (64, 100, (64, 0), np.uint64),  # nor the 2-word one the 100 columns
        (64, 130, (65, 2), np.uint64),
        (64, 130, (64, 2), np.uint32),
    ])
    def test_a_tail_must_fit_below_its_identity(self, rows, cols, shape, dtype):
        with pytest.raises(ValueError, match=f"does not fit the {rows}x{cols} matrix"):
            bitlinalg._pack_tail(np.zeros(shape, dtype=dtype), rows, cols)

    def test_a_tail_keeps_its_padding_zero(self):
        tail = np.zeros((64, 2), dtype=np.uint64)
        m = bitlinalg._pack_tail(tail, 64, 130)
        assert m == BitMatrix.from_dense(np.eye(64, 130, dtype=np.uint8))
        tail[5, 1] = np.uint64(1) << np.uint64(2)  # column 130
        with pytest.raises(ValueError, match="padding bit beyond column 130"):
            bitlinalg._pack_tail(tail, 64, 130)


@pytest.mark.parametrize("shape", [(0, 0), (0, 70), (3, 0), (5, 64), (7, 130), (40, 300)])
def test_edges_are_the_ones_row_major(shape):
    rng = np.random.default_rng(sum(shape))
    dense = (rng.random(shape) < 0.1).astype(np.uint8)
    m = BitMatrix.from_dense(dense)
    cases = [(m, dense)]
    if m.words.shape[1] > 1:  # a one-word prefix, not contiguous in memory
        cases.append((BitMatrix(m.rows, 64, m.words[:, :1]), dense[:, :64]))
    for mat, want in cases:
        chk, var = _kernels._edges(mat.words)
        assert chk.dtype == var.dtype == np.int64
        assert np.array_equal(chk, np.nonzero(want)[0])
        assert np.array_equal(var, np.nonzero(want)[1])


class TestNullspace:
    def test_single_parity(self):
        basis = bitlinalg.nullspace_basis(BitMatrix.from_dense([[1, 1]]))
        # enumerate all 4 vectors: only 00 and 11 satisfy v1 + v2 = 0
        assert basis.to_dense().tolist() == [[1, 1]]

    def test_identity_has_trivial_nullspace(self):
        assert bitlinalg.nullspace_basis(BitMatrix.identity(4)).rows == 0

    def test_zero_row_spans_everything(self):
        basis = bitlinalg.nullspace_basis(BitMatrix.from_dense(np.zeros((1, 3))))
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


def nullspace_oracle(reduced, pivots) -> np.ndarray:
    """The null-space basis read off a dense matrix with the identity at
    ``pivots``: row ``t`` is ``e_f`` plus ``reduced[:, f]`` at the pivots,
    ``f`` the ``t``-th free column."""
    cols = reduced.shape[1]
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = reduced[: len(pivots)][:, free].T
    return basis


def full_row_rank_dense(rng, rows, cols) -> np.ndarray:
    """A ``rows x cols`` matrix of rank ``rows``: an invertible product of
    unitriangular factors, then random columns, columns shuffled."""
    lower = np.tril(rng.integers(0, 2, size=(rows, rows)), -1) + np.eye(rows, dtype=np.int64)
    upper = np.triu(rng.integers(0, 2, size=(rows, rows)), 1) + np.eye(rows, dtype=np.int64)
    left = (lower @ upper) % 2
    dense = np.hstack([left, rng.integers(0, 2, size=(rows, cols - rows))])
    return dense[:, rng.permutation(cols)].astype(np.uint8)


class TestStripNullspace:
    """The basis is transposed one strip of 512 columns at a time; widths
    around the word and strip edges, against dense elimination."""

    @pytest.mark.parametrize("cols", [1, 63, 64, 511, 512, 513, 1157])
    @pytest.mark.parametrize("rank", ["zero", "partial", "full"])
    def test_against_dense_elimination(self, cols, rank):
        rng = np.random.default_rng(cols)
        rows = min(cols, 300)
        if rank == "zero":
            dense = np.zeros((rows, cols), dtype=np.uint8)
        elif rank == "partial":
            dense = low_rank_dense(rng, rows, cols, max(1, rows // 2))
        else:
            dense = full_row_rank_dense(rng, rows, cols)
        reduced, pivots = dense_rref(dense)
        basis = bitlinalg.nullspace_basis(BitMatrix.from_dense(dense))
        assert basis == BitMatrix.from_dense(nullspace_oracle(reduced, pivots))
        assert basis.rows == cols - {"zero": 0, "partial": len(pivots), "full": rows}[rank]

    @pytest.mark.parametrize("all_pivot_strips", [(0,), (1,), (2,), (0, 2), (0, 1, 2)])
    def test_strips_without_a_free_column(self, all_pivot_strips):
        # every column of the listed strips is a pivot, so those strips
        # contribute no basis vector; 1100 columns make the last strip narrow
        cols = 1100
        rng = np.random.default_rng(sum(all_pivot_strips))
        is_pivot = rng.random(cols) < 0.2
        for s in all_pivot_strips:
            is_pivot[512 * s : 512 * (s + 1)] = True
        pivots = np.flatnonzero(is_pivot)
        dense = rng.integers(0, 2, size=(pivots.size, cols), dtype=np.uint8)
        dense[:, pivots] = np.eye(pivots.size, dtype=np.uint8)
        basis = bitlinalg._nullspace_from_rref(BitMatrix.from_dense(dense), pivots.tolist())
        want = nullspace_oracle(dense, pivots)
        assert basis == BitMatrix.from_dense(want)
        assert not ((dense.astype(np.int64) @ want.T) % 2).any()

    @pytest.mark.parametrize("cols,pivots,held", [
        # two non-adjacent 64-column blocks of a 12-block matrix
        (768, np.r_[128 + np.arange(0, 64, 3), 448 + np.arange(5, 64, 2)], (2, 7)),
        # the last block, 20 columns wide, only
        (724, np.array([704, 707, 711, 723]), (11,)),
        (724, np.array([300]), (4,)),  # a single pivot
    ], ids=["two-blocks", "last-partial-block", "one-pivot"])
    def test_row_blocks_without_a_pivot(self, cols, pivots, held):
        # only the row blocks listed in held hold a pivot; every other
        # 64-row block of the pivot-placed matrix is zero and is skipped
        assert tuple(np.unique(pivots // 64)) == held
        rng = np.random.default_rng(cols + pivots.size)
        dense = rng.integers(0, 2, size=(pivots.size, cols), dtype=np.uint8)
        dense[:, pivots] = np.eye(pivots.size, dtype=np.uint8)
        basis = bitlinalg._nullspace_from_rref(BitMatrix.from_dense(dense), pivots.tolist())
        want = nullspace_oracle(dense, pivots)
        assert basis == BitMatrix.from_dense(want)
        assert not ((dense.astype(np.int64) @ want.T) % 2).any()

    def test_peak_memory_is_near_the_output(self):
        # a reduced 2000 x 10000 matrix: the whole 10000 x 10000 bit matrix
        # and its transpose temporaries (2.5x the output) are never built
        rng = np.random.default_rng(11)
        rows, cols = 2000, 10000
        pivots = np.sort(rng.choice(cols, rows, replace=False))
        is_free = np.ones(cols, dtype=bool)
        is_free[pivots] = False
        words = rng.integers(0, 2**64, size=(rows, bitlinalg._nwords(cols)), dtype=np.uint64)
        words &= bitlinalg.pack_vector(is_free, cols)  # random bits at the free columns
        words[np.arange(rows), pivots // 64] |= np.uint64(1) << (pivots % 64).astype(np.uint64)
        reduced = BitMatrix(rows, cols, words)
        tracemalloc.start()
        try:
            basis = bitlinalg._nullspace_from_rref(reduced, pivots.tolist())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.shape == (cols - rows, cols)
        assert peak < 1.5 * basis.words.nbytes


class TestMatVec:
    def test_identity(self):
        v = np.array([1, 0, 1], dtype=np.uint8)
        assert bitlinalg.mat_vec(BitMatrix.identity(3), v).tolist() == [1, 0, 1]

    def test_zero(self):
        zero = BitMatrix.from_dense(np.zeros((2, 3)))
        assert bitlinalg.mat_vec(zero, [1, 1, 1]).tolist() == [0, 0]

    def test_hand_product(self):
        m = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
        assert bitlinalg.mat_vec(m, [1, 0, 1]).tolist() == [1, 1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            bitlinalg.mat_vec(BitMatrix.identity(3), [1, 0])

    @pytest.mark.parametrize("right,left", [
        ([2, 0, 0], [2, 0]), ([-1, 0, 0], [0, -1]), ([0.5, 0, 1], [0.5, 1]),
        (np.array([0, 0, 255]), np.array([0, 256])),
    ])
    def test_entries_that_are_not_bits(self, right, left):
        # 2 is 0 over GF(2) and 0.5 no bit at all; neither may be read as one
        m = BitMatrix.from_dense([[1, 0, 0], [0, 1, 1]])
        with pytest.raises(ValueError, match="must be bits, each 0 or 1"):
            bitlinalg.mat_vec(m, right)
        with pytest.raises(ValueError, match="must be bits, each 0 or 1"):
            bitlinalg.vec_mat(left, m)
        with pytest.raises(ValueError, match="must be bits, each 0 or 1"):
            BitMatrix.from_dense([right, [0, 1, 1]])

    def test_bool_entries(self):
        m = BitMatrix.from_dense([[True, False, False], [False, True, True]])
        assert m == BitMatrix.from_dense([[1, 0, 0], [0, 1, 1]])
        assert bitlinalg.mat_vec(m, np.array([True, False, True])).tolist() == [1, 1]
        assert bitlinalg.vec_mat(np.array([True, True]), m).tolist() == [1, 1, 1]

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

    @pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (0, 70), (2, 0), (3, 0)])
    def test_empty_shapes_against_dense(self, rows, cols):
        dense = np.zeros((rows, cols), dtype=np.uint8)
        m = BitMatrix.from_dense(dense)
        v = np.ones(cols, dtype=np.uint8)
        w = np.ones(rows, dtype=np.uint8)
        for got, want in ((m.to_dense(), dense), (bitlinalg.mat_vec(m, v), dense @ v % 2),
                          (bitlinalg.vec_mat(w, m), w @ dense % 2)):
            assert got.shape == want.shape and got.dtype == want.dtype == np.uint8
            assert np.array_equal(got, want)


class TestRightInverse:
    def test_identity(self):
        assert bitlinalg.right_inverse(BitMatrix.identity(4)) == BitMatrix.identity(4)

    def test_wide_matrix(self):
        m = BitMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
        d = bitlinalg.right_inverse(m)
        assert np.array_equal((m.to_dense() @ d.to_dense()) % 2, np.eye(2))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            bitlinalg.right_inverse(BitMatrix.from_dense(np.zeros((1, 3))))

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

    # 40 words or wider, as the per-trial ranks of n >= 5004 pairs are; no
    # row or column count is a multiple of 64
    @pytest.mark.parametrize("rows,cols,rank", [
        (70, 3000, None), (70, 3000, 41), (130, 2600, None), (201, 2700, 150),
        (65, 2561, 64), (3, 2600, None),
    ])
    def test_rref_and_rank_against_dense_oracle(self, rows, cols, rank):
        assert bitlinalg._nwords(cols) >= 40
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
        """``_eliminate`` against the dense oracle, on packed rows ``width``
        bits wide whose pivots are searched in ``ncols``; returns the reduced
        words and the pivots."""
        dense = bitlinalg._unpack_rows(words, width)
        expect, expect_piv = dense_rref(dense, ncols)
        r = len(expect_piv)
        reduced = words.copy()
        assert _kernels._eliminate(reduced, ncols) == expect_piv
        got = bitlinalg._unpack_rows(reduced, width)
        assert not got[r:, :ncols].any()
        if r == words.shape[0]:
            # rref is unique, and at full rank so is the row-operation
            # record past ncols (the right inverse, for [m | I])
            assert np.array_equal(got, expect)
        else:
            assert np.array_equal(got[:r, :ncols], expect[:r, :ncols])
        return reduced, expect_piv

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
        self.assert_matches_oracle(words, cols, with_eye.shape[1])

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 80),
        ncols=st.integers(1, 400),
        density=st.floats(0.03, 0.5),
        shape=st.sampled_from(["random", "deficient", "schur"]),
        extra_words=st.integers(0, 2),
        junk=st.booleans(),
    )
    @example(seed=0, rows=80, ncols=400, density=0.03, shape="schur", extra_words=2, junk=True)
    @example(seed=1, rows=80, ncols=400, density=0.5, shape="random", extra_words=1, junk=True)
    @example(seed=2, rows=1, ncols=1, density=0.5, shape="schur", extra_words=0, junk=False)
    def test_eliminate_property(self, seed, rows, ncols, density, shape, extra_words, junk):
        # "schur" is shaped like rref's Schur complement: rank rows - 1, its
        # pivots all in a lead of about rows columns and at least two words
        # of pivot-free columns after them, under every byte step
        rng = np.random.default_rng(seed)

        def sparse(r, c):
            return (rng.random((r, c)) < density).astype(np.uint8)

        if shape == "random":
            dense = sparse(rows, ncols)
        elif shape == "deficient":
            # every row the XOR of one or two of rank sparse rows
            rank = int(rng.integers(0, rows))
            base = np.vstack([sparse(rank, ncols), np.zeros((1, ncols), dtype=np.uint8)])
            pick = rng.integers(0, rank + 1, size=(rows, 2))
            dense = base[pick[:, 0]] ^ base[pick[:, 1]]
        else:
            lead = rows - 1 + int(rng.integers(0, 20))
            ncols = max(ncols, lead + 128)
            top = sparse(rows - 1, ncols)
            # unit upper triangular at the pivots, so the lead has rank rows - 1
            piv = np.sort(rng.choice(lead, size=rows - 1, replace=False))
            top[:, piv] = np.triu(top[:, piv], 1)
            top[np.arange(rows - 1), piv] = 1
            last = np.bitwise_xor.reduce(top[rng.random(rows - 1) < 0.5], axis=0)
            dense = np.vstack([top, last[None, :]])
            dense = dense[rng.permutation(rows)]
        nwords = bitlinalg._nwords(ncols) + extra_words
        words = np.zeros((rows, nwords), dtype=np.uint64)
        words[:, : bitlinalg._nwords(ncols)] = BitMatrix.from_dense(dense).words
        if junk:
            words = junk_past(words, ncols, rng)
        reduced, pivots = self.assert_matches_oracle(words, ncols, 64 * nwords)
        if shape == "schur":
            assert len(pivots) == rows - 1 and all(p < lead for p in pivots)
        # row operations only: the rows past ncols span the same space
        rank = _rank_words_numpy(words, 64 * nwords)
        assert _rank_words_numpy(reduced, 64 * nwords) == rank
        assert _rank_words_numpy(np.vstack([words, reduced]), 64 * nwords) == rank

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

    def test_rank_never_eliminates(self, monkeypatch):
        # rref takes the block step and rank the XOR basis, at every width
        calls = []
        eliminate = _kernels._eliminate

        def spy(words, ncols):
            calls.append(words.shape)
            return eliminate(words, ncols)

        monkeypatch.setattr(_kernels, "_eliminate", spy)
        monkeypatch.setattr(bitlinalg, "_eliminate", spy)
        rng = np.random.default_rng(39)
        shapes = [(2, 2), (3, 64 * 39), (3, 64 * 39 + 1), (40, 64 * 125)]
        mats = [random_bitmatrix(rng, rows, cols) for rows, cols in shapes]
        pivots = [bitlinalg.rref(m)[1] for m in mats]
        assert calls == [m.words.shape for m in mats]
        calls.clear()
        for m, piv in zip(mats, pivots):
            assert bitlinalg.rank(m) == _rank_words_numpy(m.words, m.cols) == len(piv)
        assert calls == []


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


class TestWordChecks:
    def test_words_must_be_uint64(self):
        # float words used to construct, and their transpose read [[1, 1], [0, 0], [0, 0]]
        with pytest.raises(ValueError, match="dtype float64 is not uint64"):
            BitMatrix(2, 3, np.ones((2, 1)))
        with pytest.raises(ValueError, match="dtype int64 is not uint64"):
            BitMatrix(2, 3, np.ones((2, 1), dtype=np.int64))

    def test_padding_bits_must_be_zero(self):
        # bit 3 of row 0 lies past a 3-column matrix; with it set, the
        # matrix used to compare unequal to the same matrix without it
        with pytest.raises(ValueError, match="padding bit beyond column 3"):
            BitMatrix(2, 3, np.array([[8], [1]], np.uint64))
        assert BitMatrix(2, 3, np.array([[4], [1]], np.uint64)) == BitMatrix.from_dense(
            [[0, 0, 1], [1, 0, 0]]
        )

    @pytest.mark.parametrize("cols", [1, 60, 63, 64, 65, 128, 130])
    def test_each_padding_bit_is_checked(self, cols):
        words = np.full((3, (cols + 63) // 64), ~np.uint64(0))
        words[:, -1] >>= np.uint64(-cols % 64)  # every column set, no padding bit
        assert (BitMatrix(3, cols, words).to_dense() == 1).all()
        for bit in range(cols % 64 or 64, 64):
            bad = words.copy()
            bad[2, -1] |= np.uint64(1) << np.uint64(bit)
            with pytest.raises(ValueError, match=f"padding bit beyond column {cols}"):
                BitMatrix(3, cols, bad)

    @pytest.mark.parametrize("chk, var", [(3, 0), (0, 5), (-1, 0)])
    def test_keys_must_lie_inside_the_matrix(self, chk, var):
        # what the words check would catch once packed: (0, 5) is not the
        # last key, whose column is 2
        keys = np.sort(np.array([1 << 32 | 2, chk << 32 | var], dtype=np.int64))
        with pytest.raises(ValueError, match="edge key lies outside the 3x5 matrix"):
            bitlinalg._pack_keys(keys, 3, 5)
        if chk >= 0:
            assert bitlinalg._pack_keys(keys, 4, 6).words.shape == (4, 1)

    def test_every_construction_in_the_package_passes(self, monkeypatch, tmp_path):
        # Find each function in the package that builds a matrix from words
        # (the constructor), from edge keys (_pack_keys) or from the words
        # past an identity (_pack_tail), then run them all at widths that
        # leave padding bits.  A matrix built from keys or a tail passes
        # when the words it packs pass the constructor.
        sites, keyed_sites, tail_sites = set(), set(), set()
        for path in Path(wiretapcodes.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and node.name == "BitMatrix":
                    makers = {"BitMatrix", "cls"}
                elif isinstance(node, ast.FunctionDef):
                    makers = {"BitMatrix"}
                else:
                    continue
                for fn in ast.walk(node):
                    if isinstance(fn, ast.FunctionDef):
                        called = {c.func.id for c in ast.walk(fn)
                                  if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
                        if called & makers:
                            sites.add(fn.name)
                        if "_pack_keys" in called:
                            keyed_sites.add(fn.name)
                        if "_pack_tail" in called:
                            tail_sites.add(fn.name)
        built, keyed_built, tail_built = set(), set(), set()
        init = BitMatrix.__init__
        pack_keys, pack_tail = bitlinalg._pack_keys, bitlinalg._pack_tail

        def spy(self, rows, cols, words):
            init(self, rows, cols, words)
            built.add(sys._getframe(1).f_code.co_name)

        def keyed_spy(keys, rows, cols):
            m = pack_keys(keys, rows, cols)
            init(BitMatrix.__new__(BitMatrix), rows, cols, m.words)
            keyed_built.add(sys._getframe(1).f_code.co_name)
            return m

        def tail_spy(tail, rows, cols):
            m = pack_tail(tail, rows, cols)
            m.copy()  # the constructor checks the words it packs
            tail_built.add(sys._getframe(1).f_code.co_name)
            return m

        monkeypatch.setattr(BitMatrix, "__init__", spy)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("wiretapcodes"):
                for name, real, fake in (("_pack_keys", pack_keys, keyed_spy),
                                         ("_pack_tail", pack_tail, tail_spy)):
                    if getattr(module, name, None) is real:
                        monkeypatch.setattr(module, name, fake)
        code = codes.regular_ldpc(130, 3, 6, seed=1)
        codes.write_alist(code, tmp_path / "code.alist")
        codes.read_alist(tmp_path / "code.alist")
        codes.nested_pair_from_coarse(codes.dual(codes.from_parity_check(code.checks)))
        # one of these 8 patterns leaves a core to rank
        secrecy.mc_equivocation_bec(codes.nested_pair_from_coarse(code), 0.3, 8,
                                    np.random.default_rng(1))
        bitlinalg.nullspace_basis(code.h.transpose())
        bitlinalg.right_inverse(code.h)
        BitMatrix.identity(3)
        assert "from_dense" in sites and {"regular_ldpc", "read_alist"} <= keyed_sites
        assert {"rref", "_leading_rows"} <= tail_sites
        assert sites <= built, sites - built
        assert keyed_sites <= keyed_built, keyed_sites - keyed_built
        assert tail_sites <= tail_built, tail_sites - tail_built


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
        st.integers(64 * 38, 64 * 40 + 70),
    ),
    extra_words=st.integers(0, 2),
    rank=st.none() | st.integers(0, 48),
)
@example(seed=0, rows=3, ncols=0, extra_words=0, rank=None)  # a 0-word array
@example(seed=0, rows=0, ncols=130, extra_words=1, rank=None)
@example(seed=1, rows=40, ncols=64 * 40 - 1, extra_words=1, rank=20)
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


def test_no_scipy_module_loads():
    # The package runs on numpy alone: scipy is a test dependency.  Every
    # channel's erasure rate, Q on a scalar and an array, and a CLI AWGN
    # simulation (which computes the erasure rates) load no scipy module.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(wiretapcodes.__file__).parents[1])
    code = "; ".join([
        "import sys, numpy as np, wiretapcodes as w",
        "from wiretapcodes import cli",
        "rng = np.random.default_rng(0)",
        "pair = w.nested_pair_from_coarse(w.dual(w.regular_ldpc(60, 3, 6, 1)))",
        "w.mc_equivocation_bec(pair, 0.5, 3, rng)",
        "w.bec_bp_threshold(w.DegreeDistribution.regular(3, 6))",
        "w.approach1_equivocation_bound(w.nested_pair_from_coarse(w.regular_ldpc(60, 3, 6, 1)), 1.0, 2, 5, rng)",
        "[ch.erasure_rate for ch in (w.BEC(0.3), w.BSC(0.1), w.BIAWGN(0.465))]",
        "w.q_function(1.0), w.q_function(np.linspace(-3.0, 3.0, 7).reshape(7, 1))",
        "assert cli.main(['simulate', '--estimator', 'approach2-awgn', '--ensemble', '3,6',"
        " '--n', '60', '--seed', '1', '--trials', '2', '--grid', '0.3:0.6:2']) == 0",
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))",
        "assert not loaded, loaded",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "approach2" in proc.stdout
