import hashlib
import tracemalloc

import numpy as np
import pytest

from wiretapcodes import bitlinalg, codes
from wiretapcodes.bitlinalg import BitMatrix
from wiretapcodes.codes import AlistParseError, DegreeDistribution


def sha(m: BitMatrix) -> str:
    return hashlib.sha256(m.words.tobytes() + f"{m.rows}x{m.cols}".encode()).hexdigest()


def unit_map(pivots, n) -> BitMatrix:
    """The coset map ``d`` as a matrix: n x len(pivots), a 1 at
    ``(pivots[i], i)``, so ``d @ w`` writes ``w`` at the pivots."""
    d = np.zeros((n, len(pivots)), dtype=np.uint8)
    d[pivots, np.arange(len(pivots))] = 1
    return BitMatrix.from_dense(d)


def codeword_set(code) -> set[bytes]:
    return {bytes(c) for c in code.codewords()}


def repetition_code(n=3):
    h = np.zeros((n - 1, n), dtype=np.uint8)
    for i in range(n - 1):
        h[i, i] = h[i, i + 1] = 1
    return codes.from_parity_check(BitMatrix.from_dense(h))


class TestDegreeDistribution:
    def test_regular_design_rate(self):
        assert DegreeDistribution.regular(3, 6).design_rate == pytest.approx(0.5)
        assert DegreeDistribution.regular(4, 6).design_rate == pytest.approx(1 / 3)

    def test_polynomials(self):
        dd = DegreeDistribution({2: 0.5, 3: 0.5}, {6: 1.0})
        assert dd.lam(1.0) == pytest.approx(1.0)
        assert dd.rho(0.5) == pytest.approx(0.5**5)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DegreeDistribution({2: 0.5}, {6: 1.0})

    def test_negative_design_rate_rejected(self):
        with pytest.raises(ValueError, match="design rate"):
            DegreeDistribution({6: 1.0}, {3: 1.0})


class TestFromParityCheck:
    def test_single_check(self):
        code = codes.from_parity_check(BitMatrix.from_dense([[1, 1, 1]]))
        assert (code.n, code.k) == (3, 2)
        # the four even-weight words on the support
        expected = {bytes([0, 0, 0]), bytes([1, 1, 0]), bytes([1, 0, 1]), bytes([0, 1, 1])}
        assert codeword_set(code) == expected

    def test_identity_check_matrix(self):
        code = codes.from_parity_check(BitMatrix.identity(4))
        assert code.k == 0
        assert code.g.rows == 0

    def test_duplicate_row_ignored(self):
        h1 = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
        h2 = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 1, 0]])
        a, b = codes.from_parity_check(h1), codes.from_parity_check(h2)
        assert a.h == b.h and a.k == b.k

    def test_zero_matrix_gives_full_space(self):
        code = codes.from_parity_check(BitMatrix.zeros(2, 3))
        assert code.k == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        h = BitMatrix.from_dense(rng.integers(0, 2, size=(5, 12), dtype=np.uint8))
        code = codes.from_parity_check(h)
        prod = (code.g.to_dense() @ code.h.to_dense().T) % 2
        assert not prod.any()
        assert bitlinalg.rank(code.h) == code.n - code.k
        assert bitlinalg.rank(code.g) == code.k

    def test_reduces_once_with_the_nullspace_basis_of_h(self, monkeypatch):
        calls = []
        rref = bitlinalg.rref

        def counting_rref(m):
            calls.append(m.shape)
            return rref(m)

        monkeypatch.setattr(bitlinalg, "rref", counting_rref)
        code = codes.regular_ldpc(2000, 3, 6, seed=101)
        assert calls == [(1000, 2000)]
        monkeypatch.undo()
        assert code.g == bitlinalg.nullspace_basis(code.h)


    @pytest.mark.parametrize("shape", [(1, 1), (5, 64), (7, 65), (40, 300)])
    def test_edge_lists_are_the_ones_in_row_major_order(self, shape):
        rng = np.random.default_rng(shape[1])
        h = BitMatrix.from_dense((rng.random(shape) < 0.3).astype(np.uint8))
        ci, vi = codes.from_parity_check(h).edge_lists()
        want_ci, want_vi = np.nonzero(h.to_dense())
        assert np.array_equal(ci, want_ci) and np.array_equal(vi, want_vi)


class TestDual:
    def test_dual_of_full_space_is_zero_code(self):
        full = codes.from_parity_check(BitMatrix.zeros(1, 4))
        zero = codes.dual(full)
        assert zero.k == 0

    def test_involution(self):
        rng = np.random.default_rng(3)
        h = BitMatrix.from_dense(rng.integers(0, 2, size=(4, 9), dtype=np.uint8))
        code = codes.from_parity_check(h)
        back = codes.dual(codes.dual(code))
        # equal row spaces: stacking the two generators does not raise the rank
        stacked = BitMatrix.from_dense(np.vstack([code.g.to_dense(), back.g.to_dense()]))
        assert bitlinalg.rank(stacked) == code.k == back.k

    def test_dual_keeps_parent_checks_as_span(self):
        code = codes.regular_ldpc(60, 3, 6, seed=4)
        dual = codes.dual(code)
        assert dual.span == code.checks
        # the span lies in the dual and has the dual's dimension
        assert not (dual.h.to_dense() @ dual.span.to_dense().T % 2).any()
        assert bitlinalg.rank(dual.span) == dual.k
        assert code.span is None

    def test_repetition_dual_is_even_weight(self):
        rep = repetition_code(3)
        even = codes.dual(rep)
        assert even.k == 2
        # orthogonality of every pair, checked over all 8 vectors by hand:
        # the even-weight words are exactly those orthogonal to 111
        words = codeword_set(even)
        assert words == {bytes(w) for w in
                         ([0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1])}


def assert_systematic(code):
    """``h`` holds the identity at ``pivots`` and ``g`` on the other columns,
    so the coset map from the pivots is a right inverse of ``h``."""
    others = np.setdiff1d(np.arange(code.n), code.pivots)
    assert np.all(np.diff(code.pivots) > 0)
    assert code.pivots.size == code.h.rows == code.n - code.k
    h, g = code.h.to_dense(), code.g.to_dense()
    assert np.array_equal(h[:, code.pivots], np.eye(code.h.rows))
    assert np.array_equal(g[:, others], np.eye(code.k))
    d = unit_map(code.pivots, code.n).to_dense()
    assert np.array_equal(h @ d % 2, np.eye(code.h.rows))


def random_rank_deficient(seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(1, 150))
    rows = int(rng.integers(2, n + 10))
    rank = int(rng.integers(0, min(rows - 1, n) + 1))
    dense = (rng.integers(0, 2, size=(rows, rank)) @ rng.integers(0, 2, size=(rank, n))) % 2
    return [dense, np.zeros((rows, n)), np.eye(n)]


class TestSystematicForm:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_rank_deficient_and_their_duals(self, seed):
        for dense in random_rank_deficient(seed):
            code = codes.from_parity_check(BitMatrix.from_dense(dense.astype(np.uint8)))
            dual = codes.dual(code)
            for c in (code, dual, codes.dual(dual)):
                assert_systematic(c)
            assert np.array_equal(codes.dual(dual).pivots, code.pivots)

    @pytest.mark.parametrize("args", [(120, 3, 6, 4), (60, 2, 4, 1), (90, 4, 6, 2)])
    def test_regular_ldpc_and_its_dual(self, args):
        code = codes.regular_ldpc(*args)
        for c in (code, codes.dual(code), codes.dual(codes.dual(code))):
            assert_systematic(c)

    def test_alist_roundtrip(self, tmp_path):
        code = codes.regular_ldpc(30, 3, 6, seed=9)
        path = tmp_path / "code.alist"
        codes.write_alist(code, path)
        back = codes.read_alist(path)
        assert_systematic(back)
        assert np.array_equal(back.pivots, code.pivots)

    def test_constructor_rejects_codes_off_their_pivots(self):
        h = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
        g = BitMatrix.from_dense([[1, 1, 1]])
        # h[:, [0, 1]] is [[1, 1], [0, 1]], not I: h @ d would not be I
        with pytest.raises(ValueError, match="identity"):
            codes.LinearCode(h, g, h, [0, 1])
        # g must hold the identity on the column off the pivots
        with pytest.raises(ValueError, match="identity"):
            codes.LinearCode(h, BitMatrix.from_dense([[1, 0, 1]]), h, [0, 2])
        # repeated, out-of-range or too few pivots
        for pivots in ([0, 0], [0, 3], [0]):
            with pytest.raises(ValueError, match="identity"):
                codes.LinearCode(h, g, h, pivots)
        # row counts of h and g that do not add up to n, and a g wider than h
        for bad_g in ([[1, 1, 1], [0, 1, 0]], [[0, 1, 0, 1]]):
            with pytest.raises(ValueError, match="identity"):
                codes.LinearCode(h, BitMatrix.from_dense(bad_g), h, [0, 2])
        code = codes.LinearCode(h, g, h, [0, 2])
        assert (code.n, code.k) == (3, 1)
        assert_systematic(code)

    def test_constructor_rejects_checks_or_span_of_another_width(self):
        # a 2 x 5 checks beside a 3-column h used to be accepted, and ranking
        # the dual pair built on it failed with an IndexError
        code = codes.from_parity_check(BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]]))
        wide = BitMatrix.from_dense([[1, 0, 0, 0, 1], [0, 1, 0, 1, 0]])
        with pytest.raises(ValueError, match="checks has 5 columns, not n = 3"):
            codes.LinearCode(code.h, code.g, wide, code.pivots)
        with pytest.raises(ValueError, match="span has 5 columns, not n = 3"):
            codes.LinearCode(code.h, code.g, code.checks, code.pivots, span=wide)
        narrow = BitMatrix.from_dense([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="checks has 2 columns"):
            codes.LinearCode(code.h, code.g, narrow, code.pivots)


class TestRegularLdpc:
    def test_small_ensemble_weights(self):
        code = codes.regular_ldpc(6, 2, 3, seed=0)
        dense = code.checks.to_dense()
        assert dense.shape == (4, 6)
        assert (dense.sum(axis=1) == 3).all()
        assert (dense.sum(axis=0) == 2).all()

    def test_design_rate_example(self):
        code = codes.regular_ldpc(12, 4, 6, seed=1)
        assert code.degree_distribution().design_rate == pytest.approx(1 / 3)
        assert code.rate >= 1 / 3 - 1e-12

    def test_deterministic(self):
        a = codes.regular_ldpc(60, 3, 6, seed=42)
        b = codes.regular_ldpc(60, 3, 6, seed=42)
        assert a.checks == b.checks

    def test_seed_changes_matrix(self):
        a = codes.regular_ldpc(60, 3, 6, seed=1)
        b = codes.regular_ldpc(60, 3, 6, seed=2)
        assert a.checks != b.checks

    def test_incompatible_parameters(self):
        with pytest.raises(ValueError, match="divisible"):
            codes.regular_ldpc(7, 2, 3, seed=0)
        with pytest.raises(ValueError, match="dv < dc"):
            codes.regular_ldpc(6, 3, 3, seed=0)

    @pytest.mark.parametrize("n,dv,dc", [(120, 3, 6), (102, 4, 6), (90, 2, 5)])
    def test_no_parallel_edges_and_exact_weights(self, n, dv, dc):
        code = codes.regular_ldpc(n, dv, dc, seed=7)
        dense = code.checks.to_dense()
        assert dense.max() == 1
        assert (dense.sum(axis=0) == dv).all()
        assert (dense.sum(axis=1) == dc).all()

    # sha256 of the checks built by the earlier dense construction (a dense
    # m x n uint8 array set at the (check, variable) sockets, then packed)
    @pytest.mark.parametrize("args,digest", [
        ((12, 3, 6, 0), "b21f4c8d25d3852cb2292a00d33316fa01866b76131ef6da1525a5e16332fd40"),
        ((120, 3, 6, 4), "b23abf74b8813236560a9be29f46dbc998e5a2a94789ba7769cc19fa81096f36"),
        ((500, 2, 4, 3), "5ec85c3a0130c65dc3575d498f2c0125c69d0a1aea41d158a6d66752ea22778b"),
        ((999, 3, 9, 5), "f0fc43b02889eb8c4962dde56ce1cb6264cccab97d74d179035061163a5df2f4"),
        ((1000, 3, 6, 7), "4f3bdce55f4b6abb92a4f146d35dfb5548dec14df427156bbd66e609d58d22ee"),
    ])
    def test_checks_match_the_dense_construction(self, args, digest):
        assert sha(codes.regular_ldpc(*args).checks) == digest

    def test_degree_distribution_roundtrip(self):
        code = codes.regular_ldpc(120, 3, 6, seed=5)
        dd = code.degree_distribution()
        assert dd.var_edge == {3: 1.0}
        assert dd.chk_edge == {6: 1.0}


class TestNestedPair:
    def test_zero_code_coarse(self):
        zero = codes.from_parity_check(BitMatrix.identity(5))
        pair = codes.nested_pair_from_coarse(zero)
        assert pair.m == 5
        # every message is its own codeword under the identity coset map
        w = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert np.array_equal(bitlinalg.mat_vec(unit_map(zero.pivots, 5), w), w)

    def test_full_space_coarse(self):
        full = codes.from_parity_check(BitMatrix.zeros(1, 4))
        pair = codes.nested_pair_from_coarse(full)
        assert pair.m == 0
        assert pair.num_messages == 1

    def test_repetition_cosets_partition(self):
        pair = codes.nested_pair_from_coarse(repetition_code(3))
        assert pair.m == 2
        d = unit_map(pair.coarse.pivots, pair.n)
        seen = set()
        for widx in range(4):
            w = np.array([(widx >> i) & 1 for i in range(2)], dtype=np.uint8)
            leader = bitlinalg.mat_vec(d, w)
            for cw in pair.coarse.codewords():
                seen.add(bytes(leader ^ cw))
        assert len(seen) == 8

    def test_coset_map_identity(self):
        pair = codes.nested_pair_from_coarse(repetition_code(4))
        prod = (pair.h1.to_dense() @ unit_map(pair.coarse.pivots, pair.n).to_dense()) % 2
        assert np.array_equal(prod, np.eye(pair.m))

    def test_pair_allocates_no_coset_matrix(self):
        # the pair keeps no n x m coset matrix: building it from a built code
        # allocates under a quarter of one packed n x m matrix
        code = codes.regular_ldpc(4002, 4, 6, seed=8)
        m = code.n - code.k
        packed = code.n * -(-m // 64) * 8
        tracemalloc.start()
        try:
            codes.nested_pair_from_coarse(code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < packed / 4

    @pytest.mark.parametrize("seed", range(8))
    def test_pivot_coset_map_is_the_right_inverse(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(1, 150))
        rows = int(rng.integers(2, n + 10))
        rank = int(rng.integers(0, min(rows - 1, n) + 1))  # rank-deficient rows
        dense = (rng.integers(0, 2, size=(rows, rank)) @ rng.integers(0, 2, size=(rank, n))) % 2
        cases = [dense, np.zeros((rows, n)), np.eye(n)]
        for h in cases:
            code = codes.from_parity_check(BitMatrix.from_dense(h.astype(np.uint8)))
            assert unit_map(code.pivots, code.n) == bitlinalg.right_inverse(code.h)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs_partition(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(3, 11))
        h = BitMatrix.from_dense(rng.integers(0, 2, size=(rng.integers(1, n + 1), n), dtype=np.uint8))
        pair = codes.nested_pair_from_coarse(codes.from_parity_check(h))
        d = unit_map(pair.coarse.pivots, pair.n)
        seen = set()
        for widx in range(pair.num_messages):
            w = np.array([(widx >> i) & 1 for i in range(pair.m)], dtype=np.uint8)
            leader = bitlinalg.mat_vec(d, w)
            coset = {bytes(leader ^ cw) for cw in pair.coarse.codewords()}
            assert not (seen & coset)
            seen |= coset
        assert len(seen) == 2**n


class TestAlist:
    def test_roundtrip(self, tmp_path):
        code = codes.regular_ldpc(30, 3, 6, seed=9)
        path = tmp_path / "code.alist"
        codes.write_alist(code, path)
        back = codes.read_alist(path)
        assert back.checks == code.checks
        assert back.h == code.h

    def test_hand_written_single_check(self, tmp_path):
        path = tmp_path / "tiny.alist"
        path.write_text("3 1\n1 1\n1 1 1\n3\n1\n1\n1\n1 2 3\n")
        code = codes.read_alist(path)
        assert (code.n, code.k) == (3, 2)
        assert code.checks.to_dense().tolist() == [[1, 1, 1]]

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "bad.alist"
        path.write_text("3 1\n1 2\n1 1 0\n2\n1\n0\n\n1 2\n")
        with pytest.raises(AlistParseError, match="line 6"):
            codes.read_alist(path)

    def test_wrong_degree_count(self, tmp_path):
        path = tmp_path / "bad2.alist"
        path.write_text("3 1\n1 1\n1 1\n3\n1\n1\n1\n1 2 3\n")
        with pytest.raises(AlistParseError, match="line 3"):
            codes.read_alist(path)

    def test_negative_degree_rejected(self, tmp_path):
        # column 1 declares degree -1; slicing by it used to drop the padding
        # and read the file as [[1, 1, 1]]
        path = tmp_path / "neg.alist"
        path.write_text("3 1\n1 3\n1 -1 1\n3\n1\n1 0\n1\n1 2 3\n")
        with pytest.raises(AlistParseError, match="line 3"):
            codes.read_alist(path)
        path.write_text("3 1\n1 1\n1 1 1\n-3\n1\n1\n1\n1 2 3\n")
        with pytest.raises(AlistParseError, match="line 4"):
            codes.read_alist(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "bad3.alist"
        path.write_text("3 1\n1 1\n1 1 1\n3\n2\n1\n1\n1 2 3\n")
        with pytest.raises(AlistParseError, match="outside"):
            codes.read_alist(path)

    def test_repeated_index(self, tmp_path):
        # column 1 is declared with degree 2 but lists row 1 twice
        path = tmp_path / "bad5.alist"
        path.write_text("3 2\n2 2\n2 1 1\n2 2\n1 1\n2\n2\n1 1\n2 3\n")
        with pytest.raises(AlistParseError, match="line 5: row index 1 repeated"):
            codes.read_alist(path)

    def test_row_list_disagreeing_with_column_lists_names_its_line(self, tmp_path):
        # columns say row 2 is {1, 3}; its row list (line 9) says {1, 2}
        path = tmp_path / "bad4.alist"
        path.write_text("3 2\n2 2\n2 1 1\n2 2\n1 2\n1\n2\n1 2\n1 2\n")
        with pytest.raises(AlistParseError, match="line 9: row list disagrees"):
            codes.read_alist(path)

    def test_roundtrip_keeps_zero_rows_and_columns(self, tmp_path):
        dense = np.array([[1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=np.uint8)
        code = codes.from_parity_check(BitMatrix.from_dense(dense))
        path = tmp_path / "zeros.alist"
        codes.write_alist(code, path)
        assert path.read_text().splitlines()[5:8] == ["", "1", "3"]  # columns 2-4
        back = codes.read_alist(path)
        assert back.checks == code.checks
        assert back.h == code.h

    def test_roundtrip_holds_no_dense_check_sized_array(self, tmp_path):
        code = codes.regular_ldpc(4002, 4, 6, seed=8)
        path = tmp_path / "ldpc4002.alist"
        tracemalloc.start()
        try:
            codes.write_alist(code, path)
            back = codes.read_alist(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.checks == code.checks
        assert peak < 2668 * 4002  # a dense m x n uint8 array of the checks

    def test_padding_zeros_tolerated(self, tmp_path):
        path = tmp_path / "pad.alist"
        path.write_text("3 2\n2 2\n1 2 1\n2 2\n2 0\n1 2\n1 0\n2 3\n1 2\n")
        code = codes.read_alist(path)
        assert code.checks.to_dense().tolist() == [[0, 1, 1], [1, 1, 0]]


# sha256 of every stored matrix of two code pairs, and of the coset map ``d``
# built from their pivots, recorded before the blocked elimination, the packed
# transpose and the packed null-space basis.
PINNED_COARSE = {
    "ldpc4002": lambda: codes.regular_ldpc(4002, 4, 6, seed=8),
    "dual-ldpc2000": lambda: codes.dual(codes.regular_ldpc(2000, 3, 6, seed=101)),
}
CONSTRUCTION_PINS = {
    "ldpc4002": {
        "checks": "5cd00f78c55da1888091873cacc24d9da621c0a3808f700aa4f7f4f5878b9cb3",
        "h": "58d131779110479c00b4bad185e2c7f99fc3b4cf27015f899f5d84a06b6bb8e6",
        "g": "8e12ba7c3a763164017d19aff4d48ef88d7284ad308658b56e2d802c2e119bf5",
        "d": "367dfbd7952dffaa212bbbd3faaf422dbcd6b98ea7f8a0299e8c0623f55f6373",
        "_h1_columns": "6a1d03bd357b11a85bb61e2d47ab056bbd375eebf9b424adc817bf7fa37e7e3e",
    },
    "dual-ldpc2000": {
        "checks": "48c3d3023ccb605a146bac149f82279567c11837d829f5909441558f7b354832",
        "h": "48c3d3023ccb605a146bac149f82279567c11837d829f5909441558f7b354832",
        "g": "d5b59075e55f997ae97f039bae8c3db94c2636a35e0d65458cee7a2eb498affc",
        "d": "b4be367bad8d8deb87399b5a71d81160281092cd1bda0eed53f66f37e0b68a2b",
        "_h1_columns": "5d169867b3ea6b55b99f0601866e46dfd446875ea7b5c30b12186cf00e0acbff",
    },
}


@pytest.mark.parametrize("label", sorted(CONSTRUCTION_PINS))
def test_construction_is_bit_identical(label):
    coarse = PINNED_COARSE[label]()
    pair = codes.nested_pair_from_coarse(coarse)
    got = {
        "checks": sha(coarse.checks), "h": sha(coarse.h), "g": sha(coarse.g),
        "d": sha(unit_map(coarse.pivots, coarse.n)), "_h1_columns": sha(pair._h1_columns),
    }
    assert got == CONSTRUCTION_PINS[label]


# sha256 of the criterion-10 code (n=10002, 6667 x 157 words of checks),
# recorded with the word-stripe elimination that the byte-aligned one with
# back-substitution replaced.
LDPC10002_PINS = {
    "checks": "08a5561cb75e766707f406ae8d88127e4e5b6bd6c8086cb2291325055056563d",
    "h": "eb7399651d99b5f7a031ed4eb25be233296cd8bab1cc0617a40233c5c40ad12a",
    "g": "c75e35a9ef93ddec4698bf5bffbab60d1ef387603b92a15b42f32b3fe22c4927",
    "pivots": "98da6fddf0e32ee195673e790e594f38ffb27e774deecf614cbd5cc8b1f2f439",
}


def test_ldpc10002_construction_is_bit_identical():
    code = codes.regular_ldpc(10002, 4, 6, seed=8)
    got = {
        "checks": sha(code.checks), "h": sha(code.h), "g": sha(code.g),
        "pivots": hashlib.sha256(code.pivots.astype("<i8").tobytes()).hexdigest(),
    }
    assert got == LDPC10002_PINS


def test_construction_holds_no_dense_check_sized_array():
    # A dense m x n uint8 array of the n=4002 (4,6) checks takes 2668 * 4002
    # bytes; every construction step works on packed words and stays below it.
    tracemalloc.start()
    try:
        codes.nested_pair_from_coarse(codes.regular_ldpc(4002, 4, 6, seed=8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2668 * 4002
