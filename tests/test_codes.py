import numpy as np
import pytest

from wiretapcodes import bitlinalg, codes
from wiretapcodes.bitlinalg import BitMatrix
from wiretapcodes.codes import AlistParseError, DegreeDistribution


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


class TestRegularLdpc:
    def test_small_ensemble_weights(self):
        code = codes.regular_ldpc(6, 2, 3, seed=0)
        dense = code.checks.to_dense()
        assert dense.shape == (4, 6)
        assert (dense.sum(axis=1) == 3).all()
        assert (dense.sum(axis=0) == 2).all()

    def test_design_rate_example(self):
        code = codes.regular_ldpc(12, 4, 6, seed=1)
        assert code.ensemble.design_rate == pytest.approx(1 / 3)
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
        assert np.array_equal(bitlinalg.mat_vec(pair.d, w), w)

    def test_full_space_coarse(self):
        full = codes.from_parity_check(BitMatrix.zeros(1, 4))
        pair = codes.nested_pair_from_coarse(full)
        assert pair.m == 0
        assert pair.num_messages == 1

    def test_repetition_cosets_partition(self):
        pair = codes.nested_pair_from_coarse(repetition_code(3))
        assert pair.m == 2
        seen = set()
        for widx in range(4):
            w = np.array([(widx >> i) & 1 for i in range(2)], dtype=np.uint8)
            leader = bitlinalg.mat_vec(pair.d, w)
            for cw in pair.coarse.codewords():
                seen.add(bytes(leader ^ cw))
        assert len(seen) == 8

    def test_coset_map_identity(self):
        pair = codes.nested_pair_from_coarse(repetition_code(4))
        prod = (pair.h1.to_dense() @ pair.d.to_dense()) % 2
        assert np.array_equal(prod, np.eye(pair.m))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs_partition(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(3, 11))
        h = BitMatrix.from_dense(rng.integers(0, 2, size=(rng.integers(1, n + 1), n), dtype=np.uint8))
        pair = codes.nested_pair_from_coarse(codes.from_parity_check(h))
        seen = set()
        for widx in range(pair.num_messages):
            w = np.array([(widx >> i) & 1 for i in range(pair.m)], dtype=np.uint8)
            leader = bitlinalg.mat_vec(pair.d, w)
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

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "bad3.alist"
        path.write_text("3 1\n1 1\n1 1 1\n3\n2\n1\n1\n1 2 3\n")
        with pytest.raises(AlistParseError, match="outside"):
            codes.read_alist(path)

    def test_padding_zeros_tolerated(self, tmp_path):
        path = tmp_path / "pad.alist"
        path.write_text("3 2\n2 2\n1 2 1\n2 2\n2 0\n1 2\n1 0\n2 3\n1 2\n")
        code = codes.read_alist(path)
        assert code.checks.to_dense().tolist() == [[0, 1, 1], [1, 1, 0]]
