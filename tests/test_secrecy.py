import math

import numpy as np
import pytest

from wiretapcodes import bitlinalg, channels, codes, decoders, secrecy
from wiretapcodes.bitlinalg import BitMatrix
from wiretapcodes.channels import BEC, BIAWGN, BSC, bec_transmit, modulate

from test_decoders import reference_peel_edges


def repetition_pair(n=3):
    h = np.zeros((n - 1, n), dtype=np.uint8)
    for i in range(n - 1):
        h[i, i] = h[i, i + 1] = 1
    return codes.nested_pair_from_coarse(codes.from_parity_check(BitMatrix.from_dense(h)))


def random_pair(rng, n):
    rows = int(rng.integers(0, n + 1))
    h = BitMatrix.from_dense(rng.integers(0, 2, size=(rows, n), dtype=np.uint8))
    return codes.nested_pair_from_coarse(codes.from_parity_check(h))


def rank_deficient_pair(rng):
    # 8 checks of rank 6 on 14 columns, none on column 1, so the pivots
    # are not the leading columns
    checks = rng.integers(0, 2, size=(8, 14), dtype=np.uint8)
    checks[:, 1] = 0
    checks[6:] = checks[:2] ^ checks[2:4]
    pair = codes.nested_pair_from_coarse(codes.from_parity_check(BitMatrix.from_dense(checks)))
    assert pair.m == 6
    return pair


def message(pair, idx):
    return np.array([(idx >> i) & 1 for i in range(pair.m)], dtype=np.uint8)


def unit_map(pivots, n) -> BitMatrix:
    """The coset map ``d`` as a matrix: n x len(pivots), a 1 at
    ``(pivots[i], i)``, so ``d @ w`` writes ``w`` at the pivots."""
    d = np.zeros((n, len(pivots)), dtype=np.uint8)
    d[pivots, np.arange(len(pivots))] = 1
    return BitMatrix.from_dense(d)


def random_codeword(code, rng):
    return bitlinalg.vec_mat(rng.integers(0, 2, size=code.k, dtype=np.uint8), code.g)


class TestEncodeDecode:
    def test_zero_coarse_code_is_identity_map(self):
        zero = codes.from_parity_check(BitMatrix.identity(4))
        pair = codes.nested_pair_from_coarse(zero)
        w = np.array([1, 0, 1, 1], dtype=np.uint8)
        cw = secrecy.encode(pair, w, np.random.default_rng(0))
        assert cw.dither.size == 0
        assert np.array_equal(cw.word, bitlinalg.mat_vec(unit_map(zero.pivots, 4), w))

    def test_zero_message_zero_dither(self):
        pair = repetition_pair()
        word = secrecy.coset_word(pair, [0, 0], [0])
        assert not word.any()

    def test_enumeration_covers_space(self):
        # 4 messages x 2 dithers hit all 8 words exactly once
        pair = repetition_pair()
        words = {
            bytes(secrecy.coset_word(pair, message(pair, w), [d]))
            for w in range(4)
            for d in range(2)
        }
        assert len(words) == 8

    def test_round_trip_exhaustive(self):
        pair = repetition_pair()
        rng = np.random.default_rng(1)
        for widx in range(pair.num_messages):
            w = message(pair, widx)
            cw = secrecy.encode(pair, w, rng)
            assert np.array_equal(secrecy.main_decode(pair, cw.word), w)
            assert np.array_equal(bitlinalg.mat_vec(pair.h1, cw.word), w)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_random_pairs(self, seed):
        rng = np.random.default_rng(600 + seed)
        pair = random_pair(rng, int(rng.integers(2, 13)))
        for widx in range(min(pair.num_messages, 16)):
            w = message(pair, widx)
            cw = secrecy.encode(pair, w, rng)
            assert np.array_equal(secrecy.main_decode(pair, cw.word), w)

    @pytest.mark.parametrize("seed", [41, 42])
    def test_round_trip_exhaustive_over_message_and_dither(self, seed):
        rng = np.random.default_rng(seed)
        pair = random_pair(rng, 6)
        for widx in range(pair.num_messages):
            w = message(pair, widx)
            for didx in range(1 << pair.coarse.k):
                dither = np.array(
                    [(didx >> i) & 1 for i in range(pair.coarse.k)], dtype=np.uint8
                )
                word = secrecy.coset_word(pair, w, dither)
                assert np.array_equal(secrecy.main_decode(pair, word), w)

    @pytest.mark.parametrize("build", [
        lambda: rank_deficient_pair(np.random.default_rng(5)),
        lambda: codes.nested_pair_from_coarse(codes.dual(codes.regular_ldpc(150, 3, 6, seed=4))),
        lambda: codes.nested_pair_from_coarse(codes.regular_ldpc(150, 3, 6, seed=4)),
    ], ids=["random", "dual", "ldpc"])
    def test_coset_leader_is_d_times_message(self, build):
        # coset_word writes the message at the pivots instead of multiplying by d
        pair = build()
        pivots = pair.coarse.pivots
        d = unit_map(pivots, pair.n)
        assert not np.array_equal(pivots, np.arange(pivots.size))
        rng = np.random.default_rng(9)
        zeros = np.zeros(pair.coarse.k, dtype=np.uint8)
        for _ in range(4):
            w = rng.integers(0, 2, size=pair.m, dtype=np.uint8)
            assert np.array_equal(secrecy.coset_word(pair, w, zeros), bitlinalg.mat_vec(d, w))

    def test_full_space_coarse_has_empty_message(self):
        full = codes.from_parity_check(BitMatrix.from_dense(np.zeros((1, 4))))
        pair = codes.nested_pair_from_coarse(full)
        cw = secrecy.encode(pair, np.zeros(0, dtype=np.uint8), np.random.default_rng(0))
        assert secrecy.main_decode(pair, cw.word).size == 0

    def test_wrong_message_length(self):
        with pytest.raises(ValueError, match="bits"):
            secrecy.encode(repetition_pair(), [1, 0, 1], np.random.default_rng(0))

    @pytest.mark.parametrize("call", [
        lambda pair, rng: secrecy.coset_word(pair, [2, 0], [1]),
        lambda pair, rng: secrecy.encode(pair, np.array([3, 0]), rng),
        lambda pair, rng: secrecy.main_decode(pair, [3, 1, 1]),
    ], ids=["coset_word", "encode", "main_decode"])
    def test_non_binary_entry_rejected(self, call):
        # a 2 or 3 used to pass the shape check and act as an odd bit or a
        # stray one in the word; the generator is not drawn before the check
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="each 0 or 1"):
            call(repetition_pair(), rng)
        assert rng.random() == np.random.default_rng(0).random()


class TestExactEquivocation:
    def test_all_erased_gives_full_message_entropy(self):
        pair = repetition_pair(4)
        assert secrecy.exact_equivocation_bec(pair, range(4)) == pair.m

    def test_nothing_erased(self):
        assert secrecy.exact_equivocation_bec(repetition_pair(), []) == 0

    def test_single_column_matches_brute_force(self):
        pair = repetition_pair()
        table = secrecy.brute_force_equivocation_bec(pair, 0.5)
        assert secrecy.exact_equivocation_bec(pair, [0]) == table.per_pattern[0b001]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            secrecy.exact_equivocation_bec(repetition_pair(), [3])

    def test_positions_must_be_integers(self):
        # a boolean mask used to be read as positions 0 and 1 (rank 2 where
        # the positions it marks give 4), and 2.7 as position 2
        pair = codes.nested_pair_from_coarse(codes.dual(codes.regular_ldpc(12, 3, 6, seed=1)))
        mask = np.isin(np.arange(pair.n), [3, 5, 7, 9, 11])
        assert secrecy.exact_equivocation_bec(pair, [3, 5, 7, 9, 11]) == 4
        assert secrecy.exact_equivocation_bec(pair, np.nonzero(mask)[0]) == 4
        assert secrecy.exact_equivocation_bec(pair, range(pair.n)) == pair.m
        assert secrecy.exact_equivocation_bec(pair, np.array([], dtype=np.int64)) == 0
        for erased in (mask, [2.7], [[3, 5]]):
            with pytest.raises(ValueError, match="list of integers"):
                secrecy.exact_equivocation_bec(pair, erased)

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_identity_all_patterns(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(2, 11))
        pair = random_pair(rng, n)
        table = secrecy.brute_force_equivocation_bec(pair, 0.3)
        for pattern in range(1 << n):
            erased = [i for i in range(n) if (pattern >> i) & 1]
            assert table.per_pattern[pattern] == secrecy.exact_equivocation_bec(pair, erased)


def sparse_dual_pair(rng, n):
    rows = int(rng.integers(1, n + 1))
    checks = BitMatrix.from_dense((rng.random((rows, n)) < 0.3).astype(np.uint8))
    return codes.nested_pair_from_coarse(codes.dual(codes.from_parity_check(checks)))


def erasure_mask(pair, erased):
    """The one-row erasure mask of the positions ``erased``."""
    mask = np.zeros((1, pair.n), dtype=bool)
    mask[0, erased] = True
    return mask


def peel_one(pair, erased):
    """``(peeled, rows, cols, shape)`` of the one-pattern block ``erased``."""
    return secrecy._peel_block(pair, erasure_mask(pair, erased))[0][0]


def peeled_identity_rank(pair, erased):
    """rank(h1_E) through peeling and the core, whatever its size."""
    erased = np.asarray(erased, dtype=np.int64)
    peeled, rows, cols, shape = peel_one(pair, erased)
    return pair.m - (pair.n - erased.size) + peeled + secrecy._core_rank(rows, cols, shape)


def dense_rank(pair, erased):
    """rank(h1_E) by eliminating the gathered columns of h1 directly."""
    return bitlinalg.rank(BitMatrix(erased.size, pair.m, pair._h1_columns.words[erased]))


@pytest.fixture(scope="module")
def ldpc_dual_pair():
    # the (3,6)-dual pair of acceptance criterion 7
    code = codes.regular_ldpc(2000, 3, 6, seed=101)
    return codes.nested_pair_from_coarse(codes.dual(code))


class TestPeelPath:
    @pytest.mark.parametrize("seed", range(8))
    def test_dual_pairs_match_brute_force_on_every_pattern(self, seed):
        rng = np.random.default_rng(800 + seed)
        n = int(rng.integers(1, 11))
        pair = sparse_dual_pair(rng, n)
        assert pair._span_edges is not None
        table = secrecy.brute_force_equivocation_bec(pair, 0.5)
        for pattern in range(1 << n):
            erased = [i for i in range(n) if (pattern >> i) & 1]
            assert secrecy.exact_equivocation_bec(pair, erased) == table.per_pattern[pattern]
            assert peeled_identity_rank(pair, erased) == table.per_pattern[pattern]

    def test_ldpc_dual_pair_matches_dense_elimination(self, ldpc_dual_pair):
        pair = ldpc_dual_pair
        rng = np.random.default_rng(2026)
        core_sizes = {}
        for eps in (0.30, 0.45, 0.55, 0.60, 0.65):
            sizes = []
            for _ in range(200):
                erased = np.nonzero(rng.random(pair.n) < eps)[0]
                want = dense_rank(pair, erased)
                assert secrecy.exact_equivocation_bec(pair, erased) == want
                assert peeled_identity_rank(pair, erased) == want
                core = peel_one(pair, erased)
                sizes.append(core[3][1])  # core columns
            core_sizes[eps] = np.array(sizes)
        # the patterns reach empty cores, nonempty cores above the BP
        # threshold, and cores with more columns than h1 has rows
        assert (core_sizes[0.65] == 0).all()
        assert (core_sizes[0.60] > 0).any()
        assert (core_sizes[0.55] > 0).sum() > 100
        assert core_sizes[0.30].min() > pair.m


def uint8_rank(a) -> int:
    """GF(2) rank by per-pivot elimination of a dense uint8 array."""
    a = np.array(a, dtype=np.uint8)
    r = 0
    for c in range(a.shape[1]):
        if r == a.shape[0]:
            break
        nz = r + np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        a[[r, nz[0]], c:] = a[[nz[0], r], c:]
        a[nz[1:], c:] ^= a[r, c:]
        r += 1
    return r


def spy_rank_ncols(monkeypatch) -> list:
    """Record the ``ncols`` of every ``secrecy.rank_words`` call."""
    ncols_seen = []
    rank_words = secrecy.rank_words

    def spy(words, ncols):
        ncols_seen.append(ncols)
        return rank_words(words, ncols)

    monkeypatch.setattr(secrecy, "rank_words", spy)
    return ncols_seen


class TestDenseOrientation:
    def test_both_orientations_match_uint8_elimination(self, ldpc_dual_pair, monkeypatch):
        # the criterion-7 h1 without its sparse span, so every rank is the
        # dense rest: ranked on the gathered columns of h1 (ncols = m) well
        # below eps = 0.5 and on its rows (ncols = n) above it
        c = ldpc_dual_pair.coarse
        pair = codes.nested_pair_from_coarse(
            codes.LinearCode(c.h, c.g, c.checks, c.pivots)
        )
        assert pair._span_edges is None
        h1 = pair.h1.to_dense()
        ncols_seen = spy_rank_ncols(monkeypatch)
        rng = np.random.default_rng(77)
        checked = {pair.m: [], pair.n: []}
        for eps in (0.20, 0.52):
            for _ in range(30):
                erased = np.nonzero(rng.random(pair.n) < eps)[0]
                ncols_seen.clear()
                got = secrecy.exact_equivocation_bec(pair, erased)
                if ncols_seen in ([pair.m], [pair.n]):
                    checked[ncols_seen[0]].append(got)
                    assert got == uint8_rank(h1[:, erased].T)
        assert len(checked[pair.m]) >= 20 and len(checked[pair.n]) >= 20
        # both orientations meet rank-deficient blocks, where a wrong mask shows
        assert min(checked[pair.m]) < pair.m and min(checked[pair.n]) < pair.m


class TestRankPathChoice:
    # The sparse stopping-set core is ranked whenever it is less work than
    # the dense rest: in the mid band, not only when it is the smaller block.
    @pytest.mark.parametrize("eps,path", [(0.20, "dense"), (0.45, "core"), (0.527, "core")])
    def test_path_follows_the_work_rule(self, ldpc_dual_pair, monkeypatch, eps, path):
        pair = ldpc_dual_pair
        h1 = pair.h1.to_dense()
        ncols_seen = spy_rank_ncols(monkeypatch)
        rng = np.random.default_rng(int(1000 * eps))
        for _ in range(10):
            erased = np.nonzero(rng.random(pair.n) < eps)[0]
            width = peel_one(pair, erased)[3][1]
            assert width not in (0, pair.m, pair.n)
            ncols_seen.clear()
            got = secrecy.exact_equivocation_bec(pair, erased)
            assert ncols_seen == ([width] if path == "core" else [pair.m])
            assert got == dense_rank(pair, erased) == uint8_rank(h1[:, erased].T)

    def test_nonempty_cores_above_the_threshold_take_the_core(self, ldpc_dual_pair, monkeypatch):
        pair = ldpc_dual_pair
        h1 = pair.h1.to_dense()
        ncols_seen = spy_rank_ncols(monkeypatch)
        rng = np.random.default_rng(3)
        nonempty = 0
        for _ in range(200):
            erased = np.nonzero(rng.random(pair.n) < 0.60)[0]
            rows, width = peel_one(pair, erased)[3]
            ncols_seen.clear()
            got = secrecy.exact_equivocation_bec(pair, erased)
            if rows:
                nonempty += 1
                assert ncols_seen == [width]
                assert got == dense_rank(pair, erased) == uint8_rank(h1[:, erased].T)
        assert nonempty >= 3

    def test_empty_cores_need_no_rank_call(self, ldpc_dual_pair, monkeypatch):
        # far above the BP threshold of the (3,6) code every core is empty,
        # so the peeled count is the whole rank and nothing is eliminated
        pair = ldpc_dual_pair
        ncols_seen = spy_rank_ncols(monkeypatch)
        rng = np.random.default_rng(65)
        for _ in range(50):
            erased = np.nonzero(rng.random(pair.n) < 0.65)[0]
            assert peel_one(pair, erased)[3] == (0, 0)
            assert secrecy.exact_equivocation_bec(pair, erased) == dense_rank(pair, erased)
        assert ncols_seen == []

    @pytest.mark.parametrize("eps,counts", [
        (0.20, {"dense_rest": 200}),
        (0.45, {"core": 200}),
        (0.60, {"empty_core": 198, "core": 2}),
    ])
    def test_estimator_counts_the_paths(self, ldpc_dual_pair, monkeypatch, eps, counts):
        # the estimator's counters against the same patterns classified from
        # outside: no rank call is an empty core, a call as wide as the core
        # ranks the core, and any other width is the dense rest
        pair = ldpc_dual_pair
        est = secrecy.mc_equivocation_bec(pair, eps, 200, np.random.default_rng(14))
        assert est.detail["rank_paths"] == {**dict.fromkeys(secrecy._RANK_PATHS, 0), **counts}
        ncols_seen = spy_rank_ncols(monkeypatch)
        rng = np.random.default_rng(14)
        seen = dict.fromkeys(secrecy._RANK_PATHS, 0)
        for _ in range(200):
            erased = np.nonzero(rng.random(pair.n) < eps)[0]
            width = peel_one(pair, erased)[3][1]
            ncols_seen.clear()
            secrecy.exact_equivocation_bec(pair, erased)
            if not ncols_seen:
                seen["empty_core"] += 1
            else:
                seen["core" if ncols_seen == [width] else "dense_rest"] += 1
        assert seen == est.detail["rank_paths"]

    def test_nothing_to_rank(self):
        est = secrecy.mc_equivocation_bec(repetition_pair(), 0.0, 20, np.random.default_rng(0))
        assert est.detail["rank_paths"] == {
            "none": 20, "empty_core": 0, "core": 0, "dense_rest": 0,
        }


def peel_alone(pair, erased_row):
    """``(peeled, rows, cols, shape)`` of one erasure mask row, from the
    reference peel on a single copy of the span."""
    remaining = ~erased_row
    _, ri, ci = reference_peel_edges(*pair._span_edges, pair.coarse.span.rows, remaining)
    rows_seen, rows = np.unique(ri, return_inverse=True)
    cols_seen, cols = np.unique(ci, return_inverse=True)
    peeled = int(np.count_nonzero(~erased_row) - np.count_nonzero(remaining))
    return peeled, rows, cols, (rows_seen.size, cols_seen.size)


@pytest.fixture(scope="module")
def spanless_pair(ldpc_dual_pair):
    # the criterion-7 h1 without its sparse span: every rank is the dense rest
    c = ldpc_dual_pair.coarse
    return codes.nested_pair_from_coarse(codes.LinearCode(c.h, c.g, c.checks, c.pivots))


class TestBlockDriver:
    def test_split_matches_peeling_each_pattern_alone(self, ldpc_dual_pair):
        # one block mixing nothing erased, stopping-set cores, empty cores and
        # everything erased, so unequal cores lie side by side
        pair = ldpc_dual_pair
        rng = np.random.default_rng(19)
        erased = np.concatenate(
            [rng.random((5, pair.n)) < eps for eps in (0.0, 0.3, 0.6, 1.0)]
        )
        peels, rounds = secrecy._peel_block(pair, erased)
        assert len(peels) == len(erased)
        # the block peels for as many rounds as its slowest pattern
        assert rounds == max(
            len(reference_peel_edges(*pair._span_edges, pair.coarse.span.rows, ~row)[0])
            for row in erased
        )
        for row, got in zip(erased, peels):
            want = peel_alone(pair, row)
            assert got[0] == want[0] and got[3] == want[3]
            assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        shapes = [p[3] for p in peels]
        assert shapes[0][0] == pair.coarse.span.rows  # nothing erased: the whole span
        assert shapes[-1] == (0, 0) and peels[-1][0] == 0  # everything erased
        assert all(s[0] > 0 for s in shapes[5:10])  # cores at 0.3
        empty = [p for p in peels[10:15] if p[3] == (0, 0)]
        assert empty and all(p[0] > 0 for p in empty)  # empty cores at 0.6

    @pytest.mark.parametrize("which,eps", [
        ("dual", 0.45), ("dual", 0.60), ("spanless", 0.30), ("spanless", 0.60),
    ])
    @pytest.mark.parametrize("trials", [1, 7, 9, 17])
    def test_estimator_equals_one_pattern_at_a_time(
        self, ldpc_dual_pair, spanless_pair, monkeypatch, which, eps, trials,
    ):
        # trial counts that do not divide the block; the reference draws one
        # pattern per trial and ranks it on its own
        pair = ldpc_dual_pair if which == "dual" else spanless_pair
        drawn = np.random.default_rng(trials)
        est = secrecy.mc_equivocation_bec(pair, eps, trials, drawn)
        ncols_seen = spy_rank_ncols(monkeypatch)
        rng = np.random.default_rng(trials)
        ranks, paths = [], dict.fromkeys(secrecy._RANK_PATHS, 0)
        for _ in range(trials):
            erased = np.nonzero(rng.random(pair.n) < eps)[0]
            ncols_seen.clear()
            ranks.append(secrecy.exact_equivocation_bec(pair, erased))
            if not erased.size:
                paths["none"] += 1
            elif not ncols_seen:
                paths["empty_core"] += 1
            elif which == "dual" and ncols_seen == [peel_one(pair, erased)[3][1]]:
                paths["core"] += 1
            else:
                paths["dense_rest"] += 1
        ranks = np.array(ranks, dtype=np.float64)
        sd = float(ranks.std(ddof=1)) if trials > 1 else 0.0
        assert est.value == float(ranks.mean()) / pair.n
        assert est.half_width == secrecy.Z95 * sd / math.sqrt(trials) / pair.n
        assert est.detail["rank_paths"] == paths
        assert drawn.random() == rng.random()  # both left at the same state

    @pytest.mark.parametrize("eps", [0.0, 0.30, 0.45, 0.60, 1.0])
    def test_peel_rounds_equal_a_direct_peel_of_each_block(self, ldpc_dual_pair, eps):
        # 19 trials: two blocks of 8 and one of 3; a direct _peel_edges call
        # on each block's patterns that erase something gives its count
        pair, trials = ldpc_dual_pair, 19
        est = secrecy.mc_equivocation_bec(pair, eps, trials, np.random.default_rng(31))
        rng = np.random.default_rng(31)
        want = []
        for start in range(0, trials, secrecy._BLOCK):
            erased = rng.random((min(secrecy._BLOCK, trials - start), pair.n)) < eps
            live = erased[erased.any(axis=1)]
            rounds = decoders._peel_edges(pair._span_keys(len(live)), ~live.reshape(-1))[0]
            want.append(len(rounds))
        assert est.detail["peel_rounds"] == want
        assert len(want) == 3 and (eps in (0.0, 1.0)) == (max(want) == 0)
        lb = secrecy.equivocation_lb(pair, BEC(eps), trials, np.random.default_rng(31))
        assert lb.detail["peel_rounds"] == want

    def test_peel_rounds_are_empty_without_a_span(self, spanless_pair):
        est = secrecy.mc_equivocation_bec(spanless_pair, 0.45, 9, np.random.default_rng(2))
        assert est.detail["peel_rounds"] == []
        lb = secrecy.equivocation_lb(spanless_pair, BIAWGN(0.5), 9, np.random.default_rng(2))
        assert lb.detail["peel_rounds"] == []


@pytest.fixture(scope="module")
def wide_dual_pair():
    # a (3,6)-dual pair whose per-trial ranks are 40 words or wider
    code = codes.regular_ldpc(5004, 3, 6, seed=101)
    return codes.nested_pair_from_coarse(codes.dual(code))


class TestWideRanks:
    @pytest.mark.parametrize("eps,path", [(0.206, "dense_rest"), (0.30, "core"), (0.44, "core")])
    def test_equals_rref_pivots(self, wide_dual_pair, monkeypatch, eps, path):
        # the XOR basis against the pivots of the other engine, _eliminate
        pair = wide_dual_pair
        ncols_seen = spy_rank_ncols(monkeypatch)
        erased = np.nonzero(np.random.default_rng(int(1000 * eps)).random(pair.n) < eps)[0]
        got = secrecy._erased_ranks(pair, erasure_mask(pair, erased))[0][0]
        assert got[1] == path
        assert len(ncols_seen) == 1 and bitlinalg._nwords(ncols_seen[0]) >= 40
        columns = BitMatrix(erased.size, pair.m, pair._h1_columns.words[erased])
        assert got[0] == len(bitlinalg.rref(columns)[1])


class TestMonteCarloBec:
    def test_certain_erasure(self):
        pair = repetition_pair()
        est = secrecy.mc_equivocation_bec(pair, 1.0, 50, np.random.default_rng(0))
        assert est.value == pair.m / pair.n
        assert est.half_width == 0.0

    def test_no_erasure(self):
        est = secrecy.mc_equivocation_bec(repetition_pair(), 0.0, 50, np.random.default_rng(0))
        assert est.value == 0.0

    def test_matches_brute_force_average(self):
        rng = np.random.default_rng(5)
        pair = random_pair(rng, 8)
        eps = 0.35
        exact = secrecy.brute_force_equivocation_bec(pair, eps).average
        est = secrecy.mc_equivocation_bec(pair, eps, 4000, np.random.default_rng(9))
        assert est.value * pair.n == pytest.approx(exact, abs=4 * est.half_width * pair.n + 1e-9)

    def test_monotone_under_coupled_patterns(self):
        # nested erasure patterns (same uniforms, growing eps) cannot lose rank
        rng = np.random.default_rng(6)
        pair = random_pair(rng, 10)
        for _ in range(30):
            u = rng.random(pair.n)
            previous = 0
            for eps in (0.2, 0.5, 0.8):
                erased = np.nonzero(u < eps)[0]
                value = secrecy.exact_equivocation_bec(pair, erased)
                assert value >= previous
                previous = value

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            secrecy.mc_equivocation_bec(repetition_pair(), 0.5, 0, np.random.default_rng(0))


class TestDegradationBounds:
    def test_awgn_matches_bec_run_bit_for_bit(self):
        rng = np.random.default_rng(7)
        pair = random_pair(rng, 12)
        snr = 0.465
        eps = 2 * float(channels.q_function(math.sqrt(2 * snr)))
        a = secrecy.equivocation_lb(pair, BIAWGN(snr), 200, np.random.default_rng(123))
        b = secrecy.mc_equivocation_bec(pair, eps, 200, np.random.default_rng(123))
        assert a.value == b.value and a.half_width == b.half_width
        assert a.method == "degradation-rank"

    def test_bsc_matches_bec_run_bit_for_bit(self):
        rng = np.random.default_rng(8)
        pair = random_pair(rng, 12)
        a = secrecy.equivocation_lb(pair, BSC(0.21), 150, np.random.default_rng(5))
        b = secrecy.mc_equivocation_bec(pair, 0.42, 150, np.random.default_rng(5))
        assert a.value == b.value and a.half_width == b.half_width

    def test_bec_channel_is_the_rank_estimator_itself(self):
        pair = random_pair(np.random.default_rng(9), 10)
        a = secrecy.equivocation_lb(pair, BEC(0.37), 80, np.random.default_rng(4))
        b = secrecy.mc_equivocation_bec(pair, 0.37, 80, np.random.default_rng(4))
        assert (a.value, a.half_width) == (b.value, b.half_width)
        assert a.detail == {**b.detail, "erasure_prob": 0.37}

    def test_extreme_snr_limits(self):
        pair = repetition_pair(4)
        high = secrecy.equivocation_lb(pair, BIAWGN(50.0), 100, np.random.default_rng(1))
        assert high.value == 0.0
        low = secrecy.equivocation_lb(pair, BIAWGN(1e-12), 100, np.random.default_rng(1))
        assert low.value == pytest.approx(pair.m / pair.n, abs=1e-6)

    def test_bsc_half_gives_full_rate(self):
        pair = repetition_pair(4)
        est = secrecy.equivocation_lb(pair, BSC(0.5), 50, np.random.default_rng(2))
        assert est.value == pair.m / pair.n

    def test_parameter_validation(self):
        pair = repetition_pair()
        with pytest.raises(ValueError):
            secrecy.equivocation_lb(pair, BIAWGN(0.0), 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            secrecy.equivocation_lb(pair, BSC(0.6), 10, np.random.default_rng(0))

    def test_borderline_operating_point_nearly_perfect_secrecy(self):
        # (4,6)-dual pair where the embedded erasure rate 0.335 satisfies the
        # typical-pair-threshold condition but not the BP-threshold one; the
        # rank estimate still sits within 0.02 of the full coarse rate.
        code = codes.regular_ldpc(3000, 4, 6, seed=13)
        pair = codes.nested_pair_from_coarse(codes.dual(code))
        est = secrecy.equivocation_lb(pair, BIAWGN(0.465), 1000, np.random.default_rng(6))
        assert est.value >= pair.rate - 0.02


class TestApproach1:
    def test_error_free_regime_hits_fano_ceiling(self):
        code = codes.regular_ldpc(510, 3, 6, seed=2)
        pair = codes.nested_pair_from_coarse(code)
        est = secrecy.approach1_equivocation_bound(pair, 3.0, 60, 100, np.random.default_rng(3))
        assert est.detail["word_error_rate"] == 0.0
        assert est.value == pytest.approx(1 - channels.c_biawgn(3.0) - 1 / 510, abs=1e-12)
        assert est.method == "fano-bound"

    def test_bound_within_capacity_band(self):
        code = codes.regular_ldpc(510, 3, 6, seed=2)
        pair = codes.nested_pair_from_coarse(code)
        for snr in (0.4, 0.9, 2.0):
            est = secrecy.approach1_equivocation_bound(pair, snr, 40, 60, np.random.default_rng(4))
            assert 0.0 <= est.value <= 1 - channels.c_biawgn(snr) + 1e-12

    @pytest.mark.parametrize("snr,max_iters", [(0.4, 15), (2.0, 100), (30.0, 100)])
    def test_records_the_bp_rounds_of_every_trial(self, snr, max_iters):
        code = codes.regular_ldpc(510, 3, 6, seed=2)
        pair = codes.nested_pair_from_coarse(code)
        est = secrecy.approach1_equivocation_bound(
            pair, snr, 12, max_iters, np.random.default_rng(7)
        )
        rounds = est.detail["bp_iterations"]
        assert len(rounds) == 12 and all(0 <= r <= max_iters for r in rounds)
        errors = round(est.detail["word_error_rate"] * 12)
        # a decode that runs out of rounds fails; one that stops early may not
        assert sum(r == max_iters for r in rounds) <= errors
        if snr == 0.4:
            assert errors == 12 and max(rounds) == max_iters
        if snr == 2.0:
            assert errors == 0 and 0 < max(rounds) < max_iters
        if snr == 30.0:  # the channel LLRs decode before any round
            assert rounds == [0] * 12

    def test_clamps_at_zero(self):
        pair = repetition_pair(6)
        est = secrecy.approach1_equivocation_bound(pair, 4.0, 10, 20, np.random.default_rng(5))
        assert est.value == 0.0

    def test_zero_snr_is_fully_noisy(self):
        pair = repetition_pair(3)
        est = secrecy.approach1_equivocation_bound(pair, 0.0, 10, 10, np.random.default_rng(6))
        assert est.detail["word_error_rate"] == 1.0
        assert est.value == pytest.approx(max(0.0, 1 - 1 / 3 - 1 / 3), abs=1e-12)


class TestPeeling:
    def test_no_erasures_valid_word(self):
        pair = repetition_pair()
        word, ok = decoders.peeling_decode_bec(pair.coarse, modulate([1, 1, 1]))
        assert ok and word.tolist() == [1, 1, 1]

    def test_all_erased_fails(self):
        pair = repetition_pair()
        word, ok = decoders.peeling_decode_bec(pair.coarse, np.zeros(3, dtype=np.int8))
        assert not ok and (word == -1).all()

    def test_single_erasure_forced_by_parity(self):
        code = codes.regular_ldpc(6, 2, 3, seed=0)
        cw = random_codeword(code, np.random.default_rng(11))
        z = modulate(cw).astype(np.int8)
        z[3] = 0
        word, ok = decoders.peeling_decode_bec(code, z)
        assert ok and np.array_equal(word, cw)

    def test_inconsistent_input_reported(self):
        pair = repetition_pair()
        # 010 is not a repetition codeword and nothing is erased
        word, ok = decoders.peeling_decode_bec(pair.coarse, modulate([0, 1, 0]))
        assert not ok
        assert word.tolist() == [0, 1, 0]  # unerased positions untouched

    def test_same_round_conflict_first_check_wins_and_is_reported(self):
        # both checks force variable 0 in the first round, to 0 and to 1
        code = codes.from_parity_check(BitMatrix.from_dense([[1, 1, 0], [1, 0, 1]]))
        word, ok = decoders.peeling_decode_bec(code, np.array([0, 1, -1], dtype=np.int8))
        assert word.tolist() == [0, 0, 1]
        assert not ok

    @pytest.mark.parametrize(
        "n,dv,dc,eps", [(120, 3, 6, 0.35), (120, 3, 6, 0.50), (102, 4, 6, 0.45)]
    )
    def test_matches_per_round_parity_reference(self, n, dv, dc, eps):
        # the reference peels the dense checks one check at a time: each round,
        # every check with one unknown neighbour sets it to the parity of its
        # known ones as they stood at the start of the round, and the
        # lowest-index check wins a same-round conflict
        def reference(h, z):
            bits = (z < 0).astype(np.int64)
            unknown = z == 0
            while True:
                single = np.flatnonzero(h[:, unknown].sum(axis=1) == 1)
                if single.size == 0:
                    break
                start = bits.copy()
                forced = set()
                for c in single:
                    (v,) = np.flatnonzero(h[c] & unknown)
                    if v not in forced:
                        forced.add(v)
                        bits[v] = h[c] @ (start * ~unknown) % 2
                unknown[list(forced)] = False
            success = not unknown.any() and not (h @ bits % 2).any()
            bits[unknown] = decoders.ERASED_BIT
            return bits, success

        code = codes.regular_ldpc(n, dv, dc, seed=n + dv)
        h = code.checks.to_dense().astype(np.int64)
        rng = np.random.default_rng(int(100 * eps))
        outcomes = set()
        for trial in range(60):
            # every other input is a random word, not a codeword: inconsistent
            consistent = trial % 2
            cw = random_codeword(code, rng) if consistent else rng.integers(0, 2, n, dtype=np.uint8)
            z = bec_transmit(modulate(cw), eps, rng)
            word, ok = decoders.peeling_decode_bec(code, z)
            want, want_ok = reference(h, z)
            assert np.array_equal(word, want) and ok == want_ok
            outcomes.add((consistent, ok))
        assert (0, False) in outcomes and (0, True) not in outcomes
        assert eps > 0.45 or (1, True) in outcomes

    @pytest.mark.parametrize(
        "n,dv,dc,eps", [(120, 3, 6, 0.35), (120, 3, 6, 0.50), (102, 4, 6, 0.45)]
    )
    def test_leaves_a_stopping_set_and_resolves_only_determined_bits(self, n, dv, dc, eps):
        code = codes.regular_ldpc(n, dv, dc, seed=n + dv)
        h = code.checks.to_dense()
        rng = np.random.default_rng(int(100 * eps))
        outcomes = set()
        for trial in range(60):
            # every other input is a random word, not a codeword: inconsistent
            consistent = trial % 2
            cw = random_codeword(code, rng) if consistent else rng.integers(0, 2, n, dtype=np.uint8)
            z = bec_transmit(modulate(cw), eps, rng)
            word, ok = decoders.peeling_decode_bec(code, z)
            known, left = z != 0, word == decoders.ERASED_BIT
            assert np.array_equal(word[known], cw[known])
            # peeling stops only where no check sees exactly one unknown
            assert (h[:, left].sum(axis=1) != 1).all()
            assert ok == (not left.any() and not (h @ word % 2).any())
            if consistent:
                resolved = np.flatnonzero(~known & ~left)
                assert np.array_equal(word[resolved], cw[resolved])
                # each resolved bit is a function of the known bits: its
                # column is outside the span of the other erased columns
                erased = np.flatnonzero(~known)
                full = uint8_rank(h[:, erased])
                for i in resolved:
                    assert full - uint8_rank(h[:, erased[erased != i]]) == 1
            outcomes.add((consistent, ok))
        # consistent inputs decode at least once, inconsistent ones never
        assert (0, False) in outcomes and (0, True) not in outcomes
        assert eps > 0.45 or (1, True) in outcomes

    # BEC BP thresholds: (3,6) 0.4294, (4,6) 0.5061
    @pytest.mark.parametrize("n,dv,dc,eps,below", [
        (120, 3, 6, 0.25, True), (120, 3, 6, 0.55, False),
        (102, 4, 6, 0.30, True), (102, 4, 6, 0.60, False),
    ])
    def test_resolved_positions_are_the_sent_bits(self, n, dv, dc, eps, below):
        code = codes.regular_ldpc(n, dv, dc, seed=n + dv)
        rng = np.random.default_rng(int(100 * eps))
        successes = partial = 0
        for _ in range(40):
            cw = random_codeword(code, rng)
            z = bec_transmit(modulate(cw), eps, rng)
            word, ok = decoders.peeling_decode_bec(code, z)
            resolved = word >= 0
            assert np.array_equal(word[resolved], cw[resolved])
            assert ok == bool(resolved.all())
            successes += ok
            partial += not ok and np.count_nonzero(resolved) > np.count_nonzero(z)
        assert (successes > 30) == below
        # above the threshold, failed decodes still resolve some erasures
        assert below or partial > 30

    def test_threshold_behaviour_at_n_10k(self):
        code = codes.regular_ldpc(10_000, 3, 6, seed=20)
        x = modulate(np.zeros(10_000, dtype=np.uint8)).astype(np.int8)
        outcomes = {}
        for eps in (0.40, 0.46):
            rng = np.random.default_rng(77)
            ok_count = 0
            for _ in range(200):
                _, ok = decoders.peeling_decode_bec(code, bec_transmit(x, eps, rng))
                ok_count += ok
            outcomes[eps] = ok_count / 200
        assert outcomes[0.40] >= 0.99  # below threshold 0.4294
        assert outcomes[0.46] <= 0.10  # above threshold


class TestBpDecode:
    def test_noiseless_llrs_succeed_instantly(self):
        code = codes.regular_ldpc(30, 3, 6, seed=1)
        cw = random_codeword(code, np.random.default_rng(0))
        llr = 50.0 * (1.0 - 2.0 * cw)
        bits, ok = decoders.bp_decode_awgn(code, llr, 0)
        assert ok and np.array_equal(bits, cw)

    def test_all_zero_llrs_fail(self):
        code = codes.regular_ldpc(30, 3, 6, seed=1)
        bits, ok = decoders.bp_decode_awgn(code, np.zeros(30), 50)
        assert not ok

    def test_negative_iterations_rejected(self):
        code = codes.regular_ldpc(30, 3, 6, seed=1)
        with pytest.raises(ValueError, match="max_iters"):
            decoders.bp_decode_awgn(code, np.ones(30), -1)

    def test_high_snr_ensemble_success(self):
        from wiretapcodes.channels import awgn_llr, biawgn_transmit

        code = codes.regular_ldpc(10_002, 4, 6, seed=8)
        x = modulate(np.zeros(10_002, dtype=np.uint8))
        rng = np.random.default_rng(5)
        successes = 0
        for _ in range(100):
            z = biawgn_transmit(x, 2.0, rng)
            bits, ok = decoders.bp_decode_awgn(code, awgn_llr(z, 2.0), 200)
            successes += ok and not bits.any()
        assert successes >= 99


class TestBruteForce:
    def test_full_space_coarse_has_no_secret(self):
        full = codes.from_parity_check(BitMatrix.from_dense(np.zeros((1, 4))))
        pair = codes.nested_pair_from_coarse(full)
        table = secrecy.brute_force_equivocation_bec(pair, 0.7)
        assert table.average == 0.0
        assert not table.per_pattern.any()

    def test_certain_erasure_average(self):
        pair = repetition_pair(4)
        table = secrecy.brute_force_equivocation_bec(pair, 1.0)
        assert table.average == pair.m

    def test_bsc_extremes(self):
        pair = repetition_pair()
        assert secrecy.brute_force_equivocation_bsc(pair, 0.0) == 0.0
        assert secrecy.brute_force_equivocation_bsc(pair, 0.5) == pytest.approx(pair.m, abs=1e-9)

    def test_bsc_between_bec_bounds(self):
        # degrading to BEC(2q) can only lose information about the message
        rng = np.random.default_rng(12)
        pair = random_pair(rng, 8)
        q = 0.2
        exact = secrecy.brute_force_equivocation_bsc(pair, q)
        lower = secrecy.brute_force_equivocation_bec(pair, 2 * q).average
        assert exact >= lower - 1e-9
        assert exact <= pair.m + 1e-9

    def test_size_limits(self):
        pair = repetition_pair(13)
        with pytest.raises(ValueError, match="n <= 12"):
            secrecy.brute_force_equivocation_bec(pair, 0.5)
        pair11 = repetition_pair(11)
        with pytest.raises(ValueError, match="n <= 10"):
            secrecy.brute_force_equivocation_bsc(pair11, 0.1)
