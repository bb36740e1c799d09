import math

import numpy as np
import pytest

from wiretapcodes import _kernels, bitlinalg, channels, codes, decoders, secrecy
from wiretapcodes.bitlinalg import BitMatrix
from wiretapcodes.channels import BEC, BIAWGN, BSC, modulate

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


def sparse_code(rng, n):
    rows = int(rng.integers(1, n + 1))
    checks = BitMatrix.from_dense((rng.random((rows, n)) < 0.3).astype(np.uint8))
    return codes.from_parity_check(checks)


def sparse_dual_pair(rng, n):
    return codes.nested_pair_from_coarse(codes.dual(sparse_code(rng, n)))


def erasure_mask(pair, erased):
    """The one-row erasure mask of the positions ``erased``."""
    mask = np.zeros((1, pair.n), dtype=bool)
    mask[0, erased] = True
    return mask


def peel_one(pair, erased):
    """``(found, core)`` of the one-pattern block ``erased``: the rank
    peeling found and the sorted keys of the stopping-set core's edges."""
    found, cores, _ = secrecy._peel_block(pair, erasure_mask(pair, erased))
    return found[0], cores[0]


def key_shape(core) -> tuple[int, int]:
    """(checks, variables) that the edge keys ``core`` touch."""
    return (np.unique(core >> _kernels._KEY_SHIFT).size,
            np.unique(core & _kernels._KEY_LOW).size)


def core_shape(pair, erased) -> tuple[int, int]:
    """(checks, variables) of the stopping-set core of ``erased``."""
    return key_shape(peel_one(pair, erased)[1])


def peeled_identity_rank(pair, erased):
    """rank(h1_E) through peeling and the core, whatever its size."""
    found, core = peel_one(pair, np.asarray(erased, dtype=np.int64))
    return found + (secrecy._core_rank(core) if core.size else 0)


def dense_rank(pair, erased):
    """rank(h1_E) by eliminating the gathered columns of h1 directly."""
    return bitlinalg.rank(BitMatrix(erased.size, pair.m, secrecy._rank_plan(pair)[0][erased]))


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
        assert pair.coarse.span is not None
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
                sizes.append(core_shape(pair, erased)[1])  # core columns
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
    def test_gathered_columns_match_uint8_elimination(self, spanless_pair, monkeypatch):
        # the criterion-7 h1 without its sparse span: its dense checks peel
        # nothing and make every core more work than the dense rest, which
        # is ranked on the gathered columns of h1 (ncols = m) on
        # either side of eps = 0.5, above which more columns are erased than
        # h1 has rows
        pair = spanless_pair
        assert pair.coarse.span is None
        h1 = pair.h1.to_dense()
        ncols_seen = spy_rank_ncols(monkeypatch)
        rng = np.random.default_rng(77)
        for eps in (0.20, 0.52):
            deficient = 0
            for _ in range(30):
                erased = np.nonzero(rng.random(pair.n) < eps)[0]
                ncols_seen.clear()
                got = secrecy.exact_equivocation_bec(pair, erased)
                assert ncols_seen == [pair.m]
                assert got == uint8_rank(h1[:, erased].T)
                deficient += got < min(erased.size, pair.m)
            # both rates meet rank-deficient blocks, where a wrong mask shows
            assert deficient > 0


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
            width = core_shape(pair, erased)[1]
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
            rows, width = core_shape(pair, erased)
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
            assert peel_one(pair, erased)[1].size == 0
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
            width = core_shape(pair, erased)[1]
            ncols_seen.clear()
            secrecy.exact_equivocation_bec(pair, erased)
            if not ncols_seen:
                seen["empty_core"] += 1
            else:
                seen["core" if ncols_seen == [width] else "dense_rest"] += 1
        assert seen == est.detail["rank_paths"]

    @pytest.mark.parametrize("eps,perfect", [(0.48, 0), (0.52, 43), (0.55, 64)])
    def test_perfect_counts_the_trials_of_rank_m(self, ldpc_dual_pair, eps, perfect):
        # the same seeded patterns, each ranked alone: a pattern of rank m
        # leaves the message perfectly secret
        pair = ldpc_dual_pair
        est = secrecy.mc_equivocation_bec(pair, eps, 64, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        count = sum(
            secrecy.exact_equivocation_bec(pair, np.nonzero(rng.random(pair.n) < eps)[0]) == pair.m
            for _ in range(64)
        )
        assert est.detail["perfect"] == count == perfect

    @pytest.mark.parametrize("eps", [0.20, 0.45])
    def test_cores_are_compacted_only_when_ranked(self, ldpc_dual_pair, monkeypatch, eps):
        # at 0.20 every trial ranks the dense rest, so no core is renumbered;
        # at 0.45 every trial ranks its core, renumbering checks and variables
        calls = []
        compact = secrecy._compact

        def spy(idx):
            calls.append(idx.size)
            return compact(idx)

        monkeypatch.setattr(secrecy, "_compact", spy)
        est = secrecy.mc_equivocation_bec(ldpc_dual_pair, eps, 200, np.random.default_rng(14))
        paths = est.detail["rank_paths"]
        assert paths["dense_rest" if eps < 0.3 else "core"] == 200
        assert len(calls) == 2 * paths["core"]

    def test_nothing_to_rank(self):
        est = secrecy.mc_equivocation_bec(repetition_pair(), 0.0, 20, np.random.default_rng(0))
        assert est.detail["rank_paths"] == {
            "none": 20, "empty_core": 0, "core": 0, "dense_rest": 0,
        }


def peel_alone(pair, erased_row):
    """``(found, core_chk, core_var, rounds)`` of one erasure mask row, from
    the reference peel on a single copy of the span: ``found`` is ``m``
    less the unerased positions left unknown."""
    remaining = ~erased_row
    span = pair.coarse.span
    rounds, core_chk, core_var = reference_peel_edges(
        *_kernels._edges(span.words), span.rows, remaining)
    return pair.m - int(np.count_nonzero(remaining)), core_chk, core_var, len(rounds)


@pytest.fixture(scope="module")
def spanless_pair(ldpc_dual_pair):
    # the criterion-7 h1 without its sparse span: its checks are the dense
    # generator of the (3,6) code, and every rank is the dense rest
    c = ldpc_dual_pair.coarse
    return codes.nested_pair_from_coarse(codes.LinearCode(c.h, c.g, c.checks, c.pivots))


class TestBlockDriver:
    def test_split_matches_peeling_each_pattern_alone(self, ldpc_dual_pair):
        # blocks mixing nothing erased, stopping-set cores, empty cores and
        # everything erased, so unequal cores lie side by side
        pair = ldpc_dual_pair
        rng = np.random.default_rng(19)
        erased = np.concatenate(
            [rng.random((5, pair.n)) < eps for eps in (0.0, 0.3, 0.6, 1.0)]
        )
        num_checks = pair.coarse.span.rows
        found, cores = [], []
        for start in range(0, len(erased), secrecy._BLOCK):
            block = erased[start : start + secrecy._BLOCK]
            got_found, got_cores, rounds = secrecy._peel_block(pair, block)
            assert len(got_found) == len(got_cores) == len(block)
            want = [peel_alone(pair, row) for row in block]
            # the block peels for as many rounds as its slowest pattern
            assert rounds == max(w[3] for w in want)
            # pattern t's run holds the edges of copy t of the span, in edge
            # order: t blocks of checks and of variables past the reference's
            for t, (rank, core, w) in enumerate(zip(got_found, got_cores, want)):
                assert rank == w[0]
                assert np.array_equal(core >> _kernels._KEY_SHIFT, w[1] + t * num_checks)
                assert np.array_equal(core & _kernels._KEY_LOW, w[2] + t * pair.n)
            found += got_found
            cores += got_cores
        shapes = [key_shape(core) for core in cores]
        assert shapes[0][0] == num_checks  # nothing erased: the whole span
        assert shapes[-1] == (0, 0) and found[-1] == pair.m  # everything erased
        assert all(s[0] > 0 for s in shapes[5:10])  # cores at 0.3
        # empty cores at 0.6: the peel resolved positions (the rank found is
        # above m - |Ebar|) and found the whole rank
        empty = [(r, row) for r, s, row in zip(found[10:15], shapes[10:15], erased[10:15])
                 if s == (0, 0)]
        assert empty
        for r, row in empty:
            assert pair.m - np.count_nonzero(~row) < r == dense_rank(pair, np.flatnonzero(row))

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
            elif ncols_seen == [core_shape(pair, erased)[1]]:
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
        span = pair.coarse.span
        est = secrecy.mc_equivocation_bec(pair, eps, trials, np.random.default_rng(31))
        rng = np.random.default_rng(31)
        want = []
        for start in range(0, trials, secrecy._BLOCK):
            erased = rng.random((min(secrecy._BLOCK, trials - start), pair.n)) < eps
            live = erased[erased.any(axis=1)]
            keys = _kernels._edge_keys(*_kernels._edges(span.words), span.rows, pair.n, len(live))
            rounds = _kernels._peel_edges(keys, ~live.reshape(-1))[0]
            want.append(len(rounds))
        assert est.detail["peel_rounds"] == want
        assert len(want) == 3 and (eps in (0.0, 1.0)) == (max(want) == 0)
        lb = secrecy.equivocation_lb(pair, BEC(eps), trials, np.random.default_rng(31))
        assert lb.detail["peel_rounds"] == want
        assert est.detail["peel_source"] == lb.detail["peel_source"] == "span"

    def test_every_block_records_its_rounds_without_a_span(self, spanless_pair):
        # the twin peels its coarse code's checks on the erased positions, a
        # direct _peel_edges call on each block's patterns that erase
        # something; its dense checks resolve at most one round
        pair, checks = spanless_pair, spanless_pair.coarse.checks
        for eps, channel in ((0.45, BEC(0.45)), (BIAWGN(0.5).erasure_rate, BIAWGN(0.5))):
            rng = np.random.default_rng(2)
            want = []
            for start in range(0, 9, secrecy._BLOCK):
                erased = rng.random((min(secrecy._BLOCK, 9 - start), pair.n)) < eps
                live = erased[erased.any(axis=1)]
                keys = _kernels._edge_keys(
                    *_kernels._edges(checks.words), checks.rows, pair.n, len(live))
                want.append(len(_kernels._peel_edges(keys, live.reshape(-1))[0]))
            assert len(want) == 2 and set(want) <= {0, 1}
            est = secrecy.mc_equivocation_bec(pair, eps, 9, np.random.default_rng(2))
            lb = secrecy.equivocation_lb(pair, channel, 9, np.random.default_rng(2))
            assert est.detail["peel_rounds"] == lb.detail["peel_rounds"] == want
            assert est.detail["peel_source"] == lb.detail["peel_source"] == "checks"


class TestRankPlan:
    def test_built_once_on_the_first_rank(self):
        pair = codes.nested_pair_from_coarse(codes.dual(codes.regular_ldpc(60, 3, 6, seed=2)))
        assert pair._rank_plan is None
        secrecy.exact_equivocation_bec(pair, [0, 5, 7])
        plan = pair._rank_plan
        assert plan is not None
        for eps in (0.0, 0.4, 1.0):
            secrecy.mc_equivocation_bec(pair, eps, 19, np.random.default_rng(3))
            secrecy.equivocation_lb(pair, BSC(eps / 2), 3, np.random.default_rng(3))
        assert pair._rank_plan is plan and secrecy._rank_plan(pair) is plan

    def test_construction_coding_and_approach1_never_build_it(self):
        code = codes.regular_ldpc(60, 3, 6, seed=2)
        for coarse in (code, codes.dual(code)):
            pair = codes.nested_pair_from_coarse(coarse)
            rng = np.random.default_rng(5)
            sent = secrecy.encode(pair, rng.integers(0, 2, pair.m, dtype=np.uint8), rng)
            secrecy.main_decode(pair, sent.word)
            secrecy.approach1_equivocation_bound(pair, 1.0, 3, 5, rng)
            assert pair._rank_plan is None

    def test_a_block_past_the_plans_copies_is_refused(self, ldpc_dual_pair):
        # the plan holds _BLOCK copies of the peel source; a larger block would
        # peel its last patterns on no edges and call every core empty
        erased = np.ones((secrecy._BLOCK + 1, ldpc_dual_pair.n), dtype=bool)
        with pytest.raises(ValueError, match=f"at most {secrecy._BLOCK} patterns"):
            secrecy._erased_ranks(ldpc_dual_pair, erased)

    def test_holds_the_transpose_and_the_stacked_span_keys(self, ldpc_dual_pair):
        pair = ldpc_dual_pair
        h1_columns, keys, rows, source = secrecy._rank_plan(pair)
        assert np.array_equal(h1_columns, pair.h1.transpose().words)
        span = pair.coarse.span
        want = _kernels._edge_keys(*_kernels._edges(span.words), span.rows, pair.n, secrecy._BLOCK)
        assert np.array_equal(keys, want)
        assert (rows, source) == (span.rows, "span")

    @pytest.mark.parametrize("seed", range(4))
    def test_spanless_pair_has_no_span_keys_and_ranks_exactly(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 11))
        pair = random_pair(rng, n)
        assert pair.coarse.span is None
        table = secrecy.brute_force_equivocation_bec(pair, 0.5)
        for pattern in range(1 << n):
            erased = [i for i in range(n) if (pattern >> i) & 1]
            assert secrecy.exact_equivocation_bec(pair, erased) == table.per_pattern[pattern]
        # it stacks its coarse code's own checks instead
        h1_columns, keys, rows, source = secrecy._rank_plan(pair)
        checks = pair.coarse.checks
        want = _kernels._edge_keys(
            *_kernels._edges(checks.words), checks.rows, pair.n, secrecy._BLOCK)
        assert np.array_equal(keys, want)
        assert (rows, source) == (checks.rows, "checks")
        assert np.array_equal(h1_columns, pair.h1.transpose().words)


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
        columns = BitMatrix(erased.size, pair.m, pair.h1.transpose().words[erased])
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


def peel_code(code, unknown):
    """``_peel_edges`` on the check matrix of ``code``, clearing the positions
    it resolves in ``unknown``: per round its resolving ``(chk, var)``
    edges, then the core's."""
    keys = _kernels._edge_keys(*code.edge_lists(), code.checks.rows, code.n)
    rounds, core = _kernels._peel_edges(keys, unknown)
    return [(r >> 32, r & 0xFFFFFFFF) for r in rounds], (core >> 32, core & 0xFFFFFFFF)


class TestPeeling:
    """The BEC peel of a code's own erasures, ``_peel_edges`` on its checks."""

    def test_no_erasures_and_all_erased(self):
        code = repetition_pair().coarse
        unknown = np.zeros(3, dtype=bool)
        rounds, (core_chk, _) = peel_code(code, unknown)
        assert rounds == [] and core_chk.size == 0 and not unknown.any()
        # every check sees two unknowns: the whole graph is the core
        unknown = np.ones(3, dtype=bool)
        rounds, (core_chk, core_var) = peel_code(code, unknown)
        assert rounds == [] and unknown.all()
        assert core_chk.tolist() == [0, 0, 1, 1] and core_var.tolist() == [0, 1, 1, 2]

    def test_single_erasure_forced_by_parity(self):
        code = codes.regular_ldpc(6, 2, 3, seed=0)
        unknown = np.zeros(6, dtype=bool)
        unknown[3] = True
        rounds, (core_chk, _) = peel_code(code, unknown)
        # both checks on variable 3 resolve it in the one round
        ((chk, var),) = rounds
        assert chk.tolist() == np.flatnonzero(code.checks.to_dense()[:, 3]).tolist()
        assert var.tolist() == [3, 3]
        assert core_chk.size == 0 and not unknown.any()

    @pytest.mark.parametrize(
        "n,dv,dc,eps", [(120, 3, 6, 0.35), (120, 3, 6, 0.50), (102, 4, 6, 0.45)]
    )
    def test_rounds_match_a_dense_one_check_at_a_time_reference(self, n, dv, dc, eps):
        # the reference scans the dense checks one at a time: each round,
        # every check with one unknown neighbour resolves it, in check order
        def reference(h, unknown):
            rounds = []
            while True:
                single = np.flatnonzero(h[:, unknown].sum(axis=1) == 1)
                if single.size == 0:
                    return rounds
                var = [np.flatnonzero(h[c] & unknown)[0] for c in single]
                rounds.append((single.tolist(), var))
                unknown[var] = False

        code = codes.regular_ldpc(n, dv, dc, seed=n + dv)
        h = code.checks.to_dense()
        rng = np.random.default_rng(int(100 * eps))
        peeled = set()
        for _ in range(60):
            unknown = rng.random(n) < eps
            want_unknown = unknown.copy()
            want = reference(h, want_unknown)
            rounds, (core_chk, core_var) = peel_code(code, unknown)
            assert [(c.tolist(), v.tolist()) for c, v in rounds] == want
            assert np.array_equal(unknown, want_unknown)
            # the core is every edge of the checks to the unknown variables
            want_chk, want_var = np.nonzero(h[:, unknown])
            assert np.array_equal(core_chk, want_chk)
            assert np.array_equal(core_var, np.flatnonzero(unknown)[want_var])
            peeled.add(not unknown.any())
        assert False in peeled
        assert eps > 0.45 or True in peeled

    @pytest.mark.parametrize(
        "n,dv,dc,eps", [(120, 3, 6, 0.35), (120, 3, 6, 0.50), (102, 4, 6, 0.45)]
    )
    def test_leaves_a_stopping_set_and_resolves_only_determined_bits(self, n, dv, dc, eps):
        code = codes.regular_ldpc(n, dv, dc, seed=n + dv)
        h = code.checks.to_dense()
        rng = np.random.default_rng(int(100 * eps))
        resolved_any = False
        for _ in range(60):
            unknown = rng.random(n) < eps
            erased = np.flatnonzero(unknown)
            peel_code(code, unknown)
            # peeling stops only where no check sees exactly one unknown
            assert (h[:, unknown].sum(axis=1) != 1).all()
            # each resolved bit is a function of the known bits: its column
            # is outside the span of the other erased columns
            full = uint8_rank(h[:, erased])
            for i in erased[~unknown[erased]]:
                assert full - uint8_rank(h[:, erased[erased != i]]) == 1
                resolved_any = True
        assert resolved_any

    # BEC BP thresholds: (3,6) 0.4294, (4,6) 0.5061
    @pytest.mark.parametrize("n,dv,dc,eps,below", [
        (120, 3, 6, 0.25, True), (120, 3, 6, 0.55, False),
        (102, 4, 6, 0.30, True), (102, 4, 6, 0.60, False),
    ])
    def test_peels_below_the_threshold_and_stops_above(self, n, dv, dc, eps, below):
        code = codes.regular_ldpc(n, dv, dc, seed=n + dv)
        rng = np.random.default_rng(int(100 * eps))
        successes = partial = 0
        for _ in range(40):
            random_codeword(code, rng)  # the sent word, drawn before its erasures
            unknown = rng.random(n) < eps
            rounds, _ = peel_code(code, unknown)
            successes += not unknown.any()
            partial += unknown.any() and bool(rounds)
        assert (successes > 30) == below
        # above the threshold, failed peels still resolve some erasures
        assert below or partial > 30

    def test_threshold_behaviour_at_n_10k(self):
        code = codes.regular_ldpc(10_000, 3, 6, seed=20)
        keys = _kernels._edge_keys(*code.edge_lists(), code.checks.rows, code.n)
        outcomes = {}
        for eps in (0.40, 0.46):
            rng = np.random.default_rng(77)
            ok_count = 0
            for _ in range(200):
                unknown = rng.random(10_000) < eps
                _kernels._peel_edges(keys, unknown)
                ok_count += not unknown.any()
            outcomes[eps] = ok_count / 200
        assert outcomes[0.40] >= 0.99  # below threshold 0.4294
        assert outcomes[0.46] <= 0.10  # above threshold

    def test_empty_cores_are_the_parent_peeling_the_complement(self, ldpc_dual_pair):
        # On a dual pair an empty stopping-set core at erasure rate eps is
        # the parent code peeling its own erasures, the unerased positions,
        # at rate 1 - eps: pattern by pattern, around the (3,6) edge at
        # 1 - 0.4294 = 0.5706.
        pair = ldpc_dual_pair
        parent = codes.regular_ldpc(2000, 3, 6, seed=101)
        keys = _kernels._edge_keys(*parent.edge_lists(), parent.checks.rows, parent.n)
        empty = {}
        for eps in (0.50, 0.57, 0.60):
            erased = np.random.default_rng(int(100 * eps)).random((64, pair.n)) < eps
            ranks = [rank for start in range(0, 64, secrecy._BLOCK) for rank in
                     secrecy._erased_ranks(pair, erased[start : start + secrecy._BLOCK])[0]]
            for (_, path), row in zip(ranks, erased):
                unknown = ~row
                _kernels._peel_edges(keys, unknown)
                assert (path == "empty_core") == (not unknown.any())
            empty[eps] = sum(path == "empty_core" for _, path in ranks)
            est = secrecy.mc_equivocation_bec(pair, eps, 64, np.random.default_rng(int(100 * eps)))
            assert est.detail["rank_paths"]["empty_core"] == empty[eps]
        assert empty[0.50] == 0 and empty[0.60] >= 60


@pytest.fixture(scope="module")
def plain_pair():
    # the (3,6) code of acceptance criterion 7 nested as the coarse code
    return codes.nested_pair_from_coarse(codes.regular_ldpc(2000, 3, 6, seed=101))


class TestChecksPeel:
    """A pair without a span peels its coarse code's checks on the erased
    positions: ``rank(h1_E) = rank(checks_E)``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_tiny_pairs_match_brute_force_on_every_pattern(self, seed):
        rng = np.random.default_rng(1100 + seed)
        n = int(rng.integers(1, 11))
        pair = codes.nested_pair_from_coarse(sparse_code(rng, n))
        assert pair.coarse.span is None
        table = secrecy.brute_force_equivocation_bec(pair, 0.5)
        for pattern in range(1 << n):
            erased = [i for i in range(n) if (pattern >> i) & 1]
            assert secrecy.exact_equivocation_bec(pair, erased) == table.per_pattern[pattern]
            assert peeled_identity_rank(pair, erased) == table.per_pattern[pattern]

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.45, 0.6, 0.9])
    @pytest.mark.parametrize("which", ["n240", "n606", "n2000"])
    def test_equals_uint8_elimination(self, plain_pair, which, eps):
        n = int(which[1:])
        pair = plain_pair if n == 2000 else codes.nested_pair_from_coarse(
            codes.regular_ldpc(n, 3, 6, seed=n))
        h1 = pair.h1.to_dense()
        rng = np.random.default_rng(int(1000 * eps) + n)
        for _ in range(10):
            erased = np.nonzero(rng.random(pair.n) < eps)[0]
            want = uint8_rank(h1[:, erased].T)
            assert secrecy.exact_equivocation_bec(pair, erased) == want
            assert peeled_identity_rank(pair, erased) == want

    def test_empty_cores_are_the_coarse_code_peeling_its_erasures(self, plain_pair):
        # the mirror of an empty core on a dual pair: here it is the coarse
        # code peeling its own erasures at rate eps, pattern by pattern,
        # around the (3,6) BEC threshold 0.4294
        pair = plain_pair
        empty = {}
        for eps in (0.38, 0.43, 0.46):
            erased = np.random.default_rng(int(100 * eps)).random((64, pair.n)) < eps
            ranks = [rank for start in range(0, 64, secrecy._BLOCK) for rank in
                     secrecy._erased_ranks(pair, erased[start : start + secrecy._BLOCK])[0]]
            for (rank, path), row in zip(ranks, erased):
                unknown = row.copy()
                peel_code(pair.coarse, unknown)
                assert (path == "empty_core") == (not unknown.any())
            empty[eps] = sum(path == "empty_core" for _, path in ranks)
            est = secrecy.mc_equivocation_bec(pair, eps, 64, np.random.default_rng(int(100 * eps)))
            assert est.detail["rank_paths"]["empty_core"] == empty[eps]
        assert empty[0.38] >= 60 and 0 < empty[0.43] < 64 and empty[0.46] == 0

    def test_below_the_threshold_every_trial_ranks_its_erasures(self, plain_pair):
        # at eps = 0.30 the (3,6) code's peeling decoder recovers every
        # pattern, so each rank is |E| and no elimination runs
        pair, trials = plain_pair, 40
        est = secrecy.mc_equivocation_bec(pair, 0.30, trials, np.random.default_rng(30))
        assert est.detail["rank_paths"] == {
            **dict.fromkeys(secrecy._RANK_PATHS, 0), "empty_core": trials}
        assert est.detail["peel_source"] == "checks"
        rng = np.random.default_rng(30)
        sizes = np.array([np.count_nonzero(rng.random(pair.n) < 0.30) for _ in range(trials)],
                         dtype=np.float64)
        # each rank is at most |E|, so an equal mean makes every one equal
        assert est.value == float(sizes.mean()) / pair.n
        assert est.detail["perfect"] == 0


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
