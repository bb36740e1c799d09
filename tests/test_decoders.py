"""The decoders on the check-major layout against flat-edge references.

The references below are the decoders as they were written on the row-major
edge lists, with one ``np.bincount`` per segment sum, and the peel as it was
written on parallel ``(chk, var)`` arrays, with one ``np.bincount`` of each
check's live edges per round.  The layout's sums add
the same terms in the same order from the same ``0.0``, so every case here
must agree bit for bit: the posterior LLRs (so the hard decision), the
success flag and the number of sum-product rounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretapcodes import _kernels, codes, decoders
from wiretapcodes.bitlinalg import BitMatrix
from wiretapcodes.channels import awgn_llr, biawgn_transmit, modulate


def check_parity(code, bits):
    chk, var = code.edge_lists()
    weights = bits[var].astype(np.float64)
    return np.bincount(chk, weights=weights, minlength=code.checks.rows).astype(np.int64) & 1


def reference_bp(code, llr, max_iters):
    """``(posterior, ok, rounds)`` of flooding sum-product on the flat edge lists."""
    llr = np.asarray(llr, dtype=np.float64)
    edge_chk, edge_var = code.edge_lists()
    m, n = code.checks.rows, code.n

    def decide(posterior):
        bits = (posterior < 0).astype(np.uint8)
        return not check_parity(code, bits).any() and bool(np.all(np.abs(posterior) >= 1e-9))

    if decide(llr) or max_iters == 0:
        return llr, decide(llr), 0
    msg_vc = llr[edge_var].copy()
    for it in range(1, max_iters + 1):
        mag = np.abs(msg_vc)
        np.clip(mag, 1e-12, None, out=mag)
        phi = -np.log(np.tanh(0.5 * mag))
        phi_sum = np.bincount(edge_chk, weights=phi, minlength=m)
        neg = msg_vc < 0
        neg_cnt = np.bincount(edge_chk, weights=neg, minlength=m).astype(np.int64)
        ext = phi_sum[edge_chk] - phi
        np.clip(ext, 1e-12, None, out=ext)
        out_mag = -np.log(np.tanh(0.5 * ext))
        msg_cv = (1.0 - 2.0 * ((neg_cnt[edge_chk] - neg) & 1)) * out_mag
        posterior = llr + np.bincount(edge_var, weights=msg_cv, minlength=n)
        if decide(posterior):
            return posterior, True, it
        msg_vc = posterior[edge_var] - msg_cv
    return posterior, False, max_iters


def reference_peel_edges(chk, var, num_checks, unknown):
    """Peel the Tanner graph ``(chk[i], var[i])`` with one ``np.bincount``
    of the live edges per check each round, clearing resolved variables in
    ``unknown`` in place.  Returns ``(rounds, core_chk, core_var)``: per
    round its resolving ``(chk, var)`` edges in edge order, then the core's
    edges."""
    rounds = []
    keep = unknown[var]
    chk, var = chk[keep], var[keep]
    while chk.size:
        single = np.bincount(chk, minlength=num_checks)[chk] == 1
        if not single.any():
            break
        resolved = var[single]
        rounds.append((chk[single], resolved))
        unknown[resolved] = False
        keep = unknown[var]
        chk, var = chk[keep], var[keep]
    return rounds, chk, var


def assert_same_decode(code, llr, max_iters):
    posterior, ok, rounds = decoders._sum_product(code, llr, max_iters)
    want, want_ok, want_rounds = reference_bp(code, llr, max_iters)
    assert posterior.shape == want.shape
    assert np.array_equal(posterior.view(np.uint64), want.view(np.uint64))
    assert (ok, rounds) == (want_ok, want_rounds)
    bits, public_ok = decoders.bp_decode_awgn(code, llr, max_iters)
    assert bits.dtype == np.uint8 and np.array_equal(bits, want < 0) and public_ok == ok
    return ok, rounds


def channel_llrs(code, snr, rng):
    return awgn_llr(biawgn_transmit(modulate(np.zeros(code.n, dtype=np.uint8)), snr, rng), snr)


def irregular_code():
    # 12 checks on 24 variables, of mixed degrees: the last check has no
    # edges and variable 7 is in no check
    rng = np.random.default_rng(3)
    h = (rng.random((12, 24)) < 0.18).astype(np.uint8)
    h[-1] = 0
    h[:, 7] = 0
    return codes.from_parity_check(BitMatrix.from_dense(h))


@pytest.mark.parametrize("snr", [0.44, 0.52, 0.60])
def test_bp_matches_reference_at_n_10002(snr):
    code = codes.regular_ldpc(10_002, 4, 6, seed=8)
    assert_same_decode(code, channel_llrs(code, snr, np.random.default_rng(int(100 * snr))), 100)


def test_bp_matches_reference_at_n_2000_at_several_round_limits():
    code = codes.regular_ldpc(2000, 3, 6, seed=5)
    rng = np.random.default_rng(9)
    outcomes = set()
    for snr in (0.5, 0.9, 1.2, 3.0):
        llr = channel_llrs(code, snr, rng)
        for max_iters in (0, 1, 2, 5, 60):
            outcomes.add(assert_same_decode(code, llr, max_iters))
    assert {ok for ok, _ in outcomes} == {False, True}
    assert {rounds for _, rounds in outcomes} > {0, 1, 2, 5, 60}


def test_bp_matches_reference_on_padded_layouts():
    # irregular checks and variables, a dense dual and a code with no edges
    irregular = irregular_code()
    dual = codes.dual(codes.regular_ldpc(60, 3, 6, seed=2))
    full = codes.from_parity_check(BitMatrix.from_dense(np.zeros((1, 8), dtype=np.uint8)))
    slot_var, var_slots = irregular.check_layout()
    degrees = irregular.degree_distribution()
    d, dv = max(degrees.chk_edge), max(degrees.var_edge)
    assert slot_var.shape == (d, 13) and var_slots.shape == (dv, 25)
    assert (slot_var[:, -2:] == 24).all() and (var_slots[:, [7, 24]] == 12).all()
    assert full.check_layout()[0].shape == (0, 2)
    assert full.check_layout()[1].shape == (0, 9)
    rng = np.random.default_rng(4)
    for code in (irregular, dual, full):
        for snr in (0.3, 1.0, 4.0):
            for max_iters in (0, 1, 3, 30):
                assert_same_decode(code, channel_llrs(code, snr, rng), max_iters)
        # an undecidable posterior keeps the edgeless code iterating
        llr = channel_llrs(code, 4.0, rng)
        llr[0] = 0.0
        assert_same_decode(code, llr, 4)


@pytest.mark.parametrize("kind", ["irregular", "regular", "dual"])
def test_bp_matches_reference_on_extreme_llrs(kind):
    code = {
        "irregular": irregular_code,
        "regular": lambda: codes.regular_ldpc(600, 3, 6, seed=1),
        "dual": lambda: codes.dual(codes.regular_ldpc(60, 3, 6, seed=2)),
    }[kind]()
    rng = np.random.default_rng(7)
    assert assert_same_decode(code, np.zeros(code.n), 20) == (False, 20)
    # +-50 saturates tanh, so phi of those messages is -0.0
    for _ in range(3):
        llr = 50.0 * (1.0 - 2.0 * (rng.random(code.n) < 0.05))
        assert_same_decode(code, llr, 20)


# +-1e-12 is the clip, 37 and 38 bracket where tanh(x/2) rounds to 1, so
# where a message's magnitude saturates to -0.0
_EDGE_LLRS = [s * v for v in (0.0, 1e-13, 1e-12, 37.0, 38.0, np.inf) for s in (1.0, -1.0)]


@st.composite
def codes_and_llrs(draw):
    """A random code of up to 6 checks on up to 10 variables, each check on
    0-4 distinct variables (so checks and variables with no edges occur),
    with LLRs drawn from the edge values above and normals."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    h = np.zeros((m, n), dtype=np.uint8)
    for row in h:
        row[sorted(draw(st.sets(st.integers(0, n - 1), max_size=4)))] = 1
    llr = draw(st.lists(st.sampled_from(_EDGE_LLRS) | st.floats(-8.0, 8.0), min_size=n, max_size=n))
    return codes.from_parity_check(BitMatrix.from_dense(h)), np.array(llr), draw(st.integers(0, 6))


@settings(max_examples=400, deadline=None)
@given(codes_and_llrs())
def test_bp_matches_reference_on_random_sparse_codes(case):
    # the round carries psi = -phi and flips signs by the sign bit; the
    # signed zeros, the clip and tanh's saturation must not move a bit
    code, llr, max_iters = case
    assert_same_decode(code, llr, max_iters)


def test_bp_refuses_a_non_integer_round_limit():
    code = irregular_code()
    for max_iters in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="max_iters"):
            decoders.bp_decode_awgn(code, np.ones(code.n), max_iters)


def assert_peel_matches_reference(chk, var, m, n, unknown, copies=1):
    """The keyed peel of ``copies`` stacked copies against the reference:
    every round's ``(chk, var)`` in order, the core's edges and the final
    ``unknown``.  Returns the number of rounds."""
    chk, var = np.asarray(chk, dtype=np.int64), np.asarray(var, dtype=np.int64)
    keys = _kernels._edge_keys(chk, var, m, n, copies)
    # copy t offset by t * m checks and t * n variables
    chk = np.concatenate([chk + t * m for t in range(copies)])
    var = np.concatenate([var + t * n for t in range(copies)])
    assert np.array_equal(keys >> 32, chk) and np.array_equal(keys & 0xFFFFFFFF, var)
    assert (np.diff(keys) > 0).all()
    got_unknown, want_unknown = unknown.copy(), unknown.copy()
    rounds, core = _kernels._peel_edges(keys, got_unknown)
    want_rounds, core_chk, core_var = reference_peel_edges(chk, var, m * copies, want_unknown)
    assert len(rounds) == len(want_rounds)
    for got, (want_chk, want_var) in zip(rounds, want_rounds):
        assert np.array_equal(got >> 32, want_chk) and np.array_equal(got & 0xFFFFFFFF, want_var)
    assert np.array_equal(core >> 32, core_chk) and np.array_equal(core & 0xFFFFFFFF, core_var)
    assert np.array_equal(got_unknown, want_unknown)
    return len(rounds)


@pytest.fixture(scope="module")
def criterion7_span():
    # the sparse span of the (3,6)-dual pair of acceptance criterion 7
    span = codes.dual(codes.regular_ldpc(2000, 3, 6, seed=101)).span
    return (*_kernels._edges(span.words), span.rows, span.cols)


class TestKeyedPeel:
    @pytest.mark.parametrize("eps", [0.30, 0.45, 0.60])
    def test_criterion7_span_matches_reference(self, criterion7_span, eps):
        chk, var, m, n = criterion7_span
        # peeling runs on the unerased positions, as in the rank estimator
        rng = np.random.default_rng(int(100 * eps))
        rounds = [assert_peel_matches_reference(chk, var, m, n, rng.random(n) >= eps)
                  for _ in range(6)]
        assert min(rounds) >= 1 and (eps < 0.6 or min(rounds) > 10)

    def test_stacked_block_of_eight_matches_reference(self, criterion7_span):
        chk, var, m, n = criterion7_span
        rng = np.random.default_rng(21)
        for eps in (0.30, 0.45, 0.60):
            assert_peel_matches_reference(chk, var, m, n, rng.random(8 * n) >= eps, copies=8)

    def test_irregular_code_with_degree_one_checks_at_both_ends(self):
        # check 0 is degree one at the first edge, check 3 has no edges and
        # the last check is degree one at the last edge
        h = np.array([
            [1, 0, 0, 0, 0, 0, 0],
            [0, 1, 1, 0, 1, 0, 0],
            [1, 1, 0, 1, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 1, 1, 0, 1],
            [0, 0, 0, 0, 0, 0, 1],
        ], dtype=np.uint8)
        chk, var = _kernels._edges(BitMatrix.from_dense(h).words)
        assert (chk[0], chk[-1]) == (0, 5) and chk[1] != 0 and chk[-2] != 5
        m, n = h.shape
        for pattern in range(1 << n):
            unknown = np.array([(pattern >> i) & 1 for i in range(n)], dtype=bool)
            assert_peel_matches_reference(chk, var, m, n, unknown)
            assert_peel_matches_reference(chk, var, m, n, np.tile(unknown, 3), copies=3)
        # and the check matrices of an irregular code (an edgeless check, a
        # variable in no check), of a dual code and of a regular code
        rng = np.random.default_rng(2)
        for code in (irregular_code(), codes.dual(codes.regular_ldpc(60, 3, 6, seed=2)),
                     codes.regular_ldpc(120, 3, 6, seed=2)):
            chk, var = code.edge_lists()
            for eps in (0.1, 0.3, 0.5):
                for _ in range(10):
                    assert_peel_matches_reference(chk, var, code.checks.rows, code.n,
                                                  rng.random(code.n) < eps)

    def test_all_and_none_unknown(self, criterion7_span):
        chk, var, m, n = criterion7_span
        # everything unknown leaves the whole span as its core; nothing
        # unknown leaves no edge at all
        assert assert_peel_matches_reference(chk, var, m, n, np.ones(n, dtype=bool)) == 0
        assert assert_peel_matches_reference(chk, var, m, n, np.zeros(n, dtype=bool)) == 0
        unknown = np.ones(n, dtype=bool)
        assert _kernels._peel_edges(_kernels._edge_keys(chk, var, m, n), unknown)[1].size == chk.size
        h = BitMatrix.from_dense(np.eye(4, 6, dtype=np.uint8))
        chk, var = _kernels._edges(h.words)
        for unknown in (np.ones(6, dtype=bool), np.zeros(6, dtype=bool)):
            assert assert_peel_matches_reference(chk, var, 4, 6, np.tile(unknown, 2), copies=2) \
                == unknown.all()

    def test_edgeless_code(self):
        empty = np.empty(0, dtype=np.int64)
        for unknown in (np.ones(5, dtype=bool), np.zeros(5, dtype=bool)):
            assert assert_peel_matches_reference(empty, empty, 2, 5, unknown) == 0


@st.composite
def sparse_graphs_and_masks(draw):
    """A random Tanner graph of up to 12 checks on up to 16 variables, each
    check on 0-5 distinct variables, with 1-4 stacked copies and an unknown
    mask of any density over all of them."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(1, 16))
    rows = [sorted(draw(st.sets(st.integers(0, n - 1), max_size=5))) for _ in range(m)]
    chk = [c for c, row in enumerate(rows) for _ in row]
    var = [v for row in rows for v in row]
    copies = draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    unknown = np.random.default_rng(seed).random(copies * n) < density
    return chk, var, m, n, unknown, copies


@settings(max_examples=300, deadline=None)
@given(sparse_graphs_and_masks())
def test_peel_matches_reference_on_random_sparse_graphs(case):
    # the mask buffers of one call are reused across its rounds, so an end
    # flag left stale by a longer round would resolve a wrong edge here
    chk, var, m, n, unknown, copies = case
    assert_peel_matches_reference(chk, var, m, n, unknown, copies)


class TestKeyWidth:
    def test_largest_keys_fit(self):
        keys = _kernels._edge_keys(np.array([0, 2**31 - 1]), np.array([2**32 - 1, 0]), 2**31, 2**32)
        assert (keys >= 0).all()
        assert keys[1] >> 32 == 2**31 - 1 and keys[0] & 0xFFFFFFFF == 2**32 - 1
        stacked_keys = _kernels._edge_keys(np.array([0]), np.array([1]), 2**30, 2**31, 2)
        assert (stacked_keys >> 32).tolist() == [0, 2**30]
        assert (stacked_keys & 0xFFFFFFFF).tolist() == [1, 2**31 + 1]

    @pytest.mark.parametrize("chk,var,m,n,copies", [
        ([2**31], [0], 2**31 + 1, 1, 1),
        ([0], [2**32], 1, 2**32 + 1, 1),
        ([0], [0], 2**30, 1, 3),  # the third copy's check is 2**31
        ([0], [0], 1, 2**31, 3),  # the third copy's variable is 2**32
    ])
    def test_wider_edges_are_refused(self, chk, var, m, n, copies):
        with pytest.raises(ValueError, match=r"2\*\*31.*2\*\*32"):
            _kernels._edge_keys(np.array(chk), np.array(var), m, n, copies)
