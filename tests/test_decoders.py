"""The decoders on the check-major layout against flat-edge references.

The references below are the decoders as they were written on the row-major
edge lists, with one ``np.bincount`` per segment sum.  The layout's sums add
the same terms in the same order from the same ``0.0``, so every case here
must agree bit for bit: the posterior LLRs (so the hard decision), the
success flag and the number of sum-product rounds.
"""

import numpy as np
import pytest

from wiretapcodes import codes, decoders
from wiretapcodes.bitlinalg import BitMatrix
from wiretapcodes.channels import awgn_llr, bec_transmit, biawgn_transmit, modulate


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


def reference_peeling(code, z):
    edge_chk, edge_var = code.edge_lists()
    bits = (z < 0).astype(np.int8)
    unknown = z == 0
    for chk, var in decoders._peel_edges(edge_chk, edge_var, code.checks.rows, unknown)[0]:
        var, first = np.unique(var, return_index=True)
        bits[var] = check_parity(code, bits)[chk[first]]
    success = not unknown.any() and not check_parity(code, bits).any()
    bits[unknown] = decoders.ERASED_BIT
    return bits, success


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
    d, dv = irregular.checks.row_weights().max(), irregular.checks.column_weights().max()
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


def test_peeling_matches_reference_on_padded_layouts():
    rng = np.random.default_rng(8)
    for code in (irregular_code(), codes.dual(codes.regular_ldpc(60, 3, 6, seed=2)),
                 codes.regular_ldpc(120, 3, 6, seed=2)):
        for eps in (0.1, 0.3, 0.5):
            for _ in range(10):
                word = rng.integers(0, 2, code.n, dtype=np.uint8)
                z = bec_transmit(modulate(word), eps, rng)
                got, ok = decoders.peeling_decode_bec(code, z)
                want, want_ok = reference_peeling(code, z)
                assert np.array_equal(got, want) and ok == want_ok
