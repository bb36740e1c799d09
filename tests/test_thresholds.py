import math

import numpy as np
import pytest

from wiretapcodes import channels, codes, decoders, thresholds
from wiretapcodes.channels import BEC, BIAWGN, BSC
from wiretapcodes.codes import DegreeDistribution


def de_threshold_oracle(lam, rho, tol=1e-6, iters=20_000):
    """Independent fixed-point bisection oracle on x = eps*lam(1 - rho(1-x))."""

    def residual(eps):
        x = eps
        for _ in range(iters):
            x_next = eps * lam(1 - rho(1 - x))
            if abs(x_next - x) < 1e-10:
                break
            x = x_next
        return x

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if residual(mid) < tol:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


REGULAR_36 = DegreeDistribution.regular(3, 6)


class TestDeResidual:
    def test_zero_channel(self):
        assert thresholds.de_residual(0.0, REGULAR_36) == 0.0

    def test_full_erasure_sticks(self):
        assert thresholds.de_residual(1.0, REGULAR_36) > 0.5

    def test_below_and_above_threshold(self):
        assert thresholds.de_residual(0.42, REGULAR_36) < 1e-6
        assert thresholds.de_residual(0.44, REGULAR_36) > 0.1

    def test_monotone_in_eps(self):
        grid = np.linspace(0.0, 1.0, 41)
        vals = [thresholds.de_residual(float(e), REGULAR_36) for e in grid]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def generator_sum_polynomials(dd):
    """lam and rho as generator sums over the degree dicts (the reference
    formula the precomputed terms must reproduce bit for bit)."""

    def lam(x):
        return sum(f * x ** (d - 1) for d, f in dd.var_edge.items())

    def rho(x):
        return sum(f * x ** (d - 1) for d, f in dd.chk_edge.items())

    return lam, rho


def reference_de_residual(eps, lam, rho):
    x = eps
    for _ in range(thresholds.DE_MAX_ITER):
        x_next = eps * lam(1.0 - rho(1.0 - x))
        if abs(x_next - x) < thresholds.DE_TOL:
            return x_next
        x = x_next
    return x


class TestPolynomialTerms:
    @pytest.mark.parametrize("dd", [
        REGULAR_36,
        DegreeDistribution.regular(4, 6),
        DegreeDistribution.regular(2, 4),
        DegreeDistribution({2: 0.3, 3: 0.45, 7: 0.25}, {5: 0.4, 6: 0.6}),
    ], ids=["3,6", "4,6", "2,4", "irregular"])
    def test_bit_identical_to_generator_sums(self, dd):
        lam, rho = generator_sum_polynomials(dd)
        xs = [float(x) for x in np.linspace(0.0, 1.0, 201)] + [1 / 3, 0.4294, 1e-300]
        assert [dd.lam(x) for x in xs] == [lam(x) for x in xs]
        assert [dd.rho(x) for x in xs] == [rho(x) for x in xs]
        eps = [float(e) for e in np.linspace(0.0, 1.0, 401)]
        got = [thresholds.de_residual(e, dd) for e in eps]
        assert got == [reference_de_residual(e, lam, rho) for e in eps]


class TestBecBpThreshold:
    def test_regular_36(self):
        res = thresholds.bec_bp_threshold(REGULAR_36)
        assert res.value == pytest.approx(0.4294, abs=5e-4)
        assert res.bracket[1] - res.bracket[0] <= 1e-4
        assert res.bracket[0] <= res.value <= res.bracket[1]
        assert res.method == "DE-bisection"

    def test_regular_46(self):
        res = thresholds.bec_bp_threshold(DegreeDistribution.regular(4, 6))
        assert 0.49 <= res.value <= 0.53

    def test_agrees_with_oracle(self):
        oracle = de_threshold_oracle(lambda x: x**2, lambda x: x**5)
        res = thresholds.bec_bp_threshold(REGULAR_36)
        assert res.value == pytest.approx(oracle, abs=5e-4)

    def test_cycle_code_root(self):
        # lam(x) = x: the recursion linearizes to eps*(dc-1)*x near zero, so
        # the threshold is 1/(dc-1); finite stopping tolerances bite a little
        # early on this slowly contracting family.
        res = thresholds.bec_bp_threshold(DegreeDistribution({2: 1.0}, {3: 1.0}))
        assert res.value == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize(
        "dd",
        [
            REGULAR_36,
            DegreeDistribution.regular(4, 6),
            DegreeDistribution.regular(3, 4),
            DegreeDistribution({2: 0.4, 3: 0.6}, {6: 1.0}),
        ],
    )
    def test_shannon_bound(self, dd):
        res = thresholds.bec_bp_threshold(dd)
        assert res.value <= 1 - dd.design_rate + 1e-3

    def test_bracket_separates_convergence(self):
        res = thresholds.bec_bp_threshold(REGULAR_36)
        lo, hi = res.bracket
        assert thresholds.de_residual(lo, REGULAR_36) < 1e-6
        assert thresholds.de_residual(hi, REGULAR_36) >= 1e-6

    def test_tolerance_ordering_enforced(self):
        with pytest.raises(ValueError, match="exceed"):
            thresholds.bec_bp_threshold(REGULAR_36, tol=1e-9)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # a NaN tol used to pass the ordering check and report 3.05e-05
        with pytest.raises(ValueError, match="finite"):
            thresholds.bec_bp_threshold(REGULAR_36, tol=tol)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = thresholds.wilson_interval(5, 100)
        assert lo <= 0.05 <= hi

    def test_zero_successes(self):
        lo, hi = thresholds.wilson_interval(0, 200)
        assert lo == 0.0 and 0 < hi < 0.03

    def test_input_validation(self):
        with pytest.raises(ValueError):
            thresholds.wilson_interval(5, 0)


class TestEmpiricalBpThreshold:
    def test_high_snr_always_decodes(self):
        code = codes.regular_ldpc(510, 3, 6, seed=1)
        rng = np.random.default_rng(0)
        res = thresholds.empirical_bp_threshold_awgn(code, [5.0], 100, 0.01, rng)
        assert res.value == 5.0
        assert res.detail["wer"] == 0.0

    def test_zero_snr_never_decodes(self):
        code = codes.regular_ldpc(510, 3, 6, seed=1)
        rng = np.random.default_rng(0)
        res = thresholds.empirical_bp_threshold_awgn(code, [0.0], 100, 0.5, rng)
        assert res.value is None
        assert "above grid" in res.method

    def test_reproducible_across_seeds(self):
        # estimates from disjoint seeds agree within the union of their brackets
        code = codes.regular_ldpc(1026, 3, 6, seed=3)
        grid = [0.45, 0.65, 0.8, 1.0]
        results = []
        for seed in (101, 202):
            rng = np.random.default_rng(seed)
            results.append(
                thresholds.empirical_bp_threshold_awgn(code, grid, 150, 0.3, rng, max_iters=100)
            )
        a, b = results
        assert a.value is not None and b.value is not None
        union_lo = min(a.bracket[0], b.bracket[0])
        union_hi = max(a.bracket[1], b.bracket[1])
        assert union_lo <= a.value <= union_hi
        assert union_lo <= b.value <= union_hi

    def test_grid_must_ascend(self):
        code = codes.regular_ldpc(510, 3, 6, seed=1)
        with pytest.raises(ValueError, match="ascending"):
            thresholds.empirical_bp_threshold_awgn(
                code, [1.0, 0.5], 100, 0.1, np.random.default_rng(0)
            )

    def test_empty_grid_rejected_before_any_decode(self):
        code = codes.regular_ldpc(510, 3, 6, seed=1)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="nonempty"):
            thresholds.empirical_bp_threshold_awgn(code, [], 100, 0.1, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("target", [math.nan, -0.1, 1.5])
    def test_target_outside_unit_interval_rejected_before_any_decode(self, target):
        # a NaN target used to decode every grid point and report none
        code = codes.regular_ldpc(510, 3, 6, seed=1)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            thresholds.empirical_bp_threshold_awgn(code, [1.0], 100, target, rng)
        assert rng.bit_generator.state == before

    def test_minimum_trials(self):
        code = codes.regular_ldpc(510, 3, 6, seed=1)
        with pytest.raises(ValueError, match="100"):
            thresholds.empirical_bp_threshold_awgn(
                code, [1.0], 50, 0.1, np.random.default_rng(0)
            )


def reference_scan(code, snr_grid, trials, target_wer, rng, max_iters):
    """The empirical threshold scan decoding every trial of every grid point
    it reaches.  Returns the result, without the decode counts, and the
    decodes a scan that stops once a point's errors so far reject it would
    run at each point: up to the trial whose error first makes
    ``errors / trials > target_wer``, or all of them."""
    x = channels.modulate(np.zeros(code.n, dtype=np.uint8))
    prev, needed = snr_grid[0], []
    for snr in snr_grid:
        errors, needed_here = 0, trials
        for t in range(trials):
            z = channels.biawgn_transmit(x, snr, rng)
            bits, ok = decoders.bp_decode_awgn(code, channels.awgn_llr(z, snr), max_iters)
            if not ok or bits.any():
                errors += 1
                if errors / trials > target_wer and needed_here == trials:
                    needed_here = t + 1
        needed.append(needed_here)
        wer = errors / trials
        if wer <= target_wer:
            detail = {"trials": trials, "target_wer": target_wer, "wer": wer,
                      "wer_wilson": thresholds.wilson_interval(errors, trials),
                      "max_iters": max_iters}
            return thresholds.ThresholdResult(snr, (prev, snr), "empirical-BP", detail), needed
        prev = snr
    detail = {"trials": trials, "target_wer": target_wer}
    result = thresholds.ThresholdResult(None, (snr_grid[-1], math.inf),
                                        "empirical-BP (above grid)", detail)
    return result, needed


@pytest.fixture(scope="module")
def small_code():
    # word errors at 100 trials and 20 rounds, seed 0: 100 at snr 0.3, 74
    # at 0.6, 6 at 0.9, none from 1.2
    return codes.regular_ldpc(204, 3, 6, seed=1)


def assert_scan_matches_reference(code, grid, target_wer, seed, trials=100, max_iters=20):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = thresholds.empirical_bp_threshold_awgn(code, grid, trials, target_wer, got_rng, max_iters)
    want, needed = reference_scan(code, grid, trials, target_wer, want_rng, max_iters)
    run, skipped = got.detail.pop("decodes_run"), got.detail.pop("decodes_skipped")
    assert got == want
    assert run == needed and skipped == [trials - r for r in run]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.random() == want_rng.random()
    return got, run


class TestScanStopsDecodingRejectedPoints:
    def test_accepted_at_the_first_point(self, small_code):
        res, run = assert_scan_matches_reference(small_code, [1.2, 2.0], 0.05, 0)
        assert res.value == 1.2 and run == [100]

    def test_accepted_at_a_later_point(self, small_code):
        res, run = assert_scan_matches_reference(small_code, [0.3, 0.6, 0.9, 1.2], 0.05, 0)
        assert res.value is not None and res.value > 0.3
        assert run[0] == 6 and run[-1] == 100

    def test_exhausted_above_the_grid(self, small_code):
        res, run = assert_scan_matches_reference(small_code, [0.0, 0.3, 0.6], 0.1, 0)
        assert res.value is None and run[:2] == [11, 11]

    def test_target_zero_stops_at_the_first_error(self, small_code):
        res, run = assert_scan_matches_reference(small_code, [0.6, 0.9, 1.2, 2.0], 0.0, 0)
        assert res.value is not None and res.detail["wer"] == 0.0
        assert all(r < 100 for r in run[:-1]) and run[-1] == 100

    def test_target_one_decodes_every_trial_of_the_first_point(self, small_code):
        res, run = assert_scan_matches_reference(small_code, [0.0, 0.3], 1.0, 0)
        assert (res.value, res.detail["wer"], run) == (0.0, 1.0, [100])

    def test_error_count_exactly_on_the_bound(self, small_code):
        # at snr 0.9 some but not all trials fail; a target of exactly
        # errors/trials accepts the point after decoding every trial, one
        # error fewer rejects it at its last error
        errors, trials = thresholds.bp_word_error_rate(
            small_code, 0.9, 100, np.random.default_rng(5), 20)
        assert 0 < errors < trials
        res, run = assert_scan_matches_reference(small_code, [0.9], errors / trials, 5)
        assert res.detail["wer"] == errors / trials and run == [100]
        res, run = assert_scan_matches_reference(small_code, [0.9], (errors - 1) / trials, 5)
        assert res.value is None and run[0] < 100


class TestWordErrorRate:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_positive_trial_count(self, small_code, trials):
        # 0 trials used to return (0, 0), a 0/0 rate, and -1 returned (0, -1)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            thresholds.bp_word_error_rate(small_code, 1.0, trials, rng, 20)
        assert rng.bit_generator.state == before


class TestSecrecyCondition:
    def test_bec_example(self):
        ok, margin = thresholds.check_secrecy_condition(BEC(0.6), 0.4294)
        assert ok and margin == pytest.approx(0.0294, abs=1e-6)

    def test_awgn_borderline_operating_point(self):
        # 2Q(sqrt(2*0.465)) = 0.33486 rounds to the advertised 0.335 but sits
        # 7e-5 short of 1 - 0.665 in exact arithmetic; the strict check says
        # so instead of rounding in the condition's favour.
        ok, margin = thresholds.check_secrecy_condition(BIAWGN(0.465), 0.665)
        assert margin == pytest.approx(0.0, abs=1.5e-4)
        assert ok == (margin >= 0.0) and not ok

    def test_awgn_satisfied_nearby(self):
        ok, margin = thresholds.check_secrecy_condition(BIAWGN(0.46), 0.665)
        assert ok and 0 < margin < 2e-3

    def test_bsc_failure(self):
        ok, margin = thresholds.check_secrecy_condition(BSC(0.1), 0.5)
        assert not ok and margin == pytest.approx(-0.15)

    @pytest.mark.parametrize("delta", [0.3, 0.4294, 0.665, 0.9])
    def test_margins_in_units_of_the_error_probability(self, delta):
        # exactly the per-channel formulas, to the last bit
        for snr in (0.05, 0.3, 0.465, 1.2):
            q_tail = float(channels.q_function(math.sqrt(2.0 * snr)))
            _, margin = thresholds.check_secrecy_condition(BIAWGN(snr), delta)
            assert margin == q_tail - (1.0 - delta) / 2.0
        for q in (0.0, 0.1, 0.2, 0.37, 0.5):
            _, margin = thresholds.check_secrecy_condition(BSC(q), delta)
            assert margin == q - (1.0 - delta) / 2.0
        for eps in (0.0, 0.3, 0.6, 1.0):
            _, margin = thresholds.check_secrecy_condition(BEC(eps), delta)
            assert margin == eps - (1.0 - delta)

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            thresholds.check_secrecy_condition(BEC(0.5), 1.5)
