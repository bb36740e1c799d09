"""End-to-end acceptance checks, one per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings.  Slow Monte Carlo criteria state their runtime
budget and are asserted against it.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from wiretapcodes import capacity, channels, cli, codes, secrecy, thresholds
from wiretapcodes.bitlinalg import BitMatrix


def report(number: int, started: float, message: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number:2d} PASS ({elapsed:7.2f}s): {message}")


def c_biawgn_oracle(snr: float) -> float:
    s = math.sqrt(snr)

    def f(y):
        return math.exp(-((y - s) ** 2)) * np.logaddexp(0.0, -4.0 * y * s) / math.log(2.0)

    val, _ = integrate.quad(f, s - 12, s + 12, limit=200, epsabs=1e-12, epsrel=1e-12)
    return 1.0 - val / math.sqrt(math.pi)


def test_criterion_01_capacity_reproduction():
    t0 = time.perf_counter()
    value = 1.0 - capacity.c_biawgn(0.302)
    elapsed = time.perf_counter() - t0
    assert value == pytest.approx(0.663, abs=0.001)
    assert elapsed < 1.0
    report(1, t0, f"1 - c_biawgn(0.302) = {value:.6f} within 0.663 +- 0.001")


def test_criterion_02_degradation_constant():
    t0 = time.perf_counter()
    value = 2.0 * float(capacity.q_function(math.sqrt(2.0 * 0.465)))
    assert value == pytest.approx(0.335, abs=0.001)
    report(2, t0, f"2Q(sqrt(2*0.465)) = {value:.6f} within 0.335 +- 0.001")


def test_criterion_03_gap_claim():
    t0 = time.perf_counter()
    gap = 1.0 - capacity.c_biawgn(0.302) - (1.0 - 1.0 / 3.0)
    assert gap <= 0.004
    assert abs(gap) <= 0.004
    report(3, t0, f"rate/equivocation gap at the example point = {abs(gap):.6f} <= 0.004")


def test_criterion_04_mixture_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for snr in (0.302, 0.465, 1.0):
        eps = channels.erasure_rate_for_snr(snr)
        mu = channels.signal_amplitude(snr)
        zs = np.linspace(-6 * mu - 6, 6 * mu + 6, 2000)
        for x in (+1, -1):
            mix = (1 - eps) * channels.degraded_conditional_density(zs, x, snr)
            mix = mix + eps * channels.degraded_conditional_density(zs, 0, snr)
            worst = max(worst, float(np.max(np.abs(mix - channels.biawgn_density(zs, x, snr)))))
    assert worst <= 1e-12
    assert time.perf_counter() - t0 < 1.0
    report(4, t0, f"max |mixture - direct density| = {worst:.2e} <= 1e-12")


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    patterns_checked = 0
    for _ in range(20):
        n = int(rng.integers(1, 11))
        rows = int(rng.integers(0, n + 1))
        h = BitMatrix.from_dense(rng.integers(0, 2, size=(rows, n), dtype=np.uint8))
        pair = codes.nested_pair_from_coarse(codes.from_parity_check(h))
        table = secrecy.brute_force_equivocation_bec(pair, 0.5)
        for pattern in range(1 << n):
            erased = [i for i in range(n) if (pattern >> i) & 1]
            rank_bits = secrecy.exact_equivocation_bec(pair, erased)
            assert table.per_pattern[pattern] == rank_bits
            patterns_checked += 1
    assert time.perf_counter() - t0 < 120.0
    report(5, t0, f"rank = brute-force entropy on {patterns_checked} patterns, 20 codes")


def test_criterion_06_bec_threshold():
    t0 = time.perf_counter()
    res = thresholds.bec_bp_threshold(codes.DegreeDistribution.regular(3, 6))
    assert 0.4289 <= res.value <= 0.4299

    # independent fixed-point iteration oracle on x = eps * (1 - (1-x)^5)^2
    def residual(eps):
        x = eps
        for _ in range(20_000):
            x_next = eps * (1 - (1 - x) ** 5) ** 2
            if abs(x_next - x) < 1e-10:
                break
            x = x_next
        return x

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if residual(mid) < 1e-6:
            lo = mid
        else:
            hi = mid
    assert res.value == pytest.approx(0.5 * (lo + hi), abs=5e-4)
    assert time.perf_counter() - t0 < 5.0
    report(6, t0, f"(3,6) BEC threshold = {res.value:.5f} in [0.4289, 0.4299], oracle agrees")


def test_criterion_07_finite_length_perfect_secrecy():
    t0 = time.perf_counter()
    code = codes.regular_ldpc(2000, 3, 6, seed=101)
    pair = codes.nested_pair_from_coarse(codes.dual(code))
    assert pair.rate >= 0.5  # true coarse rate can only beat the design rate

    t_hot = time.perf_counter()
    hot = secrecy.mc_equivocation_bec(pair, 0.60, 10_000, np.random.default_rng(1))
    t_cold = time.perf_counter()
    cold = secrecy.mc_equivocation_bec(pair, 0.30, 10_000, np.random.default_rng(2))
    t_end = time.perf_counter()
    assert hot.value >= 0.49
    assert cold.value <= 0.35
    assert time.perf_counter() - t0 < 300.0
    report(
        7,
        t0,
        f"(3,6)-dual n=2000: Re(eps=0.60) = {hot.value:.4f} >= 0.49, "
        f"Re(eps=0.30) = {cold.value:.4f} <= 0.35 (1e4 trials each; "
        f"legs {t_cold - t_hot:.1f}s + {t_end - t_cold:.1f}s)",
    )


def test_criterion_08_bsc_rate_improvement():
    t0 = time.perf_counter()
    qs = np.linspace(0.01, 0.5, 50)
    for q in qs:
        rate = 2.0 * q
        assert rate >= capacity.thangaraj_baseline(float(q)) - 1e-12
        assert rate <= float(capacity.binary_entropy(float(q))) + 1e-12
    report(8, t0, "2q >= -log2(1-q) and 2q <= h(q) on all 50 grid points")


def test_criterion_09_region_structure():
    t0 = time.perf_counter()
    snr, r1 = 0.32, 1.0 / 3.0
    achievable = capacity.achievable_region(snr, r1)
    outer = capacity.capacity_equivocation_region(snr)

    r_dual = channels.BIAWGN(snr).erasure_rate
    assert r_dual == pytest.approx(0.4237, abs=5e-4)
    cap_value = c_biawgn_oracle(snr)
    expected = {
        (0.0, 0.0),
        (round(r_dual, 6), round(r_dual, 6)),
        (round(1 - r1, 6), round(1 - cap_value, 6)),
        (1.0, round(1 - cap_value, 6)),
        (1.0, 0.0),
    }
    got = {(round(v.rate, 6), round(v.equivocation, 6)) for v in achievable.vertices}
    assert got == expected
    assert outer.contains_polygon(achievable)
    assert time.perf_counter() - t0 < 1.0
    report(9, t0, f"five-corner region matches (rate corner {r_dual:.4f}); containment holds")


def test_criterion_10_fano_pipeline():
    t0 = time.perf_counter()
    # (4,6) needs 3 | n, so 10^4 rounds up to the nearest valid length
    n = 10_002
    code = codes.regular_ldpc(n, 4, 6, seed=8)
    pair = codes.nested_pair_from_coarse(code)
    t_built = time.perf_counter()

    scan = thresholds.empirical_bp_threshold_awgn(
        code,
        [0.44, 0.48, 0.52, 0.56, 0.60],
        trials=100,
        target_wer=0.05,
        rng=np.random.default_rng(3),
        max_iters=100,
    )
    assert scan.value is not None
    snr = scan.value * 10 ** (0.5 / 10)  # 0.5 dB above the estimate

    est = secrecy.approach1_equivocation_bound(
        pair, snr, trials=400, max_bp_iters=200, rng=np.random.default_rng(4)
    )
    p_hat = est.detail["word_error_rate"]
    assert p_hat <= 0.01

    ceiling = 1.0 - capacity.c_biawgn(snr)
    floor = ceiling - 1.0 / n - 0.01 / 3.0 - est.half_width
    assert floor <= est.value <= ceiling
    t_end = time.perf_counter()
    assert t_end - t0 < 900.0
    report(
        10,
        t0,
        f"BP threshold {scan.value:.2f}, run at snr {snr:.3f}: wer {p_hat:.4f} <= 0.01, "
        f"bound {est.value:.4f} in [{floor:.4f}, {ceiling:.4f}] "
        f"(construction {t_built - t0:.1f}s, decodes {t_end - t_built:.1f}s)",
    )


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.perf_counter()
    args = [
        "simulate", "--estimator", "approach2-awgn", "--ensemble", "3,6", "--n", "240",
        "--grid", "0.3,0.465", "--trials", "300", "--seed", "20260810",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli.main([*args, "--out", str(first)]) == 0
    assert cli.main([*args, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    other = tmp_path / "other.csv"
    assert cli.main([*args[:-1], "99", "--out", str(other)]) == 0
    assert first.read_bytes() != other.read_bytes()
    report(11, t0, "same-seed rerun byte-identical; different seed differs")
