"""Equivocation of a dual-LDPC coset code, measured three ways.

Coarse code: the dual of a (3,6)-regular LDPC code of length 2000, so the
message rate is about 1/2.  The script sweeps a BEC eavesdropper across its
erasure rate and watches the per-use equivocation climb to the full message
rate once the erasure rate crosses 1 - 0.4294 (the code's BP threshold);
it then reads the same curve through the AWGN and BSC degradations, and
finishes with a Fano-based bound for the complementary construction where
the coarse code is the LDPC code itself.
"""

import numpy as np

from wiretapcodes import (
    BEC,
    BIAWGN,
    BSC,
    bec_bp_threshold,
    check_secrecy_condition,
    dual,
    nested_pair_from_coarse,
    regular_ldpc,
)
from wiretapcodes import secrecy

rng_seed = 99
trials = 400

code = regular_ldpc(2000, 3, 6, seed=11)
pair = nested_pair_from_coarse(dual(code))
delta = bec_bp_threshold(code.degree_distribution()).value
print(f"dual pair: n = {pair.n}, message rate {pair.rate:.4f}; "
      f"base-code BP threshold {delta:.4f} -> needs erasure rate >= {1 - delta:.4f}")

print(f"\nBEC sweep ({trials} trials per point):")
print(f"{'eps':>6} {'Re':>9} {'+-':>8} {'condition ok':>13} {'margin':>9}")
for eps in [0.30, 0.45, 0.55, 0.60, 0.70, 0.85, 1.00]:
    est = secrecy.mc_equivocation_bec(pair, eps, trials, np.random.default_rng((rng_seed, 1)))
    ok, margin = check_secrecy_condition(BEC(eps), delta)
    print(f"{eps:6.2f} {est.value:9.4f} {est.half_width:8.4f} {str(ok):>13} {margin:9.4f}")

print("\nsame estimator through the degradations (lower bounds):")
snr = 0.18
est = secrecy.equivocation_lb(pair, BIAWGN(snr), trials, np.random.default_rng((rng_seed, 2)))
ok, margin = check_secrecy_condition(BIAWGN(snr), delta)
print(f"  AWGN snr={snr}: Re >= {est.value:.4f} +- {est.half_width:.4f} "
      f"(condition ok={ok}, margin {margin:+.4f})")
q = 0.3
est = secrecy.equivocation_lb(pair, BSC(q), trials, np.random.default_rng((rng_seed, 3)))
ok, margin = check_secrecy_condition(BSC(q), delta)
print(f"  BSC  q={q}:   Re >= {est.value:.4f} +- {est.half_width:.4f} "
      f"(condition ok={ok}, margin {margin:+.4f})")

print("\ncoarse code = the LDPC code itself (Fano route, eavesdropper decodes")
print("inside the known coset):")
good_pair = nested_pair_from_coarse(code)
for snr in (0.9, 1.5):
    est = secrecy.approach1_equivocation_bound(
        good_pair, snr, trials=100, max_bp_iters=100, rng=np.random.default_rng((rng_seed, 4))
    )
    print(f"  snr={snr}: Re >= {est.value:.4f} "
          f"(decoder word-error rate {est.detail['word_error_rate']:.3f}, "
          f"rate {good_pair.rate:.3f})")
