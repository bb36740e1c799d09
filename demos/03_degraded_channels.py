"""The BEC hiding inside the AWGN and BSC eavesdropper channels.

Erasing a BPSK symbol with probability 2*Q(sqrt(2*snr)) and redrawing the
survivors/victims from the right conditional densities reproduces the AWGN
channel exactly; flipping a fair coin on a BEC(2q) erasure reproduces the
BSC(q).  The script checks the mixture identity on a dense grid, then
verifies by simulation that the composed channels are statistically
indistinguishable from the direct ones.
"""

import numpy as np
from scipy import stats

from wiretapcodes import channels

rng = np.random.default_rng(2024)
snr = 0.465

eps = channels.BIAWGN(snr).erasure_rate
mu = channels.signal_amplitude(snr)
print(f"snr = {snr}: signal amplitude {mu:.4f}, embedded erasure rate {eps:.4f}")

zs = np.linspace(-8, 8, 2000)
worst = 0.0
for x in (+1, -1):
    mix = (1 - eps) * channels.degraded_conditional_density(zs, x, snr)
    mix += eps * channels.degraded_conditional_density(zs, 0, snr)
    worst = max(worst, np.max(np.abs(mix - channels.biawgn_density(zs, x, snr))))
print(f"mixture identity on a 2000-point grid: max deviation {worst:.2e}")

n = 200_000
x = channels.modulate(rng.integers(0, 2, size=n, dtype=np.uint8))
zprime, z_composed = channels.awgn_degraded_transmit(x, snr, rng)
z_direct = channels.biawgn_transmit(x, snr, rng)
ks = stats.ks_2samp(z_composed, z_direct)
print(f"two-sample KS composed vs direct: statistic {ks.statistic:.5f} (p = {ks.pvalue:.3f})")
print(f"observed erasure fraction {np.mean(zprime == 0):.4f} (expected {eps:.4f})")
print(f"unerased outputs always carry the BEC symbol's sign: "
      f"{bool(np.all(z_composed[zprime == 1] >= 0) and np.all(z_composed[zprime == -1] <= 0))}")

print()
q = 0.2
bits = rng.integers(0, 2, size=n, dtype=np.uint8)
zp_bsc, z_bsc = channels.bsc_degraded_transmit(bits, q, rng)
print(f"BSC(q={q}) decomposition: erasure fraction {np.mean(zp_bsc == 0):.4f} "
      f"(expected {2 * q}), composed flip rate {np.mean(z_bsc != bits):.4f} (expected {q})")
