"""The BEC hiding inside the AWGN and BSC eavesdropper channels.

Each degraded sampler draws the direct channel's output z and erases the
input symbol x with probability min(1, p(z | -x) / p(z | x)).  The erased
or kept symbol z' is then a BEC(2*Q(sqrt(2*snr))) output on AWGN and a
BEC(2q) output on the BSC(q), and z given z' follows the closed-form
conditional densities whatever x was.  The script checks the mixture
identity of those densities on a dense grid, then tests the samples
against them and against each other.
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
zprime, z = channels.awgn_degraded_transmit(x, snr, rng)
print(f"observed erasure fraction {np.mean(zprime == 0):.4f} (expected {eps:.4f})")
print(f"unerased outputs always carry the BEC symbol's sign: "
      f"{bool(np.all(z[zprime == 1] >= 0) and np.all(z[zprime == -1] <= 0))}")


def kept_cdf(t):
    # CDF of f(z | z'=+1): (g+ - g-) / (1 - eps) on z >= 0
    t = np.maximum(t, 0.0)
    phi = stats.norm.cdf
    return (phi(t - mu) - phi(-mu) - phi(t + mu) + phi(mu)) / (1 - eps)


def erased_cdf(t):
    # CDF of f(z | z'=0): min(g+, g-) / eps, two folded Gaussian tails
    tail = stats.norm.cdf(-np.abs(t) - mu) / eps
    return np.where(t < 0, tail, 1 - tail)


kept = np.concatenate([z[zprime == 1], -z[zprime == -1]])
print(f"KS of z | z'=+-1 against its closed-form CDF: "
      f"p = {stats.kstest(kept, kept_cdf).pvalue:.3f}")
print(f"KS of z | z'=0 against the folded-tail CDF: "
      f"p = {stats.kstest(z[zprime == 0], erased_cdf).pvalue:.3f}")
erased_by_input = []
for bit in (0, 1):
    x_fixed = channels.modulate(np.full(n, bit, dtype=np.uint8))
    zp_x, z_x = channels.awgn_degraded_transmit(x_fixed, snr, rng)
    erased_by_input.append(z_x[zp_x == 0])
print(f"two-sample KS of z | z'=0 for x=+1 against x=-1: "
      f"p = {stats.ks_2samp(*erased_by_input).pvalue:.3f}")

print()
q = 0.2
bits = rng.integers(0, 2, size=n, dtype=np.uint8)
zp_bsc, z_bsc = channels.bsc_degraded_transmit(bits, q, rng)
erased_bsc = zp_bsc == 0
print(f"BSC(q={q}) decomposition: erasure fraction {np.mean(erased_bsc):.4f} "
      f"(expected {2 * q}), flip rate {np.mean(z_bsc != bits):.4f} (expected {q})")
print(f"erased bits flipped: {np.mean(z_bsc[erased_bsc] != bits[erased_bsc]):.4f} (expected 0.5); "
      f"unerased bits pass unchanged: {bool(np.all(z_bsc[~erased_bsc] == bits[~erased_bsc]))}")
