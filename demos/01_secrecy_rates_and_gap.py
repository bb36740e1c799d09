"""Secrecy capacities versus the coset-construction rate.

For an AWGN eavesdropper with SNR lambda, the best possible equivocation
rate is 1 - C_biawgn(lambda), while nesting the dual of a capacity-achieving
erasure code achieves perfect secrecy at rate 2*Q(sqrt(2*lambda)).  This
script tabulates both across SNR along with the gap between them, and prints
the two operating points that recur throughout the test suite:
lambda = 0.302 (rate-1/3 good code) and lambda = 0.465 (borderline
degradation point, erasure rate 0.335).
"""

from wiretapcodes import BIAWGN, c_biawgn, secrecy_gap

print(f"{'snr':>6} {'C_biawgn':>10} {'Cs':>8} {'coset rate':>11} {'gap':>8}")
for snr in [0.1, 0.2, 0.302, 0.32, 0.465, 0.6, 0.8, 1.0, 1.5, 2.0]:
    ch = BIAWGN(snr)
    c, cs, rate = ch.capacity, ch.secrecy_capacity, ch.erasure_rate
    print(f"{snr:6.3f} {c:10.4f} {cs:8.4f} {rate:11.4f} {secrecy_gap(snr):8.4f}")

print()
print("operating point snr = 0.302:")
print(f"  equivocation ceiling 1 - C = {1 - c_biawgn(0.302):.4f}  (a rate-1/3 coarse")
print("  code transmits at R = 2/3, so the secrecy shortfall is below 0.004)")
print()
print("operating point snr = 0.465:")
print(f"  embedded-BEC erasure rate 2Q(sqrt(2*snr)) = {BIAWGN(0.465).erasure_rate:.4f}")
print("  which is what a dual-of-(4,6)-LDPC construction needs to hide a")
print("  rate-1/3 message perfectly (see demo 05).")
