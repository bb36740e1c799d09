"""Iterative decoders on the raw check structure of a linear code.

Both decoders run on ``code.checks`` (the check matrix as constructed, which
for LDPC ensembles is the sparse low-density one, not the rank-normalized
view) using flat edge arrays, so a decoding iteration is a handful of
vectorized segment reductions.  The BEC decoder and the exact erasure ranks
of :mod:`.secrecy` share one peeling routine, ``_peel_edges``.
"""

from __future__ import annotations

import numpy as np

from .codes import LinearCode

ERASED_BIT = -1
_PHI_CLIP = 1e-12


def _peel_edges(chk, var, num_checks, unknown):
    """Peel the Tanner graph ``(chk[i], var[i])``: each round resolves every
    variable that is the only ``unknown`` one at some check, clearing it in
    ``unknown`` in place.  Returns ``(rounds, core_chk, core_var)``: per round
    its resolving ``(chk, var)`` edges in edge order, then the core's edges.
    """
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


def _check_parity(edge_chk, edge_var, bits, num_checks) -> np.ndarray:
    """Per check, the parity of the 0/1 ``bits`` of its variables."""
    weights = bits[edge_var].astype(np.float64)
    return np.bincount(edge_chk, weights=weights, minlength=num_checks).astype(np.int64) & 1


def peeling_decode_bec(code: LinearCode, zprime) -> tuple[np.ndarray, bool]:
    """Resolve BEC erasures through degree-one checks.

    ``zprime`` is a +-1/0 symbol vector (0 = erasure).  Each round fills
    every variable seen by a check whose other neighbours are all known;
    unerased positions are never altered.  Returns ``(word, success)`` where
    ``word`` holds bits with -1 at unresolved positions.  ``success`` is
    False when erasures remain or when the known positions violate a
    fully-known check (an inconsistent input is reported, never silently
    completed).
    """
    z = np.asarray(zprime, dtype=np.int8)
    if z.shape != (code.n,):
        raise ValueError(f"expected {code.n} symbols, got {z.shape}")
    edge_chk, edge_var = code.edge_lists()
    start, var_chk = code.variable_checks()
    m = code.checks.rows

    bits = (z < 0).astype(np.int8)  # +1 -> 0, -1 -> 1, and 0 (no parity) while erased
    unknown = z == 0
    parity = _check_parity(edge_chk, edge_var, bits, m)
    for chk, var in _peel_edges(edge_chk, edge_var, m, unknown)[0]:
        # A variable may be forced by several checks at once; take the first
        # listed, any later conflict surfaces as an unsatisfied check below.
        var, first = np.unique(var, return_index=True)
        bits[var] = parity[chk[first]]
        # Each variable set to one flips the parity of its checks.
        ones = var[bits[var] == 1]
        lo, count = start[ones], start[ones + 1] - start[ones]
        edges = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        np.bitwise_xor.at(parity, var_chk[edges], 1)

    success = not unknown.any() and not _check_parity(edge_chk, edge_var, bits, m).any()
    bits[unknown] = ERASED_BIT
    return bits, success


def bp_decode_awgn(
    code: LinearCode, llrs, max_iters: int = 200
) -> tuple[np.ndarray, bool]:
    """Log-domain sum-product decoding with a flooding schedule.

    ``llrs`` are channel log-likelihood ratios (positive favours bit 0).
    The hard decision of the current posterior is tested before every
    message-passing round, so noiseless inputs succeed after zero
    iterations.  Success requires a zero syndrome with no zero-LLR
    (undecidable) posterior; deterministic given its inputs.
    """
    llr = np.asarray(llrs, dtype=np.float64)
    if llr.shape != (code.n,):
        raise ValueError(f"expected {code.n} LLRs, got {llr.shape}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    edge_chk, edge_var = code.edge_lists()
    m = code.checks.rows
    n = code.n

    def decide(posterior):
        bits = (posterior < 0).astype(np.uint8)
        syndrome = _check_parity(edge_chk, edge_var, bits, m)
        # posteriors below the clip scale carry no information (e.g. all-zero
        # channel LLRs); refuse to call those decisions a success
        ok = not syndrome.any() and bool(np.all(np.abs(posterior) >= 1e-9))
        return bits, ok

    bits, ok = decide(llr)
    if ok or max_iters == 0:
        return bits, ok

    msg_vc = llr[edge_var].copy()
    for _ in range(max_iters):
        # Check-to-variable update via the phi transform
        # phi(x) = -log(tanh(x/2)), its own inverse on magnitudes.
        mag = np.abs(msg_vc)
        np.clip(mag, _PHI_CLIP, None, out=mag)
        phi = -np.log(np.tanh(0.5 * mag))
        phi_sum = np.bincount(edge_chk, weights=phi, minlength=m)
        neg = msg_vc < 0
        neg_cnt = np.bincount(edge_chk, weights=neg, minlength=m).astype(np.int64)
        ext = phi_sum[edge_chk] - phi
        np.clip(ext, _PHI_CLIP, None, out=ext)
        out_mag = -np.log(np.tanh(0.5 * ext))
        out_sign = 1.0 - 2.0 * ((neg_cnt[edge_chk] - neg) & 1)
        msg_cv = out_sign * out_mag

        cv_sum = np.bincount(edge_var, weights=msg_cv, minlength=n)
        posterior = llr + cv_sum
        bits, ok = decide(posterior)
        if ok:
            return bits, True
        msg_vc = posterior[edge_var] - msg_cv

    return bits, False
