"""Iterative decoders on the raw check structure of a linear code.

Sum-product decoding runs on ``code.checks`` (the check matrix as
constructed, which for LDPC ensembles is the sparse low-density one, not the
rank-normalized view).

Sums and parities over each check's or each variable's edges run on the
code's check-major layout (:meth:`.LinearCode.check_layout`): slot ``j`` of
every check is one contiguous row, so a per-check sum is a handful of whole
row adds, ``a[0] + a[1] + ...``, and a per-variable sum is one gather
followed by the same adds.  Each segment takes its edges in edge order, as
``np.bincount`` would; bincount starts from ``0.0``, so the two sums differ
at most in the sign of a zero.  Lower-degree checks and variables are
padded with terms that change no sum: a padding variable whose posterior
is +inf, whose psi is 0.0, and a check-to-variable message pinned to 0.0.
One path serves regular, irregular, dense and edgeless check matrices; an
edgeless layout has no rows, and its sums are 0.0.

One sum-product round, with psi(x) = log(tanh(x/2)) = -phi(x):

1. gather the posteriors at the edges, test their syndrome, and subtract
   last round's check-to-variable messages;
2. the signs (``< 0``) and the magnitudes, raised to at least 1e-12;
3. psi of the magnitudes, and its sum over each check;
4. ``ext = min(sum - psi, -1e-12)``, then ``log(tanh(-ext/2))`` by a
   multiply by -0.5, tanh and log: minus each outgoing magnitude;
5. the outgoing sign, by XOR of the float's sign bit where the message is
   positive, that is where its sign and its check's parity agree;
6. the sum of each variable's messages, added to the LLRs.

This is the phi form's round (``max(sum phi - phi, 1e-12)``, then phi of
that times ``1 - 2*flip``) to the bit.  IEEE rounding is symmetric in sign,
so the psi sums and ``sum - psi`` are the negated phi ones bit for bit,
except for the sign of a zero, and a zero is raised to the clip either way;
``-0.5 * -e`` is ``0.5 * e``.  Flipping the sign bit is the multiply by
-1.0 and leaving it the multiply by 1.0, on +-0.0 too: a saturated tanh
gives ``log(1.0) = 0.0``, which the phi form negates to -0.0.  A variable
sum whose terms are all -0.0 is -0.0 where bincount's is 0.0; the LLRs it
is added to have had -0.0 turned into 0.0, so the posterior is bincount's
to the bit as well.
"""

from __future__ import annotations

import numpy as np

from .bitlinalg import _check_count
from .codes import LinearCode

_PHI_CLIP = 1e-12


def _fold_rows(ufunc, a, start):
    """The rows of ``a`` combined top to bottom under ``ufunc``, ``a[0] +
    a[1] + ...`` for ``np.add``; ``start`` everywhere when ``a`` has no
    rows."""
    if not len(a):
        return np.full(a.shape[1], start)
    out = a[0].copy()
    for row in a[1:]:
        ufunc(out, row, out=out)
    return out


def _log_tanh(x, scale):
    """log(tanh(scale * x)), in place."""
    np.multiply(x, scale, out=x)
    np.tanh(x, out=x)
    return np.log(x, out=x)


def bp_decode_awgn(code: LinearCode, llrs, max_iters: int) -> tuple[np.ndarray, bool]:
    """Log-domain sum-product decoding with a flooding schedule.

    ``llrs`` are channel log-likelihood ratios (positive favours bit 0).
    The hard decision of the current posterior is tested before every
    message-passing round, so noiseless inputs succeed after zero
    iterations.  Success requires a zero syndrome with no zero-LLR
    (undecidable) posterior; deterministic given its inputs.
    """
    max_iters = _check_count(max_iters, "max_iters", 0)
    posterior, ok, _ = _sum_product(code, llrs, max_iters)
    return (posterior < 0).astype(np.uint8), ok


def _sum_product(code: LinearCode, llrs, max_iters: int) -> tuple[np.ndarray, bool, int]:
    """:func:`bp_decode_awgn` with its soft output: ``(posterior, ok,
    rounds)``, ``rounds`` the message-passing rounds run, 0 when the channel
    LLRs already decode and ``max_iters`` when decoding fails."""
    llr = np.asarray(llrs, dtype=np.float64)
    if llr.shape != (code.n,):
        raise ValueError(f"expected {code.n} LLRs, got {llr.shape}")
    slot_var, var_slots = code.check_layout()
    n = code.n

    # The padding variable n has posterior +inf, so its messages to the
    # checks have psi 0.0 and a positive sign; column m's messages, which
    # the variables' padding reads, are zeroed.  Padding adds to no sum.
    posterior = np.append(llr, np.inf)
    # llr + 0.0 turns -0.0 into 0.0, as adding a sum that starts from 0.0
    # would; every other LLR is unchanged
    llr = posterior + 0.0
    msg_cv = None
    for it in range(max_iters + 1):
        at_edges = np.take(posterior, slot_var)
        # posteriors below the clip scale carry no information (e.g. all-zero
        # channel LLRs); refuse to call those decisions a success
        ok = not _fold_rows(np.bitwise_xor, at_edges < 0, False).any() and bool(
            np.all(np.abs(posterior) >= 1e-9)
        )
        if ok or it == max_iters:
            return posterior[:n], ok, it
        msg_vc = at_edges if msg_cv is None else np.subtract(at_edges, msg_cv, out=at_edges)

        # Check-to-variable update via psi(x) = log(tanh(x/2)) = -phi(x).
        neg = msg_vc < 0
        mag = np.abs(msg_vc, out=msg_vc)
        np.maximum(mag, _PHI_CLIP, out=mag)
        psi = _log_tanh(mag, 0.5)
        ext = np.subtract(_fold_rows(np.add, psi, 0.0), psi, out=psi)
        np.minimum(ext, -_PHI_CLIP, out=ext)
        # log(tanh(-ext/2)) = -|message|: flip the sign bit where the message
        # is positive, where the check's other edges have an even parity
        msg_cv = _log_tanh(ext, -0.5)
        positive = np.equal(neg, _fold_rows(np.bitwise_xor, neg, False))
        np.bitwise_xor(msg_cv.view(np.uint64), np.left_shift(positive, 63, dtype=np.uint64),
                       out=msg_cv.view(np.uint64))
        msg_cv[:, -1] = 0.0

        posterior = _fold_rows(np.add, np.take(msg_cv, var_slots), 0.0)
        np.add(llr, posterior, out=posterior)
