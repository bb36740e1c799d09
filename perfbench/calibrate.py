"""Host-speed calibration of the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU VM the
same operation's median over 15 s ranged from 82 to 158 ms within seven
minutes, with no steal time and with CPU time equal to wall time.  Such
drift moves every wall time of a run alike, and it is slow (minutes), so
longer runs do not average it away.  What does follow it is a fixed piece
of work of the same kind: a reference kernel.

A reference kernel does fixed work on fixed inputs.  Its code is frozen in
this file and imports nothing from the package, so no change to the package
can move it.  The timed loop runs it between operations, outside the
operations' timing, and after every set-up.  Each wall time is then scaled
by ``REFERENCE_S[kernel] / median(kernel times taken next to it)``: it reads
as the time it would have had on a host where the kernel takes
``REFERENCE_S[kernel]`` seconds.  Each workload picks the kernel that does
the same kind of work as its timed operations: ``gf2`` (numpy GF(2)
elimination, the rank workloads) or ``bp`` (numpy sum-product passes, the
BP workload).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Nominal kernel times that define the reference host: round figures of what
# each kernel took on the 2-vCPU VM the benchmark was written on.
REFERENCE_S = {"gf2": 0.016, "bp": 0.010}

# An operation is scaled by the samples taken after it and after the two
# operations on either side: the drift is slow beside one operation, so they
# still measure the same host speed, and five smooth the kernel's jitter.
# Over ten runs each, two on either side spread the tail latency less than
# one, three or more did.
NEIGHBOURS = 2

_GF2_WORDS = np.random.default_rng([0xCA1, 1]).integers(
    0, 2**63, size=(600, 32), dtype=np.uint64
)
_GF2_COLS = 2000

_BP_N, _BP_M, _BP_DV = 10_002, 6_668, 4
_bp_rng = np.random.default_rng([0xCA1, 2])
_BP_VAR = np.repeat(np.arange(_BP_N), _BP_DV)
_BP_CHK = _bp_rng.permutation(_BP_VAR.size) % _BP_M
_BP_LLR = _bp_rng.normal(1.0, 1.5, _BP_N)
_BP_ITERS = 6


def _gf2() -> int:
    """Rank of a fixed 600 x 2000 GF(2) matrix by row elimination on
    bit-packed words, vectorised over rows."""
    words = _GF2_WORDS.copy()
    rows = words.shape[0]
    r = 0
    one = np.uint64(1)
    for c in range(_GF2_COLS):
        if r == rows:
            break
        w, b = divmod(c, 64)
        nz = np.nonzero((words[r:, w] >> np.uint64(b)) & one)[0]
        if nz.size == 0:
            continue
        p = r + nz[0]
        if p != r:
            tmp = words[r].copy()
            words[r] = words[p]
            words[p] = tmp
        idx = r + nz[1:]
        if idx.size:
            words[idx] ^= words[r]
        r += 1
    return r


def _bp() -> float:
    """Fixed sum-product passes over a fixed random Tanner graph with
    40 008 edges, vectorised over edges."""
    msg = _BP_LLR[_BP_VAR].copy()
    for _ in range(_BP_ITERS):
        mag = np.clip(np.abs(msg), 1e-12, None)
        phi = -np.log(np.tanh(0.5 * mag))
        phi_sum = np.bincount(_BP_CHK, weights=phi, minlength=_BP_M)
        neg = msg < 0
        neg_cnt = np.bincount(_BP_CHK, weights=neg, minlength=_BP_M).astype(np.int64)
        ext = np.clip(phi_sum[_BP_CHK] - phi, 1e-12, None)
        msg_cv = (1.0 - 2.0 * ((neg_cnt[_BP_CHK] - neg) & 1)) * -np.log(np.tanh(0.5 * ext))
        posterior = _BP_LLR + np.bincount(_BP_VAR, weights=msg_cv, minlength=_BP_N)
        msg = posterior[_BP_VAR] - msg_cv
    return float(msg.sum())


KERNELS = {"gf2": _gf2, "bp": _bp}


class Calibration:
    """Times one reference kernel and scales wall times by those timings."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.reference_s = REFERENCE_S[kernel]
        self._run = KERNELS[kernel]
        self.result = self._run()  # warm-up; also fixes the expected output

    def sample(self) -> float:
        """One timing of the kernel, in seconds."""
        began = perf_counter()
        result = self._run()
        elapsed = perf_counter() - began
        if result != self.result:
            raise RuntimeError(f"calibration kernel {self.kernel} changed its output")
        return elapsed

    def to_reference(self, times, samples, neighbours: int = NEIGHBOURS) -> list[float]:
        """``times[j]`` scaled by ``reference_s`` over the median of
        ``samples[j - neighbours : j + neighbours + 1]``, where ``samples[j]``
        was taken right after ``times[j]``: the host's speed at that moment."""
        scaled = []
        for j, t in enumerate(times):
            near = samples[max(0, j - neighbours): j + neighbours + 1]
            scaled.append(t * self.reference_s / statistics.median(near))
        return scaled
