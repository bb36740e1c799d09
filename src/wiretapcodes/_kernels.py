"""GF(2) elimination kernels.

The Monte Carlo equivocation estimators compute one GF(2) rank per trial on
matrices with ~10^3 rows and ~10^3..10^4 columns, so the rank kernel is the
single hottest loop in the package.  A numba-jitted kernel is used when
available; a vectorized numpy fallback (about 8-10x slower on the dense
ranks of a 1000-row coset pair) keeps the package functional without it,
with one RuntimeWarning at import.  Set WIRETAPCODES_NO_NUMBA=1 to choose
the fallback silently.  ``BACKEND`` names the rank kernel in use.

Both kernels eliminate in place on bit-packed uint64 words (64 matrix columns
per word, column j stored at bit j % 64 of word j // 64).  The numpy routine
``_eliminate`` serves in two modes: clearing the rows below each pivot (the
rank) or every other row (``rref``, ``nullspace_basis``, ``right_inverse``).
The numba loop kernel only guarantees correct *rank*; its eliminated rows may
hold garbage in word positions left of the current pivot word.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

_ONE = np.uint64(1)


def _eliminate(words: np.ndarray, ncols: int, clear_above: bool) -> list[int]:
    """In-place (reduced, with ``clear_above``) row echelon form over the
    first ``ncols`` columns; whole rows are XORed.  Returns pivot columns."""
    rows = words.shape[0]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == rows:
            break
        w, b = divmod(c, 64)
        shift = np.uint64(b)
        nz = np.nonzero((words[r:, w] >> shift) & _ONE)[0]
        if nz.size == 0:
            continue
        p = r + nz[0]
        if p != r:
            tmp = words[r].copy()
            words[r] = words[p]
            words[p] = tmp
        idx = r + nz[1:]
        if clear_above:
            idx = np.concatenate((np.nonzero((words[:r, w] >> shift) & _ONE)[0], idx))
        if idx.size:
            words[idx] ^= words[r]
        pivots.append(c)
        r += 1
    return pivots


def _rank_words_numpy(words: np.ndarray, ncols: int) -> int:
    return len(_eliminate(words, ncols, clear_above=False))


def _rank_words_loops(words: np.ndarray, ncols: int) -> int:
    rows, nwords = words.shape
    r = 0
    for c in range(ncols):
        w = c >> 6
        b = np.uint64(c & 63)
        p = -1
        for i in range(r, rows):
            if (words[i, w] >> b) & np.uint64(1):
                p = i
                break
        if p < 0:
            continue
        if p != r:
            for j in range(w, nwords):
                t = words[r, j]
                words[r, j] = words[p, j]
                words[p, j] = t
        for i in range(r + 1, rows):
            if (words[i, w] >> b) & np.uint64(1):
                for j in range(w, nwords):
                    words[i, j] ^= words[r, j]
        r += 1
        if r == rows:
            break
    return r


if os.environ.get("WIRETAPCODES_NO_NUMBA"):
    rank_words = _rank_words_numpy
else:
    try:
        from numba import njit

        rank_words = njit(cache=True, nogil=True)(_rank_words_loops)
    except ImportError:
        warnings.warn(
            "numba is not importable: GF(2) ranks use the numpy kernel "
            "_rank_words_numpy, about 8-10x slower on dense ranks "
            "(WIRETAPCODES_NO_NUMBA=1 chooses it without this warning)",
            RuntimeWarning,
        )
        rank_words = _rank_words_numpy

BACKEND = "numpy" if rank_words is _rank_words_numpy else "numba"
