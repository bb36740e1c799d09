"""GF(2) elimination kernels.

The Monte Carlo equivocation estimators compute one GF(2) rank per trial on
matrices with ~10^3 rows and ~10^3..10^4 columns, so the rank kernel is the
single hottest loop in the package.  A numba-jitted kernel is used when
available; a vectorized numpy fallback (about 8-10x slower on the dense
ranks of a 1000-row coset pair) keeps the package functional without it,
with one RuntimeWarning at import.  Set WIRETAPCODES_NO_NUMBA=1 to choose
the fallback silently.  ``BACKEND`` names the rank kernel in use.

Both kernels work on bit-packed uint64 words (64 matrix columns per word,
column j stored at bit j % 64 of word j // 64).  The numpy side has one
routine per job.  Every reduction (a wide rank, ``rref``, ``nullspace_basis``,
``right_inverse``) is ``_eliminate``, the Method of Four Russians (Albrecht,
Bard and Hart, ACM TOMS 2010, the "M4RI" library) at every width: up to
``_BLOCK_PIVOTS`` pivots per word-wide column stripe, every other row fixed
by one gather from the table of their XOR combinations.  Per-pivot over
blocked time, against the per-pivot loop it replaced, on regular-LDPC
checks: 0.80-0.84 at n=240, 0.87-0.95 at n=1000, 1.00-1.12 at n=2000 and
about 4 at n=10002.  Every numpy rank narrower than ``_BLOCKED_MIN_WORDS``
words (each per-trial erasure rank of an n=2000 pair) is an XOR basis keyed
by leading bit, one Python int per row: about rows x rank big-int XORs and
no numpy call per pivot.  Wider ranks count the pivots of ``_eliminate``,
since there the int basis loses (238-251 against 127-153 ms on a dense
2000 x 5000 matrix).  The numba loop kernel only guarantees correct *rank*;
its eliminated rows may hold garbage left of the current pivot word.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

_ONE = np.uint64(1)


# Width rule for ranks: a words array at least this many uint64 words wide is
# ranked by _eliminate, a narrower one on a Python-int XOR basis.
_BLOCKED_MIN_WORDS = 40
# Pivots per block: the table has 2**_BLOCK_PIVOTS rows.
_BLOCK_PIVOTS = 8


def _eliminate(words: np.ndarray, ncols: int, clear_above: bool) -> list[int]:
    """In-place (reduced, with ``clear_above``) row echelon form over the
    first ``ncols`` columns, by blocks of up to ``_BLOCK_PIVOTS`` pivots.
    Returns pivot columns.

    Each block finds its pivots on the one-word stripe of the unreduced
    rows, reduces the pivot rows against each other, and then fixes every
    other row with one gather from the table of all XOR combinations of the
    pivot rows.  Rows at and below ``r`` are zero left of the current
    column, so only words from the stripe onward are XORed.
    """
    rows = words.shape[0]
    pivots: list[int] = []
    r = 0
    c = 0
    while c < ncols and r < rows:
        w, b = divmod(c, 64)
        end = min(ncols - 64 * w, 64)
        # Pivot search on the stripe alone; a chosen row is zeroed in it, and
        # reduction never sets a bit that no row of the stripe had.
        stripe = words[r:, w].copy()
        present = int(np.bitwise_or.reduce(stripe)) >> b << b
        bits: list[int] = []
        found: list[int] = []
        while present and len(found) < _BLOCK_PIVOTS and r + len(found) < rows:
            bit = (present & -present).bit_length() - 1
            if bit >= end:
                break
            present &= present - 1
            nz = np.flatnonzero(stripe & np.uint64(1 << bit))
            if nz.size:
                stripe[nz] ^= stripe[nz[0]]
                bits.append(bit)
                found.append(r + int(nz[0]))
        c = 64 * w + (bits[-1] + 1 if len(found) == _BLOCK_PIVOTS else end)
        k = len(found)
        if k == 0:
            continue
        # Reduce the pivot rows against each other (Gauss-Jordan on k rows),
        # deciding each row operation on their stripe words as Python ints.
        piv = words[found, w:]
        head = [int(x) for x in piv[:, 0]]
        for i, bit in enumerate(bits):
            for j in range(k):
                if j != i and head[j] >> bit & 1:
                    piv[j] ^= piv[i]
                    head[j] ^= head[i]
        # Every other row: XOR the table entry its stripe bits select.  The
        # pivot rows are saved in piv and leave the selection, so a block
        # with nothing to clear (an already reduced matrix) builds no table.
        words[found, w] = 0
        lo = 0 if clear_above else r
        col = words[lo:, w] & np.uint64(sum(1 << bit for bit in bits))
        nz = np.flatnonzero(col)
        if nz.size:
            col = col[nz]
            sel = np.zeros(nz.size, dtype=np.intp)
            for i, bit in enumerate(bits):
                sel |= ((col >> np.uint64(bit)) & _ONE).astype(np.intp) << i
            # table[s] is the XOR of the pivot rows i with bit i of s set.
            table = np.zeros((1 << k, piv.shape[1]), dtype=np.uint64)
            for i in range(k):
                table[1 << i : 2 << i] = table[: 1 << i] ^ piv[i]
            sub = words[lo:, w:]
            sub[nz] ^= table[sel]
        # Pivot rows go to rows r..r+k-1; the rows they displace fill the holes.
        found_set = set(found)
        moved = [t for t in range(r, r + k) if t not in found_set]
        holes = [q for q in found if q >= r + k]
        words[holes] = words[moved]
        words[r : r + k, w:] = piv
        pivots.extend(64 * w + bit for bit in bits)
        r += k
    return pivots


def _rank_words_numpy(words: np.ndarray, ncols: int) -> int:
    if words.shape[1] >= _BLOCKED_MIN_WORDS:
        return len(_eliminate(words, ncols, clear_above=False))
    mask = (1 << ncols) - 1
    basis: dict[int, int] = {}  # leading bit -> row, rows masked to ncols bits
    for row in words:
        v = int.from_bytes(row.tobytes(), "little") & mask
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


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
