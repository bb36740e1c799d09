"""GF(2) elimination kernels.

The Monte Carlo equivocation estimators compute one GF(2) rank per trial on
matrices with ~10^3 rows and ~10^3..10^4 columns, so the rank kernel is the
single hottest loop in the package.

The kernels work on bit-packed uint64 words (64 matrix columns per word,
column j stored at bit j % 64 of word j // 64), with one routine per job.
Every reduction (a wide rank, ``rref``, ``nullspace_basis``,
``right_inverse``) is ``_eliminate``, the Method of Four Russians (Albrecht,
Bard and Hart, ACM TOMS 2010, the "M4RI" library) on byte-aligned blocks:
the pivots of each 8-column byte come from the distinct byte values of the
unreduced rows, and every row below them is fixed by one gather from the
table of all XOR combinations of the pivot rows.  Full reduction is a
second pass that back-substitutes the bytes from last to first, so rows
above a pivot are cleared once, after later pivots have been removed from
the pivot rows.  Every rank narrower than ``_BLOCKED_MIN_WORDS`` words (each
per-trial erasure rank of an n=2000 pair) is an XOR basis of Python ints,
one per row, in a list indexed by bit length: each reduction step is one
list lookup and one big-int XOR, and no numpy call runs per pivot.  Wider
ranks count the pivots of ``_eliminate``, since on dense rows the int basis
loses there (212-215 against 112-142 ms on a dense 2000 x 5000 matrix,
1.4-1.8x at 40, 48, 64 and 79 words; numpy 2.4.6, Python 3.11, 2 vCPUs).
"""

from __future__ import annotations

import numpy as np

# Width rule for ranks: a words array at least this many uint64 words wide is
# ranked by _eliminate, a narrower one on a Python-int XOR basis.  The rule is
# set by dense rows: on sparse rows with weight-3 columns the basis is 4-6x
# faster than _eliminate at every width from 32 to 79 words.
_BLOCKED_MIN_WORDS = 40


def _bit_extract_table() -> np.ndarray:
    """``table[mask, x]``: the bits of byte ``x`` under ``mask``, packed
    into the low bits in order (a parallel bit extract)."""
    mask = np.arange(256)[:, None]
    x = np.arange(256)[None, :]
    table = np.zeros((256, 256), dtype=np.uint8)
    below = np.zeros_like(mask)  # bits of mask below bit b
    for b in range(8):
        on = mask >> b & 1
        table |= ((x >> b & 1) * on << below).astype(np.uint8)
        below = below + on
    return table


_EXTRACT = _bit_extract_table()


def _combinations(rows: np.ndarray) -> np.ndarray:
    """``table[t]``: the XOR of the rows ``i`` with bit ``i`` of ``t`` set."""
    table = np.empty((1 << rows.shape[0], rows.shape[1]), dtype=np.uint64)
    table[0] = 0
    for i, row in enumerate(rows):
        np.bitwise_xor(table[: 1 << i], row, out=table[1 << i : 2 << i])
    return table


def _eliminate(words: np.ndarray, ncols: int, clear_above: bool) -> list[int]:
    """In-place (reduced, with ``clear_above``) row echelon form over the
    first ``ncols`` columns, one byte (8 columns) at a time.  Returns pivot
    columns.

    The forward pass clears each byte below its pivot rows.  Rows at and
    below ``r`` are zero left of the byte, so their distinct byte values
    decide its pivots: an XOR basis of them keyed by lowest bit, with one
    row per basis value.  Every row below then XORs the entry of the table
    of all combinations of those rows that has its pivot bits, which zeroes
    the byte, and the reduced pivot rows are table entries too.  With
    ``clear_above`` a second pass walks the bytes from last to first and
    clears each byte's pivot columns in the rows above its pivot rows, which
    later bytes have already freed of later pivots.
    """
    rows = words.shape[0]
    octets = words.view(np.uint8)
    pivots: list[int] = []
    blocks: list[tuple[int, int, int]] = []  # (byte, first pivot row, pivot mask)
    r = 0
    for byte in range((ncols + 7) // 8):
        if r == rows:
            break
        w = byte // 8
        col = octets[r:, byte] & np.uint8((1 << min(ncols - 8 * byte, 8)) - 1)
        vals, first = np.unique(col, return_index=True)
        if vals[-1] == 0:
            continue
        # Earliest rows first; stop once every column of the byte seen is a pivot.
        order = np.argsort(first)
        limit = int(np.bitwise_or.reduce(vals)).bit_count()
        basis: dict[int, int] = {}  # lowest bit -> reduced value
        found: list[int] = []
        for v, i in zip(vals[order].tolist(), first[order].tolist()):
            x = v
            while x:
                low = x & -x
                if low not in basis:
                    basis[low] = x
                    found.append(r + i)
                    break
                x ^= basis[low]
            if len(found) == limit:
                break
        k = len(found)
        mask = sum(basis)
        extract = _EXTRACT[mask]
        # entry[s] is the table row whose pivot bits, packed, are s.
        table = _combinations(words[found, w:])
        entry = np.empty(1 << k, dtype=np.intp)
        entry[extract[table.view(np.uint8)[:, byte % 8]]] = np.arange(1 << k)
        nz = np.flatnonzero(col)
        sub = words[r:, w:]
        sub[nz] ^= table[entry[extract[col[nz]]]]
        # Pivot rows go to rows r..r+k-1; the rows they displace fill the holes.
        found_set = set(found)
        moved = [t for t in range(r, r + k) if t not in found_set]
        holes = [q for q in found if q >= r + k]
        words[holes] = words[moved]
        words[r : r + k, w:] = table[entry[1 << np.arange(k)]]
        pivots.extend(8 * byte + b for b in range(8) if mask >> b & 1)
        blocks.append((byte, r, mask))
        r += k
    if clear_above:
        for byte, a, mask in reversed(blocks):
            sel = _EXTRACT[mask][octets[:a, byte]]
            nz = np.flatnonzero(sel)
            if not nz.size:
                continue
            w = byte // 8
            table = _combinations(words[a : a + mask.bit_count(), w:])
            sub = words[:a, w:]
            sub[nz] ^= table[sel[nz]]
    return pivots


def _rank_words_numpy(words: np.ndarray, ncols: int) -> int:
    if words.shape[1] >= _BLOCKED_MIN_WORDS:
        return len(_eliminate(words, ncols, clear_above=False))
    mask = (1 << ncols) - 1
    # basis[b]: the basis row whose bit length is b, or 0 for none; basis[0]
    # stays 0, so a row reduced to zero ends the loop with the same lookup.
    basis = [0] * (ncols + 1)
    rank = 0
    for row in words:
        v = int.from_bytes(row.tobytes(), "little") & mask
        while u := basis[v.bit_length()]:
            v ^= u
        if v:
            basis[v.bit_length()] = v
            rank += 1
    return rank


# The name other modules import; perfbench/run.py checks it is _rank_words_numpy.
rank_words = _rank_words_numpy
