"""GF(2) elimination kernels.

The Monte Carlo equivocation estimators compute one GF(2) rank per trial on
matrices with ~10^3 rows and ~10^3..10^4 columns, so the rank kernel is the
single hottest loop in the package.

The kernels work on bit-packed uint64 words (64 matrix columns per word,
column j stored at bit j % 64 of word j // 64), with one routine per job.
Every rank is ``rank_words``: an XOR basis of Python ints, one per row, in
a list indexed by bit length, so each reduction step is one list lookup and
one big-int XOR and no numpy call runs per pivot.
Every dense reduction (what ``rref`` leaves after its peel, and
``right_inverse``) is ``_eliminate``, the Method of Four Russians (Albrecht,
Bard and Hart, ACM TOMS 2010, the "M4RI" library) on byte-aligned blocks,
in one Gauss-Jordan pass: the pivots of each 8-column byte come from the
byte values of the unreduced rows, in row order, and every row, above the
pivot rows and below them, is fixed by one gather from the table of all XOR
combinations of the pivot rows, XORed into the whole matrix in one
contiguous pass.  There is no back-substitution pass.

On the per-trial erasure ranks the basis beats ``_eliminate`` at every
width: on each rank of 40 words or more that ``mc_equivocation_bec`` makes
on (3,6)-dual pairs at n=5004 and n=10002 (509-4 995 rows, 40-125 words) it
was 2.1-20x faster, 3.3-28 ms against 7.6-532 ms (best of 9 per rank; numpy
2.4.6, Python 3.11, 2 vCPUs).  ``_eliminate`` XORs every word of every row
at every byte, so its cost is rows x words whatever the rows hold; it wins
only on dense, full-rank rows (85-94 against 145-170 ms on a dense 2000 x
5000 matrix, min of 9 in two runs), which no rank in the package has.

The BEC peeling decoder ``_peel_edges`` lives here too, with its edge
helpers ``_edges`` and ``_edge_keys``.  It has two users: the exact
erasure ranks of :mod:`.secrecy`, which peel each erasure pattern before
ranking its core, and :func:`.bitlinalg.rref`, which peels a sparse column
prefix once per matrix and eliminates only the rest.  It runs on one
sorted int64 key per edge, ``chk << 32 | var``.  Each round compresses the
live keys once, which keeps them sorted by check, so a degree-one check
shows as an edge whose neighbours both belong to other checks: one compare
of adjacent checks replaces a count of edges per check, and the rounds and
the stopping-set core are the ones the count gives.
Every selection by a mask is ``np.compress(mask, a)``, never ``a[mask]``:
both keep the masked order, but on numpy 2.4 boolean indexing took 172
against 34 us on 24 000 keys with 40% kept, 41 against 14 us on 9 600 keys
at 40% and 27 against 19 us at 80% (9.7 against 9.1 us at 5%; below about
1 000 elements compress costs about 1.5 us more per call).
"""

from __future__ import annotations

import numpy as np


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


def _eliminate(words: np.ndarray, ncols: int) -> list[int]:
    """In-place reduced row echelon form over the first ``ncols`` columns,
    one byte (8 columns) at a time, in one Gauss-Jordan pass.  Returns
    pivot columns.

    Rows at and below ``r`` are zero left of the byte, so their byte values
    decide its pivots: an XOR basis of them keyed by lowest bit, grown from
    the nonzero rows in row order, one row per basis value (no sort or
    ``np.unique``).  Every row, above and below, then XORs in place the
    entry of the table of all combinations of those rows that has its pivot
    bits, which clears the byte's pivot columns: a row without them takes
    entry 0, which is zero, and the rows the basis came from clear
    themselves.  The reduced pivot rows are table entries too, written to
    rows ``r`` on.  The table is built from whole rows and XORed into whole
    rows, one C-contiguous pass per byte: its rows are zero left of the
    byte, so the words there stay as they were.
    """
    rows = words.shape[0]
    octets = words.view(np.uint8)
    pivots: list[int] = []
    r = 0
    for byte in range((ncols + 7) // 8):
        if r == rows:
            break
        col = octets[r:, byte] & np.uint8((1 << min(ncols - 8 * byte, 8)) - 1)
        nz = np.flatnonzero(col)
        if not nz.size:
            continue
        vals = col[nz]
        # Earliest rows first; stop once every column of the byte seen is a
        # pivot, or at the last row (0b11 alone has two columns but rank 1).
        limit = int(np.bitwise_or.reduce(vals)).bit_count()
        basis: dict[int, int] = {}  # lowest bit -> reduced value
        found: list[int] = []
        for i, x in zip(nz.tolist(), vals.tolist()):
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
        table = _combinations(words[found])
        entry = np.empty(1 << k, dtype=np.intp)
        entry[extract[table.view(np.uint8)[:, byte]]] = np.arange(1 << k)
        words ^= np.take(table, entry[extract[octets[:, byte]]], axis=0)
        # Pivot rows go to rows r..r+k-1; the rows they displace fill the holes.
        found_set = set(found)
        moved = [t for t in range(r, r + k) if t not in found_set]
        holes = [q for q in found if q >= r + k]
        words[holes] = words[moved]
        words[r : r + k] = table[entry[1 << np.arange(k)]]
        pivots.extend(8 * byte + b for b in range(8) if mask >> b & 1)
        r += k
    return pivots


def _rank_words_numpy(words: np.ndarray, ncols: int) -> int:
    """GF(2) rank of the first ``ncols`` columns of the packed rows ``words``
    (bits past ``ncols`` are ignored); ``words`` is not modified.

    The bits past ``ncols`` are masked off once, in the last word column of
    a copy, and the rows are read from one ``tobytes()``, one bytes slice
    per row.  The loop stops once the rank reaches ``ncols``, when every
    later row is dependent.
    """
    if not ncols:
        return 0
    nwords = -(-ncols // 64)
    block = words[:, :nwords]
    if ncols % 64:
        block = block.copy()
        block[:, -1] &= np.uint64((1 << ncols % 64) - 1)
    data = block.tobytes()
    step = 8 * nwords
    # basis[b]: the basis row whose bit length is b, or 0 for none; basis[0]
    # stays 0, so a row reduced to zero ends the loop with the same lookup.
    basis = [0] * (ncols + 1)
    rank = 0
    for start in range(0, len(data), step):
        v = int.from_bytes(data[start : start + step], "little")
        while u := basis[v.bit_length()]:
            v ^= u
        if v:
            basis[v.bit_length()] = v
            rank += 1
            if rank == ncols:
                break
    return rank


def _edges(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row_index, column_index) int64 arrays of the ones of the packed
    words ``words`` (the layout of :class:`.bitlinalg.BitMatrix`), row-major.

    Unpacks only the nonzero words, so a sparse matrix is never made dense,
    and one flat index per set bit among them gives its word (``>> 6``) and
    bit (``& 63``).  Against a 2-D ``nonzero`` of the unpacked bits this
    took 0.99 against 1.64 ms on the n=2000 (3,6) checks and 10.6 against
    15.6 ms on the n=10002 (4,6) ones (medians of 9 interleaved runs, numpy
    2.4.6, 2 vCPUs).  The words are found by a 2-D ``nonzero``, which reads
    the strided word blocks that :func:`.bitlinalg.rref` probes in place:
    ``flatnonzero`` would copy them, 3.4 MB for the widest block at
    n=10002, and copying the 128-word prefix raised the peak RSS of
    building that code by 2-3 MB.  It takes bare words, so ``rref`` reads a
    strip of them without wrapping it in a checked matrix.
    """
    row, word = np.nonzero(words)
    bits = np.flatnonzero(np.unpackbits(words[row, word].view(np.uint8), bitorder="little"))
    at = bits >> 6
    return row[at], word[at] << 6 | bits & 63


_KEY_SHIFT = 32
_KEY_LOW = (1 << _KEY_SHIFT) - 1


def _edge_keys(chk, var, m: int, n: int, copies: int = 1) -> np.ndarray:
    """One int64 key ``chk << 32 | var`` per edge of ``copies`` stacked copies
    of the row-major edges ``(chk, var)`` of an ``m x n`` matrix, copy ``t``
    offset by ``t * m`` checks and ``t * n`` variables.  The keys are sorted,
    because the edges are row-major within a copy and the copies follow one
    another.

    ValueError unless every stacked check is below ``2**31`` and every
    stacked variable below ``2**32``, so that the keys are nonnegative and
    the variable bits never carry into the check bits.
    """
    chk = np.asarray(chk, dtype=np.int64)
    var = np.asarray(var, dtype=np.int64)
    last = copies - 1
    if (np.max(chk, initial=-1) + last * m >= 1 << 31
            or np.max(var, initial=-1) + last * n >= 1 << 32):
        raise ValueError(
            f"{copies} stacked copies of a {m} x {n} edge list do not fit edge keys:"
            " checks must stay below 2**31 and variables below 2**32"
        )
    copy = np.arange(copies, dtype=np.int64)[:, None]
    return ((chk + m * copy) << _KEY_SHIFT | (var + n * copy)).ravel()


def _peel_edges(keys, unknown):
    """Peel the Tanner graph whose edges are the sorted keys ``chk << 32 |
    var`` (:func:`_edge_keys`): each round resolves every variable
    that is the only ``unknown`` one at some check, clearing it in
    ``unknown`` in place.  Returns ``(rounds, core)``: per round the keys of
    its resolving edges in edge order, then the keys of the core's edges.

    Only edges to ``unknown`` variables are kept, and each round compresses
    them once, so the live keys stay sorted by check: an edge is the only
    live one of its check exactly when the checks of both its neighbours
    differ from its own (``border`` marks where the check changes, the two
    ends included).  That is a count of one live edge per check, so each
    round resolves the edges a count would, in the same order, and the core
    is the largest stopping set inside ``unknown``, as for any peel.

    The first filter and each round's two selections, of the resolving
    keys and of the live keys, are ``np.compress``, which keeps the mask's
    order and is 1.4-5x faster than boolean indexing at these sizes (module
    docstring).  The mask buffers are allocated once, for the first live
    set, and each round uses a prefix of them with both ends set again.
    """
    rounds = []
    edges = np.compress(np.take(unknown, keys & _KEY_LOW), keys)
    border_buf = np.empty(edges.size + 1, dtype=bool)
    single_buf = np.empty(edges.size, dtype=bool)
    while edges.size:
        chk = edges >> _KEY_SHIFT
        border = border_buf[: edges.size + 1]
        border[0] = border[-1] = True
        np.not_equal(chk[1:], chk[:-1], out=border[1:-1])
        single = np.logical_and(border[1:], border[:-1], out=single_buf[: edges.size])
        resolving = np.compress(single, edges)
        if not resolving.size:
            break
        rounds.append(resolving)
        unknown[resolving & _KEY_LOW] = False
        edges = np.compress(np.take(unknown, edges & _KEY_LOW), edges)
    return rounds, edges


# The name other modules import; perfbench/run.py checks it is _rank_words_numpy.
rank_words = _rank_words_numpy
