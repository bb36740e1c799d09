"""Exact GF(2) linear algebra on bit-packed matrices.

This module is the computational substrate for parity-check matrices,
syndromes, and rank-based equivocation.  Matrices are bit-packed: 64
columns per uint64 word, row-major, with all padding bits beyond the
declared column count kept zero.  A sparse matrix built from its edges
(``_pack_keys``) holds only their sorted keys, and a reduced matrix whose
leading rows hold a known identity (``_pack_tail``) only its words past
that identity; either packs its words the first time they are read.

All public operations are pure: they never mutate their inputs (elimination
runs on a working copy), so values can be shared freely between concurrent
workers.  Packing on first read is idempotent: readers that race to pack
a matrix get equal words, and the matrix keeps one of them, so a matrix
shared before its words are read stays shareable.

``rref`` peels a sparse column prefix (``_kernels._peel_edges``) before it
eliminates, reads the rows of a matrix that holds keys from the keys, and
stores only the words of its result past the peeled prefix's identity.
"""

from __future__ import annotations

import sys

import numpy as np

from ._kernels import _KEY_LOW, _KEY_SHIFT, _edge_keys, _edges, _eliminate, _peel_edges, rank_words

if sys.byteorder != "little":  # pragma: no cover
    raise ImportError("bit-packed word layout assumes a little-endian platform")


def _check_count(value, name: str, least: int = 1) -> int:
    """``value`` as an ``int``; ValueError naming the count ``name`` unless it
    is an integer (``int`` or a numpy integer, not ``bool``) of at least
    ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _nwords(cols: int) -> int:
    return (cols + 63) // 64


def _pack_rows(dense: np.ndarray, cols: int) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into (rows, nwords) uint64 words."""
    rows = dense.shape[0]
    padded = np.zeros((rows, _nwords(cols) * 64), dtype=np.uint8)
    padded[:, :cols] = dense
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def _unpack_rows(words: np.ndarray, cols: int) -> np.ndarray:
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, :cols])


# Rounds of the 64x64 bit-block transpose: (shift, mask of the bits whose
# index has that shift's bit clear).
_TRANSPOSE_ROUNDS = tuple(
    (np.uint64(s), np.uint64(sum(1 << i for i in range(64) if not i & s)))
    for s in (32, 16, 8, 4, 2, 1)
)


def _transpose_blocks(blocks: np.ndarray) -> None:
    """Transpose in place every 64x64 bit block ``blocks[I, J]``, whose
    ``i``-th word holds bits ``(i, 0..63)``.

    Six rounds, all blocks at once: round ``s`` swaps the bits ``(i, j + s)``
    and ``(i + s, j)`` for the ``i`` and ``j`` whose bit ``s`` is clear
    (Hacker's Delight, section 7-3).
    """
    rb, cw = blocks.shape[:2]
    for s, lo_mask in _TRANSPOSE_ROUNDS:
        pairs = blocks.reshape(rb, cw, 64 // (2 * int(s)), 2, int(s))
        lo, hi = pairs[:, :, :, 0], pairs[:, :, :, 1]
        t = lo >> s
        t ^= hi
        t &= lo_mask
        hi ^= t
        t <<= s
        lo ^= t


def _transpose_words(words: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Packed words of the transpose of the ``rows x cols`` matrix ``words``."""
    rb, cw = _nwords(rows), words.shape[1]
    # blocks[I, J, i] is word J of row 64 I + i: the 64x64 block (I, J).
    blocks = np.zeros((rb, cw, 64), dtype=np.uint64)
    rows_of = blocks.transpose(0, 2, 1)
    full = rows // 64
    rows_of[:full] = words[: 64 * full].reshape(full, 64, cw)
    if full < rb:
        rows_of[full, : rows - 64 * full] = words[64 * full :]
    _transpose_blocks(blocks)
    # Block (I, J) is now block (J, I) of the transpose.
    return np.ascontiguousarray(blocks.transpose(1, 2, 0).reshape(64 * cw, rb)[:cols])


def _as_bits(v, what: str, size: int | None = None) -> np.ndarray:
    """``v`` as a uint8 array; ValueError naming ``what`` unless every entry
    equals 0 or 1 (``True`` and ``1.0`` do; 2, -1 and 0.5 do not, where a
    cast would wrap or round them to a bit) and, when ``size`` is given,
    ``v`` is a vector of ``size`` entries.  Every function that takes bits
    checks them here."""
    a = np.asarray(v)
    if (size is not None and a.shape != (size,)) or not ((a == 0) | (a == 1)).all():
        count = "" if size is None else f" {size}"
        raise ValueError(f"{what} must be{count} bits, each 0 or 1")
    return a.astype(np.uint8)


def pack_vector(v: np.ndarray, cols: int) -> np.ndarray:
    """Pack a length-`cols` bit vector into a 1-D uint64 word array."""
    return _pack_rows(np.asarray(v, dtype=np.uint8).reshape(1, -1), cols)[0]


class BitMatrix:
    """GF(2) matrix stored as bit-packed rows.

    Use the constructors :meth:`from_dense` and :meth:`identity`; the raw
    ``words`` array is part of the public layout (shape
    ``(rows, ceil(cols / 64))``, column ``j`` at bit ``j % 64`` of word
    ``j // 64``) but should be treated as read-only.  The constructor raises
    ValueError unless ``words`` is uint64, of that shape, with every bit past
    column ``cols`` zero.

    A matrix built from its edges (:func:`_pack_keys`) holds their sorted
    keys as ``_keys``, and one built from the words past an identity
    prefix (:func:`_pack_tail`) holds those words as ``_tail``; either
    holds no words until ``words`` is first read, which packs them.  Any
    other, a :meth:`copy` too, holds words and neither.
    """

    __slots__ = ("rows", "cols", "_words", "_keys", "_tail")

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        rows, cols = _check_count(rows, "rows", 0), _check_count(cols, "cols", 0)
        if words.dtype != np.uint64:
            raise ValueError(f"word array dtype {words.dtype} is not uint64")
        if words.shape != (rows, _nwords(cols)):
            raise ValueError(
                f"word array shape {words.shape} does not match "
                f"{rows}x{cols} matrix"
            )
        _check_padding(words, cols)
        self.rows = rows
        self.cols = cols
        self._words = words
        self._keys = self._tail = None

    @property
    def words(self) -> np.ndarray:
        """The packed rows; a matrix built from keys or a tail packs them on
        first read, and a tail then becomes a view of them, so the matrix
        keeps one copy of its words."""
        if self._words is None:
            words = self._packed()
            if self._tail is not None:
                self._tail = words[:, words.shape[1] - self._tail.shape[1]:]
            self._words = words
        return self._words

    def _packed(self) -> np.ndarray:
        """A new array of the packed rows of a matrix that holds keys or a
        tail, cached nowhere."""
        words = np.zeros((self.rows, _nwords(self.cols)), dtype=np.uint64)
        if self._keys is not None:
            row, word, value = _word_entries(self._keys)
            words[row, word] = value
        else:
            w0 = words.shape[1] - self._tail.shape[1]
            words[:, w0:] = self._tail
            q = np.arange(64 * w0)
            words[q, q >> 6] = np.uint64(1) << (q & 63).astype(np.uint64)
        return words

    @classmethod
    def from_dense(cls, array) -> "BitMatrix":
        dense = np.asarray(array)
        if dense.ndim != 2:
            raise ValueError("expected a 2-D array of bits")
        dense = _as_bits(dense, "matrix")
        rows, cols = dense.shape
        return cls(rows, cols, _pack_rows(dense, cols))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_dense(np.eye(_check_count(n, "n", 0), dtype=np.uint8))

    def to_dense(self) -> np.ndarray:
        return _unpack_rows(self.words, self.cols)

    def copy(self) -> "BitMatrix":
        """A copy that holds words: one that holds keys or a tail is packed
        into the copy's own array, not cached on the original."""
        words = self._packed() if self._words is None else self._words.copy()
        return BitMatrix(self.rows, self.cols, words)

    def transpose(self) -> "BitMatrix":
        """The transpose, computed on the packed words by 64x64 bit blocks;
        no dense array is built."""
        return BitMatrix(self.cols, self.rows, _transpose_words(self.words, self.rows, self.cols))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.shape == other.shape
            and np.array_equal(self.words, other.words)
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _check_padding(words: np.ndarray, cols: int) -> None:
    """ValueError unless every bit of ``words`` past column ``cols`` of the
    last word column is zero: the bits of that word from ``cols`` on."""
    if cols % 64 and (words[:, -1] & np.uint64(2**64 - (1 << cols % 64))).any():
        raise ValueError(f"a padding bit beyond column {cols} is set")


def _pack_keys(keys: np.ndarray, rows: int, cols: int) -> BitMatrix:
    """The ``rows x cols`` matrix whose ones are the sorted, distinct edge
    keys ``keys`` (:func:`._kernels._edge_keys`), holding ``keys`` alone: its
    words are packed the first time they are read.  ValueError unless every
    key's check is below ``rows`` and its variable below ``cols``, which is
    what the constructor checks of words."""
    rows, cols = _check_count(rows, "rows", 0), _check_count(cols, "cols", 0)
    if keys.size and not (0 <= keys[0] and keys[-1] >> _KEY_SHIFT < rows
                          and (keys & _KEY_LOW).max() < cols):
        raise ValueError(f"an edge key lies outside the {rows}x{cols} matrix")
    m = BitMatrix.__new__(BitMatrix)
    m.rows, m.cols, m._words, m._keys, m._tail = rows, cols, None, keys, None
    return m


def _pack_tail(tail: np.ndarray, rows: int, cols: int) -> BitMatrix:
    """The ``rows x cols`` matrix whose words from word ``w0`` on are
    ``tail``, ``w0`` being the words of a row that ``tail`` does not hold,
    and whose words below ``w0`` hold the identity on its first ``64 w0``
    rows and zeros on the rest.  It holds ``tail`` alone, and packs its
    words the first time they are read; a ``tail`` of whole rows
    (``w0 = 0``) is the words.  ValueError unless ``tail`` is a uint64
    array of ``rows`` rows, the identity fits (``64 w0`` at most ``rows``
    and ``cols``) and no padding bit is set."""
    rows, cols = _check_count(rows, "rows", 0), _check_count(cols, "cols", 0)
    nw = _nwords(cols)
    if tail.shape[1:] == (nw,):
        return BitMatrix(rows, cols, tail)
    if (tail.dtype != np.uint64 or tail.ndim != 2 or tail.shape[0] != rows
            or not 0 <= 64 * (nw - tail.shape[1]) <= min(rows, cols)):
        raise ValueError(f"a {tail.dtype} tail of shape {tail.shape} does not fit the "
                         f"{rows}x{cols} matrix below an identity")
    _check_padding(tail, cols)
    m = BitMatrix.__new__(BitMatrix)
    m.rows, m.cols, m._words, m._keys, m._tail = rows, cols, None, None, tail
    return m


def _leading_rows(m: BitMatrix, r: int) -> BitMatrix:
    """The first ``r`` rows of ``m``, sharing its storage; ``m`` holding a
    tail, ``r`` is at least its identity's rows, and the rows stay
    unpacked."""
    return _pack_tail((m.words if m._tail is None else m._tail)[:r], r, m.cols)


def _word_entries(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, word, value)`` per nonzero word of the matrix whose ones are
    the sorted, distinct edge keys ``keys``, in key order: ``value`` ORs the
    bits of the keys that fall in word ``word`` of row ``row``.  Those keys
    are adjacent, as they share ``key >> 6``."""
    cell = keys >> 6
    first = np.ones(cell.size, dtype=bool)
    np.not_equal(cell[1:], cell[:-1], out=first[1:])
    first = np.flatnonzero(first)
    value = np.bitwise_or.reduceat(np.uint64(1) << (keys & 63).astype(np.uint64), first)
    cell = cell[first]
    return cell >> (_KEY_SHIFT - 6), cell & (_KEY_LOW >> 6), value


def _keys_of(m: BitMatrix) -> np.ndarray:
    """The sorted edge keys of ``m``: the ones it keeps, else read off its
    words."""
    return _edge_keys(*_edges(m.words), m.rows, m.cols) if m._keys is None else m._keys


def rank(m: BitMatrix) -> int:
    """GF(2) rank (dimension of the row space)."""
    return rank_words(m.words, m.cols)


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form and pivot columns.

    The returned matrix has the same row space as the input; the number of
    pivots equals ``rank(m)`` and all non-pivot rows are zero.

    The longest whole-word column prefix ``[0, j0)`` that peels completely
    (:func:`_peeled_prefix`) is solved without elimination: every prefix
    column ``q`` is a pivot, and the check ``c(q)`` that resolved it holds,
    besides ``q``, only prefix columns resolved in earlier peel rounds.  So
    the prefix rows over the columns from ``j0`` on are ``R_q = c(q) ^ XOR
    R_p`` over those earlier columns ``p`` (a unit lower-triangular solve,
    Richardson and Urbanke's approximate lower triangulation), and each
    unmatched row ``u`` leaves ``S_u = u ^ XOR R_p`` over its prefix
    columns: the Schur complement.  The solve is level-synchronous: the
    rows of one peel round depend only on earlier rounds, so each round is
    one gather of its checks' rows from ``j0`` on and one XOR per
    dependency slot, written to the output rows in one assignment, and all
    of ``S`` is one such round, written to the output rows from ``j0`` on.
    Each solve is planned once for all its rounds (:func:`_plan`), so the
    round loop only gathers and XORs.  ``_eliminate`` reduces ``S`` alone,
    which gives the pivots from ``j0`` on.  The same rounds run again on
    the checks' rows with the reduced rows of ``S`` added at the pivot bits
    they hold, which gives the reduced prefix rows; those bits are read in
    one pass, after ``S`` is freed, and enter the plan as extra
    dependencies.  A dense matrix peels no word (``j0 = 0``), and ``S`` is
    the whole matrix.

    A matrix that holds words gives the rounds its rows, and its pivot
    bits from one gather of its pivot words.  One that holds keys is never
    packed: the nonzero words of every check's row from ``j0`` on
    (:func:`_word_entries`) are written to the output row the check
    solves, in one assignment (again for the second solve, over zeroed
    prefix rows, read off the keys again rather than kept through
    ``_eliminate``), so each round gathers its rows from the output, and
    the pivot bits are read off the keys.
    The RREF of a matrix is unique, so the result does not depend on the
    split, nor on whether ``m`` holds keys.

    Only the words from ``w0 = j0 / 64`` on are stored: below them the
    first ``j0`` rows hold the identity and the rest zeros, which the
    result keeps implicit (:func:`_pack_tail`) until its words are read.
    """
    rows, cols = m.rows, m.cols
    w0, resolved, via, bounds, ptr, prefix_of = _peeled_prefix(m)
    j0 = 64 * w0
    tw = _nwords(cols) - w0
    solved = np.zeros((rows, tw), dtype=np.uint64)  # row q: R_q from the round resolving q
    unmatched = np.ones(rows, dtype=bool)
    unmatched[via] = False
    unmatched = np.flatnonzero(unmatched)
    keys = m._keys
    if keys is None:
        tail_words = m.words[:, w0:]
    else:
        target = np.empty(rows, dtype=np.int64)
        target[via] = resolved
        target[unmatched] = j0 + np.arange(unmatched.size)

        def tail_entries():
            """The keys from ``j0`` on, and per nonzero word of their rows
            its flat index in the output row its check solves (``c(q)`` to
            ``q``, the ``i``-th unmatched row to ``j0 + i``) and its value."""
            tail = np.compress((keys & _KEY_LOW) >= j0, keys)
            row, word, value = _word_entries(tail)
            return tail, target[row] * tw + (word - w0), value

        _, flat, value = tail_entries()
        solved.reshape(-1)[flat] = value
        del flat, value

    def prefix_columns(checks, own=None):
        """``(owner, column)`` per prefix column of each ``checks[i]``
        other than ``own[i]``, in check order."""
        start = ptr[checks]
        count = ptr[checks + 1] - start
        owner = np.repeat(np.arange(checks.size), count)
        at = np.arange(owner.size) + np.repeat(start - (np.cumsum(count) - count), count)
        column = prefix_of[at]
        if own is None:
            return owner, column
        keep = column != own[owner]
        return np.compress(keep, owner), np.compress(keep, column)

    def solve(checks, bounds, owner, source, dest):
        """Write each row ``checks[i]`` from ``j0`` on XORed with the rows
        ``solved[source[k]]`` of the ``k`` with ``owner[k] == i`` to
        ``solved[dest[i]]``, one round of ``bounds`` at a time.  For a
        matrix that holds keys, ``solved[dest[i]]`` already holds the row."""
        order, src, slots = _plan(bounds, owner, source)
        rows_of, index = (tail_words, checks) if keys is None else (solved, dest)
        for a, b, spans in zip(bounds[:-1], bounds[1:], slots):
            i = order[a:b]
            acc = rows_of[index[i]]
            for s0, s1 in spans:
                acc[: s1 - s0] ^= solved[src[s0:s1]]
            solved[dest[i]] = acc

    # the prefix columns of each c(q) but q, by position in peel order
    owner, column = prefix_columns(via, resolved)
    solve(via, bounds, owner, column, resolved)
    # S goes to the rows from j0 on, one per unmatched row, and is reduced
    # on a contiguous copy
    solve(unmatched, np.array([0, unmatched.size]), *prefix_columns(unmatched),
          j0 + np.arange(unmatched.size))
    s = solved[j0:].copy()
    pivots = _eliminate(s, cols - j0)
    solved[j0:] = s
    del s
    # Again with the reduced rows of S at the pivot bits of each c(q), which
    # clear them, and the reduced rows of the earlier columns: the reduced
    # R_q.  Row ``j0 + i`` of ``solved`` is the reduced row of S's i-th pivot.
    is_pivot = np.zeros(cols - j0, dtype=bool)
    is_pivot[pivots] = True
    if keys is None:
        pivot_mask = pack_vector(is_pivot, cols - j0)
        pivot_words = np.flatnonzero(pivot_mask)
        bits = tail_words[np.ix_(via, pivot_words)]
        bits &= pivot_mask[pivot_words]  # in place: one more copy would set the peak
        at, bit = _edges(bits)
        del bits
        bit = 64 * pivot_words[bit >> 6] + (bit & 63)
    else:
        # the c(q) rows again, over the R_q (the rows q < j0)
        solved[:j0] = 0
        tail, flat, value = tail_entries()
        in_prefix = flat < j0 * tw
        solved.reshape(-1)[np.compress(in_prefix, flat)] = np.compress(in_prefix, value)
        del flat, value, in_prefix
        via_index = np.full(rows, -1, dtype=np.int64)
        via_index[via] = np.arange(via.size)
        at, bit = via_index[tail >> _KEY_SHIFT], (tail & _KEY_LOW) - j0
        keep = (at >= 0) & is_pivot[bit]
        at, bit = np.compress(keep, at), np.compress(keep, bit)
    pivot_row = j0 - 1 + np.cumsum(is_pivot)
    solve(via, bounds, np.concatenate([owner, at]), np.concatenate([column, pivot_row[bit]]),
          resolved)
    return _pack_tail(solved, rows, cols), list(range(j0)) + [j0 + p for p in pivots]


def _plan(bounds, owner, source):
    """The schedule of a solve whose row ``i``, in round ``t`` if
    ``bounds[t] <= i < bounds[t + 1]``, XORs in ``source[k]`` for each
    ``k`` with ``owner[k] == i``, as ``(order, src, slots)``.

    ``order[bounds[t] : bounds[t + 1]]`` is round ``t``'s rows by falling
    pair count (stable), so the rows with more than ``j`` pairs are a
    prefix of the round; its slot ``j`` XORs the sources ``src[s0:s1]``
    into that prefix, ``(s0, s1) = slots[t][j]``.  The work and memory of
    a slot are its own rows, and no row is padded to the largest count.
    Each source is scattered to its slot, not sorted there.
    """
    n, rounds = int(bounds[-1]), len(bounds) - 1
    count = np.bincount(owner, minlength=n)
    level = np.repeat(np.arange(rounds), np.diff(bounds))
    order = np.argsort(level * (count.max(initial=0) + 1) - count, kind="stable")
    place = np.empty(n, dtype=np.int64)  # of each row in its round's order
    place[order] = np.arange(n) - bounds[level]
    top = np.zeros(rounds, dtype=np.int64)  # slots per round
    np.maximum.at(top, level, count)
    base = np.cumsum(top) - top
    by_owner = np.argsort(owner, kind="stable")
    owner = owner[by_owner]
    # the slot of each pair: its round's first plus its rank among its row's
    slot = base[level[owner]] + np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    size = np.bincount(slot, minlength=top.sum())
    first = np.cumsum(size) - size
    src = np.empty_like(source)
    src[first[slot] + place[owner]] = source[by_owner]
    spans = list(zip(first.tolist(), (first + size).tolist()))
    return order, src, [spans[c : c + k] for c, k in zip(base.tolist(), top.tolist())]


def _peeled_prefix(m: BitMatrix):
    """The longest prefix of whole words whose columns all resolve when
    ``_peel_edges`` peels the checks ``m`` with only those columns unknown.

    Returns ``(w0, resolved, via, bounds, ptr, prefix_of)``, all but ``w0``
    int64 arrays: the prefix's word count; its columns in peel order and
    the check that resolved each (the first in edge order when two resolve
    one column in the same round), round ``t`` being
    ``resolved[bounds[t] : bounds[t + 1]]``; and check ``c``'s prefix
    columns ``prefix_of[ptr[c] : ptr[c + 1]]``.

    A zero column never resolves, yet leaves no core, so the test is that
    no column stays unknown.  Fewer unknown columns can only peel further,
    so a prefix peels exactly when it is at most ``w0`` words long: the
    search gallops over 1, 2, 4, ... words and bisects the last step.  Each
    probe peels the keys of its prefix's columns, taken from a pool of
    sorted keys: the ones ``m`` keeps, if any.  Otherwise each galloping
    step extracts the edges of the words it adds only and sorts them into
    the keys of the words before, so a dense matrix never has its whole
    edge list built; the bisection reads the keys of the step that failed.
    """

    def probe(w, keys):
        keys = np.compress((keys & _KEY_LOW) < 64 * w, keys)
        unknown = np.ones(64 * w, dtype=bool)
        rounds, _ = _peel_edges(keys, unknown)
        return None if unknown.any() else (w, rounds, keys)

    full = m.cols // 64
    best = (0, [], np.empty(0, np.int64))
    keys = m._keys
    pool = np.empty(0, np.int64) if keys is None else keys
    lo, hi, w = 0, full + 1, 1  # lo words peel, hi do not (or are past the last)
    while w <= full:
        if keys is None:
            chk, var = _edges(m.words[:, lo:w])
            pool = np.sort(np.concatenate([pool, _edge_keys(chk, var + 64 * lo, m.rows, 64 * w)]))
        if (got := probe(w, pool)) is None:
            hi = w
            break
        lo, best = w, got
        w = min(2 * w, full) if w < full else full + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (got := probe(mid, pool)) is None:
            hi = mid
        else:
            lo, best = mid, got
    w0, rounds, keys = best
    peeled = np.concatenate([np.empty(0, np.int64), *rounds])
    level = np.repeat(np.arange(len(rounds)), [r.size for r in rounds])
    _, first = np.unique(peeled & _KEY_LOW, return_index=True)
    first.sort()
    bounds = np.searchsorted(level[first], np.arange(len(rounds) + 1))
    peeled = peeled[first]
    ptr = np.zeros(m.rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys >> _KEY_SHIFT, minlength=m.rows), out=ptr[1:])
    return w0, peeled & _KEY_LOW, peeled >> _KEY_SHIFT, bounds, ptr, keys & _KEY_LOW


def nullspace_basis(m: BitMatrix) -> BitMatrix:
    """Basis of the right null space {v : m @ v = 0}, one vector per row.

    Returns a ``(cols - rank(m)) x cols`` matrix; for a generator matrix this
    is a parity-check matrix of the dual code and vice versa.  Row ``t`` has
    a one at the ``t``-th free (non-pivot) column ``f``, zeros at the other
    free columns, and ``R[i, f]`` at the ``i``-th pivot column, ``R`` being
    the reduced row echelon form.  It is built on packed words only, by
    64x64 bit-block transposes of one strip of columns at a time, in memory
    O(k * cols) beside the elimination (see :func:`_nullspace_from_rref`).
    """
    return _nullspace_from_rref(*rref(m))


# Word columns per strip of _nullspace_from_rref: 512 columns, the fastest
# of 2 to 32 words at n=2000 and n=10002.
_STRIP_WORDS = 8


def _nullspace_from_rref(reduced: BitMatrix, pivots: list[int]) -> BitMatrix:
    """:func:`nullspace_basis` of a matrix whose ``rref`` is given.

    Let ``a`` be the ``cols x cols`` matrix whose row at the ``i``-th pivot
    is row ``i`` of ``reduced`` and whose rows at the free columns are zero.
    Column ``f`` of ``a`` is then basis vector ``f`` without its unit bit
    ``e_f``, so the basis is the free rows of ``a``'s transpose with those
    bits set.  ``a`` is never built whole: each strip of
    ``_STRIP_WORDS`` word columns that holds a free column is written
    straight into 64x64 bit blocks, transposed, and its free rows gathered
    into the output.  Only the 64-row blocks of ``a`` that hold a pivot are
    written and transposed; the others are zero, and so are the words of
    the output they would give.  Besides the ``k x cols`` output, memory is
    one strip of the pivot-holding row blocks, at most ``cols x 512`` bits.

    A ``reduced`` that holds a tail (:func:`_pack_tail`, as ``rref`` gives)
    is read from the tail, not packed.  The word columns below the tail
    hold only pivot columns, whose transposed rows are never gathered, so
    those words of each strip are left zero rather than read.
    """
    cols = reduced.cols
    nw = _nwords(cols)
    piv = np.array(pivots, dtype=np.intp)
    free = np.ones(cols, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, nw), dtype=np.uint64)
    held, piv_block = np.unique(piv // 64, return_inverse=True)
    piv_bit = piv % 64
    stored = reduced.words if reduced._tail is None else reduced._tail
    skip = nw - stored.shape[1]  # the word columns the tail leaves out
    pivot_rows = stored[: piv.size]
    for w0 in range(0, nw, _STRIP_WORDS):
        w1 = min(w0 + _STRIP_WORDS, nw)
        t0, t1 = np.searchsorted(free, (64 * w0, 64 * w1))
        if t0 == t1:
            continue  # the strip holds only pivot columns
        lo = max(w0, skip)
        # blocks[h, J, i] is word w0 + J of row 64 held[h] + i of a
        blocks = np.zeros((held.size, w1 - w0, 64), dtype=np.uint64)
        words = pivot_rows[:, lo - skip : w1 - skip]
        blocks.transpose(0, 2, 1)[piv_block, piv_bit, lo - w0 :] = words
        _transpose_blocks(blocks)
        # now blocks[h, J, j] is word held[h] of row 64 (w0 + J) + j of a's transpose
        f = free[t0:t1] - 64 * w0
        basis[t0:t1, held] = blocks[:, f // 64, f % 64].T
    basis[np.arange(free.size), free // 64] |= np.uint64(1) << (free % 64).astype(np.uint64)
    return BitMatrix(free.size, cols, basis)


def mat_vec(m: BitMatrix, v) -> np.ndarray:
    """GF(2) matrix-vector product ``m @ v`` as a uint8 bit vector;
    ValueError unless ``v`` holds ``m.cols`` entries, each 0 or 1."""
    vec = np.asarray(v)
    if vec.ndim != 1 or vec.shape[0] != m.cols:
        raise ValueError(f"vector length {vec.shape} does not match {m.cols} columns")
    vec = _as_bits(vec, "vector")
    packed = pack_vector(vec, m.cols)
    counts = np.bitwise_count(m.words & packed[None, :]).sum(axis=1)
    return (counts & 1).astype(np.uint8)


def vec_mat(v, m: BitMatrix) -> np.ndarray:
    """GF(2) row-vector-matrix product ``v @ m`` as a uint8 bit vector;
    ValueError unless ``v`` holds ``m.rows`` entries, each 0 or 1."""
    vec = np.asarray(v)
    if vec.ndim != 1 or vec.shape[0] != m.rows:
        raise ValueError(f"vector length {vec.shape} does not match {m.rows} rows")
    vec = _as_bits(vec, "vector")
    acc = np.bitwise_xor.reduce(m.words[np.nonzero(vec)[0]], axis=0)
    return _unpack_rows(acc[None, :], m.cols)[0]


def right_inverse(m: BitMatrix) -> BitMatrix:
    """A matrix ``d`` (cols x rows) with ``m @ d = identity`` over GF(2).

    Requires full row rank; raises ValueError naming the rank deficiency
    otherwise.  Computed by eliminating the packed rows of ``[m | I]``, the
    identity starting at the next word boundary: the row-operation record
    placed at the pivot columns is a right inverse.
    """
    mw = m.words.shape[1]
    words = np.zeros((m.rows, mw + _nwords(m.rows)), dtype=np.uint64)
    words[:, :mw] = m.words
    i = np.arange(m.rows)
    words[i, mw + i // 64] = np.uint64(1) << (i % 64).astype(np.uint64)
    # Restrict pivot search to the original columns.
    pivots = _eliminate(words, m.cols)
    if len(pivots) < m.rows:
        raise ValueError(
            f"matrix is rank-deficient: rank {len(pivots)} < {m.rows} rows; "
            "no right inverse exists"
        )
    d = np.zeros((m.cols, _nwords(m.rows)), dtype=np.uint64)
    d[pivots] = words[:, mw:]
    return BitMatrix(m.cols, m.rows, d)
