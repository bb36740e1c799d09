"""Exact GF(2) linear algebra on bit-packed matrices.

This module is the computational substrate for parity-check matrices,
syndromes, and rank-based equivocation.  Matrices are dense and bit-packed:
64 columns per uint64 word, row-major, with all padding bits beyond the
declared column count kept zero.

All public operations are pure: they never mutate their inputs (elimination
runs on a working copy), so values can be shared freely between concurrent
workers.
"""

from __future__ import annotations

import sys

import numpy as np

from ._kernels import _eliminate, rank_words

if sys.byteorder != "little":  # pragma: no cover
    raise ImportError("bit-packed word layout assumes a little-endian platform")


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


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def pack_vector(v: np.ndarray, cols: int) -> np.ndarray:
    """Pack a length-`cols` bit vector into a 1-D uint64 word array."""
    return _pack_rows(np.asarray(v, dtype=np.uint8).reshape(1, -1), cols)[0]


class BitMatrix:
    """Dense GF(2) matrix stored as bit-packed rows.

    Use the constructors :meth:`from_dense`, :meth:`zeros`, and
    :meth:`identity`; the raw ``words`` array is part of the public layout
    (shape ``(rows, ceil(cols / 64))``, column ``j`` at bit ``j % 64`` of
    word ``j // 64``) but should be treated as read-only.
    """

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if words.shape != (rows, _nwords(cols)):
            raise ValueError(
                f"word array shape {words.shape} does not match "
                f"{rows}x{cols} matrix"
            )
        self.rows = rows
        self.cols = cols
        self.words = words

    @classmethod
    def from_dense(cls, array) -> "BitMatrix":
        dense = np.asarray(array, dtype=np.uint8)
        if dense.ndim != 2:
            raise ValueError("expected a 2-D array of bits")
        if dense.size and dense.max() > 1:
            raise ValueError("entries must be 0 or 1")
        rows, cols = dense.shape
        return cls(rows, cols, _pack_rows(dense, cols))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, np.zeros((rows, _nwords(cols)), dtype=np.uint64))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_dense(np.eye(n, dtype=np.uint8))

    def to_dense(self) -> np.ndarray:
        return _unpack_rows(self.words, self.cols)

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.rows, self.cols, self.words.copy())

    def transpose(self) -> "BitMatrix":
        """The transpose, computed on the packed words by 64x64 bit blocks;
        no dense array is built."""
        return BitMatrix(self.cols, self.rows, _transpose_words(self.words, self.rows, self.cols))

    def row_weights(self) -> np.ndarray:
        return _popcount_rows(self.words)

    def column_weights(self) -> np.ndarray:
        return _popcount_rows(_transpose_words(self.words, self.rows, self.cols))

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


def rank(m: BitMatrix) -> int:
    """GF(2) rank (dimension of the row space)."""
    return rank_words(m.words, m.cols)


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form and pivot columns.

    The returned matrix has the same row space as the input; the number of
    pivots equals ``rank(m)`` and all non-pivot rows are zero.
    """
    words = m.words.copy()
    pivots = _eliminate(words, m.cols)
    return BitMatrix(m.rows, m.cols, words), pivots


def nullspace_basis(m: BitMatrix) -> BitMatrix:
    """Basis of the right null space {v : m @ v = 0}, one vector per row.

    Returns a ``(cols - rank(m)) x cols`` matrix; for a generator matrix this
    is a parity-check matrix of the dual code and vice versa.  Row ``t`` has
    a one at the ``t``-th free (non-pivot) column ``f``, zeros at the other
    free columns, and ``R[i, f]`` at the ``i``-th pivot column, ``R`` being
    the reduced row echelon form.  It is built on packed words only, with
    one 64x64 bit-block transpose (see :func:`_nullspace_from_rref`).
    """
    return _nullspace_from_rref(*rref(m))


def _nullspace_from_rref(reduced: BitMatrix, pivots: list[int]) -> BitMatrix:
    """:func:`nullspace_basis` of a matrix whose ``rref`` is given.

    Let ``a`` be the ``cols x cols`` matrix whose row at the ``i``-th pivot
    is row ``i`` of ``reduced`` and whose row at each free column ``f`` is
    the unit vector ``e_f``.  Column ``f`` of ``a`` is then basis vector
    ``f``, so the basis is the free rows of ``a``'s transpose: ``a`` is
    written straight into 64x64 bit blocks, transposed, and its free rows
    gathered.
    """
    cols = reduced.cols
    piv = np.array(pivots, dtype=np.intp)
    free = np.ones(cols, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    nw = _nwords(cols)
    blocks = np.zeros((nw, nw, 64), dtype=np.uint64)
    rows_of = blocks.transpose(0, 2, 1)  # rows_of[I, i] is row 64 I + i of a
    rows_of[piv // 64, piv % 64] = reduced.words[: piv.size]
    rows_of[free // 64, free % 64, free // 64] = np.uint64(1) << (free % 64).astype(np.uint64)
    _transpose_blocks(blocks)
    basis = np.ascontiguousarray(blocks[:, free // 64, free % 64].T)
    return BitMatrix(free.size, cols, basis)


def mat_vec(m: BitMatrix, v) -> np.ndarray:
    """GF(2) matrix-vector product ``m @ v`` as a uint8 bit vector."""
    vec = np.asarray(v, dtype=np.uint8)
    if vec.ndim != 1 or vec.shape[0] != m.cols:
        raise ValueError(f"vector length {vec.shape} does not match {m.cols} columns")
    packed = pack_vector(vec, m.cols)
    counts = np.bitwise_count(m.words & packed[None, :]).sum(axis=1)
    return (counts & 1).astype(np.uint8)


def vec_mat(v, m: BitMatrix) -> np.ndarray:
    """GF(2) row-vector-matrix product ``v @ m`` as a uint8 bit vector."""
    vec = np.asarray(v, dtype=np.uint8)
    if vec.ndim != 1 or vec.shape[0] != m.rows:
        raise ValueError(f"vector length {vec.shape} does not match {m.rows} rows")
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
