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
    if cols:
        padded[:, :cols] = dense
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def _unpack_rows(words: np.ndarray, cols: int) -> np.ndarray:
    rows = words.shape[0]
    if cols == 0 or rows == 0:
        return np.zeros((rows, cols), dtype=np.uint8)
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, :cols])


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
        return BitMatrix.from_dense(self.to_dense().T)

    def row_weights(self) -> np.ndarray:
        return np.bitwise_count(self.words).sum(axis=1).astype(np.int64)

    def column_weights(self) -> np.ndarray:
        return self.to_dense().sum(axis=0, dtype=np.int64)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.shape == other.shape
            and np.array_equal(self.words, other.words)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def rank(m: BitMatrix) -> int:
    """GF(2) rank (dimension of the row space)."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return int(rank_words(m.words.copy(), m.cols))


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form and pivot columns.

    The returned matrix has the same row space as the input; the number of
    pivots equals ``rank(m)`` and all non-pivot rows are zero.
    """
    words = m.words.copy()
    pivots = _eliminate(words, m.cols, clear_above=True)
    return BitMatrix(m.rows, m.cols, words), pivots


def nullspace_basis(m: BitMatrix) -> BitMatrix:
    """Basis of the right null space {v : m @ v = 0}, one vector per row.

    Returns a ``(cols - rank(m)) x cols`` matrix; for a generator matrix this
    is a parity-check matrix of the dual code and vice versa.
    """
    return _nullspace_from_rref(*rref(m))


def _nullspace_from_rref(reduced: BitMatrix, pivots: list[int]) -> BitMatrix:
    """:func:`nullspace_basis` of a matrix whose ``rref`` is given."""
    cols = reduced.cols
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    if free:
        dense = _unpack_rows(reduced.words[: len(pivots)], cols)
        basis[np.arange(len(free)), free] = 1
        if pivots:
            # v[pivot_i] = R[i, free] completes each free-column vector.
            basis[:, pivots] = dense[:, free].T
    return BitMatrix.from_dense(basis)


def mat_vec(m: BitMatrix, v) -> np.ndarray:
    """GF(2) matrix-vector product ``m @ v`` as a uint8 bit vector."""
    vec = np.asarray(v, dtype=np.uint8)
    if vec.ndim != 1 or vec.shape[0] != m.cols:
        raise ValueError(f"vector length {vec.shape} does not match {m.cols} columns")
    if m.rows == 0:
        return np.zeros(0, dtype=np.uint8)
    if m.cols == 0:
        return np.zeros(m.rows, dtype=np.uint8)
    packed = pack_vector(vec, m.cols)
    counts = np.bitwise_count(m.words & packed[None, :]).sum(axis=1)
    return (counts & 1).astype(np.uint8)


def vec_mat(v, m: BitMatrix) -> np.ndarray:
    """GF(2) row-vector-matrix product ``v @ m`` as a uint8 bit vector."""
    vec = np.asarray(v, dtype=np.uint8)
    if vec.ndim != 1 or vec.shape[0] != m.rows:
        raise ValueError(f"vector length {vec.shape} does not match {m.rows} rows")
    idx = np.nonzero(vec)[0]
    if idx.size == 0:
        return np.zeros(m.cols, dtype=np.uint8)
    acc = np.bitwise_xor.reduce(m.words[idx], axis=0)
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
    pivots = _eliminate(words, m.cols, clear_above=True)
    if len(pivots) < m.rows:
        raise ValueError(
            f"matrix is rank-deficient: rank {len(pivots)} < {m.rows} rows; "
            "no right inverse exists"
        )
    d = np.zeros((m.cols, _nwords(m.rows)), dtype=np.uint64)
    d[pivots] = words[:, mw:]
    return BitMatrix(m.cols, m.rows, d)
