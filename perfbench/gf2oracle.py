"""Independent GF(2) rank oracle on Python integer bitsets.

Shares no code with the package's elimination kernels: each vector is one
Python int, and the rank is the size of an XOR basis keyed by leading bit.
Slow, but fast enough to check a handful of n=2000 erasure patterns.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of the given bit vectors (bit i of an int = entry i)."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = v
                break
            v ^= pivot
    return len(basis)


def column_ints(dense: np.ndarray) -> list[int]:
    """Columns of a 0/1 matrix as ints, row i of the matrix at bit i."""
    packed = np.packbits(np.asarray(dense, dtype=np.uint8), axis=0, bitorder="little")
    return [int.from_bytes(packed[:, j].tobytes(), "little") for j in range(packed.shape[1])]


def row_ints(dense: np.ndarray) -> list[int]:
    """Rows of a 0/1 matrix as ints, column j of the matrix at bit j."""
    return column_ints(np.asarray(dense).T)
