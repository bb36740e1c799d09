"""Binary linear codes, LDPC ensembles, dual codes, and nested coset pairs.

A :class:`LinearCode` keeps three views of the same code: the raw check
matrix it was built from (``checks``, kept sparse-friendly for the iterative
decoders), a full-row-rank parity-check matrix ``h``, and a generator ``g``.
A dual code also keeps its parent's check rows as ``span``, a sparse
spanning set of the code itself, which the BEC rank estimators peel.
The true dimension ``k`` is always computed from rank, never assumed from a
design rate, because finite-length LDPC matrices are routinely rank-deficient
and the coset message length must be exact.

Codes are immutable after construction; distinct codes may be built
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitlinalg
from .bitlinalg import BitMatrix

_LDPC_FIXUP_ROUNDS = 1000


def _edge_polynomial(terms, x):
    """The sum of ``f * x**e`` over ``terms``, added left to right from 0."""
    s = 0
    for f, e in terms:
        s += f * x ** e
    return s


@dataclass(frozen=True)
class DegreeDistribution:
    """Edge-perspective degree distribution pair (variable, check).

    ``var_edge[i]`` is the fraction of edges incident to degree-``i``
    variable nodes and similarly for ``chk_edge``; both must sum to one.
    """

    var_edge: dict[int, float]
    chk_edge: dict[int, float]

    def __post_init__(self):
        for name, dist in (("var_edge", self.var_edge), ("chk_edge", self.chk_edge)):
            if not dist:
                raise ValueError(f"{name} is empty")
            for deg, frac in dist.items():
                if deg < 1 or frac < 0:
                    raise ValueError(f"{name} has invalid entry {deg}: {frac}")
            if abs(sum(dist.values()) - 1.0) > 1e-9:
                raise ValueError(f"{name} fractions must sum to 1")
        r = self.design_rate
        if not -1e-9 <= r <= 1 + 1e-9:
            raise ValueError(f"design rate {r} outside [0, 1]")
        # (coefficient, exponent) terms of lam and rho, in dict order; density
        # evolution evaluates both thousands of times per threshold.
        for name, dist in (("_lam_terms", self.var_edge), ("_rho_terms", self.chk_edge)):
            object.__setattr__(self, name, tuple((f, d - 1) for d, f in dist.items()))

    @classmethod
    def regular(cls, dv: int, dc: int) -> "DegreeDistribution":
        return cls({dv: 1.0}, {dc: 1.0})

    def lam(self, x):
        """Variable-edge polynomial: sum of var_edge[i] * x**(i-1)."""
        return _edge_polynomial(self._lam_terms, x)

    def rho(self, x):
        """Check-edge polynomial: sum of chk_edge[i] * x**(i-1)."""
        return _edge_polynomial(self._rho_terms, x)

    @property
    def design_rate(self) -> float:
        inv_chk = sum(f / d for d, f in self.chk_edge.items())
        inv_var = sum(f / d for d, f in self.var_edge.items())
        return 1.0 - inv_chk / inv_var


class LinearCode:
    """Binary linear code with parity-check and generator views.

    Attributes
    ----------
    n, k : int
        Block length and dimension: the width of ``h`` and the row count of
        ``g`` (``k`` from the exact GF(2) rank).
    h : BitMatrix
        Full-row-rank parity-check matrix, ``(n - k) x n``.
    g : BitMatrix
        Generator matrix, ``k x n``, with ``g @ h.T = 0``.
    checks : BitMatrix
        The check matrix as originally given (possibly redundant rows, ``n``
        columns); the iterative decoders run on this structure.
    span : BitMatrix or None
        Rows spanning the code itself (possibly redundant, ``n`` columns),
        when a sparse set is known: the dual of a code keeps the parent's
        ``checks``.
    pivots : numpy.ndarray
        Per row ``i`` of ``h``, the column where ``h`` holds row ``i`` of the
        identity, increasing; ``g`` holds the identity on the other columns
        in the same way.  Every code is in this systematic form; the
        constructor raises ``ValueError`` otherwise.
    """

    __slots__ = ("n", "k", "h", "g", "checks", "span", "pivots", "_edge_cache")

    def __init__(self, h, g, checks, pivots, span=None):
        n, k = h.cols, g.rows
        pivots = np.asarray(pivots, dtype=np.int64)
        free = np.setdiff1d(np.arange(n), pivots)
        if g.cols != n or h.rows + k != n or not (
            _holds_identity(h, pivots) and _holds_identity(g, free)
        ):
            raise ValueError(
                "h and g must be (n - k) x n and k x n, h holding the identity"
                " at the pivots and g at the other columns"
            )
        for name, m in (("checks", checks), ("span", span)):
            if m is not None and m.cols != n:
                raise ValueError(f"{name} has {m.cols} columns, not n = {n}")
        self.n = n
        self.k = k
        self.h = h
        self.g = g
        self.checks = checks
        self.span = span
        self.pivots = pivots
        self._edge_cache = None

    @property
    def rate(self) -> float:
        return self.k / self.n

    def codewords(self):
        """Yield all 2**k codewords (small codes only)."""
        if self.k > 20:
            raise ValueError(f"refusing to enumerate 2^{self.k} codewords")
        for idx in range(1 << self.k):
            msg = np.array([(idx >> i) & 1 for i in range(self.k)], dtype=np.uint8)
            yield bitlinalg.vec_mat(msg, self.g)

    def edge_lists(self) -> tuple[np.ndarray, np.ndarray]:
        """(check_index, var_index) arrays for the edges of ``checks``.

        Cached: the decoders call this once per decode.
        """
        if self._edge_cache is None:
            self._edge_cache = _edges(self.checks)
        return self._edge_cache

    def degree_distribution(self) -> DegreeDistribution:
        """Empirical edge-perspective degree distribution of ``checks``."""
        col_w = self.checks.column_weights()
        row_w = self.checks.row_weights()
        edges = int(col_w.sum())
        if edges == 0:
            raise ValueError("check matrix has no edges")
        var_edge: dict[int, float] = {}
        for d in np.unique(col_w[col_w > 0]):
            var_edge[int(d)] = float(d * np.count_nonzero(col_w == d) / edges)
        chk_edge: dict[int, float] = {}
        for d in np.unique(row_w[row_w > 0]):
            chk_edge[int(d)] = float(d * np.count_nonzero(row_w == d) / edges)
        return DegreeDistribution(var_edge, chk_edge)

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k})"


def _holds_identity(m: BitMatrix, cols: np.ndarray) -> bool:
    """Whether ``m[:, cols]`` is the identity: row ``i`` has exactly one one
    among the distinct columns ``cols``, at ``cols[i]``.  Read off the
    packed words one word column at a time, never transposed or unpacked."""
    if cols.shape != (m.rows,):
        return False
    if not m.rows:
        return True
    if cols.min() < 0 or cols.max() >= m.cols:
        return False
    in_cols = np.zeros(m.cols, dtype=bool)
    in_cols[cols] = True
    if np.count_nonzero(in_cols) != cols.size:
        return False
    mask = bitlinalg.pack_vector(in_cols, m.cols)
    ones = np.zeros(m.rows, dtype=np.int64)
    for w in np.flatnonzero(mask):
        ones += np.bitwise_count(m.words[:, w] & mask[w])
    own = m.words[np.arange(m.rows), cols // 64] >> (cols % 64).astype(np.uint64)
    return bool((ones == 1).all() and (own & np.uint64(1)).all())


def _edges(m: BitMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(row_index, column_index) arrays of the ones of ``m``, row-major.

    Unpacks only the nonzero words, so a sparse matrix is never made dense.
    """
    ri, wi = np.nonzero(m.words)
    word_bytes = m.words[ri, wi].view(np.uint8).reshape(-1, 8)
    k, bit = np.nonzero(np.unpackbits(word_bytes, axis=1, bitorder="little"))
    return ri[k].astype(np.int64), (wi[k] * 64 + bit).astype(np.int64)


def _pack_edges(rows, cols, nrows: int, ncols: int) -> BitMatrix:
    """The ``nrows x ncols`` matrix with its ones at ``(rows[i], cols[i])``,
    packed without a dense intermediate: the inverse of :func:`_edges`."""
    words = np.zeros((nrows, bitlinalg._nwords(ncols)), dtype=np.uint64)
    # One bit per edge; ufunc.at ORs the edges that share a word together.
    np.bitwise_or.at(words, (rows, cols // 64), np.uint64(1) << (cols % 64).astype(np.uint64))
    return BitMatrix(nrows, ncols, words)


def from_parity_check(h: BitMatrix) -> LinearCode:
    """Build a code from a parity-check matrix.

    The stored ``h`` is the reduced row echelon form restricted to its
    nonzero rows, so duplicated or dependent check rows yield the same code
    object; the original matrix is retained as ``checks`` for the decoders.
    """
    if h.cols < 1:
        raise ValueError("block length must be at least 1")
    reduced, pivots = bitlinalg.rref(h)
    r = len(pivots)
    h_norm = BitMatrix(r, h.cols, np.ascontiguousarray(reduced.words[:r]))
    g = bitlinalg._nullspace_from_rref(h_norm, pivots)
    return LinearCode(h_norm, g, h.copy(), pivots)


def dual(code: LinearCode) -> LinearCode:
    """The dual code: generator and parity-check views swap roles.

    The parent's raw ``checks`` span the dual, so they are kept as its
    ``span``; the parent's ``g`` holds the identity off its ``pivots``.
    Codes are immutable, so the dual shares the parent's matrices.
    """
    free = np.setdiff1d(np.arange(code.n), code.pivots)
    return LinearCode(code.g, code.h, code.g, free, span=code.checks)


def regular_ldpc(n: int, dv: int, dc: int, seed: int) -> LinearCode:
    """Sample a (dv, dc)-regular LDPC code from the configuration ensemble.

    Edge sockets are matched through a seeded permutation; parallel edges are
    removed by re-permuting the offending sockets against random partners for
    a bounded number of rounds.  Every column of the result has weight
    exactly ``dv`` and every row weight exactly ``dc``; the design rate is
    ``1 - dv/dc`` and the true rate can only be larger.

    Deterministic: the same ``(n, dv, dc, seed)`` always yields the same
    matrix.
    """
    if dv < 1 or dc < 1 or dv >= dc:
        raise ValueError(f"need 1 <= dv < dc, got dv={dv}, dc={dc}")
    if (n * dv) % dc != 0:
        raise ValueError(f"n*dv = {n * dv} is not divisible by dc = {dc}")
    if n < dc:
        raise ValueError(f"block length {n} cannot support row weight {dc}")
    m = n * dv // dc
    rng = np.random.default_rng(seed)
    edges = n * dv
    var_of_socket = np.repeat(np.arange(n, dtype=np.int64), dv)
    chk_of_socket = np.repeat(np.arange(m, dtype=np.int64), dc)[rng.permutation(edges)]

    for _ in range(_LDPC_FIXUP_ROUNDS):
        order = np.lexsort((chk_of_socket, var_of_socket))
        same = (np.diff(var_of_socket[order]) == 0) & (np.diff(chk_of_socket[order]) == 0)
        bad = order[np.nonzero(same)[0]]
        if bad.size == 0:
            break
        partners = rng.integers(0, edges, size=bad.size)
        for a, b in zip(bad, partners):
            chk_of_socket[a], chk_of_socket[b] = chk_of_socket[b], chk_of_socket[a]
    else:
        raise RuntimeError(
            f"could not remove parallel edges after {_LDPC_FIXUP_ROUNDS} rounds"
        )

    h = _pack_edges(chk_of_socket, var_of_socket, m, n)
    return from_parity_check(h)


class NestedCodePair:
    """Fine code {0,1}^n partitioned by a coarse code and its cosets.

    Messages are ``m = n - k1`` bits; message ``w`` indexes the coset
    ``{x : h1 @ x = w}`` of the coarse code.  ``h1`` holds the identity at
    the coarse code's pivots, so ``w`` written at the pivots lands in coset
    ``w`` and decoding is the single multiply ``h1 @ y``.
    """

    __slots__ = ("coarse", "h1", "_h1_columns_cache", "_unit_rows", "_span_edges")

    def __init__(self, coarse: LinearCode):
        self.coarse = coarse
        self.h1 = coarse.h
        self._h1_columns_cache = None
        # Per column of h1, the row its identity puts there, or -1 off the pivots.
        self._unit_rows = np.full(self.n, -1, dtype=np.int64)
        self._unit_rows[coarse.pivots] = np.arange(coarse.pivots.size)
        # Edges of the coarse code's sparse span, peeled per erasure pattern.
        self._span_edges = None if coarse.span is None else _edges(coarse.span)

    @property
    def _h1_columns(self) -> BitMatrix:
        """Columns of ``h1`` packed as rows, built on first use: the
        per-trial erasure-pattern ranks reduce to a row gather from them."""
        if self._h1_columns_cache is None:
            self._h1_columns_cache = self.h1.transpose()
        return self._h1_columns_cache

    @property
    def n(self) -> int:
        return self.coarse.n

    @property
    def m(self) -> int:
        return self.coarse.n - self.coarse.k

    @property
    def num_messages(self) -> int:
        return 1 << self.m

    @property
    def rate(self) -> float:
        return self.m / self.n

    def __repr__(self):
        return f"NestedCodePair(n={self.n}, m={self.m})"


def nested_pair_from_coarse(coarse: LinearCode) -> NestedCodePair:
    """Nest ``coarse`` inside the full space {0,1}^n."""
    return NestedCodePair(coarse)


class AlistParseError(ValueError):
    """Malformed alist file; the message carries the offending line number."""


def _alist_ints(line: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise AlistParseError(f"line {lineno}: {exc}") from None


def read_alist(path) -> LinearCode:
    """Read a parity-check matrix in alist text format.

    Layout: ``n m`` on the first line, the two maximum degrees, per-column
    and per-row degree lists, then one line of 1-based row indices per
    column and one line of 1-based column indices per row.  Zero padding
    after the declared degree is tolerated; a zero or out-of-range index
    among the declared entries is an error.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()

    def need(lineno: int) -> str:
        if lineno > len(lines):
            raise AlistParseError(f"line {lineno}: unexpected end of file")
        return lines[lineno - 1]

    header = _alist_ints(need(1), 1)
    if len(header) != 2:
        raise AlistParseError("line 1: expected 'n m'")
    n, m = header
    if n < 1 or m < 0:
        raise AlistParseError(f"line 1: invalid dimensions n={n}, m={m}")
    if len(_alist_ints(need(2), 2)) != 2:
        raise AlistParseError("line 2: expected two maximum degrees")
    col_deg = _alist_ints(need(3), 3)
    if len(col_deg) != n:
        raise AlistParseError(f"line 3: expected {n} column degrees, got {len(col_deg)}")
    row_deg = _alist_ints(need(4), 4)
    if len(row_deg) != m:
        raise AlistParseError(f"line 4: expected {m} row degrees, got {len(row_deg)}")
    for lineno, degs in ((3, col_deg), (4, row_deg)):
        if min(degs, default=0) < 0:
            raise AlistParseError(f"line {lineno}: negative degree {min(degs)}")

    def read_index_block(start, count, degs, limit, what):
        own, block = [], []
        for i in range(count):
            lineno = start + i
            entries = _alist_ints(need(lineno), lineno)
            if len(entries) < degs[i]:
                raise AlistParseError(
                    f"line {lineno}: expected {degs[i]} indices, got {len(entries)}"
                )
            idx = entries[: degs[i]]
            seen = set()
            for v in idx:
                if v < 1 or v > limit:
                    raise AlistParseError(
                        f"line {lineno}: {what} index {v} outside 1..{limit}"
                    )
                if v in seen:
                    raise AlistParseError(f"line {lineno}: {what} index {v} repeated")
                seen.add(v)
            if any(v != 0 for v in entries[degs[i] :]):
                raise AlistParseError(f"line {lineno}: nonzero padding entries")
            own += [i] * len(idx)
            block += idx
        return np.array(own, dtype=np.int64), np.array(block, dtype=np.int64) - 1

    col_of, row_idx = read_index_block(5, n, col_deg, m, "row")
    h = _pack_edges(row_idx, col_of, m, n)
    from_rows = _pack_edges(*read_index_block(5 + n, m, row_deg, n, "column"), m, n)
    differ = np.flatnonzero((h.words != from_rows.words).any(axis=1))
    if differ.size:
        raise AlistParseError(
            f"line {5 + n + differ[0]}: row list disagrees with column lists"
        )
    return from_parity_check(h)


def write_alist(code: LinearCode, path) -> None:
    """Write the raw check matrix of ``code`` in alist format."""
    m, n = code.checks.shape
    chk, var = _edges(code.checks)  # row-major: the row lists
    by_col = np.lexsort((chk, var))  # column-major: the column lists
    col_deg = np.bincount(var, minlength=n)
    row_deg = np.bincount(chk, minlength=m)

    def index_lines(idx, degs):
        one_based, ends = (idx + 1).tolist(), np.cumsum(degs).tolist()
        return [" ".join(map(str, one_based[e - d : e])) for d, e in zip(degs, ends)]

    out = [
        f"{n} {m}",
        f"{int(col_deg.max(initial=0))} {int(row_deg.max(initial=0))}",
        " ".join(str(int(d)) for d in col_deg),
        " ".join(str(int(d)) for d in row_deg),
        *index_lines(chk[by_col], col_deg),
        *index_lines(var, row_deg),
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(out) + "\n")
