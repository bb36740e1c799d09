"""Binary linear codes, LDPC ensembles, dual codes, and nested coset pairs.

A :class:`LinearCode` keeps three views of the same code: the raw check
matrix it was built from (``checks``, kept sparse-friendly for the iterative
decoders), a full-row-rank parity-check matrix ``h``, and a generator ``g``.
A dual code also keeps its parent's check rows as ``span``, a sparse
spanning set of the code itself; the BEC rank estimators peel it, or
``checks`` for a code without one.
:func:`regular_ldpc` and :func:`read_alist` pack ``checks`` from its edges,
so the matrix keeps their sorted keys (:func:`.bitlinalg._pack_keys`), and
a dual's ``span`` is that same matrix.
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
from ._kernels import _KEY_LOW, _KEY_SHIFT
from .bitlinalg import BitMatrix, _check_count, _keys_of, _pack_keys

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
                _check_count(deg, f"{name} degree", 1)
                if not frac >= 0:
                    raise ValueError(f"{name} has invalid fraction at degree {deg}: {frac}")
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
        dv = _check_count(dv, "dv")
        dc = _check_count(dc, "dc")
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
        columns); the iterative decoders, and the BEC rank estimators when
        ``span`` is None, run on this structure.
    span : BitMatrix or None
        Rows spanning the code itself (possibly redundant, ``n`` columns),
        when a sparse set is known: the dual of a code keeps the parent's
        ``checks``, and the BEC rank estimators peel it in their place.
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
        free = _free_columns(n, pivots)
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

    def edge_lists(self) -> tuple[np.ndarray, np.ndarray]:
        """(check_index, var_index) arrays for the edges of ``checks``,
        row-major.

        Cached together with :meth:`check_layout`: the decoders call these
        once per decode.
        """
        return self._edge_layout()[:2]

    def check_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges of ``checks`` laid out check-major, for the decoders.

        Returns ``(slot_var, var_slots)``.  ``slot_var`` is ``(d, m + 1)``,
        ``d`` the largest check degree: column ``c < m`` holds check ``c``'s
        variables in edge order, padded with ``n``; column ``m`` is all
        padding.  ``var_slots`` is ``(dv, n + 1)``, ``dv`` the largest
        variable degree: column ``v < n`` holds the flat indices into
        ``slot_var`` of variable ``v``'s edges in edge order, padded with
        ``m``, the first slot of column ``m``; column ``n`` is all padding.
        Slots run down the rows, so a reduction over a check's or a
        variable's edges adds whole contiguous rows.
        """
        return self._edge_layout()[2:]

    def _edge_layout(self):
        if self._edge_cache is None:
            keys = _keys_of(self.checks)
            chk, var = keys >> _KEY_SHIFT, keys & _KEY_LOW
            self._edge_cache = (chk, var, *_check_layout(chk, var, self.checks.rows, self.n))
        return self._edge_cache

    def degree_distribution(self) -> DegreeDistribution:
        """Empirical edge-perspective degree distribution of ``checks``."""
        keys = _keys_of(self.checks)
        edges = keys.size
        if edges == 0:
            raise ValueError("check matrix has no edges")
        col_w = np.bincount(keys & _KEY_LOW)
        row_w = np.bincount(keys >> _KEY_SHIFT)
        var_edge: dict[int, float] = {}
        for d in np.unique(col_w[col_w > 0]):
            var_edge[int(d)] = float(d * np.count_nonzero(col_w == d) / edges)
        chk_edge: dict[int, float] = {}
        for d in np.unique(row_w[row_w > 0]):
            chk_edge[int(d)] = float(d * np.count_nonzero(row_w == d) / edges)
        return DegreeDistribution(var_edge, chk_edge)

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k})"


def _free_columns(n: int, pivots: np.ndarray) -> np.ndarray:
    """The columns below ``n`` that are not ``pivots``, increasing.  Pivots
    out of range are passed over, for :func:`_holds_identity` to reject."""
    free = np.ones(n, dtype=bool)
    free[pivots[(pivots >= 0) & (pivots < n)]] = False
    return np.flatnonzero(free)


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


def _check_layout(chk, var, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`LinearCode.check_layout` of the row-major edges ``(chk, var)``."""

    def slots(rows, nrows):
        # each edge's position among its row's edges, with the row width
        deg = np.bincount(rows, minlength=nrows)
        first = np.cumsum(deg) - deg
        return np.arange(rows.size) - first[rows], int(deg.max(initial=0))

    pos, d = slots(chk, m)
    slot = pos * (m + 1) + chk
    slot_var = np.full((d, m + 1), n, dtype=np.int64)
    slot_var.flat[slot] = var
    by_var = np.argsort(var << _KEY_SHIFT | chk)  # distinct keys: the stable order
    var = var[by_var]
    pos, dv = slots(var, n)
    var_slots = np.full((dv, n + 1), m, dtype=np.int64)
    var_slots[pos, var] = slot[by_var]
    return slot_var, var_slots


def from_parity_check(h: BitMatrix) -> LinearCode:
    """Build a code from a parity-check matrix.

    The stored ``h`` is the reduced row echelon form restricted to its
    nonzero rows, so duplicated or dependent check rows yield the same code
    object; the original matrix is retained as ``checks`` for the decoders.
    ``checks`` is a copy: codes are immutable, and the caller may go on
    changing its matrix.  (:func:`regular_ldpc` and :func:`read_alist` hand
    over the matrix they have just packed, which nothing else holds, and
    skip the copy.)
    """
    return _from_checks(h.copy())


def _from_checks(checks: BitMatrix) -> LinearCode:
    """:func:`from_parity_check` keeping ``checks`` itself, not a copy."""
    if checks.cols < 1:
        raise ValueError("block length must be at least 1")
    reduced, pivots = bitlinalg.rref(checks)
    r = len(pivots)
    h = BitMatrix(r, checks.cols, reduced.words[:r])
    g = bitlinalg._nullspace_from_rref(h, pivots)
    return LinearCode(h, g, checks, pivots)


def dual(code: LinearCode) -> LinearCode:
    """The dual code: generator and parity-check views swap roles.

    The parent's raw ``checks`` span the dual, so they are kept as its
    ``span``; the parent's ``g`` holds the identity off its ``pivots``.
    Codes are immutable, so the dual shares the parent's matrices.
    """
    free = _free_columns(code.n, code.pivots)
    return LinearCode(code.g, code.h, code.g, free, span=code.checks)


def regular_ldpc(n: int, dv: int, dc: int, seed: int) -> LinearCode:
    """Sample a (dv, dc)-regular LDPC code from the configuration ensemble.

    Edge sockets are matched through a seeded permutation; parallel edges are
    removed by re-permuting the offending sockets against random partners for
    a bounded number of rounds.  Every column of the result has weight
    exactly ``dv`` and every row weight exactly ``dc``; the design rate is
    ``1 - dv/dc`` and the true rate can only be larger.

    Deterministic: the same ``(n, dv, dc, seed)`` always yields the same
    matrix.  ``checks`` is packed from, and keeps, the sorted edge keys of
    the matching.
    """
    n = _check_count(n, "n", 0)  # n < dc is refused below, naming dc
    dv = _check_count(dv, "dv")
    dc = _check_count(dc, "dc")
    if dv >= dc:
        raise ValueError(f"need 1 <= dv < dc, got dv={dv}, dc={dc}")
    if (n * dv) % dc != 0:
        raise ValueError(f"n*dv = {n * dv} is not divisible by dc = {dc}")
    if n < dc:
        raise ValueError(f"block length {n} cannot support row weight {dc}")
    m = n * dv // dc
    keys = _matched_sockets(n, dv, m, dc, np.random.default_rng(seed))
    return _from_checks(_pack_keys(keys, m, n))


def _matched_sockets(n: int, dv: int, m: int, dc: int, rng) -> np.ndarray:
    """The sorted edge keys (:func:`._kernels._edge_keys`) of
    :func:`regular_ldpc`'s socket matching: ``dv`` sockets per variable and
    ``dc`` per check, matched by ``rng``, with parallel edges re-drawn."""
    edges = n * dv
    var_of_socket = np.repeat(np.arange(n, dtype=np.int64), dv)
    chk_of_socket = np.repeat(np.arange(m, dtype=np.int64), dc)[rng.permutation(edges)]

    var_high = var_of_socket << _KEY_SHIFT
    for _ in range(_LDPC_FIXUP_ROUNDS):
        # The sockets by variable, then check, ties in socket order.  The
        # order picks the sockets re-drawn, so it must stay the permutation
        # np.lexsort((chk, var)) gives, which takes 6.5 against 0.53 ms at
        # n=10002 (numpy 2.4.6, 2 vCPUs).
        by_var = var_high | chk_of_socket
        order = np.argsort(by_var, kind="stable")
        bad = order[np.flatnonzero(np.diff(by_var[order]) == 0)]
        if bad.size == 0:
            break
        partners = rng.integers(0, edges, size=bad.size)
        for a, b in zip(bad, partners):
            chk_of_socket[a], chk_of_socket[b] = chk_of_socket[b], chk_of_socket[a]
    else:
        raise RuntimeError(
            f"could not remove parallel edges after {_LDPC_FIXUP_ROUNDS} rounds"
        )
    return np.sort(chk_of_socket << _KEY_SHIFT | var_of_socket)


class NestedCodePair:
    """Fine code {0,1}^n partitioned by a coarse code and its cosets.

    Messages are ``m = n - k1`` bits; message ``w`` indexes the coset
    ``{x : h1 @ x = w}`` of the coarse code.  ``h1`` holds the identity at
    the coarse code's pivots, so ``w`` written at the pivots lands in coset
    ``w`` and decoding is the single multiply ``h1 @ y``.

    ``_rank_plan`` is the erasure-rank estimator's own state for the pair,
    which :func:`.secrecy._rank_plan` builds on the pair's first rank.
    """

    __slots__ = ("coarse", "h1", "_rank_plan")

    def __init__(self, coarse: LinearCode):
        self.coarse = coarse
        self.h1 = coarse.h
        self._rank_plan = None

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

    def pack(chk, var):
        return _pack_keys(np.sort(chk << _KEY_SHIFT | var), m, n)

    col_of, row_idx = read_index_block(5, n, col_deg, m, "row")
    h = pack(row_idx, col_of)
    from_rows = pack(*read_index_block(5 + n, m, row_deg, n, "column"))
    differ = np.flatnonzero((h.words != from_rows.words).any(axis=1))
    if differ.size:
        raise AlistParseError(
            f"line {5 + n + differ[0]}: row list disagrees with column lists"
        )
    return _from_checks(h)


def write_alist(code: LinearCode, path) -> None:
    """Write the raw check matrix of ``code`` in alist format."""
    m, n = code.checks.shape
    keys = _keys_of(code.checks)
    chk, var = keys >> _KEY_SHIFT, keys & _KEY_LOW  # row-major: the row lists
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
