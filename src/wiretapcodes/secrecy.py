"""Coset encoding and equivocation estimation for nested wiretap codes.

The encoder hides an ``m``-bit message as a uniformly random member of the
message's coset; the noiseless main channel recovers it with one syndrome
multiply.  The eavesdropper-side machinery estimates how much of the
message survives:

* On a BEC the conditional message entropy given an erasure pattern is
  *exact*: the transmitted word is uniform on a coset, so the message
  ``w = h1 @ x`` given the unerased positions is uniform on an affine image
  and its entropy equals the GF(2) rank of ``h1`` restricted to the erased
  columns.  Monte Carlo over patterns averages these exact per-pattern
  values.  The rank is found by peeling first: the erased pivot columns of
  ``h1`` and, when the coarse code has a sparse span (a dual pair), that
  span on the unerased positions.
* For AWGN and BSC eavesdroppers the BEC-embedding degradations make the
  same rank average a lower bound on the true equivocation rate (the
  message, the embedded BEC output, and the final observation form a Markov
  chain).
* When the coarse code itself is the good code, a Fano argument converts
  the eavesdropper's measured in-coset word-error rate into an equivocation
  lower bound.

A brute-force joint-distribution oracle for tiny block lengths validates
the rank identity.  The Monte Carlo estimator reads one generator in
sequence: it draws its patterns in blocks, each one ``rng.random((T, n))``
call, which fills the block row by row from the same stream as ``T`` calls
of ``rng.random(n)``, so every pattern is the one a trial-by-trial draw
would give.  Estimates aggregate by pure reduction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bitlinalg
from ._kernels import rank_words
from .channels import BEC, BIAWGN, BSC, ChannelModel, awgn_llr, biawgn_transmit, c_biawgn, modulate
from .codes import _KEY_LOW, _KEY_SHIFT, NestedCodePair, _pack_edges
from .decoders import _peel_edges, _sum_product
from .thresholds import Z95, wilson_interval

__all__ = [
    "CosetCodeword",
    "EquivocationEstimate",
    "BecEquivocationTable",
    "encode",
    "coset_word",
    "main_decode",
    "exact_equivocation_bec",
    "mc_equivocation_bec",
    "equivocation_lb",
    "approach1_equivocation_bound",
    "brute_force_equivocation_bec",
    "brute_force_equivocation_bsc",
]

_BRUTE_FORCE_BEC_LIMIT = 12
_BRUTE_FORCE_BSC_LIMIT = 10
# Work rule of _erased_ranks: the stopping-set core (``e`` edges) is ranked
# when _CORE_WORK * e < s**2, ``s`` the smaller side of the dense rest.
# Break-even on the n=2000 (3,6)-dual pair: the two paths tie at about
# 3.4 ms per rank where s**2 / e is about 30, near erasure rate 0.34.  Summed
# over 24 patterns at each of 13 erasure rates 0.25-0.527 (best of 5 per
# rank; two pattern sets, 8 repeats; numpy 2.4, Python 3.11, one core of a
# 2-vCPU x86-64 host), the rank time was 707-833 ms at 30, 715-837 at 25,
# 731-853 at 20, 764-891 at 50 and 1160-1394 for the dense rest alone; 30
# won every repeat.
_CORE_WORK = 30
# How _erased_ranks finds a rank: nothing erased (or no message), peeling
# alone (an empty core), the ranked core, or the ranked dense rest.
_RANK_PATHS = ("none", "empty_core", "core", "dense_rest")
# Patterns mc_equivocation_bec draws and peels at once.  A block peels for
# as many rounds as its slowest pattern, so larger blocks stop paying.
# Median per trial on the n=2000 (3,6)-dual pair over block sizes 1, 4, 8,
# 16 and 32 (alternated; 40 calls of 64 trials at erasure rate 0.60, 12 of 32
# at 0.45 and 0.30; numpy 2.4, Python 3.11, one core of a 2-vCPU x86-64
# host), with the compress peel, in one of three runs: 0.55, 0.30, 0.25,
# 0.22, 0.21 ms at 0.60; 2.62, 2.29, 2.29, 2.39, 2.35 ms at 0.45; 2.67, 2.69,
# 2.64, 2.70, 2.62 ms at 0.30.  Blocks of 32 won at 0.60 in all three runs
# and at 0.30 in two, but at 0.45 they won in none (8, 4 and 1 won there);
# no size won at all three rates in any run.
_BLOCK = 8


@dataclass(frozen=True)
class CosetCodeword:
    """An encoded transmission: message, dither, and the channel word."""

    message: np.ndarray
    dither: np.ndarray
    word: np.ndarray


@dataclass(frozen=True)
class EquivocationEstimate:
    """Equivocation-rate estimate in bits per channel use.

    ``value`` is the (normalized) estimate, ``half_width`` the reported
    confidence half-width at 95%, and ``method`` one of ``exact-rank``,
    ``degradation-rank``, ``fano-bound``, ``brute-force``.
    """

    value: float
    half_width: float
    trials: int
    method: str
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0 or self.half_width < 0.0:
            raise ValueError(
                f"invalid estimate ({self.value}, +-{self.half_width})"
            )


def _bits(v, size: int, what: str) -> np.ndarray:
    """``v`` as a uint8 vector of ``size`` bits; ValueError unless every
    entry is 0 or 1."""
    a = np.asarray(v)
    if a.shape != (size,) or not ((a == 0) | (a == 1)).all():
        raise ValueError(f"{what} must be {size} bits, each 0 or 1")
    return a.astype(np.uint8)


def coset_word(pair: NestedCodePair, message, dither) -> np.ndarray:
    """The codeword selected inside coset ``message`` by ``dither``: ``w``
    written at the coarse code's pivots, xor ``dither @ g1``."""
    w = _bits(message, pair.m, "message")
    dith = _bits(dither, pair.coarse.k, "dither")
    x = _coset_leader(pair, w)
    if pair.coarse.k:
        x ^= bitlinalg.vec_mat(dith, pair.coarse.g)
    return x


def _coset_leader(pair: NestedCodePair, w: np.ndarray) -> np.ndarray:
    """The leader of coset ``w``: ``w`` written at the coarse code's pivots,
    where ``h1`` holds the identity, so ``h1 @ x = w``."""
    x = np.zeros(pair.n, dtype=np.uint8)
    x[pair.coarse.pivots] = w
    return x


def encode(pair: NestedCodePair, message, rng: np.random.Generator) -> CosetCodeword:
    """Encode a message as a uniformly random member of its coset."""
    w = _bits(message, pair.m, "message")
    dither = rng.integers(0, 2, size=pair.coarse.k, dtype=np.uint8)
    return CosetCodeword(w, dither, coset_word(pair, w, dither))


def main_decode(pair: NestedCodePair, received) -> np.ndarray:
    """Recover the message from a noiseless observation: ``h1 @ y``."""
    return bitlinalg.mat_vec(pair.h1, _bits(received, pair.n, "received word"))


def _compact(idx: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber the distinct values of ``idx`` 0, 1, ... in increasing order."""
    present = np.bincount(idx) > 0
    return (np.cumsum(present) - 1)[idx], int(np.count_nonzero(present))


def _peel_block(pair: NestedCodePair, erased: np.ndarray) -> tuple[list, int]:
    """Peel the coarse code's sparse span ``S`` on the unerased positions of
    each pattern (row) of the ``(T, n)`` erasure mask ``erased``, in one
    ``_peel_edges`` call on the stacked keys of ``T`` copies of ``S`` (copy
    ``t`` offset by ``t`` blocks of checks and of variables), which peel as
    they would alone: no check or variable is shared between copies.

    A column of a restriction that is the only one left in some row adds
    exactly one to its rank: the rank is the number peeled plus that of the
    stopping-set core left, returned per pattern as ``(peeled, rows, cols,
    shape)``, the ``shape`` matrix with its ones at ``(rows[i], cols[i])``,
    together with the number of rounds the peel ran.
    The core is the largest stopping set of the pattern, whatever order the
    peel resolves in, and its edges keep their order in the keys, so each
    copy's core is one sorted run.
    """
    trials, n = erased.shape
    num_checks = pair.coarse.span.rows
    remaining = ~erased
    unerased = np.count_nonzero(remaining, axis=1)
    rounds, core = _peel_edges(pair._span_keys(trials), remaining.reshape(-1))
    peeled = (unerased - np.count_nonzero(remaining, axis=1)).tolist()
    core_chk, core_var = core >> _KEY_SHIFT, core & _KEY_LOW
    bounds = np.searchsorted(core_chk, num_checks * np.arange(trials + 1)).tolist()
    peels = []
    for t in range(trials):
        run = slice(bounds[t], bounds[t + 1])
        if run.start == run.stop:
            peels.append((peeled[t], core_chk[run], core_var[run], (0, 0)))
            continue
        rows, nr = _compact(core_chk[run] - t * num_checks)
        cols, nc = _compact(core_var[run] - t * n)
        peels.append((peeled[t], rows, cols, (nr, nc)))
    return peels, len(rounds)


def _core_rank(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> int:
    """GF(2) rank of the ``shape`` matrix with its ones at ``(rows[i], cols[i])``.

    The rows enter the XOR basis lightest first, which keeps the basis
    sparse longer on a stopping-set core.
    """
    order = np.argsort(np.bincount(rows, minlength=shape[0]), kind="stable")
    return int(rank_words(_pack_edges(rows, cols, *shape).words[order], shape[1]))


def _erased_ranks(pair: NestedCodePair, erased: np.ndarray) -> tuple[list, int | None]:
    """``(ranks, rounds)``: ``(rank(h1_E), path)`` for each row ``E`` of the
    ``(T, n)`` erasure mask ``erased``, with ``path`` the way the rank was
    found, one of ``_RANK_PATHS``, and the rounds the block's peel ran (0
    when no pattern needed one, None when the pair has no sparse span).

    An erased pivot column of ``h1`` (an identity column) is a pivot on
    its own, and so is the row holding its one; the other erased columns
    are eliminated on the other rows.
    When the coarse code has a sparse span ``S``, the same rank is
    ``m - |Ebar| + rank(S_Ebar)`` over the unerased positions ``Ebar``
    (``h1`` is a parity-check matrix of the code ``S`` spans), and peeling
    leaves only the core of ``S_Ebar`` to eliminate; the patterns are
    peeled together (``_peel_block``).  Whichever of the two eliminations is less
    work runs: the sparse core costs about its edge count, the dense rest
    about ``s**2`` for its smaller side ``s``, and the core runs when
    ``_CORE_WORK * edges < s**2`` (the two break even near erasure rate
    0.34 on the n=2000 (3,6)-dual pair).  The dense rest ranks rows of
    ``h1`` or of its transpose, whichever side is smaller, masked to the
    other side.
    """
    m = pair.m
    unerased = (pair.n - np.count_nonzero(erased, axis=1)).tolist()
    live = [t for t, u in enumerate(unerased) if m and u < pair.n]
    ranks = [(0, "none")] * len(unerased)  # nothing erased, or no message
    peels, rounds = [None] * len(live), None
    if pair._span_edges is not None:
        peels, rounds = _peel_block(pair, erased[live])
    for t, peel in zip(live, peels):
        if peel is not None:
            peeled, rows, cols, shape = peel
            rank = m - unerased[t] + peeled
            if not rows.size:  # empty core: peeling found the whole rank
                ranks[t] = rank, "empty_core"
                continue
        erased_idx = np.flatnonzero(erased[t])
        unit_rows = pair._unit_rows[erased_idx]
        pivoted = np.zeros(m, dtype=bool)
        pivoted[unit_rows[unit_rows >= 0]] = True
        other_cols = erased_idx[unit_rows < 0]
        other_rows = np.flatnonzero(~pivoted)
        if peel is not None:
            s = min(other_cols.size, other_rows.size)
            if _CORE_WORK * rows.size < s * s:
                ranks[t] = rank + _core_rank(rows, cols, shape), "core"
                continue
        if other_cols.size <= other_rows.size:
            words, ncols, keep = pair._h1_columns.words[other_cols], m, ~pivoted
        else:
            words, ncols = pair.h1.words[other_rows], pair.n
            keep = np.zeros(ncols, dtype=bool)
            keep[other_cols] = True
        words &= bitlinalg.pack_vector(keep, ncols)
        ranks[t] = m - other_rows.size + int(rank_words(words, ncols)), "dense_rest"
    return ranks, rounds


def exact_equivocation_bec(pair: NestedCodePair, erased) -> int:
    """Exact message equivocation H(W | Z) in bits for one erasure pattern.

    Equals the rank of the coarse parity-check matrix restricted to the
    erased columns; at most ``min(m, |erased|)``.  ``erased`` lists integer
    positions; a boolean mask or a fractional position raises ValueError.
    """
    idx = np.asarray(erased)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError("erased positions must be a list of integers")
    if idx.size and (idx.min() < 0 or idx.max() >= pair.n):
        raise ValueError(f"erased positions must lie in 0..{pair.n - 1}")
    pattern = np.zeros((1, pair.n), dtype=bool)
    pattern[0, idx.astype(np.intp)] = True
    return _erased_ranks(pair, pattern)[0][0][0]


def mc_equivocation_bec(
    pair: NestedCodePair,
    erasure_prob: float,
    trials: int,
    rng: np.random.Generator,
) -> EquivocationEstimate:
    """Monte Carlo equivocation rate over i.i.d. BEC erasure patterns.

    Each trial's conditional entropy is exact (rank identity); only the
    pattern average is sampled.  The patterns are drawn and ranked in
    blocks of ``_BLOCK``.  The half-width is the 95% normal interval
    of the per-trial ranks, normalized by the block length.
    ``detail["rank_paths"]`` counts the trials that took each path of
    ``_RANK_PATHS``, and ``detail["peel_rounds"]`` lists, per block, the
    rounds its peel ran (0 when no pattern of the block needed one); it is
    empty when the pair has no sparse span to peel.
    """
    BEC(erasure_prob)  # the model checks the range
    if trials < 1:
        raise ValueError("trials must be positive")
    ranks = np.empty(trials, dtype=np.float64)
    paths = dict.fromkeys(_RANK_PATHS, 0)
    peel_rounds = []
    for start in range(0, trials, _BLOCK):
        erased = rng.random((min(_BLOCK, trials - start), pair.n)) < erasure_prob
        block, rounds = _erased_ranks(pair, erased)
        for t, (rank, path) in enumerate(block, start):
            ranks[t] = rank
            paths[path] += 1
        if rounds is not None:
            peel_rounds.append(rounds)
    mean = float(ranks.mean())
    sd = float(ranks.std(ddof=1)) if trials > 1 else 0.0
    return EquivocationEstimate(
        value=mean / pair.n,
        half_width=Z95 * sd / math.sqrt(trials) / pair.n,
        trials=trials,
        method="exact-rank",
        detail={
            "erasure_prob": erasure_prob, "n": pair.n, "m": pair.m, "rank_paths": paths,
            "peel_rounds": peel_rounds,
        },
    )


def equivocation_lb(
    pair: NestedCodePair,
    channel: ChannelModel,
    trials: int,
    rng: np.random.Generator,
) -> EquivocationEstimate:
    """Equivocation lower bound for an eavesdropper on ``channel``.

    Runs the BEC rank estimator at the channel's embedded erasure rate
    (``2*Q(sqrt(2*snr))`` for BI-AWGN, ``2q`` for a BSC); by data processing
    through the degradation this lower-bounds the channel's equivocation
    rate.  Produces bit-identical values to ``mc_equivocation_bec`` at that
    erasure rate for the same generator state.  Rejects channels without a
    BEC decomposition (snr <= 0, q > 1/2).
    """
    channel.check_degradable()
    base = mc_equivocation_bec(pair, channel.erasure_rate, trials, rng)
    return replace(base, method="degradation-rank", detail={**base.detail, **asdict(channel)})


def approach1_equivocation_bound(
    pair: NestedCodePair,
    snr: float,
    trials: int,
    max_bp_iters: int,
    rng: np.random.Generator,
) -> EquivocationEstimate:
    """Fano-based equivocation bound when the coarse code is the good code.

    Measures the eavesdropper's word-error rate when decoding the coset
    word given the message: the observation is translated by the coset
    leader so plain sum-product decoding on the coarse code applies (a code
    and its cosets share distance properties).  With measured error rate
    ``p`` the reported bound is

        max(0, 1 - c_biawgn(snr) - 1/n - p * R1),

    keeping the finite-length 1/n Fano term explicit.  The half-width is
    the Wilson half-width of ``p`` scaled by ``R1``.  ``detail`` records,
    per trial in trial order, the sum-product rounds run
    (``bp_iterations``: 0 when the channel LLRs already decode,
    ``max_bp_iters`` when decoding fails).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    BIAWGN(snr)  # the model checks the range
    n = pair.n
    r1 = pair.coarse.rate
    errors = 0
    iterations = []
    for _ in range(trials):
        w = rng.integers(0, 2, size=pair.m, dtype=np.uint8)
        sent = encode(pair, w, rng)
        leader = _coset_leader(pair, w)
        z = biawgn_transmit(modulate(sent.word), snr, rng)
        # Translating by the known coset leader turns in-coset decoding
        # into decoding the coarse codeword dither @ g1.
        llr = awgn_llr(z, snr) * (1.0 - 2.0 * leader.astype(np.float64))
        target = sent.word ^ leader
        posterior, ok, rounds = _sum_product(pair.coarse, llr, max_bp_iters)
        iterations.append(rounds)
        if not ok or not np.array_equal(posterior < 0, target):
            errors += 1
    p_hat = errors / trials
    w_lo, w_hi = wilson_interval(errors, trials)
    capacity = c_biawgn(snr)
    bound = max(0.0, 1.0 - capacity - 1.0 / n - p_hat * r1)
    return EquivocationEstimate(
        value=bound,
        half_width=(w_hi - w_lo) / 2.0 * r1,
        trials=trials,
        method="fano-bound",
        detail={
            "snr": snr,
            "capacity": capacity,
            "word_error_rate": p_hat,
            "wer_wilson": (w_lo, w_hi),
            "coarse_rate": r1,
            "n": n,
            "bp_iterations": iterations,
        },
    )


def _message_table(pair: NestedCodePair) -> np.ndarray:
    """messages[x] = integer value of h1 @ x for every n-bit word x."""
    n, m = pair.n, pair.m
    xs = np.arange(1 << n, dtype=np.int64)
    h1 = pair.h1.to_dense()
    w_int = np.zeros(1 << n, dtype=np.int64)
    for i in range(m):
        row_mask = int(sum(1 << j for j in np.nonzero(h1[i])[0]))
        bit = np.bitwise_count(xs & row_mask).astype(np.int64) & 1
        w_int |= bit << i
    return w_int


def _conditional_entropy(keys: np.ndarray, w_int: np.ndarray) -> float:
    """H(W | K) in bits for the uniform joint sample (keys, w_int).

    H = sum over (k, w) cells of P(k, w) * log2(P(k) / P(k, w)); with the
    uniform sample the probabilities are cell counts over the total.
    """
    total = keys.size
    joint = (keys.astype(np.int64) << 32) | w_int
    _, cell_first, cell_cnt = np.unique(joint, return_index=True, return_counts=True)
    _, key_inverse, key_cnt = np.unique(keys, return_inverse=True, return_counts=True)
    k_of_cell = key_cnt[key_inverse[cell_first]].astype(np.float64)
    c = cell_cnt.astype(np.float64)
    return float(np.sum(c / total * (np.log2(k_of_cell) - np.log2(c))))


@dataclass(frozen=True)
class BecEquivocationTable:
    """Exhaustive BEC equivocation: one entry per erasure pattern bitmask,
    plus the erasure-probability-weighted average."""

    per_pattern: np.ndarray
    average: float
    erasure_prob: float


def brute_force_equivocation_bec(
    pair: NestedCodePair, erasure_prob: float
) -> BecEquivocationTable:
    """Exact H(W | Z) by joint enumeration, for every erasure pattern.

    Enumerates all transmitted words and groups them by the unerased
    observation; entry ``p`` of the table is the conditional entropy for
    the pattern whose bit ``i`` marks position ``i`` erased.  The average
    weights patterns by their BEC probability.  Exponential in ``n``;
    refuses ``n > 12``.
    """
    n = pair.n
    if n > _BRUTE_FORCE_BEC_LIMIT:
        raise ValueError(
            f"exhaustive BEC enumeration limited to n <= {_BRUTE_FORCE_BEC_LIMIT}"
        )
    BEC(erasure_prob)  # the model checks the range
    w_int = _message_table(pair)
    xs = np.arange(1 << n, dtype=np.int64)
    per_pattern = np.empty(1 << n, dtype=np.float64)
    full_mask = (1 << n) - 1
    for pattern in range(1 << n):
        keys = xs & (full_mask ^ pattern)  # unerased positions observed
        per_pattern[pattern] = _conditional_entropy(keys, w_int)
    weights = np.array(
        [
            erasure_prob ** bin(p).count("1") * (1 - erasure_prob) ** (n - bin(p).count("1"))
            for p in range(1 << n)
        ]
    )
    return BecEquivocationTable(
        per_pattern=per_pattern,
        average=float(np.dot(per_pattern, weights)),
        erasure_prob=erasure_prob,
    )


def brute_force_equivocation_bsc(pair: NestedCodePair, crossover_prob: float) -> float:
    """Exact H(W | Z) for a BSC eavesdropper by enumerating noise patterns.

    Exponential in ``n`` twice over (words x observations); refuses
    ``n > 10``.
    """
    n = pair.n
    if n > _BRUTE_FORCE_BSC_LIMIT:
        raise ValueError(
            f"exhaustive BSC enumeration limited to n <= {_BRUTE_FORCE_BSC_LIMIT}"
        )
    BSC(crossover_prob)  # the model checks the range
    q = crossover_prob
    w_int = _message_table(pair)
    xs = np.arange(1 << n, dtype=np.int64)
    m = pair.m
    num_w = 1 << m
    h_total = 0.0
    log_q = np.log(q) if q > 0 else -np.inf
    log_1q = np.log(1 - q) if q < 1 else -np.inf
    for z in range(1 << n):
        d = np.bitwise_count(xs ^ z).astype(np.float64)
        with np.errstate(invalid="ignore"):
            logp = d * log_q + (n - d) * log_1q
        p_zx = np.exp(np.nan_to_num(logp, nan=-np.inf, neginf=-np.inf)) / (1 << n)
        p_zw = np.bincount(w_int, weights=p_zx, minlength=num_w)
        p_z = p_zw.sum()
        if p_z <= 0:
            continue
        nz = p_zw > 0
        h_total += -np.sum(p_zw[nz] * np.log2(p_zw[nz] / p_z))
    return float(h_total)

