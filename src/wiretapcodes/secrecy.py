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
  ``h1``, and the coarse code's sparse span (a dual pair) or else its checks.
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
from ._kernels import _KEY_LOW, _KEY_SHIFT, _edge_keys, _peel_edges, rank_words
from .bitlinalg import _as_bits, _check_count, _keys_of, _pack_keys
from .channels import BEC, BIAWGN, BSC, ChannelModel, awgn_llr, biawgn_transmit, c_biawgn, modulate
from .codes import NestedCodePair
from .decoders import _sum_product
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
# no size won at all three rates in any run.  A pair's rank plan holds
# _BLOCK stacked copies of its peel source, so no block may be larger.
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


def coset_word(pair: NestedCodePair, message, dither) -> np.ndarray:
    """The codeword selected inside coset ``message`` by ``dither``: ``w``
    written at the coarse code's pivots, xor ``dither @ g1``."""
    w = _as_bits(message, "message", pair.m)
    dith = _as_bits(dither, "dither", pair.coarse.k)
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
    w = _as_bits(message, "message", pair.m)
    dither = rng.integers(0, 2, size=pair.coarse.k, dtype=np.uint8)
    return CosetCodeword(w, dither, coset_word(pair, w, dither))


def main_decode(pair: NestedCodePair, received) -> np.ndarray:
    """Recover the message from a noiseless observation: ``h1 @ y``."""
    return bitlinalg.mat_vec(pair.h1, _as_bits(received, "received word", pair.n))


def _compact(idx: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber the distinct values of the nonempty ``idx`` 0, 1, ... in
    increasing order, counting from its own minimum."""
    idx = idx - idx.min()
    present = np.bincount(idx) > 0
    return (np.cumsum(present) - 1)[idx], int(np.count_nonzero(present))


def _rank_plan(pair: NestedCodePair) -> tuple[np.ndarray, np.ndarray, int, str]:
    """``(h1_columns, keys, rows, source)``: what the erasure ranks of ``pair``
    read, built on its first rank, kept on the pair and never rebuilt.

    ``h1_columns`` is ``h1.transpose().words``, the columns of ``h1`` packed
    as rows, from which the dense rest gathers its erased columns.  The
    peel source, chosen here once, is the coarse code's sparse span when it
    has one (``source`` is ``"span"``), else its own checks (``"checks"``);
    ``keys`` is the sorted edge keys (:func:`._kernels._edge_keys`) of
    ``_BLOCK`` stacked copies of it, one per pattern of a block, stacked
    from its own keys (:func:`.bitlinalg._keys_of`), and ``rows`` its row
    count.  A pair that never ranks (the approach-1 and BP pipelines) never
    builds any of it.
    """
    if pair._rank_plan is None:
        coarse, span = pair.coarse, pair.coarse.span
        source, matrix = ("checks", coarse.checks) if span is None else ("span", span)
        keys = _keys_of(matrix)
        keys = _edge_keys(keys >> _KEY_SHIFT, keys & _KEY_LOW, matrix.rows, pair.n, _BLOCK)
        pair._rank_plan = pair.h1.transpose().words, keys, matrix.rows, source
    return pair._rank_plan


def _peel_block(pair: NestedCodePair, erased: np.ndarray) -> tuple[list, list, int]:
    """Peel the pair's peel source (:func:`_rank_plan`) for each pattern
    (row) of the ``(T, n)`` erasure mask ``erased``, ``T`` at most
    ``_BLOCK``, in one ``_peel_edges`` call on the first ``T`` stacked
    copies in the plan (copy ``t`` offset by ``t`` blocks of checks and of
    variables), which peel as they would alone: no check or variable is
    shared between copies.

    A column of a restriction that is the only one left in some row adds
    exactly one to its rank, so ``rank(h1_E)`` is ``top`` minus the unknowns
    left plus the rank of the stopping-set core.  A span ``S`` peels the
    unerased positions ``Ebar`` with ``top = m``, as ``rank(h1_E) = m -
    |Ebar| + rank(S_Ebar)`` (``h1`` checks the code ``S`` spans); the
    checks peel ``E`` with ``top = |E|``, as ``h1`` has their row space.
    Returns ``(found, cores, rounds)``: per pattern the rank peeling found
    and the sorted keys of its core's edges, and the rounds the peel ran.
    The core is the largest stopping set of the pattern, whatever order the
    peel resolves in, and its edges keep their order in the keys, so each
    copy's core is one sorted run.
    """
    trials = len(erased)
    if trials > _BLOCK:  # the plan holds no copies for the rest
        raise ValueError(f"a block peels at most {_BLOCK} patterns, not {trials}")
    _, keys, rows, source = _rank_plan(pair)
    if source == "span":
        unknown, top = ~erased, pair.m
    else:
        unknown, top = erased.copy(), np.count_nonzero(erased, axis=1)
    rounds, core = _peel_edges(keys[: trials * (keys.size // _BLOCK)], unknown.reshape(-1))
    found = (top - np.count_nonzero(unknown, axis=1)).tolist()
    bounds = np.searchsorted(core >> _KEY_SHIFT, rows * np.arange(trials + 1)).tolist()
    return found, [core[a:b] for a, b in zip(bounds, bounds[1:])], len(rounds)


def _core_rank(keys: np.ndarray) -> int:
    """GF(2) rank of the stopping-set core whose edges have the sorted keys
    ``keys`` (a nonempty run of :func:`_peel_block`): its checks and
    variables renumbered 0, 1, ... and packed.

    The rows enter the XOR basis lightest first, which keeps the basis
    sparse longer on a stopping-set core.
    """
    rows, nrows = _compact(keys >> _KEY_SHIFT)
    cols, ncols = _compact(keys & _KEY_LOW)
    order = np.argsort(np.bincount(rows), kind="stable")
    return int(rank_words(_pack_keys(rows << _KEY_SHIFT | cols, nrows, ncols).words[order], ncols))


def _erased_ranks(pair: NestedCodePair, erased: np.ndarray) -> tuple[list, int]:
    """``(ranks, rounds)``: ``(rank(h1_E), path)`` for each row ``E`` of the
    ``(T, n)`` erasure mask ``erased``, ``T`` at most ``_BLOCK``, with
    ``path`` the way the rank was found, one of ``_RANK_PATHS``, and the
    rounds the block's peel ran (0 when no pattern needed one).

    An erased pivot column of ``h1`` (an identity column, at
    ``coarse.pivots``) is a pivot on its own, and so is the row holding its
    one; the other erased columns are eliminated on the other rows (the
    dense rest).  Peeling the patterns together (:func:`_peel_block`)
    leaves a stopping-set core to eliminate instead.  Whichever of the two
    eliminations is less work runs: the sparse core costs about its edge
    count, the dense rest about ``s**2`` for its smaller side ``s``, and
    the core runs when ``_CORE_WORK * edges < s**2``.  The dense rest ranks
    the erased non-pivot columns of ``h1``, gathered from the rank plan's
    packed transpose (:func:`_rank_plan`) and masked to the rows no erased
    pivot holds.
    """
    m, pivots = pair.m, pair.coarse.pivots
    h1_columns = _rank_plan(pair)[0]
    live = np.flatnonzero(erased.any(axis=1)).tolist() if m else []
    ranks = [(0, "none")] * len(erased)  # nothing erased, or no message
    found, cores, rounds = _peel_block(pair, erased[live])
    for t, rank, core in zip(live, found, cores):
        if not core.size:  # empty core: peeling found the whole rank
            ranks[t] = rank, "empty_core"
            continue
        pivoted = erased[t, pivots]  # row i of h1 has its unit at pivots[i]
        other = erased[t].copy()
        other[pivots] = False
        other_cols = np.flatnonzero(other)
        other_rows = np.flatnonzero(~pivoted)
        s = min(other_cols.size, other_rows.size)
        if _CORE_WORK * core.size < s * s:
            ranks[t] = rank + _core_rank(core), "core"
            continue
        words = h1_columns[other_cols]
        words &= bitlinalg.pack_vector(~pivoted, m)
        ranks[t] = m - other_rows.size + int(rank_words(words, m)), "dense_rest"
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
    blocks of ``_BLOCK``; the pair's rank plan (:func:`_rank_plan`) is
    built on its first rank, here or in :func:`exact_equivocation_bec`.
    The half-width is the 95% normal interval of the per-trial ranks,
    normalized by the block length.
    ``detail["rank_paths"]`` counts the trials that took each path of
    ``_RANK_PATHS`` and ``detail["peel_source"]`` names the matrix peeled,
    ``"span"`` or ``"checks"``: an ``empty_core`` is the parent code's
    peeling decoder recovering the unerased positions, or the coarse code's
    recovering the erased ones (rank ``|E|``).  ``detail["perfect"]``
    counts the trials of rank ``m`` (perfectly secret), and
    ``detail["peel_rounds"]`` lists, per block, the rounds its peel ran (0
    when no pattern of the block needed one).
    """
    BEC(erasure_prob)  # the model checks the range
    trials = _check_count(trials, "trials")
    ranks = np.empty(trials, dtype=np.float64)
    paths = dict.fromkeys(_RANK_PATHS, 0)
    peel_rounds = []
    for start in range(0, trials, _BLOCK):
        erased = rng.random((min(_BLOCK, trials - start), pair.n)) < erasure_prob
        block, rounds = _erased_ranks(pair, erased)
        for t, (rank, path) in enumerate(block, start):
            ranks[t] = rank
            paths[path] += 1
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
            "peel_source": _rank_plan(pair)[3],
            "perfect": int(np.count_nonzero(ranks == pair.m)), "peel_rounds": peel_rounds,
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
    trials = _check_count(trials, "trials")
    max_bp_iters = _check_count(max_bp_iters, "max_bp_iters", 0)
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

