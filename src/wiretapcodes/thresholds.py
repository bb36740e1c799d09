"""Noise thresholds: exact BEC density evolution and empirical BP estimates.

The BEC threshold of a degree-distribution ensemble is the largest erasure
probability at which the density-evolution recursion

    x_{l+1} = eps * lam(1 - rho(1 - x_l)),   x_0 = eps

is driven to zero; it is located by bisection on the residual erasure
probability.  For concrete codes on the binary-input AWGN channel the
threshold is estimated empirically from the word-error rate of sum-product
decoding over a grid of SNRs.

Density evolution and bisection are pure.  The empirical estimator's trials
are independent draws that read one generator in order, so a seed fixes
every estimate.  The scan stops decoding a grid point as soon as its errors
so far reject it (its remaining trials still draw their noise, so the
generator reads the same stream), and records in ``detail`` the decodes run
and skipped at each grid point it scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import BEC, ChannelModel, awgn_llr, biawgn_transmit, modulate
from .bitlinalg import _check_count
from .codes import DegreeDistribution, LinearCode
from .decoders import bp_decode_awgn

DE_TOL = 1e-8
DE_CLASSIFY_TOL = 1e-6  # the default residual below which a point counts as decoded
DE_MAX_ITER = 10_000
Z95 = 1.96  # two-sided 95% standard normal quantile
_BRACKET_WIDTH = 1e-4
_SHANNON_SLACK = 1e-3


@dataclass(frozen=True)
class ThresholdResult:
    """A noise-threshold estimate with its bracket and provenance.

    ``value`` is in the channel's natural parameter units (erasure
    probability or SNR) and satisfies ``bracket[0] <= value <= bracket[1]``;
    it is None when a grid search was exhausted without locating the
    threshold.  ``detail`` carries method-specific metadata (iteration
    counts, trial counts, error-rate intervals).
    """

    value: float | None
    bracket: tuple[float, float]
    method: str
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value is not None and not (
            self.bracket[0] <= self.value <= self.bracket[1]
        ):
            raise ValueError(f"estimate {self.value} outside bracket {self.bracket}")


def de_residual(eps: float, dd: DegreeDistribution) -> float:
    """Limiting erasure probability of density evolution at channel eps.

    Iterates until successive values differ by less than ``DE_TOL`` or
    ``DE_MAX_ITER`` iterations have run, and returns the last iterate.
    Monotone nondecreasing in ``eps`` up to the stopping resolution.
    """
    BEC(eps)  # the model checks the range
    x = eps
    for _ in range(DE_MAX_ITER):
        x_next = eps * dd.lam(1.0 - dd.rho(1.0 - x))
        if abs(x_next - x) < DE_TOL:
            return x_next
        x = x_next
    return x


def bec_bp_threshold(dd: DegreeDistribution, tol: float = DE_CLASSIFY_TOL) -> ThresholdResult:
    """BEC threshold of an ensemble by bisection on the DE residual.

    ``tol`` classifies convergence: the threshold is the largest eps whose
    residual falls below it.  The classification tolerance is kept two
    orders looser than the iteration tolerance ``DE_TOL``, but that does not
    cover every ensemble with degree-2 variables.  Near zero their DE
    contracts linearly, at a rate ``r`` that tends to 1 at the stability
    bound, and ``de_residual`` stops at about ``DE_TOL * r / (1 - r)``.
    That is above ``tol`` once ``r > 1 / (1 + DE_TOL / tol)``, about 0.99 by
    default, so such points count as not decoded.  An ensemble whose
    threshold is its stability bound therefore reads about 1% low:
    ``regular(2, 4)`` gives 0.330048, bracket (0.330017, 0.330078), where
    the threshold is 1/3.  ROADMAP item 7 (the MAP threshold) is where this
    is to be mended, since the mend moves threshold numbers.  The final
    bracket is at most 1e-4 wide, and the estimate is checked against the
    Shannon bound ``1 - design rate``.
    """
    if not DE_TOL < tol < math.inf:
        raise ValueError("classification tol must be finite and exceed the DE iteration tol")
    lo, hi = 0.0, 1.0
    if de_residual(hi, dd) < tol:
        lo = hi
    while hi - lo > _BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if de_residual(mid, dd) < tol:
            lo = mid
        else:
            hi = mid
    estimate = 0.5 * (lo + hi)
    shannon = 1.0 - dd.design_rate
    if estimate > shannon + _SHANNON_SLACK:
        raise RuntimeError(
            f"DE threshold {estimate:.6f} exceeds the Shannon bound {shannon:.6f}"
        )
    return ThresholdResult(
        value=estimate,
        bracket=(lo, hi),
        method="DE-bisection",
        detail={"tol": tol, "de_tol": DE_TOL, "max_iter": DE_MAX_ITER},
    )


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    trials = _check_count(trials, "trials")
    successes = _check_count(successes, "successes", 0)
    if successes > trials:
        raise ValueError("successes outside [0, trials]")
    p = successes / trials
    z = Z95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def bp_word_error_rate(
    code: LinearCode,
    snr: float,
    trials: int,
    rng: np.random.Generator,
    max_iters: int,
) -> tuple[int, int]:
    """(word errors, trials) for all-zero transmission through BIAWGN(snr).

    The channel and decoder are symmetric, so the all-zero codeword is
    representative of the ensemble-average behaviour.  A trial counts as an
    error unless decoding converges to the transmitted word itself.
    """
    trials = _check_count(trials, "trials")
    max_iters = _check_count(max_iters, "max_iters", 0)
    errors, _ = _count_word_errors(code, snr, trials, rng, max_iters, math.inf)
    return errors, trials


def _count_word_errors(code, snr, trials, rng, max_iters, give_up) -> tuple[int, int]:
    """``(errors, decodes)`` of :func:`bp_word_error_rate`, except that no
    trial is decoded once ``errors / trials > give_up``.  Every trial still
    draws its noise, so ``rng`` reads the same stream whatever is skipped."""
    x = modulate(np.zeros(code.n, dtype=np.uint8))
    errors = decodes = 0
    for _ in range(trials):
        z = biawgn_transmit(x, snr, rng)
        if errors / trials > give_up:
            continue
        decodes += 1
        bits, ok = bp_decode_awgn(code, awgn_llr(z, snr), max_iters)
        if not ok or bits.any():
            errors += 1
    return errors, decodes


def empirical_bp_threshold_awgn(
    code: LinearCode,
    snr_grid,
    trials: int,
    target_wer: float,
    rng: np.random.Generator,
    max_iters: int = 200,
) -> ThresholdResult:
    """Smallest grid SNR whose measured word-error rate meets the target.

    Scans the ascending grid, simulating ``trials`` all-zero transmissions
    per point.  The returned bracket spans from the previous grid point to
    the accepted one; the Wilson interval of the accepted point's error
    rate is recorded in ``detail``.  If no grid point qualifies, the result
    has ``value=None`` and method tag ``"empirical-BP (above grid)"``.

    A point is rejected when ``errors / trials > target_wer``, and errors
    only grow, so once the errors so far pass that bound the point stops
    decoding; its remaining trials still draw their noise, so the result
    and the generator's state are those of decoding every trial.
    ``detail["decodes_run"]`` and ``detail["decodes_skipped"]`` hold, per
    grid point scanned, the trials decoded and not decoded.
    """
    grid = [float(s) for s in snr_grid]
    if not grid:
        raise ValueError("snr grid must be nonempty")
    if grid != sorted(grid):
        raise ValueError("snr grid must be ascending")
    trials = _check_count(trials, "trials", 100)  # per grid point
    max_iters = _check_count(max_iters, "max_iters", 0)
    if not 0.0 <= target_wer <= 1.0:
        raise ValueError(f"target word-error rate {target_wer} outside [0, 1]")
    run, skipped = [], []
    prev = grid[0]
    for snr in grid:
        errors, decodes = _count_word_errors(code, snr, trials, rng, max_iters, target_wer)
        run.append(decodes)
        skipped.append(trials - decodes)
        wer = errors / trials
        if wer <= target_wer:
            w_lo, w_hi = wilson_interval(errors, trials)
            return ThresholdResult(
                value=snr,
                bracket=(prev, snr),
                method="empirical-BP",
                detail={
                    "trials": trials,
                    "target_wer": target_wer,
                    "wer": wer,
                    "wer_wilson": (w_lo, w_hi),
                    "max_iters": max_iters,
                    "decodes_run": run,
                    "decodes_skipped": skipped,
                },
            )
        prev = snr
    return ThresholdResult(
        value=None,
        bracket=(grid[-1], math.inf),
        method="empirical-BP (above grid)",
        detail={"trials": trials, "target_wer": target_wer,
                "decodes_run": run, "decodes_skipped": skipped},
    )


def check_secrecy_condition(
    channel: ChannelModel, delta_star: float
) -> tuple[bool, float]:
    """Evaluate the sufficient secrecy condition for a dual-construction
    pair whose base code has BEC threshold ``delta_star``.

    The condition is that the channel's embedded erasure rate reaches
    ``1 - delta_star``.  Returns ``(satisfied, margin)`` with the signed
    margin in units of the channel's own error probability: BEC needs
    ``eps >= 1 - delta_star``, BIAWGN needs ``Q(sqrt(2*snr)) >=
    (1 - delta_star)/2``, BSC needs ``q >= (1 - delta_star)/2``.
    """
    if not 0.0 <= delta_star <= 1.0:
        raise ValueError(f"threshold {delta_star} outside [0, 1]")
    margin = (channel.erasure_rate - (1.0 - delta_star)) / channel.erasures_per_error
    return margin >= 0.0, margin
