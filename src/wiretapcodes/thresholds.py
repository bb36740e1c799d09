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
every estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import BEC, ChannelModel, awgn_llr, biawgn_transmit, modulate
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
    orders looser than the iteration tolerance ``DE_TOL`` so that ensembles
    with slow linear contraction (degree-2 variables) are not misclassified
    by the stopping rule.  The final bracket is at most 1e-4 wide, and the
    estimate is checked against the Shannon bound ``1 - design rate``.
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
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
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
    x = modulate(np.zeros(code.n, dtype=np.uint8))
    errors = 0
    for _ in range(trials):
        z = biawgn_transmit(x, snr, rng)
        bits, ok = bp_decode_awgn(code, awgn_llr(z, snr), max_iters)
        if not ok or bits.any():
            errors += 1
    return errors, trials


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
    """
    grid = [float(s) for s in snr_grid]
    if not grid:
        raise ValueError("snr grid must be nonempty")
    if grid != sorted(grid):
        raise ValueError("snr grid must be ascending")
    if trials < 100:
        raise ValueError("need at least 100 trials per grid point")
    if not 0.0 <= target_wer <= 1.0:
        raise ValueError(f"target word-error rate {target_wer} outside [0, 1]")
    prev = grid[0]
    for snr in grid:
        errors, _ = bp_word_error_rate(code, snr, trials, rng, max_iters)
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
                },
            )
        prev = snr
    return ThresholdResult(
        value=None,
        bracket=(grid[-1], math.inf),
        method="empirical-BP (above grid)",
        detail={"trials": trials, "target_wer": target_wer},
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
