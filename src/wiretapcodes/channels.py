"""Eavesdropper channel models, their simulators and BEC-embedding degradations.

Three memoryless channels are modelled: the binary erasure channel, the
binary symmetric channel, and the binary-input AWGN channel with SNR
``snr = Es/N0`` (so symbols are transmitted at amplitude ``sqrt(2*snr)``
in unit-variance noise).  Modulation maps bit 0 to symbol +1 and bit 1 to
symbol -1; the AWGN channel is output-symmetric, so every capacity,
threshold, and equivocation quantity is independent of this sign choice,
but it fixes the LLR convention: positive LLR favours bit 0.

Each model class carries its own per-channel facts (CLI name, parameter
range, capacity, secrecy capacity, embedded erasure rate), so no other
module branches on the channel type or restates a range check: functions
that take a bare parameter build the model to check it.  The Gaussian tail
(from the C library's ``erfc``, within 2 ulp), the binary entropy and the
BI-AWGN capacity the models need are defined here as well.

The two ``*_degraded_transmit`` functions realize each noisy channel as a
BEC followed by a memoryless post-processor, which is what turns a BEC
equivocation bound into a bound for the noisy channel.  Both sample the
pair the same way: draw the direct channel's output ``z``, then erase the
input symbol ``x`` with probability ``min(1, g(z | -x) / g(z | x))``.  The
erased-or-kept symbol ``z'`` then has exactly the decomposition's joint law
with ``z``: ``P(z' = x, z) = g(z | x) - g(z | -x)`` where that is positive,
``P(z' = 0, z) = min(g(z | +1), g(z | -1))``, so ``z'`` is a BEC output and
``z`` given ``z'`` does not depend on ``x``.

* AWGN: the ratio is ``exp(-max(0, 2*sqrt(2*snr)*x*z))`` and the erasure
  probability ``2*Q(sqrt(2*snr))``.
* BSC(q): the ratio is ``q/(1-q)`` where ``z`` agrees with the bit and 1
  where it does not, so the erasure probability is ``2q`` and an erased
  bit is a fair coin.

All samplers are pure functions of (input, parameters, generator state);
callers supply one independently seeded ``numpy.random.Generator`` per
worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bitlinalg import _as_bits

ERASED = 0

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def q_function(x) -> np.ndarray | float:
    """Upper Gaussian tail Q(x) = erfc(x / sqrt(2)) / 2, element by element.

    ``erfc`` is the C library's, through ``math.erfc``: within 2 ulp of the
    correctly rounded value, subnormal tail included
    (``tests/test_channels.py::TestErfc``).  A scalar gives a numpy
    float64, an array an array of its shape.
    """
    t = np.asarray(x, dtype=np.float64) / np.sqrt(2.0)
    if t.ndim == 0:
        return 0.5 * np.float64(math.erfc(float(t)))
    return 0.5 * np.array([math.erfc(v) for v in t.ravel().tolist()]).reshape(t.shape)


def binary_entropy(q) -> np.ndarray | float:
    """h(q) = -q log2 q - (1-q) log2 (1-q), with h(0) = h(1) = 0."""
    p = np.asarray(q, dtype=np.float64)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("binary entropy argument outside [0, 1]")
    inner = np.where((p <= 0) | (p >= 1), 0.5, p)
    h = -inner * np.log2(inner) - (1 - inner) * np.log2(1 - inner)
    out = np.where((p <= 0) | (p >= 1), 0.0, h)
    return float(out) if np.isscalar(q) or np.ndim(q) == 0 else out


def _log2_1p_exp(t: float) -> float:
    # log2(1 + e^t), overflow-safe for large |t|.
    if t > 0:
        return (t + math.log1p(math.exp(-t))) / math.log(2.0)
    return math.log1p(math.exp(t)) / math.log(2.0)


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(
        f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1
    ) + _adaptive_simpson(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)


def _integrate(f, a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, 48)


def c_biawgn(snr: float) -> float:
    """Capacity of the binary-input AWGN channel at SNR Es/N0, in bits.

    Evaluated as ``1 - (1/sqrt(pi)) * integral of exp(-(y - sqrt(snr))^2) *
    log2(1 + exp(-4*y*sqrt(snr))) dy`` by adaptive Simpson quadrature over
    ten standard deviations around the signal mean.  The Gaussian weight
    makes the truncated tails smaller than 1e-40, so the absolute error is
    dominated by the 1e-8 panel tolerance.  Monotone nondecreasing in the
    SNR and clamped to [0, 1].
    """
    BIAWGN(snr)  # the model checks the range
    s = math.sqrt(snr)

    def integrand(y: float) -> float:
        return math.exp(-((y - s) ** 2)) * _log2_1p_exp(-4.0 * y * s)

    val = _integrate(integrand, s - 10.0, s + 10.0, 1e-8)
    return min(1.0, max(0.0, 1.0 - val / math.sqrt(math.pi)))


def signal_amplitude(snr: float) -> float:
    """Mean magnitude sqrt(2*snr) of the received symbol."""
    BIAWGN(snr)  # the model checks the range
    return float(np.sqrt(2.0 * snr))


class ChannelModel:
    """Per-channel facts shared by the three eavesdropper models.

    Building a model rejects an out-of-range parameter.  ``name`` is the
    channel's CLI name.  ``erasure_rate`` is the erasure probability of the
    BEC the channel is degraded from, which is also the perfect-secrecy rate
    of the dual-of-good-code construction; it is ``erasures_per_error``
    times the channel's own error probability (the erasure probability of a
    BEC, the crossover probability of a BSC and of hard decisions on
    BI-AWGN); a BSC with no such BEC raises ValueError through
    :meth:`check_degradable`.  ``secrecy_capacity`` is the secrecy capacity
    with this eavesdropper and a noiseless main channel, and ``capacity``
    the channel's own capacity.
    """

    name: ClassVar[str]
    erasures_per_error: ClassVar[float] = 2.0

    @property
    def capacity(self) -> float:
        return 1.0 - self.secrecy_capacity

    def check_degradable(self) -> None:
        """Raise ValueError unless the BEC decomposition of the channel exists."""


@dataclass(frozen=True)
class BEC(ChannelModel):
    """Binary erasure channel with erasure probability ``erasure_prob``."""

    erasure_prob: float
    name: ClassVar[str] = "bec"
    erasures_per_error: ClassVar[float] = 1.0

    def __post_init__(self):
        if not 0.0 <= self.erasure_prob <= 1.0:
            raise ValueError(f"erasure probability {self.erasure_prob} outside [0, 1]")

    @property
    def erasure_rate(self) -> float:
        return self.erasure_prob

    @property
    def secrecy_capacity(self) -> float:
        return self.erasure_prob


@dataclass(frozen=True)
class BSC(ChannelModel):
    """Binary symmetric channel with crossover probability ``crossover_prob``."""

    crossover_prob: float
    name: ClassVar[str] = "bsc"

    def __post_init__(self):
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError(f"crossover probability {self.crossover_prob} outside [0, 1]")

    @property
    def erasure_rate(self) -> float:
        self.check_degradable()
        return 2.0 * self.crossover_prob

    @property
    def secrecy_capacity(self) -> float:
        return float(binary_entropy(self.crossover_prob))

    def check_degradable(self) -> None:
        if self.crossover_prob > 0.5:
            raise ValueError(
                f"crossover probability {self.crossover_prob} outside [0, 1/2]"
            )


@dataclass(frozen=True)
class BIAWGN(ChannelModel):
    """Binary-input AWGN channel with SNR ``snr = Es/N0`` (dimensionless)."""

    snr: float
    name: ClassVar[str] = "biawgn"

    def __post_init__(self):
        if not 0.0 <= self.snr < math.inf:
            raise ValueError(f"SNR {self.snr} must be nonnegative and finite")

    @property
    def erasure_rate(self) -> float:
        return float(2.0 * q_function(signal_amplitude(self.snr)))

    @property
    def capacity(self) -> float:
        return c_biawgn(self.snr)

    @property
    def secrecy_capacity(self) -> float:
        return 1.0 - self.capacity

    def check_degradable(self) -> None:
        if self.snr <= 0:
            raise ValueError("snr must be positive")


CHANNELS = {cls.name: cls for cls in (BEC, BSC, BIAWGN)}


def modulate(bits) -> np.ndarray:
    """Map bits to symbols: 0 -> +1, 1 -> -1, as int8."""
    return 1 - 2 * _as_bits(bits, "input").view(np.int8)


def bsc_transmit(bits, crossover_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with the given probability."""
    BSC(crossover_prob)  # the model checks the range
    b = _as_bits(bits, "input")
    flips = (rng.random(b.shape) < crossover_prob).astype(np.uint8)
    return b ^ flips


def biawgn_transmit(symbols, snr: float, rng: np.random.Generator) -> np.ndarray:
    """y = x * sqrt(2*snr) + n with n standard normal."""
    amplitude = signal_amplitude(snr)  # which checks the range
    x = np.asarray(symbols, dtype=np.float64)
    return x * amplitude + rng.standard_normal(x.shape)


def awgn_llr(z, snr: float) -> np.ndarray:
    """Per-symbol LLR log[p(z|bit 0)/p(z|bit 1)] = 2*sqrt(2*snr)*z."""
    amplitude = signal_amplitude(snr)  # which checks the range
    return 2.0 * amplitude * np.asarray(z, dtype=np.float64)


def biawgn_density(z, x_symbol: int, snr: float) -> np.ndarray:
    """Channel density g(z | X = x_symbol) for x_symbol in {+1, -1}."""
    if x_symbol not in (+1, -1):
        raise ValueError("x_symbol must be +1 or -1")
    mu = x_symbol * signal_amplitude(snr)
    zz = np.asarray(z, dtype=np.float64)
    return np.exp(-0.5 * (zz - mu) ** 2) / _SQRT_2PI


def degraded_conditional_density(z, zprime: int, snr: float) -> np.ndarray:
    """Density f(z | Z' = zprime) of the AWGN post-processing channel.

    For ``zprime=+1`` the density is the normalized difference of the two
    signal densities on ``z >= 0`` (mirrored for -1); for ``zprime=0`` it is
    the two-sided mixture of the opposing Gaussian tails.  Mixing these with
    the BEC transition probabilities reproduces the direct channel density
    exactly.
    """
    channel = BIAWGN(snr)
    channel.check_degradable()
    zz = np.asarray(z, dtype=np.float64)
    eps = channel.erasure_rate
    g_pos = biawgn_density(zz, +1, snr)
    g_neg = biawgn_density(zz, -1, snr)
    if zprime == +1:
        return np.where(zz >= 0, (g_pos - g_neg) / (1.0 - eps), 0.0)
    if zprime == -1:
        return np.where(zz < 0, (g_neg - g_pos) / (1.0 - eps), 0.0)
    if zprime == ERASED:
        return np.where(zz >= 0, g_neg, g_pos) / eps
    raise ValueError("zprime must be +1, 0, or -1")


def _erase_by_ratio(x: np.ndarray, ratio, rng: np.random.Generator) -> np.ndarray:
    """The BEC output: each symbol of ``x`` erased with probability ``ratio``."""
    return np.where(rng.random(x.shape) < ratio, ERASED, x).astype(np.int8)


def awgn_degraded_transmit(
    symbols, snr: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Transmit through the BEC-embedded decomposition of the AWGN channel.

    Returns ``(zprime, z)``: the BEC output over {+1, 0, -1} and the final
    real observation, which is the direct channel's output; ``z`` always
    carries the sign of an unerased ``zprime``.  Rejects ``snr <= 0``,
    where the erasure rate reaches one and the unerased conditional
    densities are undefined, and symbols other than +1 and -1.
    """
    BIAWGN(snr).check_degradable()
    x = np.asarray(symbols)
    if not ((x == 1) | (x == -1)).all():
        raise ValueError("symbols must each be +1 or -1")
    x = x.astype(np.int8)
    z = biawgn_transmit(x, snr, rng)
    # g(z | -x) / g(z | x) = exp(-x * llr), capped at 1 before it can overflow
    return _erase_by_ratio(x, np.exp(-np.maximum(0.0, x * awgn_llr(z, snr))), rng), z


def bsc_degraded_transmit(
    bits, crossover_prob: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Transmit through the BEC-embedded decomposition of the BSC.

    Returns ``(zprime, z)`` where ``zprime`` is the BEC(2q) output over
    {+1, 0, -1} and ``z`` the direct BSC(q) output: it equals the bit
    wherever ``zprime`` is not erased and is a fair coin where it is.
    Rejects ``q > 1/2`` and bits other than 0 and 1.
    """
    BSC(crossover_prob).check_degradable()
    b = _as_bits(bits, "input")
    z = bsc_transmit(b, crossover_prob, rng)
    ratio = np.where(z == b, crossover_prob / (1.0 - crossover_prob), 1.0)
    return _erase_by_ratio(modulate(b), ratio, rng), z
