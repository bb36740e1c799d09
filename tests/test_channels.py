import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from wiretapcodes import bitlinalg, channels, codes, secrecy, thresholds
from wiretapcodes.bitlinalg import BitMatrix
from wiretapcodes.channels import BEC, BIAWGN, BSC
from wiretapcodes.codes import DegreeDistribution


class TestModels:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BEC(1.5)
        with pytest.raises(ValueError):
            BSC(-0.1)
        with pytest.raises(ValueError):
            BIAWGN(-1.0)

    def test_cli_names_map_to_classes(self):
        assert channels.CHANNELS == {"bec": BEC, "bsc": BSC, "biawgn": BIAWGN}

    @pytest.mark.parametrize("snr", [0.0, 0.18, 0.465, 3.0])
    def test_awgn_facts(self, snr):
        ch = BIAWGN(snr)
        assert ch.erasure_rate == float(2.0 * channels.q_function(channels.signal_amplitude(snr)))
        # 2 Q(sqrt(2 snr)) evaluates erfc at t = fl(fl(sqrt(2 snr)) / fl(sqrt 2)):
        # within 2 ulp there, and within the rounding of t of erfc(sqrt(snr))
        # (9 ulp at snr = 3)
        assert _ulps(ch.erasure_rate, 2.0 * _q_oracle(channels.signal_amplitude(snr))) <= 2
        with mpmath.workprec(120):
            exact = float(mpmath.erfc(mpmath.sqrt(snr)))
        assert ch.erasure_rate == pytest.approx(exact, rel=1e-14, abs=0)
        assert ch.capacity == channels.c_biawgn(snr)
        assert ch.secrecy_capacity == 1.0 - channels.c_biawgn(snr)

    @pytest.mark.parametrize("q", [0.0, 0.11, 0.5, 0.75])
    def test_bsc_facts(self, q):
        ch = BSC(q)
        if q <= 0.5:
            assert ch.erasure_rate == 2.0 * q
        else:  # no BEC with erasure probability 2q > 1 exists
            with pytest.raises(ValueError, match=r"outside \[0, 1/2\]"):
                ch.erasure_rate
        assert ch.secrecy_capacity == channels.binary_entropy(q)
        assert ch.capacity == 1.0 - channels.binary_entropy(q)

    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    def test_bec_facts(self, eps):
        ch = BEC(eps)
        assert ch.erasure_rate == ch.secrecy_capacity == eps
        assert ch.capacity == 1.0 - eps

    def test_degradable_domain(self):
        for ch in (BEC(0.0), BEC(1.0), BSC(0.5), BIAWGN(1e-12)):
            ch.check_degradable()
        for ch in (BSC(0.6), BIAWGN(0.0)):
            with pytest.raises(ValueError):
                ch.check_degradable()

    def test_modulation_convention(self):
        assert channels.modulate([0]).tolist() == [1]
        assert channels.modulate([1]).tolist() == [-1]
        assert channels.modulate([0, 1, 0]).tolist() == [1, -1, 1]


def _q_oracle(x: float) -> float:
    """Q(x), correctly rounded: half mpmath's erfc, at 120 bits, of the
    argument ``q_function`` hands ``erfc``.  Clamped where mpmath overflows:
    0 above t = 28 and 1 below t = -7 are the correctly rounded values."""
    t = x / np.sqrt(2.0)
    if t != t:
        return math.nan
    if t > 28.0:
        return 0.0
    if t < -7.0:
        return 1.0
    with mpmath.workprec(120):
        return float(mpmath.erfc(mpmath.mpf(float(t))) / 2)


def _ulps(got, ref) -> np.ndarray:
    """How many doubles lie between ``got`` and ``ref``, element by element;
    both are >= 0, so their bits order them."""
    got, ref = (np.asarray(v, dtype=np.float64).view(np.int64) for v in (got, ref))
    return np.abs(got - ref)


def _ulps_off(t_points) -> np.ndarray:
    """How many ulps ``q_function`` is off the oracle at x = t sqrt(2), for
    each erfc argument ``t``."""
    x = np.asarray(t_points, dtype=np.float64) * np.sqrt(2.0)
    return _ulps(channels.q_function(x), [_q_oracle(v) for v in x.tolist()])


def _around(c: float, width: float = 0.01, count: int = 2001) -> np.ndarray:
    """A grid on [c - width, c + width], plus 201 points one ulp of c apart
    centred on c."""
    ulps = np.nextafter(c, np.inf) - c
    return np.concatenate([np.linspace(c - width, c + width, count),
                           c + ulps * np.arange(-100, 101)])


class TestErfc:
    """The erfc under ``q_function`` is within 2 ulp of the correctly
    rounded value, subnormal tail included, and exact at special values."""

    def test_seeded_sample(self):
        assert _ulps_off(np.random.default_rng(28).uniform(-30.0, 30.0, 20_000)).max() <= 2

    @pytest.mark.parametrize("edge", [-26.64, -26.55, -8.0, -1.0, 1.0, 8.0, 26.55, 26.64])
    def test_branch_points_and_underflow_edge(self, edge):
        # Cephes' erfc switches rational approximations at |t| = 1 and 8;
        # erfc(t) falls below the least normal double near t = 26.55, and
        # exp(-t^2) at 26.64
        assert _ulps_off(_around(edge)).max() <= 2

    def test_subnormal_tail(self):
        # erfc(t) is a positive subnormal up to t = 27.2; a tail computed
        # as exp(-t^2) times a ratio of polynomials gives 0 from 26.64 on
        t = np.linspace(26.7, 27.1, 401)
        assert np.all(channels.q_function(math.sqrt(2) * t) > 0)
        assert _ulps_off(t).max() <= 2

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324])
        q = channels.q_function(x)
        assert np.array_equal(q, [0.5, 0.5, 0.0, 1.0, np.nan, 0.5, 0.5], equal_nan=True)
        assert np.array_equal(q, [_q_oracle(v) for v in x.tolist()], equal_nan=True)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_floats(self, x):
        assert _ulps(channels.q_function(x), _q_oracle(x)) <= 2

    def test_q_function_shapes_and_types(self):
        assert type(channels.q_function(1.0)) is np.float64
        assert type(channels.q_function(np.array(1.0))) is np.float64
        for shape in [(0,), (5,), (2, 3)]:
            x = np.linspace(-4.0, 4.0, math.prod(shape)).reshape(shape)
            q = channels.q_function(x)
            assert q.shape == shape and q.dtype == np.float64
            assert np.array_equal(q.ravel(), [channels.q_function(v) for v in x.ravel()])
            assert _ulps(q.ravel(), [_q_oracle(v) for v in x.ravel().tolist()]).max(
                initial=0) <= 2


def _pair():
    return codes.nested_pair_from_coarse(codes.from_parity_check(BitMatrix.identity(3)))


_X = np.ones(4)
_RNG = np.random.default_rng


# (function of the bad value, the model that owns the range, the bad value)
OUT_OF_RANGE = {
    "c_biawgn": (channels.c_biawgn, BIAWGN, -1.0),
    "bsc_transmit": (lambda v: channels.bsc_transmit(_X, v, _RNG(0)), BSC, -0.1),
    "biawgn_transmit": (lambda v: channels.biawgn_transmit(_X, v, _RNG(0)), BIAWGN, -1.0),
    "awgn_llr": (lambda v: channels.awgn_llr(_X, v), BIAWGN, -1.0),
    "signal_amplitude": (channels.signal_amplitude, BIAWGN, -1.0),
    "biawgn_density": (lambda v: channels.biawgn_density(_X, 1, v), BIAWGN, -1.0),
    "mc_equivocation_bec": (
        lambda v: secrecy.mc_equivocation_bec(_pair(), v, 4, _RNG(0)), BEC, 1.5),
    "approach1_equivocation_bound": (
        lambda v: secrecy.approach1_equivocation_bound(_pair(), v, 4, 5, _RNG(0)), BIAWGN, -1.0),
    "brute_force_equivocation_bec": (
        lambda v: secrecy.brute_force_equivocation_bec(_pair(), v), BEC, 1.5),
    "brute_force_equivocation_bsc": (
        lambda v: secrecy.brute_force_equivocation_bsc(_pair(), v), BSC, -0.1),
    "de_residual": (
        lambda v: thresholds.de_residual(v, DegreeDistribution.regular(3, 6)), BEC, 1.5),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_parameter_raises_the_models_error(name):
    call, model, value = OUT_OF_RANGE[name]
    with pytest.raises(ValueError) as expected:
        model(value)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        call(value)


@pytest.mark.parametrize("snr", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    channels.signal_amplitude, lambda snr: channels.biawgn_density(_X, -1, snr),
], ids=["signal_amplitude", "biawgn_density"])
def test_amplitude_and_density_reject_a_bad_snr_without_a_warning(call, snr):
    # a negative or NaN SNR used to give nan and a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nonnegative and finite"):
            call(snr)


@pytest.mark.parametrize("call", [
    lambda: channels.biawgn_transmit(_X, 0.5, _RNG(0)),
    lambda: channels.awgn_llr(_X, 0.5),
], ids=["biawgn_transmit", "awgn_llr"])
def test_one_range_check_per_call(call, monkeypatch):
    built = []

    def counting(snr):
        built.append(snr)
        return BIAWGN(snr)

    monkeypatch.setattr(channels, "BIAWGN", counting)
    call()
    assert built == [0.5]


_BIT_PAIR = codes.nested_pair_from_coarse(
    codes.from_parity_check(BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]])))
_M = BitMatrix.from_dense([[1, 0, 1], [0, 1, 1]])

# function of a bit vector of length 2 (with the bad entry first) that must
# reject the entry; the ones given a generator must not draw from it first
TAKES_BITS = {
    "from_dense": lambda b, rng: BitMatrix.from_dense([b, [0, 1]]),
    "mat_vec": lambda b, rng: bitlinalg.mat_vec(_M, [*b, 0]),
    "vec_mat": lambda b, rng: bitlinalg.vec_mat(b, _M),
    "coset_word": lambda b, rng: secrecy.coset_word(_BIT_PAIR, b, [0]),
    "encode": lambda b, rng: secrecy.encode(_BIT_PAIR, b, rng),
    "main_decode": lambda b, rng: secrecy.main_decode(_BIT_PAIR, [*b, 1]),
    "bsc_degraded_transmit": lambda b, rng: channels.bsc_degraded_transmit(b, 0.1, rng),
    "modulate": lambda b, rng: channels.modulate(b),
    "bsc_transmit": lambda b, rng: channels.bsc_transmit(b, 0.0, rng),
}


@pytest.mark.parametrize("bad", [2, -1, 0.5])
@pytest.mark.parametrize("name", sorted(TAKES_BITS))
def test_every_bit_input_rejects_a_non_bit(name, bad):
    # modulate([2, 0.5]) used to give [-3, 1] and bsc_transmit([2], 0.0)
    # gave [2]; every bit input now goes through one check
    rng = _RNG(0)
    with pytest.raises(ValueError, match="must be( \\d+)? bits, each 0 or 1"):
        TAKES_BITS[name]([bad, 1], rng)
    assert rng.random() == _RNG(0).random()


@pytest.mark.parametrize("snr", [math.nan, math.inf])
def test_c_biawgn_rejects_nan_and_infinite_snr(snr):
    # a NaN or infinite SNR used to pass the range check, and the quadrature
    # then never returned
    with pytest.raises(ValueError, match="nonnegative and finite"):
        channels.c_biawgn(snr)


class TestBscTransmit:
    def test_identity_and_complement(self):
        rng = np.random.default_rng(0)
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert np.array_equal(channels.bsc_transmit(bits, 0.0, rng), bits)
        assert np.array_equal(channels.bsc_transmit(bits, 1.0, rng), 1 - bits)

    def test_flip_fraction(self):
        rng = np.random.default_rng(2)
        bits = np.zeros(100_000, dtype=np.uint8)
        assert channels.bsc_transmit(bits, 0.1, rng).mean() == pytest.approx(0.1, abs=0.01)


class TestBiawgnTransmit:
    def test_zero_snr_is_pure_noise(self):
        rng = np.random.default_rng(3)
        z = channels.biawgn_transmit(channels.modulate(np.ones(100_000, dtype=np.uint8)), 0.0, rng)
        assert abs(z.mean()) < 0.02

    def test_mean_and_variance(self):
        rng = np.random.default_rng(4)
        x = channels.modulate(np.zeros(100_000, dtype=np.uint8))
        z = channels.biawgn_transmit(x, 1.0, rng)
        assert z.mean() == pytest.approx(np.sqrt(2), abs=0.02)
        assert z.var() == pytest.approx(1.0, abs=0.02)

    def test_histogram_matches_the_density(self):
        # chi-squared goodness of fit against g(z|x)
        rng = np.random.default_rng(8)
        snr = 1.0
        x = channels.modulate(np.zeros(100_000, dtype=np.uint8))
        z = channels.biawgn_transmit(x, snr, rng)
        mu = channels.signal_amplitude(snr)
        edges = stats.norm.ppf(np.linspace(0.001, 0.999, 41), loc=mu)
        counts, _ = np.histogram(z, bins=edges)
        probs = np.diff(stats.norm.cdf(edges, loc=mu))
        result = stats.chisquare(counts, f_exp=probs / probs.sum() * counts.sum())
        assert result.pvalue > 0.01

    def test_llr(self):
        assert channels.awgn_llr(0.0, 2.0) == 0.0
        assert not channels.awgn_llr(np.array([1.0, -2.0]), 0.0).any()
        assert channels.awgn_llr(1.0, 0.5) == pytest.approx(2.0)


class TestAwgnDegraded:
    def test_sign_consistency(self):
        rng = np.random.default_rng(5)
        x = channels.modulate(rng.integers(0, 2, size=20_000, dtype=np.uint8))
        zp, z = channels.awgn_degraded_transmit(x, 0.7, rng)
        assert np.all(z[zp == 1] >= 0)
        assert np.all(z[zp == -1] <= 0)
        assert np.array_equal(zp[zp != 0], x[zp != 0])

    def test_erasure_fraction_example(self):
        rng = np.random.default_rng(6)
        x = channels.modulate(np.zeros(100_000, dtype=np.uint8))
        zp, _ = channels.awgn_degraded_transmit(x, 0.465, rng)
        assert (zp == 0).mean() == pytest.approx(0.335, abs=0.01)

    def test_zero_snr_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="must be positive"):
            channels.awgn_degraded_transmit(np.ones(4, dtype=np.int8), 0.0, rng)

    def test_z_is_the_direct_channels_output(self):
        # the composed channel's z is the direct channel's draw, bit for bit
        x = channels.modulate(np.random.default_rng(9).integers(0, 2, 100_000, dtype=np.uint8))
        _, z = channels.awgn_degraded_transmit(x, 0.465, np.random.default_rng(9))
        direct = channels.biawgn_transmit(x, 0.465, np.random.default_rng(9))
        assert z.tobytes() == direct.tobytes()


def _kept_cdf(t, snr):
    """CDF of f(z | Z'=+1): the normalized density difference on z >= 0."""
    mu, eps = channels.signal_amplitude(snr), BIAWGN(snr).erasure_rate
    t = np.maximum(t, 0.0)
    n = stats.norm.cdf
    return (n(t - mu) - n(-mu) - n(t + mu) + n(mu)) / (1.0 - eps)


def _erased_cdf(t, snr):
    """CDF of f(z | Z'=0): the fair two-sided mixture of folded tails."""
    mu, eps = channels.signal_amplitude(snr), BIAWGN(snr).erasure_rate
    tail = stats.norm.cdf(-np.abs(t) - mu) / eps
    return np.where(t < 0, tail, 1.0 - tail)


class TestAwgnDegradedLaw:
    """The samples against the closed-form conditional laws of the decomposition."""

    @pytest.mark.parametrize("zprime, cdf", [(1, _kept_cdf), (0, _erased_cdf)])
    def test_closed_form_cdfs_integrate_the_densities(self, zprime, cdf):
        snr = 0.465
        for t in (-2.0, -0.3, 0.0, 0.4, 1.7):
            want, _ = integrate.quad(
                lambda z: channels.degraded_conditional_density(z, zprime, snr),
                -30.0, t, points=[0.0] if t > 0 else None, limit=200,
            )
            assert cdf(t, snr) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("zprime", [+1, -1])
    def test_kept_outputs_follow_the_conditional_density(self, zprime):
        rng = np.random.default_rng(31)
        snr = 0.465
        x = channels.modulate(rng.integers(0, 2, size=100_000, dtype=np.uint8))
        zp, z = channels.awgn_degraded_transmit(x, snr, rng)
        mirrored = zprime * z[zp == zprime]  # f(z | -1) mirrors f(z | +1)
        assert stats.kstest(mirrored, lambda t: _kept_cdf(t, snr)).pvalue > 0.01

    def test_erased_outputs_follow_the_folded_tails(self):
        rng = np.random.default_rng(32)
        snr = 0.465
        x = channels.modulate(rng.integers(0, 2, size=100_000, dtype=np.uint8))
        zp, z = channels.awgn_degraded_transmit(x, snr, rng)
        assert stats.kstest(z[zp == 0], lambda t: _erased_cdf(t, snr)).pvalue > 0.01

    def test_erased_outputs_do_not_depend_on_the_input(self):
        rng = np.random.default_rng(33)
        erased = []
        for bit in (0, 1):
            x = channels.modulate(np.full(100_000, bit, dtype=np.uint8))
            zp, z = channels.awgn_degraded_transmit(x, 0.465, rng)
            erased.append(z[zp == 0])
        assert stats.ks_2samp(*erased).pvalue > 0.01

    @pytest.mark.parametrize("snr", [50.0, 1e-6])
    def test_no_floating_point_error_at_extreme_snr(self, snr):
        rng = np.random.default_rng(34)
        x = channels.modulate(rng.integers(0, 2, size=100_000, dtype=np.uint8))
        with np.errstate(all="raise"):
            zp, z = channels.awgn_degraded_transmit(x, snr, rng)
        assert (zp.dtype, z.dtype) == (np.int8, np.float64)
        eps = BIAWGN(snr).erasure_rate
        sigma = math.sqrt(eps * (1 - eps) / x.size)
        assert (zp == 0).mean() == pytest.approx(eps, abs=5 * sigma + 1e-12)

    def test_symbols_outside_the_alphabet_rejected(self):
        # a 0 or 2 used to come out as garbage; the generator is not drawn
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            channels.awgn_degraded_transmit([1, 0, -1, 2], 0.5, rng)
        assert rng.random() == np.random.default_rng(0).random()


class TestDegradedDensities:
    @pytest.mark.parametrize("snr", [0.302, 0.465, 1.0])
    def test_mixture_identity(self, snr):
        eps = channels.BIAWGN(snr).erasure_rate
        mu = channels.signal_amplitude(snr)
        zs = np.linspace(-6 * mu - 6, 6 * mu + 6, 2000)
        for x in (+1, -1):
            mix = (1 - eps) * channels.degraded_conditional_density(zs, x, snr)
            mix = mix + eps * channels.degraded_conditional_density(zs, 0, snr)
            direct = channels.biawgn_density(zs, x, snr)
            assert np.max(np.abs(mix - direct)) <= 1e-12

    def test_erased_density_normalized(self):
        val, _ = integrate.quad(
            lambda z: channels.degraded_conditional_density(z, 0, 0.465), -30, 30, limit=200
        )
        assert abs(val - 1.0) <= 1e-9

    def test_unerased_density_normalized(self):
        val, _ = integrate.quad(
            lambda z: channels.degraded_conditional_density(z, 1, 0.7), 0, 30, limit=200
        )
        assert abs(val - 1.0) <= 1e-9

    def test_samplers_are_deterministic(self):
        x = channels.modulate(np.zeros(2000, dtype=np.uint8))
        a = channels.awgn_degraded_transmit(x, 0.5, np.random.default_rng(42))
        b = channels.awgn_degraded_transmit(x, 0.5, np.random.default_rng(42))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestBscDegraded:
    def test_no_noise(self):
        rng = np.random.default_rng(10)
        bits = np.array([0, 1, 0, 1], dtype=np.uint8)
        zp, z = channels.bsc_degraded_transmit(bits, 0.0, rng)
        assert np.array_equal(z, bits)
        assert not (zp == 0).any()

    def test_marginal_flip_rate(self):
        rng = np.random.default_rng(11)
        bits = np.zeros(100_000, dtype=np.uint8)
        zp, z = channels.bsc_degraded_transmit(bits, 0.2, rng)
        assert z.mean() == pytest.approx(0.2, abs=0.01)
        assert (zp == 0).mean() == pytest.approx(0.4, abs=0.01)

    def test_erased_bits_are_fair_coins_and_kept_bits_pass(self):
        rng = np.random.default_rng(35)
        bits = rng.integers(0, 2, size=100_000, dtype=np.uint8)
        zp, z = channels.bsc_degraded_transmit(bits, 0.2, rng)
        assert (zp.dtype, z.dtype) == (np.int8, np.uint8)
        kept = zp != 0
        assert np.array_equal(zp[kept], channels.modulate(bits)[kept])
        assert np.array_equal(z[kept], bits[kept])
        flips = int((z[~kept] != bits[~kept]).sum())
        assert stats.binomtest(flips, int((~kept).sum()), 0.5).pvalue > 0.01

    @pytest.mark.parametrize("q", [0.0, 0.5])
    def test_no_floating_point_error_at_the_ends(self, q):
        rng = np.random.default_rng(36)
        bits = rng.integers(0, 2, size=10_000, dtype=np.uint8)
        with np.errstate(all="raise"):
            zp, z = channels.bsc_degraded_transmit(bits, q, rng)
        if q == 0.0:  # nothing erased, nothing flipped
            assert np.array_equal(zp, channels.modulate(bits))
            assert np.array_equal(z, bits)
        else:  # everything erased
            assert not zp.any()

    def test_bits_outside_the_alphabet_rejected(self):
        # a 2 or 3 used to come out as garbage; the generator is not drawn
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="0 or 1"):
            channels.bsc_degraded_transmit([0, 1, 2, 3], 0.2, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_q_above_half_rejected(self):
        with pytest.raises(ValueError):
            channels.bsc_degraded_transmit(np.zeros(4, dtype=np.uint8), 0.6, np.random.default_rng(0))
