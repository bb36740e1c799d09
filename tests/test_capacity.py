import math

import numpy as np
import pytest
from scipy import integrate

from wiretapcodes import capacity, channels
from wiretapcodes.channels import BEC, BIAWGN, BSC


def c_biawgn_oracle(snr: float) -> float:
    """Independent check: the same capacity integral through scipy.quad."""
    s = math.sqrt(snr)

    def f(y):
        return math.exp(-((y - s) ** 2)) * np.logaddexp(0.0, -4.0 * y * s) / math.log(2.0)

    val, _ = integrate.quad(f, s - 12, s + 12, limit=200, epsabs=1e-12, epsrel=1e-12)
    return 1.0 - val / math.sqrt(math.pi)


class TestQFunction:
    def test_half_at_zero(self):
        assert channels.q_function(0.0) == pytest.approx(0.5)

    def test_limits(self):
        assert channels.q_function(-12.0) == pytest.approx(1.0, abs=1e-12)
        assert channels.q_function(12.0) == pytest.approx(0.0, abs=1e-12)

    def test_degradation_constant(self):
        assert 2 * channels.q_function(math.sqrt(2 * 0.465)) == pytest.approx(0.335, abs=0.001)


class TestBinaryEntropy:
    def test_known_values(self):
        assert channels.binary_entropy(0.5) == 1.0
        assert channels.binary_entropy(0.0) == 0.0
        assert channels.binary_entropy(1.0) == 0.0
        assert channels.binary_entropy(0.11) == pytest.approx(0.49999, abs=1e-4)

    def test_vectorized(self):
        out = channels.binary_entropy(np.array([0.0, 0.5, 1.0]))
        assert out.tolist() == [0.0, 1.0, 0.0]

    def test_domain(self):
        with pytest.raises(ValueError):
            channels.binary_entropy(1.2)


class TestCBiawgn:
    def test_zero_snr(self):
        assert channels.c_biawgn(0.0) == pytest.approx(0.0, abs=1e-8)

    def test_approaches_one(self):
        assert channels.c_biawgn(20.0) >= 0.9999

    def test_operating_point(self):
        assert 1 - channels.c_biawgn(0.302) == pytest.approx(0.663, abs=0.001)

    @pytest.mark.parametrize("snr", [0.05, 0.302, 0.32, 0.465, 1.0, 4.0])
    def test_against_quad_oracle(self, snr):
        assert channels.c_biawgn(snr) == pytest.approx(c_biawgn_oracle(snr), abs=1e-6)

    def test_monotone_and_bounded_on_grid(self):
        grid = np.linspace(0.0, 20.0, 100)
        values = [channels.c_biawgn(s) for s in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestSecrecyCapacity:
    def test_bec(self):
        assert BEC(0.3).secrecy_capacity == pytest.approx(0.3)

    def test_bsc_zero(self):
        assert BSC(0.0).secrecy_capacity == 0.0

    def test_awgn_example(self):
        assert BIAWGN(0.302).secrecy_capacity == pytest.approx(0.663, abs=0.001)


class TestApproach2Rate:
    def test_awgn(self):
        assert BIAWGN(0.32).erasure_rate == pytest.approx(0.4237, abs=5e-4)

    def test_bsc(self):
        assert BSC(0.25).erasure_rate == 0.5

    def test_bec(self):
        assert BEC(0.4).erasure_rate == pytest.approx(0.4)


class TestThangarajBaseline:
    def test_values(self):
        assert capacity.thangaraj_baseline(0.0) == 0.0
        assert capacity.thangaraj_baseline(0.5) == pytest.approx(1.0)
        assert capacity.thangaraj_baseline(0.1) == pytest.approx(0.152, abs=0.001)

    def test_divergence_rejected(self):
        with pytest.raises(ValueError):
            capacity.thangaraj_baseline(1.0)


class TestSecrecyGap:
    def test_zero_snr(self):
        assert capacity.secrecy_gap(0.0) == pytest.approx(0.0, abs=1e-6)

    def test_example_value(self):
        assert capacity.secrecy_gap(0.302) == pytest.approx(0.226, abs=0.002)

    def test_vanishes_at_high_snr(self):
        assert abs(capacity.secrecy_gap(20.0)) <= 1e-5

    def test_nonnegative_on_operating_range(self):
        for snr in np.linspace(0.3, 1.0, 30):
            gap = 1 - c_biawgn_oracle(snr) - 2 * channels.q_function(math.sqrt(2 * snr))
            assert capacity.secrecy_gap(snr) == pytest.approx(gap, abs=2e-6)
            assert capacity.secrecy_gap(snr) >= 0.0


class TestRegions:
    def test_achievable_vertices(self):
        poly = capacity.achievable_region(0.32, 1 / 3)
        verts = {(round(v.rate, 4), round(v.equivocation, 4)) for v in poly.vertices}
        cap_val = channels.c_biawgn(0.32)
        r_dual = BIAWGN(0.32).erasure_rate
        assert (0.0, 0.0) in verts
        assert (1.0, 0.0) in verts
        assert (round(r_dual, 4), round(r_dual, 4)) in verts
        assert (round(2 / 3, 4), round(1 - cap_val, 4)) in verts
        assert (1.0, round(1 - cap_val, 4)) in verts
        assert len(poly.vertices) == 5

    def test_achievable_is_convex_and_below_diagonal(self):
        for snr, r1 in ((0.32, 1 / 3), (0.32, 0.0), (1.0, 0.5), (0.1, 0.05)):
            poly = capacity.achievable_region(snr, r1)
            # convex: the hull of its own vertices drops none of them
            hull = capacity.RegionPolygon.from_points(
                [(v.rate, v.equivocation) for v in poly.vertices]
            )
            assert hull == poly
            assert all(v.equivocation <= v.rate + 1e-12 for v in poly.vertices)

    def test_full_rate_message_degenerates(self):
        # coarse rate 0: the dual-corner coincides with the capacity corner
        poly = capacity.achievable_region(0.32, 0.0)
        cap_val = channels.c_biawgn(0.32)
        assert all(v.equivocation <= 1 - cap_val + 1e-12 for v in poly.vertices)

    def test_high_snr_collapses(self):
        poly = capacity.achievable_region(30.0, 1 / 3)
        assert max(v.equivocation for v in poly.vertices) <= 1e-5

    def test_capacity_region_zero_snr_triangle(self):
        poly = capacity.capacity_equivocation_region(0.0)
        verts = {(round(v.rate, 6), round(v.equivocation, 6)) for v in poly.vertices}
        assert verts == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)}

    def test_capacity_region_cap(self):
        poly = capacity.capacity_equivocation_region(0.302)
        assert max(v.equivocation for v in poly.vertices) == pytest.approx(0.663, abs=0.001)

    @pytest.mark.parametrize("snr,r1", [(0.1, 0.05), (0.32, 1 / 3), (0.7, 1 / 3), (1.5, 0.5)])
    def test_containment(self, snr, r1):
        inner = capacity.achievable_region(snr, r1)
        outer = capacity.capacity_equivocation_region(snr)
        assert outer.contains_polygon(inner)

    def test_coarse_rate_above_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            capacity.achievable_region(0.1, 1 / 3)

    def test_point_membership(self):
        poly = capacity.capacity_equivocation_region(0.32)
        assert poly.contains(0.5, 0.2)
        assert not poly.contains(0.5, 0.9)

    def test_counterclockwise_from_origin(self):
        poly = capacity.achievable_region(0.32, 1 / 3)
        assert (poly.vertices[0].rate, poly.vertices[0].equivocation) == (0.0, 0.0)
        assert poly.vertices[1].rate > poly.vertices[0].rate  # walks along Re = 0 first
