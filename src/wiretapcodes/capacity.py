"""Closed-form and quadrature-based information quantities.

Covers the earlier error-detecting-code baseline for the BSC, the gap
between the AWGN secrecy capacity and the perfect-secrecy rate of the
dual-of-good-code coset construction, and the rate-equivocation region
polygons.  The per-channel quantities (capacity, secrecy capacity, and that
perfect-secrecy rate, ``erasure_rate``) are properties of the channel
models in ``channels``.

Everything here is a pure function; rates and equivocations are in bits
per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import BIAWGN, c_biawgn

_GEOM_TOL = 1e-9


def thangaraj_baseline(q: float) -> float:
    """Best secrecy rate of the earlier error-detecting-code construction
    for the BSC eavesdropper: -log2(1 - q)."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"baseline rate diverges outside 0 <= q < 1 (got {q})")
    return -math.log2(1.0 - q)


def secrecy_gap(snr: float) -> float:
    """Secrecy capacity minus the coset-construction rate on the AWGN
    eavesdropper: 1 - c_biawgn(snr) - 2*Q(sqrt(2*snr)).

    Reported without clamping; it can be negative outside the usual
    operating range.
    """
    channel = BIAWGN(snr)
    return channel.secrecy_capacity - channel.erasure_rate


@dataclass(frozen=True)
class RateEquivocationPoint:
    """A (rate, equivocation-rate) pair in bits per channel use."""

    rate: float
    equivocation: float

    def __post_init__(self):
        if not -_GEOM_TOL <= self.equivocation <= self.rate + _GEOM_TOL <= 1 + 2 * _GEOM_TOL:
            raise ValueError(
                f"need 0 <= Re <= R <= 1, got ({self.rate}, {self.equivocation})"
            )


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Monotone-chain convex hull, counterclockwise, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= _GEOM_TOL:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= _GEOM_TOL:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class RegionPolygon:
    """Convex rate-equivocation region, vertices counterclockwise.

    The vertex list starts at the origin when the origin belongs to the
    region, which makes the CSV serialization unambiguous.
    """

    vertices: tuple[RateEquivocationPoint, ...]

    @classmethod
    def from_points(cls, points) -> "RegionPolygon":
        hull = _convex_hull([(float(r), float(re)) for r, re in points])
        if not hull:
            raise ValueError("empty vertex set")
        start = hull.index(min(hull))
        ordered = hull[start:] + hull[:start]
        return cls(tuple(RateEquivocationPoint(r, re) for r, re in ordered))

    def contains(self, rate: float, equivocation: float) -> bool:
        """Point membership for a convex counterclockwise polygon."""
        p = (rate, equivocation)
        verts = [(v.rate, v.equivocation) for v in self.vertices]
        if len(verts) == 1:
            return abs(p[0] - verts[0][0]) <= _GEOM_TOL and abs(p[1] - verts[0][1]) <= _GEOM_TOL
        if len(verts) == 2:
            a, b = verts
            along = _cross(a, b, p)
            within = min(a[0], b[0]) - _GEOM_TOL <= p[0] <= max(a[0], b[0]) + _GEOM_TOL
            return abs(along) <= _GEOM_TOL and within
        return all(
            _cross(verts[i], verts[(i + 1) % len(verts)], p) >= -_GEOM_TOL
            for i in range(len(verts))
        )

    def contains_polygon(self, other: "RegionPolygon") -> bool:
        return all(self.contains(v.rate, v.equivocation) for v in other.vertices)


def achievable_region(snr: float, r1: float) -> RegionPolygon:
    """Rate-equivocation region achieved by time-sharing the coset schemes.

    ``r1`` is the rate of a good code whose AWGN threshold lies below
    ``snr`` (it caps the rate axis of the full-equivocation corner); the
    dual construction's perfect-secrecy rate is ``2*Q(sqrt(2*snr))``.
    Returns the convex hull of the five corner points; dominated and
    duplicate corners disappear in the hull.
    """
    if not 0.0 <= r1 <= 1.0:
        raise ValueError(f"coarse rate {r1} outside [0, 1]")
    r_dual = BIAWGN(snr).erasure_rate
    cap = c_biawgn(snr)
    if r1 > cap + _GEOM_TOL:
        raise ValueError(
            f"coarse rate {r1} exceeds the channel capacity {cap:.4f}; "
            "no good code has its threshold below this SNR"
        )
    points = [
        (0.0, 0.0),
        (r_dual, r_dual),
        (1.0 - r1, 1.0 - cap),
        (1.0, 1.0 - cap),
        (1.0, 0.0),
    ]
    return RegionPolygon.from_points(points)


def capacity_equivocation_region(snr: float) -> RegionPolygon:
    """Outer region {(R, Re): Re <= R <= 1, Re <= 1 - c_biawgn(snr)}."""
    cap = c_biawgn(snr)
    re_max = 1.0 - cap
    points = [(0.0, 0.0), (re_max, re_max), (1.0, re_max), (1.0, 0.0)]
    return RegionPolygon.from_points(points)
