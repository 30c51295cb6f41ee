"""Planar geometry for sensor discs: points, distances, boundary overlap.

All lengths are in meters and all angles in radians. Sensor coverage areas
are modeled as closed discs of one common radius, so a disc is just its
center; functions that need the radius take it as an argument. The overlap
between two discs is quantified by the half-angle of the boundary arc of
one disc that lies inside the other.

Every distance the package computes is ``math.hypot``'s float: ``hypot``
gives it for whole arrays of coordinate differences, bit for bit, where
``np.hypot`` may differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Veltkamp's constant 2**27 + 1: splits a float into two halves of at most
# 26 significant bits each, whose products are exact
_SPLIT = 134217729.0


class CoLocatedSensorsError(ValueError):
    """Two sensors occupy the same position (center distance is zero).

    Overlap geometry is degenerate for coincident discs, so callers must
    deduplicate co-located sensors explicitly instead of receiving a number.
    """


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


def overlap_angle(d: float, r: float) -> float:
    """Half-angle of the arc of a disc boundary inside an equal-radius disc.

    ``d`` is the center distance, ``r`` the common radius. Discs at
    ``d >= 2r`` do not overlap (angle 0); the angle grows to pi/2 as the
    centers approach. Coincident centers are rejected.

    Raises:
        CoLocatedSensorsError: if ``d == 0``.
        ValueError: if ``d`` is negative or NaN, or ``r`` is not positive
            and finite.
    """
    if not 0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")
    if not d >= 0:
        raise ValueError(f"distance must be non-negative, got {d}")
    if d == 0:
        raise CoLocatedSensorsError("coincident disc centers (d = 0)")
    if d >= 2 * r:
        return 0.0
    # acos argument is in (0, 1) here; clamp guards rounding at the edges
    return min(math.pi / 2, max(0.0, math.acos(d / (2 * r))))


def sum_in_order(values) -> float:
    """The float64 sum of ``values``, added one at a time in their order;
    0.0 for none.

    This is how CPython 3.11's ``sum`` adds floats, bit for bit but for
    the sign of a zero total (``sum`` starts from 0), and it is the same on
    every interpreter: 3.12 made ``sum`` compensated, and numpy's ``sum``
    adds pairwise, so both round differently.
    """
    column = np.asarray(values, dtype=float)
    if not len(column):
        return 0.0
    # as sum does, a total past the largest float is inf and inf - inf NaN
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.add.accumulate(column)[-1])


def _square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x * x`` as an unevaluated sum ``high + low``, exactly (Dekker)."""
    t = x * _SPLIT
    head = t - (t - x)
    tail = x - head
    p, q = head * head, 2.0 * head * tail
    high = p + q
    return high, p - high + q + tail * tail


def hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot(dx[i], dy[i])`` for every i of two 1-d arrays, as one
    float64 array: the same floats, bit for bit, from a numpy port of
    CPython's two-argument ``math.hypot``.

    Both magnitudes are scaled by 2**-e, with e the exponent ``frexp``
    gives the larger, so the larger lies in [0.5, 1). Each square is
    split exactly into two floats (Dekker), and the squares are added to
    1.0 with every rounding error kept (compensated sums). One
    ``np.sqrt`` of the sum less 1.0 gives a root h, which the
    differential correction moves by the residual, the sum less h * h,
    over 2h, before the scale is undone. ``math.hypot`` itself gives each
    entry whose larger magnitude is 0, not finite, or outside (2**-1000,
    2**1000), where the scaled values could leave the normal floats.

    The steps are those of ``vector_norm`` in CPython 3.11, whose
    ``dl_mul`` squares by Dekker's split. Other CPython versions write the
    squaring differently (3.10 adds each square to the sum as three
    terms), so a match on one interpreter proves none on another: the
    tests compare this function with the running interpreter's own
    ``math.hypot``. On the same 2.6 million pairs (the tests' bulk and
    edge pairs among them), the ``math.hypot`` of CPython 3.10, 3.11,
    3.12 and 3.13 gave every finite float this function gives.
    """
    dx, dy = np.asarray(dx, dtype=float), np.asarray(dy, dtype=float)
    ax, ay = np.abs(dx), np.abs(dy)
    big = np.maximum(ax, ay)
    rest = np.flatnonzero(~((big > 2.0**-1000) & (big < 2.0**1000)))
    if len(rest):
        # a stand-in pair (1, 0) until math.hypot answers for these below
        ax[rest], ay[rest], big[rest] = 1.0, 0.0, 1.0
    # 2**-e from big's biased exponent bits b, with e = b - 1022
    scale = ((2045 - (big.view(np.int64) >> 52)) << 52).view(np.float64)
    # CPython's vector_norm from here: csum sums the squares' high parts
    # onto 1.0, frac1 sums their low parts and frac2 csum's rounding errors
    csum, frac1, frac2 = 1.0, 0.0, 0.0
    for magnitude in (ax, ay):
        high, low = _square(magnitude * scale)
        total = csum + high
        frac1 = frac1 + low
        frac2 = frac2 + ((csum - total) + high)
        csum = total
    h = np.sqrt(csum - 1.0 + (frac1 + frac2))
    # the differential correction: csum + frac1 + frac2 - h * h, over 2h
    high, low = _square(h)
    total = csum - high
    frac1 = frac1 - low
    frac2 = frac2 + ((csum - total) - high)
    x = total - 1.0 + (frac1 + frac2)
    out = (h + x / (2.0 * h)) / scale
    if len(rest):
        out[rest] = list(map(math.hypot, dx[rest].tolist(), dy[rest].tolist()))
    return out
