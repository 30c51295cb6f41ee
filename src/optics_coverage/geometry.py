"""Planar geometry for sensor discs: points, distances, boundary overlap.

All lengths are in meters and all angles in radians. Sensor coverage areas
are modeled as closed discs of one common radius, so a disc is just its
center; functions that need the radius take it as an argument. The overlap
between two discs is quantified by the half-angle of the boundary arc of
one disc that lies inside the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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


def euclidean_distance(a: Point2D, b: Point2D) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def overlap_angle(d: float, r: float) -> float:
    """Half-angle of the arc of a disc boundary inside an equal-radius disc.

    ``d`` is the center distance, ``r`` the common radius. Discs at
    ``d >= 2r`` do not overlap (angle 0); the angle grows to pi/2 as the
    centers approach. Coincident centers are rejected.

    Raises:
        CoLocatedSensorsError: if ``d == 0``.
        ValueError: if ``d < 0`` or ``r <= 0``.
    """
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    if d < 0:
        raise ValueError(f"distance must be non-negative, got {d}")
    if d == 0:
        raise CoLocatedSensorsError("coincident disc centers (d = 0)")
    if d >= 2 * r:
        return 0.0
    # acos argument is in (0, 1) here; clamp guards rounding at the edges
    return min(math.pi / 2, max(0.0, math.acos(d / (2 * r))))

