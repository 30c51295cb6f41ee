"""Fixed-radius neighbor search helpers: the cell side, a brute-force
reference, and a grid index.

``cell_side`` is the cell side of ``network.neighbor_rows``, which builds
every neighbor table, and of ``GridIndex``. Both count cells from the
lower corner of the points' bounding box, so no offset is negative and a
pair straddling 0 cannot skip a cell; a pair two cells apart is then more
than the radius apart even after rounding, so the 3x3 block around a
point holds every pair within the radius.

``brute_force_query`` is the reference the tests compare the table rows
with. ``GridIndex``, which scans the 3x3 block around each query center,
has no caller in the package; it stays because the benchmark's tracer
wraps its ``query``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Mapping

from .geometry import Point2D, euclidean_distance


def cell_side(radius: float) -> float:
    """Grid cell side for queries at ``radius``.

    A hair wider than the radius, so points two cells apart along an axis
    are more than the radius apart even after rounding. With side exactly
    ``radius``, a pair whose computed distance rounds down to the radius
    can sit two cells apart, outside each other's 3x3 block.
    """
    return radius * (1 + 1e-9)


def brute_force_query(
    points: Mapping[int, Point2D], center: Point2D, radius: float
) -> list[tuple[int, float]]:
    """All (id, distance) pairs with distance <= radius, sorted by id."""
    out = []
    for pid in sorted(points):
        d = euclidean_distance(points[pid], center)
        if d <= radius:
            out.append((pid, d))
    return out


class GridIndex:
    """Points bucketed into cells of side ``cell_side(radius)``."""

    def __init__(self, points: Mapping[int, Point2D], radius: float):
        # network.require_positive's test; spatial cannot import network
        if not 0 < radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {radius}")
        self.radius = radius
        self._side = cell_side(radius)
        self._x0 = min((p.x for p in points.values()), default=0.0)
        self._y0 = min((p.y for p in points.values()), default=0.0)
        self._cells: dict[tuple[int, int], list[tuple[int, float, float]]] = (
            defaultdict(list)
        )
        for pid, p in points.items():
            self._cells[self._cell_of(p)].append((pid, p.x, p.y))

    def _cell_of(self, p: Point2D) -> tuple[int, int]:
        s = self._side
        return math.floor((p.x - self._x0) / s), math.floor((p.y - self._y0) / s)

    def query(self, center: Point2D) -> list[tuple[int, float]]:
        """All (id, distance) pairs with distance <= radius, sorted by id."""
        radius, cells = self.radius, self._cells
        x, y = center.x, center.y
        cx, cy = self._cell_of(center)
        out = []
        for ix in (cx - 1, cx, cx + 1):
            for iy in (cy - 1, cy, cy + 1):
                for pid, px, py in cells.get((ix, iy), ()):
                    # euclidean_distance(point, center), inlined
                    d = math.hypot(px - x, py - y)
                    if d <= radius:
                        out.append((pid, d))
        out.sort()
        return out
