"""Uniform-grid spatial index for fixed-radius neighborhood queries.

``GridIndex`` answers the fixed-radius questions a round cannot read from
its neighbor table: it builds that table at the 2r range, and serves the
ordering's eps-neighborhoods only when eps exceeds 2r (or a library caller
orders points without a table). Cells have the query radius as side, so a
query scans the 3x3 block around its center and keeps a point by the same
``euclidean_distance <= radius`` test as ``brute_force_query``, the
reference the tests compare it with. Cells count from the lower corner of
the points' bounding box, so no point's offset is negative and a pair
straddling 0 cannot skip a cell.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Mapping

from .geometry import Point2D, euclidean_distance


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
    """Points bucketed into cells of side ``radius`` for radius queries."""

    def __init__(self, points: Mapping[int, Point2D], radius: float):
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.radius = radius
        self._x0 = min((p.x for p in points.values()), default=0.0)
        self._y0 = min((p.y for p in points.values()), default=0.0)
        self._cells: dict[tuple[int, int], list[tuple[int, float, float]]] = (
            defaultdict(list)
        )
        for pid, p in points.items():
            self._cells[self._cell_of(p)].append((pid, p.x, p.y))

    def _cell_of(self, p: Point2D) -> tuple[int, int]:
        r = self.radius
        return math.floor((p.x - self._x0) / r), math.floor((p.y - self._y0) / r)

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
