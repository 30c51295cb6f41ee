"""Fixed-radius neighbor search helpers: a brute-force reference and a
grid index.

``brute_force_query`` is the reference the tests compare the table rows
with. ``GridIndex``, which scans the 3x3 block around each query center
in cells of ``network.cell_side``, has no caller in the package; it stays
because the benchmark's tracer wraps its ``query``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Mapping

from .geometry import Point2D
from .network import cell_side, require_positive


def brute_force_query(
    points: Mapping[int, Point2D], center: Point2D, radius: float
) -> list[tuple[int, float]]:
    """All (id, distance) pairs with distance <= radius, sorted by id."""
    out = []
    for pid in sorted(points):
        d = math.hypot(points[pid].x - center.x, points[pid].y - center.y)
        if d <= radius:
            out.append((pid, d))
    return out


class GridIndex:
    """Points bucketed into cells of side ``cell_side(radius)``."""

    def __init__(self, points: Mapping[int, Point2D], radius: float):
        self.radius = require_positive("radius", radius)
        self._side = cell_side(self.radius)
        self._x0 = min((p.x for p in points.values()), default=0.0)
        self._y0 = min((p.y for p in points.values()), default=0.0)
        self._cells: dict[tuple[int, int], list[tuple[int, float, float]]] = defaultdict(list)
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
                    d = math.hypot(px - x, py - y)
                    if d <= radius:
                        out.append((pid, d))
        out.sort()
        return out
