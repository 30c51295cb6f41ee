"""Fixed-radius neighbor search: CSR pair rows, and a grid index.

``neighbor_rows`` builds the rows of a neighbor table (the round's at 2r,
or the ordering's own at a wider eps) in one pass over cell blocks: numpy
proposes each point's higher-id candidates from its 3x3 block and drops
those clearly out of reach, every kept distance is ``math.hypot`` on the
same operands as ``brute_force_query``, the reference the tests compare
it with, and one ``lexsort`` over both directions of the kept pairs lays
them out as CSR arrays. ``GridIndex``, which scans the 3x3 block around
each query center, has no caller in the package; it stays because the
benchmark's tracer wraps its ``query``.

Both count cells from the lower corner of the points' bounding box, so no
offset is negative and a pair straddling 0 cannot skip a cell, and both
use ``cell_side``: a pair two cells apart is then more than the radius
apart even after rounding, so the 3x3 block holds every pair within it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Mapping

import numpy as np

from .geometry import Point2D, euclidean_distance

# query points per numpy pass of ``neighbor_rows``: each pass's arrays stay
# ~100 kB at the default density; passes of 256 points raised the peak
# resident memory of a 5k-node round by ~2.5 MB
ROW_CHUNK = 64


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


def _cell_ranks(values: list[float], side: float) -> np.ndarray:
    """Rank of each value's cell along one axis among the occupied cells.

    Cells count from the smallest value, as in ``GridIndex``. Adjacent
    cells get adjacent ranks, so a block of ranks holds at least the block
    of cells, and keys built from ranks stay small however far apart the
    points are.
    """
    v0 = min(values)
    cells = [math.floor((v - v0) / side) for v in values]
    rank = {c: i for i, c in enumerate(sorted(set(cells)))}
    return np.array([rank[c] for c in cells])


def neighbor_rows(
    points: Mapping[int, Point2D], radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs within ``radius`` as CSR rows: ``(ids, indptr, index, distance)``.

    ``ids`` are the points' ids, sorted; row i, of ``ids[i]``, is
    ``index[indptr[i]:indptr[i + 1]]`` (positions into ``ids``) with the
    matching ``distance`` entries, sorted by (distance, id). A pair's
    distance is one float, ``math.hypot(x_b - x_a, y_b - y_a)`` with a the
    lower id, held by both rows, and the pair is kept iff it is <= radius.
    numpy only proposes candidates, ROW_CHUNK query points at a time: from
    each point's 3x3 cell block, those with a higher id whose squared
    distance is within the cell side squared (a superset of the kept pairs).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    ids = np.array(sorted(points), dtype=np.int64)
    n = len(ids)
    if n == 0:
        return ids, np.zeros(1, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    # index i is the i-th smallest id, so "higher id" is "higher index"
    positions = [points[pid] for pid in ids.tolist()]
    xs, ys = [p.x for p in positions], [p.y for p in positions]
    x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
    cell = cell_side(radius)
    cx, cy = _cell_ranks(xs, cell), _cell_ranks(ys, cell)
    # key (column, row) -> column * span + row; rows run 0..span - 2, so a
    # query's row range [cy - 1, cy + 1] never reaches another column
    span = int(cy.max()) + 2
    key = cx * span + cy
    by_cell = np.argsort(key, kind="stable")
    sorted_key = key[by_cell]
    reach2 = cell * cell
    pairs = []
    for start in range(0, n, ROW_CHUNK):
        q = np.arange(start, min(start + ROW_CHUNK, n))
        # one contiguous run of the cell order per neighboring column
        base = (cx[q, None] + np.array([-1, 0, 1])) * span + cy[q, None]
        lo = np.searchsorted(sorted_key, base - 1, side="left").ravel()
        hi = np.searchsorted(sorted_key, base + 1, side="right").ravel()
        counts = hi - lo
        offsets = np.cumsum(counts) - counts
        pos = np.arange(counts.sum()) + np.repeat(lo - offsets, counts)
        a = np.repeat(np.repeat(q, 3), counts)
        b = by_cell[pos]
        keep = b > a
        a, b = a[keep], b[keep]
        dx, dy = x[b] - x[a], y[b] - y[a]
        keep = dx * dx + dy * dy <= reach2
        a, b = a[keep], b[keep]
        # a float64 difference is the same float in numpy as in Python
        dists = map(math.hypot, dx[keep].tolist(), dy[keep].tolist())
        d = np.fromiter(dists, dtype=float, count=len(a))
        within = d <= radius
        pairs.append((a[within], b[within], d[within]))
    a, b, d = (np.concatenate(column) for column in zip(*pairs))
    # both directions of every pair, ordered by row, then distance, then id
    rows, index, distance = np.concatenate((a, b)), np.concatenate((b, a)), np.concatenate((d, d))
    order = np.lexsort((index, distance, rows))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return ids, indptr, index[order], distance[order]


class GridIndex:
    """Points bucketed into cells of side ``cell_side(radius)``."""

    def __init__(self, points: Mapping[int, Point2D], radius: float):
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
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
