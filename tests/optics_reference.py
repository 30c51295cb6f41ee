"""Brute-force reference implementation of the density ordering.

Used as the oracle for the ordering algorithm: plain O(n^2) scans, a
seed dict that a neighbor enters or improves in only on a strictly smaller
reachability, scanned in id order for its smallest one (the rule the
library's argmin over its ``seeds`` array applies), and a processed set in
place of the NaN that closes a point in the library's ``seeds`` and of its
precomputed offers. Tuples
stand in for domain types. It shares only the IEEE hypot primitive with the
library so that float results can be compared exactly.

Tie rules mirror the library's contract: the next group start is the
lowest unprocessed id, and equal seed reachabilities resolve to the
lower id.

``points_table`` is how the tests build a table of ``{id: Point2D}``
points, ``order_points`` how they order such points with the library, and
``as_rows`` how they read an ``Ordering``'s columns as the reference's
rows.

``reference_clusters`` is the oracle for ``extract_clusters``'s array
cut: the point-by-point loop that cut the ordering before it was held as
columns.

``reference_reachability_csv`` is the oracle for
``experiments.write_reachability_csv``'s text: the ``csv.writer`` rows it
wrote before it built its text from the columns.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from optics_coverage.network import neighbor_rows
from optics_coverage.optics import optics_order


def points_table(points, radius):
    """``neighbor_rows`` at ``radius`` over the ``{id: Point2D}`` points, in id order."""
    ids = sorted(points)
    x = [points[pid].x for pid in ids]
    y = [points[pid].y for pid in ids]
    return neighbor_rows(np.array(ids, dtype=np.int64), x, y, radius)


def order_points(points, params, table=None):
    """``optics_order`` of the ``{id: Point2D}`` points: over ``table``, its
    other nodes masked off, when it is given and reaches eps, and otherwise
    over ``points_table(points, eps)``."""
    if table is None or params.eps > table.radius:
        table = points_table(points, params.eps)
    return optics_order(table, params, np.isin(table.ids, list(points)))


def as_rows(ordering):
    """The ordering's columns as ``[(point_id, reachability, core_distance), ...]``
    with Python values, None for NaN: ``reference_optics``'s format."""
    ids, reach, core = ordering.ids, ordering.reachability, ordering.core_distance
    return [
        (pid, None if math.isnan(r) else r, None if math.isnan(cd) else cd)
        for pid, r, cd in zip(ids.tolist(), reach.tolist(), core.tolist())
    ]


def reference_optics(
    points: dict[int, tuple[float, float]], eps: float, min_pts: int
) -> list[tuple[int, float | None, float | None]]:
    """Return [(point_id, reachability, core_distance), ...] in order."""
    ids = sorted(points)

    def dist(a: int, b: int) -> float:
        (ax, ay), (bx, by) = points[a], points[b]
        return math.hypot(ax - bx, ay - by)

    def neighborhood(p: int) -> list[int]:
        return [q for q in ids if dist(p, q) <= eps]

    def core_distance(p: int) -> float | None:
        nbrs = neighborhood(p)
        if len(nbrs) < min_pts:
            return None
        return sorted(dist(p, q) for q in nbrs)[min_pts - 1]

    processed: set[int] = set()
    reach: dict[int, float] = {}
    out: list[tuple[int, float | None, float | None]] = []

    def update_from(p: int, cd: float) -> None:
        for q in neighborhood(p):
            if q == p or q in processed:
                continue
            r = max(cd, dist(p, q))
            if q not in reach or r < reach[q]:
                reach[q] = r

    def pop_min_seed() -> int | None:
        best = None
        for q in sorted(reach):
            if q in processed:
                continue
            if best is None or reach[q] < reach[best]:
                best = q
        return best

    def process(p: int, r: float | None) -> None:
        processed.add(p)
        cd = core_distance(p)
        out.append((p, r, cd))
        if cd is not None:
            update_from(p, cd)

    for start in ids:
        if start in processed:
            continue
        process(start, None)
        while True:
            q = pop_min_seed()
            if q is None:
                break
            process(q, reach[q])
    return out


def reference_clusters(rows, eps_prime):
    """Cut ``[(point_id, reachability, core_distance), ...]`` rows, None
    for undefined, at ``eps_prime``: ``(clusters, outliers)``, each cluster
    a tuple of ids.

    Consecutive points with reachability <= eps_prime form a cluster; a
    point above the cut (or with undefined reachability) starts a fresh
    cluster when its own core distance is within the cut, and is an
    outlier otherwise.
    """
    clusters: list[tuple[int, ...]] = []
    outliers: set[int] = set()
    current: list[int] = []

    def close_current() -> None:
        if current:
            clusters.append(tuple(current))
            current.clear()

    for point_id, reachability, core_distance in rows:
        if reachability is not None and reachability <= eps_prime:
            current.append(point_id)
        else:
            close_current()
            if core_distance is not None and core_distance <= eps_prime:
                current.append(point_id)
            else:
                outliers.add(point_id)
    close_current()
    return clusters, outliers


def reference_reachability_csv(ordering):
    """The reachability CSV of ``ordering`` as ``csv.writer`` writes it:
    a header, then ``(order index, *row)`` per ``as_rows`` row."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["order_index", "point_id", "reachability", "core_distance"])
    writer.writerows((k, *row) for k, row in enumerate(as_rows(ordering)))
    return out.getvalue()
