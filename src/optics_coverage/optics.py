"""Density-based point ordering and cluster extraction.

The ordering algorithm walks the point set expanding from core points,
always taking the unprocessed point with the smallest current reachability
distance. The resulting linear order, annotated with reachability and core
distances, encodes the density structure; clusters are read off it with a
single horizontal reachability threshold, the cut eps_prime. As in Ankerst
et al. (1999), the cut is a parameter of the clustering next to eps and
min_pts, so ``OpticsParams`` holds all three.

Determinism rules (needed for reproducible runs and reference comparison):
the next start point is the lowest unprocessed id, and equal reachabilities
in the seed queue break toward the lower id.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field
from typing import IO, Mapping

from .geometry import Point2D
from .network import NeighborTable
from .spatial import GridIndex
from .spatial import brute_force_query  # noqa: F401 - perfbench/tracing.py wraps it here


@dataclass(frozen=True)
class OpticsParams:
    """Neighborhood radius, core-point population threshold and cluster cut.

    ``min_pts`` counts the point itself as part of its own neighborhood,
    so ``min_pts=1`` makes every point a core point with core distance 0.
    ``eps_prime`` is the reachability cut of ``extract_clusters``; None
    resolves to ``eps / 2`` here, and any other value must lie in (0, eps].
    """

    eps: float
    min_pts: int
    eps_prime: float | None = None

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {self.min_pts}")
        if self.eps_prime is None:
            object.__setattr__(self, "eps_prime", self.eps / 2)
        elif not 0 < self.eps_prime <= self.eps:
            raise ValueError(
                f"eps_prime must be in (0, eps = {self.eps}], got {self.eps_prime}"
            )


@dataclass(frozen=True)
class OrderedPoint:
    """One slot of the output ordering.

    ``reachability`` is None for the first point of each density-connected
    group; ``core_distance`` is None for non-core points.
    """

    point_id: int
    order_index: int
    reachability: float | None
    core_distance: float | None


@dataclass(frozen=True)
class Cluster:
    cluster_id: int
    members: tuple[int, ...]


@dataclass
class ClusterAssignment:
    clusters: list[Cluster]
    outliers: set[int] = field(default_factory=set)


def _core_distance_from(
    neighborhood: list[tuple[int, float]], min_pts: int
) -> float | None:
    """Distance to the min_pts-th closest point of an eps-neighborhood, or
    None when the neighborhood (the point itself included) holds fewer
    than ``min_pts`` points, i.e. the point is not a core point."""
    if len(neighborhood) < min_pts:
        return None
    dists = sorted(d for _, d in neighborhood)
    return dists[min_pts - 1]


def optics_order(
    points: Mapping[int, Point2D], params: OpticsParams, table: NeighborTable | None = None
) -> list[OrderedPoint]:
    """Emit every point once, ordered by expansion from core points.

    Each emitted point carries the smallest reachability distance seen from
    any core point processed before it; group starters carry None.

    Given a neighbor table over the same positions with ``eps <=
    table.radius``, a point's eps-neighborhood is itself at 0.0 plus its
    table row's entries in ``points`` within eps; otherwise a ``GridIndex``
    over ``points`` answers it, with the same pairs and distances.
    """
    if not points:
        raise ValueError("point set must be non-empty")
    eps = params.eps
    if table is not None and eps <= table.radius:

        def neighborhood_of(pid: int) -> list[tuple[int, float]]:
            hits = [(q, d) for q, d in table[pid] if d <= eps and q in points]
            return [(pid, 0.0), *hits]

    else:
        index = GridIndex(points, eps)

        def neighborhood_of(pid: int) -> list[tuple[int, float]]:
            return index.query(points[pid])

    reach: dict[int, float] = {}
    processed: set[int] = set()
    order: list[OrderedPoint] = []
    # seed queue with lazy deletion: stale heap entries are skipped when
    # their priority no longer matches the current reachability
    heap: list[tuple[float, int]] = []

    def emit(pid: int, reachability: float | None) -> None:
        processed.add(pid)
        neighborhood = neighborhood_of(pid)
        cd = _core_distance_from(neighborhood, params.min_pts)
        order.append(OrderedPoint(pid, len(order), reachability, cd))
        if cd is None:
            return
        for q, d in neighborhood:
            if q == pid or q in processed:
                continue
            new_reach = max(cd, d)
            if q not in reach or new_reach < reach[q]:
                reach[q] = new_reach
                heapq.heappush(heap, (new_reach, q))

    for start in sorted(points):
        if start in processed:
            continue
        emit(start, None)
        while heap:
            r, q = heapq.heappop(heap)
            if q in processed or r != reach[q]:
                continue
            emit(q, r)
    return order


def extract_clusters(
    ordering: list[OrderedPoint], eps_prime: float
) -> ClusterAssignment:
    """Cut the ordering at a horizontal reachability threshold.

    Consecutive points with reachability <= eps_prime form a cluster; a
    point above the cut (or with undefined reachability) starts a fresh
    cluster when its own core distance is within the cut, and is an
    outlier otherwise.
    """
    if not 0 < eps_prime < math.inf:
        raise ValueError(f"eps_prime must be positive and finite, got {eps_prime}")
    clusters: list[Cluster] = []
    outliers: set[int] = set()
    current: list[int] = []

    def close_current() -> None:
        if current:
            clusters.append(Cluster(len(clusters), tuple(current)))
            current.clear()

    for op in ordering:
        if op.reachability is not None and op.reachability <= eps_prime:
            current.append(op.point_id)
        else:
            close_current()
            if op.core_distance is not None and op.core_distance <= eps_prime:
                current.append(op.point_id)
            else:
                outliers.add(op.point_id)
    close_current()
    return ClusterAssignment(clusters, outliers)


def write_reachability_csv(ordering: list[OrderedPoint], out: IO[str]) -> None:
    """Plot-ready dump of the ordering; None encodes as an empty field."""
    writer = csv.writer(out)
    writer.writerow(["order_index", "point_id", "reachability", "core_distance"])
    for op in ordering:
        writer.writerow(
            [
                op.order_index,
                op.point_id,
                "" if op.reachability is None else repr(op.reachability),
                "" if op.core_distance is None else repr(op.core_distance),
            ]
        )
