"""Density-based point ordering and cluster extraction.

The ordering algorithm walks the point set expanding from core points,
always taking the unprocessed point with the smallest current reachability
distance. The resulting linear order, annotated with reachability and core
distances, encodes the density structure; clusters are read off it with a
single horizontal reachability threshold, the cut eps_prime. As in Ankerst
et al. (1999), the cut is a parameter of the clustering next to eps and
min_pts, so ``OpticsParams`` holds all three.

Neighborhoods are the distance-sorted CSR rows of a ``NeighborTable``:
numpy finds all core distances in one pass and relaxes each row at once.
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

import numpy as np

from .geometry import Point2D
from .network import NeighborTable, neighbor_rows, require_int
# perfbench/tracing.py wraps brute_force_query here
from .spatial import brute_force_query  # noqa: F401


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
        require_int("min_pts", self.min_pts)
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


def optics_order(
    points: Mapping[int, Point2D], params: OpticsParams, table: NeighborTable | None = None
) -> list[OrderedPoint]:
    """Emit every point once, ordered by expansion from core points.

    Each emitted point carries the smallest reachability distance seen from
    any core point processed before it; group starters carry None.

    A point's eps-neighborhood is itself at 0.0 plus its row entries that
    are in ``points`` and within eps. The rows are ``table``'s, which must
    hold every key of ``points``, when ``eps <= table.radius``, and
    otherwise those of ``neighbor_rows(points, eps)``.
    """
    if not points:
        raise ValueError("point set must be non-empty")
    eps = params.eps
    keys = np.array(sorted(points), dtype=np.int64)
    if table is not None:
        missing = keys[~np.isin(keys, table.ids)]
        if missing.size:
            raise ValueError(f"point {missing[0]} is not a node of the neighbor table")
    if table is None or eps > table.radius:
        table = neighbor_rows(points, eps)
    ids, indptr, index, distance = table.ids, table.indptr, table.index, table.distance
    members = np.searchsorted(ids, keys)  # the points' positions, in id order
    eligible = np.isin(ids, keys)
    near = distance <= eps
    # core distance: the (min_pts - 1)-th eligible entry within eps of the
    # distance-sorted row, the point itself at 0.0 being the first
    core = np.full(len(ids), math.nan)
    if params.min_pts == 1:
        core[members] = 0.0
    else:
        counted = np.concatenate(([0], np.cumsum(eligible[index] & near)))
        at = np.searchsorted(counted, counted[indptr[members]] + params.min_pts - 1) - 1
        core_point = at < indptr[members + 1]
        core[members[core_point]] = distance[at[core_point]]
    core_of = [None if math.isnan(cd) else cd for cd in core.tolist()]
    id_of, bounds = ids.tolist(), indptr.tolist()
    # +inf while a point is eligible and unreached, -inf once it is emitted or
    # if it is not eligible: a new reachability below it is open and improving
    reach = np.where(eligible, math.inf, -math.inf)
    order: list[OrderedPoint] = []
    # seed queue with lazy deletion: an entry whose priority is not the current
    # reachability is stale. Positions follow id order, so ties pop the lower id.
    heap: list[tuple[float, int]] = []

    def emit(i: int, reachability: float | None) -> None:
        reach[i] = -math.inf
        cd = core_of[i]
        order.append(OrderedPoint(id_of[i], len(order), reachability, cd))
        if cd is not None:
            row = slice(bounds[i], bounds[i + 1])
            q, new_reach = index[row], np.maximum(distance[row], cd)
            improved = near[row] & (new_reach < reach[q])
            q, new_reach = q[improved], new_reach[improved]
            reach[q] = new_reach
            for entry in zip(new_reach.tolist(), q.tolist()):
                heapq.heappush(heap, entry)

    for start in members.tolist():
        if reach[start] == math.inf:  # no earlier group reached it
            emit(start, None)
            while heap:
                r, q = heapq.heappop(heap)
                if r == reach[q]:
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
