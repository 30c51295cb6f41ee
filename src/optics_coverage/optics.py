"""Density-based point ordering and cluster extraction.

The ordering algorithm walks the point set expanding from core points,
always taking the unprocessed point with the smallest current reachability
distance. The resulting linear order, annotated with reachability and core
distances, encodes the density structure; clusters are read off it with a
single horizontal reachability threshold, the cut eps_prime. As in Ankerst
et al. (1999), the cut is a parameter of the clustering next to eps and
min_pts, so ``OpticsParams`` holds all three.

Neighborhoods are the distance-sorted CSR rows of a given ``NeighborTable``,
cut at eps and to a mask of the nodes to order (a round's idle ones):
numpy finds all core distances, and every table entry's offer, in one pass.
An emitted core point lowers ``seeds`` to ``min(seeds, offer + closed)``
over its row, and one ``argmin`` takes the next point. Determinism rules
(needed for reproducible runs and reference comparison): the next start
point is the lowest unprocessed id, and equal reachabilities in the seed
queue break toward the lower id.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO, NamedTuple

import numpy as np

from .network import NeighborTable, require_int
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


class OrderedPoint(NamedTuple):
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
    table: NeighborTable, params: OpticsParams, eligible: np.ndarray
) -> list[OrderedPoint]:
    """Emit once every node of ``table`` that the bool mask ``eligible``
    marks, ordered by expansion from core points.

    Each emitted point carries the smallest reachability distance seen from
    any core point processed before it; group starters carry None. A
    point's eps-neighborhood is itself at 0.0 plus its eligible row entries
    within eps. ``ValueError`` if eps is wider than ``table.radius``, or
    the mask is not bool, not one entry per node, or marks none.
    """
    eps = params.eps
    if eps > table.radius:
        raise ValueError(f"eps = {eps} is wider than the table's radius {table.radius}")
    ids, indptr, index, distance = table.ids, table.indptr, table.index, table.distance
    eligible = np.asarray(eligible)
    if eligible.dtype != bool or eligible.shape != ids.shape:
        raise ValueError(f"eligible must be a bool mask of {len(ids)} entries")
    members = np.flatnonzero(eligible)
    if not members.size:
        raise ValueError("eligible must mark at least one node")
    beyond = distance > eps
    # core distance: the (min_pts - 1)-th eligible entry within eps of the
    # distance-sorted row, the point itself at 0.0 being the first
    core = np.full(len(ids), math.nan)
    if params.min_pts == 1:
        core[members] = 0.0
    else:
        counted = np.concatenate(([0], np.cumsum(eligible[index] & ~beyond)))
        at = np.searchsorted(counted, counted[indptr[members]] + params.min_pts - 1) - 1
        core_point = at < indptr[members + 1]
        core[members[core_point]] = distance[at[core_point]]
    core_of = [None if math.isnan(cd) else cd for cd in core.tolist()]
    id_of, bounds = ids.tolist(), indptr.tolist()
    # each entry's offer: max(distance, its row point's core distance), +inf
    # beyond eps; built in place (NaN on non-core rows, which never relax)
    offer = np.repeat(core, table.degrees)
    np.maximum(offer, distance, out=offer)
    offer[beyond] = math.inf
    # 0.0 while a point is eligible and unemitted, +inf once it is emitted or
    # if it is not eligible: added to an offer, +inf shuts the offer out
    closed = np.where(eligible, 0.0, math.inf)
    # seed queue: the reachability of each reached, unemitted point, +inf for
    # every other. argmin takes the first of equal minima and positions follow
    # id order, so ties go to the lower id.
    seeds = np.full(len(ids), math.inf)
    order: list[OrderedPoint] = []

    def emit(i: int, reachability: float | None) -> None:
        seeds[i] = closed[i] = math.inf
        cd = core_of[i]
        order.append(OrderedPoint(id_of[i], len(order), reachability, cd))
        if cd is not None:
            a, b = bounds[i], bounds[i + 1]
            q = index[a:b]
            seeds[q] = np.minimum(seeds[q], offer[a:b] + closed[q])

    for start in members.tolist():
        if closed[start] == 0.0:  # no earlier group reached it
            q, r = start, None
            while r != math.inf:
                emit(q, r)
                q = int(seeds.argmin())
                r = seeds.item(q)
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
