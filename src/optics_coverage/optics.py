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
A point's core entry is found among the positions of the table's eligible
entries within eps, by one ``searchsorted`` of the row starts. The one
queue array, ``seeds``, is +inf for an eligible point not yet reached and
NaN for an emitted or ineligible one; an emitted core point lowers it to
``np.minimum(seeds, offer)`` over its row, which keeps every NaN, and one
``argmin`` over its uint64 bits takes the next point: the lowest
reachability, else (+inf) the start of the next group, else (NaN) the end.
Determinism rules (needed for reproducible runs and reference comparison):
the next start point is the lowest unprocessed id, and equal
reachabilities in the seed queue break toward the lower id.

The ordering is an ``Ordering``: three read-only columns in emission order,
the ids, the reachabilities (NaN for a group starter) and the core
distances (NaN for a non-core point). The emit loop appends one slot and
one reachability per point, the cluster cut is array work over the
columns, and ``experiments``' trace and CSV writers share one text of
the columns' ``.tolist()`` values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .network import NeighborTable, require_count, require_ids, require_positive
# perfbench/tracing.py wraps brute_force_query here
from .spatial import brute_force_query  # noqa: F401


@dataclass(frozen=True)
class OpticsParams:
    """Neighborhood radius, core-point population threshold and cluster cut.

    ``min_pts`` counts the point itself as part of its own neighborhood,
    so ``min_pts=1`` makes every point a core point with core distance 0.
    ``eps_prime`` is the reachability cut of ``extract_clusters``; None
    resolves to ``eps / 2`` here, and any other value must lie in (0, eps].
    Both lengths are kept as floats.
    """

    eps: float
    min_pts: int
    eps_prime: float | None = None

    def __post_init__(self):
        eps = require_positive("eps", self.eps)
        require_count("min_pts", self.min_pts, 1)
        eps_prime = eps / 2 if self.eps_prime is None else self.eps_prime
        eps_prime = require_positive("eps_prime", eps_prime)
        if eps_prime > eps:
            raise ValueError(f"eps_prime must be in (0, eps = {eps}], got {eps_prime}")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "eps_prime", eps_prime)


class OrderedPoint(NamedTuple):
    """One slot of the ordering, as iterating an ``Ordering`` yields it.

    ``reachability`` is None for the first point of each density-connected
    group; ``core_distance`` is None for non-core points.
    """

    point_id: int
    order_index: int
    reachability: float | None
    core_distance: float | None


@dataclass(frozen=True, eq=False)
class Ordering:
    """The ordering as three read-only columns in emission order: ``ids``
    (int64), ``reachability`` (float64, NaN for a group starter) and
    ``core_distance`` (float64, NaN for a non-core point).

    The columns must be 1-D and of one length, the ids must pass
    ``require_ids``, and the distances be ints, floats or None, read as NaN
    (``ValueError`` otherwise); each is copied in. ``Ordering()`` is the
    empty ordering. Two orderings are equal when their columns are, NaN
    equal to NaN. ``len`` counts the points. Iterating yields an
    ``OrderedPoint`` per point, built as it is iterated: that view stays
    only for readers that still walk points, ``perfbench/workloads.py``'s
    round checks, and goes with ``OrderedPoint`` once they read the columns.
    """

    ids: np.ndarray = ()
    reachability: np.ndarray = ()
    core_distance: np.ndarray = ()

    def __post_init__(self):
        checks = {"ids": require_ids, "reachability": _distances, "core_distance": _distances}
        for name, check in checks.items():
            column = np.asarray(getattr(self, name))
            if column.ndim != 1 or len(column) != len(self.ids):
                raise ValueError(f"{name} must be 1-D and of one length with the other columns")
            # a copy, so that no caller's array turns read-only or changes it
            column = check(name, column).copy()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ordering):
            return NotImplemented
        return all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(self.columns(), other.columns())
        )

    def __iter__(self) -> Iterator[OrderedPoint]:
        reach = map(_none_for_nan, self.reachability.tolist())
        core = map(_none_for_nan, self.core_distance.tolist())
        for k, (pid, r, c) in enumerate(zip(self.ids.tolist(), reach, core)):
            yield OrderedPoint(pid, k, r, c)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.ids, self.reachability, self.core_distance


def _distances(name: str, values) -> np.ndarray:
    """A distance column as float64, None read as NaN; ``ValueError`` unless
    numpy reads the rest as ints or floats: strings and bools fail."""
    column = np.asarray(values)
    if column.dtype == object:
        # None is NaN, and the other values decide the column's dtype
        column = np.asarray(np.where(column == None, math.nan, column).tolist())  # noqa: E711
    if column.dtype.kind not in "iuf" and column.size:
        raise ValueError(f"{name} must be reals or None, got a {column.dtype} column")
    return column.astype(np.float64, copy=False)


def _none_for_nan(value: float) -> float | None:
    return None if value != value else value


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
) -> Ordering:
    """Emit once every node of ``table`` that the bool mask ``eligible``
    marks, ordered by expansion from core points.

    Each emitted point carries the smallest reachability distance seen from
    any core point processed before it; group starters carry NaN. A
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
    # distance-sorted row, the point itself at 0.0 being the first. ``pos``
    # holds the positions of the eligible entries within eps, and ends in
    # len(index), past every row, for a row that has too few
    core = np.full(len(ids), math.nan)
    if params.min_pts == 1:
        core[members] = 0.0
    else:
        pos = np.append(np.flatnonzero(eligible[index] & ~beyond), len(index))
        at = np.searchsorted(pos, indptr[members]) + params.min_pts - 2
        at = pos[np.minimum(at, len(pos) - 1)]
        core_point = at < indptr[members + 1]
        core[members[core_point]] = distance[at[core_point]]
    is_core, bounds = (~np.isnan(core)).tolist(), indptr.tolist()
    # each entry's offer: max(distance, its row point's core distance), +inf
    # beyond eps; built in place (NaN on non-core rows, which never relax)
    offer = np.repeat(core, table.degrees)
    np.maximum(offer, distance, out=offer)
    offer[beyond] = math.inf
    # seed queue: the reachability of each reached, unemitted eligible point,
    # +inf for an eligible point no core point has reached, and NaN for an
    # emitted or ineligible one, which np.minimum keeps, so no relax reopens
    # it. No seed is -0.0: distances are hypot's, and a min_pts=1 core
    # distance the literal 0.0. So as uint64 bits the seeds sort as floats,
    # with either NaN above +inf, and argmin, which takes the first of equal
    # minima, picks the lowest seed, the lower id on a tie: a pick of +inf is
    # the lowest unemitted eligible id, which starts a group, and a pick of
    # NaN ends the ordering.
    seeds = np.where(eligible, math.inf, math.nan)
    bits = seeds.view(np.uint64)
    slots: list[int] = []
    reach: list[float] = []
    q = int(bits.argmin())
    r = seeds.item(q)
    while r == r:
        seeds[q] = math.nan
        slots.append(q)
        reach.append(r)
        if is_core[q]:
            a, b = bounds[q], bounds[q + 1]
            row = index[a:b]
            seeds[row] = np.minimum(seeds[row], offer[a:b])
        q = int(bits.argmin())
        r = seeds.item(q)
    emitted = np.array(slots)
    reach = np.array(reach)
    reach[reach == math.inf] = math.nan  # group starters
    return Ordering(ids[emitted], reach, core[emitted])


def extract_clusters(ordering: Ordering, eps_prime: float) -> ClusterAssignment:
    """Cut the ordering at a horizontal reachability threshold.

    A point whose reachability is NaN or above eps_prime starts a segment:
    it joins the segment when its own core distance is within the cut, and
    is an outlier otherwise. Every other point joins its segment. Each
    segment with a member is a cluster, numbered in order, its members in
    emission order.
    """
    eps_prime = require_positive("eps_prime", eps_prime)
    ids, reach, core = ordering.columns()
    starts = ~(reach <= eps_prime)
    joins = ~starts | (core <= eps_prime)
    members = ids[joins].tolist()
    # a cluster ends wherever the segment changes between consecutive members
    segment = np.cumsum(starts)[joins]
    edges = [0, *(np.flatnonzero(segment[1:] != segment[:-1]) + 1).tolist(), len(members)]
    clusters = [
        Cluster(k, tuple(members[a:b])) for k, (a, b) in enumerate(zip(edges, edges[1:]))
    ]
    return ClusterAssignment(clusters if members else [], set(ids[~joins].tolist()))

