"""Sensor field model: deployment, node lifecycle, neighbor relations.

A deployment is a set of sensors dropped uniformly at random in a
rectangle, each with a normalized battery level; the deployment holds the
one coverage radius r they all share. Two sensors are direct neighbors
when their centers are at most 2r apart, which is also the request
broadcast range. Positions never change after deployment, so one
neighbor table, held as CSR arrays, serves every round of a deployment.

``neighbor_rows`` builds every ``NeighborTable``, the deployment's at 2r
and the ordering's own at a wider eps, in one numpy pass over grid cells.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .geometry import Point2D
from .spatial import cell_side

IDLE = "idle"
ACTIVE = "active"
SLEEPING = "sleeping"
DEAD = "dead"

# state -> the int8 code a Deployment's ``state_code`` array holds
STATE_CODE = {IDLE: 0, ACTIVE: 1, SLEEPING: 2, DEAD: 3}

# query points per numpy pass of ``neighbor_rows``: each pass's arrays stay
# ~100 kB at the default density; passes of 256 points raised the peak
# resident memory of a 5k-node round by ~2.5 MB
ROW_CHUNK = 64


class SensorNode:
    """One sensor. ``state`` and ``battery`` are properties: a write also
    goes to the arrays of every ``Deployment`` that holds the node."""

    __slots__ = ("id", "position", "_battery", "_state", "_homes")

    def __init__(self, id: int, position: Point2D, battery: float, state: str = IDLE):
        if not 0.0 <= battery <= 1.0:
            raise ValueError(f"battery must be in [0, 1], got {battery}")
        if state not in STATE_CODE:
            raise ValueError(f"unknown state {state!r}")
        if (battery == 0.0) != (state == DEAD):
            raise ValueError("a node is dead exactly when its battery is empty")
        self.id = id
        self.position = position
        self._battery = battery
        self._state = state
        # (state codes, batteries, slot) of each deployment holding the node
        self._homes: tuple[tuple[np.ndarray, np.ndarray, int], ...] = ()

    @property
    def state(self) -> str:
        return self._state

    @state.setter
    def state(self, value: str) -> None:
        code = STATE_CODE.get(value)
        if code is None:
            raise ValueError(f"unknown state {value!r}")
        self._state = value
        for codes, _, slot in self._homes:
            codes[slot] = code

    @property
    def battery(self) -> float:
        return self._battery

    @battery.setter
    def battery(self, value: float) -> None:
        for _, batteries, slot in self._homes:
            batteries[slot] = value
        self._battery = value

    @property
    def alive(self) -> bool:
        return self._state != DEAD

    def __repr__(self) -> str:
        return (
            f"SensorNode(id={self.id!r}, position={self.position!r}, "
            f"battery={self._battery!r}, state={self._state!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SensorNode):
            return NotImplemented
        return (self.id, self.position, self._battery, self._state) == (
            other.id, other.position, other._battery, other._state
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass
class Deployment:
    """Sensors of one field. ``nodes`` is stored as a tuple, since the id
    index is built once, at construction. ``radius`` is the coverage
    radius r of every sensor; nothing else stores a copy of it.

    ``ids`` holds the node ids sorted, as a deployment's ``NeighborTable``
    does, and ``state_code`` (``STATE_CODE`` of each node's state) and
    ``battery`` are indexed like it. The nodes' property setters keep both
    arrays equal to their attributes.
    """

    nodes: Sequence[SensorNode]
    region_width: float
    region_height: float
    radius: float
    seed: int | None = None
    _by_id: dict[int, SensorNode] = field(init=False, repr=False)
    ids: np.ndarray = field(init=False, repr=False, compare=False)
    state_code: np.ndarray = field(init=False, repr=False, compare=False)
    battery: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        self.nodes = tuple(self.nodes)
        self._by_id = {n.id: n for n in self.nodes}
        if len(self._by_id) != len(self.nodes):
            raise ValueError("node ids must be unique")
        ordered = sorted(self.nodes, key=attrgetter("id"))
        self.ids = np.array([n.id for n in ordered], dtype=np.int64)
        # the private fields: property calls would slow down set-up
        self.state_code = np.array([STATE_CODE[n._state] for n in ordered], dtype=np.int8)
        self.battery = np.array([n._battery for n in ordered], dtype=float)
        for slot, node in enumerate(ordered):
            node._homes += ((self.state_code, self.battery, slot),)

    def node(self, node_id: int) -> SensorNode:
        return self._by_id[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._by_id


@dataclass(eq=False)
class NeighborTable:
    """Distance-annotated adjacency, at the 2r communication threshold for
    a deployment's table.

    CSR arrays over the sorted node ``ids``: the row of ``ids[i]`` is
    ``index[indptr[i]:indptr[i + 1]]`` (neighbor positions into ``ids``)
    with the matching ``distance`` entries, sorted by (distance, id); its
    length is the direct-neighbor count of the node. ``radius`` is the
    reach the rows hold, so they also serve any eps <= radius neighborhood.
    ``neighbor_rows`` builds every table. ``degrees`` holds every row's
    length and ``row`` gives one row as array views, which the protocol
    reads; ``table[node_id]`` and ``degree`` read one row as Python ints and
    floats, as the tests' references do; ``neighbors`` builds every row,
    and no package code reads it.
    """

    ids: np.ndarray
    indptr: np.ndarray
    index: np.ndarray
    distance: np.ndarray
    radius: float
    degrees: np.ndarray = field(init=False, repr=False)
    _position: dict[int, int] = field(init=False, repr=False)
    _bounds: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self.degrees = np.diff(self.indptr)
        self._position = {pid: i for i, pid in enumerate(self.ids.tolist())}
        self._bounds = self.indptr.tolist()

    def position(self, node_id: int) -> int:
        """Index of ``node_id`` in ``ids``; ``KeyError`` for an unknown id."""
        return self._position[node_id]

    def degree(self, node_id: int) -> int:
        i = self._position[node_id]
        return self._bounds[i + 1] - self._bounds[i]

    def row(self, node_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of one row: neighbor positions into ``ids``, and distances."""
        i = self._position[node_id]
        row = slice(self._bounds[i], self._bounds[i + 1])
        return self.index[row], self.distance[row]

    def __getitem__(self, node_id: int) -> list[tuple[int, float]]:
        index, distance = self.row(node_id)
        return list(zip(self.ids[index].tolist(), distance.tolist()))

    @property
    def neighbors(self) -> Mapping[int, list[tuple[int, float]]]:
        """Read-only ``{id: row}`` of every row, built on each access."""
        return MappingProxyType({pid: self[pid] for pid in self._position})


def require_int(name: str, value: object) -> None:
    """Reject a count that is not an integer; ``True`` is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _cell_ranks(values: np.ndarray, side: float) -> np.ndarray:
    """Rank of each value's cell along one axis among the occupied cells.

    Cells count from the smallest value, as in ``spatial.GridIndex``.
    Adjacent cells get adjacent ranks, so a block of ranks holds at least
    the block of cells, and keys built from ranks stay small however far
    apart the points are.
    """
    return np.unique(np.floor((values - values.min()) / side), return_inverse=True)[1]


def neighbor_rows(points: Mapping[int, Point2D], radius: float) -> NeighborTable:
    """The ``NeighborTable`` of the points' pairs within ``radius``, at that radius.

    A pair's distance is one float, ``math.hypot(x_b - x_a, y_b - y_a)``
    with a the lower id, held by both rows, and the pair is kept iff it is
    <= radius. numpy only proposes candidates, ROW_CHUNK query points at a
    time: from each point's 3x3 cell block, those with a higher id whose
    squared distance is within the cell side squared (a superset of the
    kept pairs).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    ids = np.array(sorted(points), dtype=np.int64)
    n = len(ids)
    if n == 0:
        no_pairs = np.empty(0, dtype=np.intp)
        return NeighborTable(ids, np.zeros(1, dtype=np.intp), no_pairs, np.empty(0), radius)
    # index i is the i-th smallest id, so "higher id" is "higher index"
    positions = [points[pid] for pid in ids.tolist()]
    x = np.array([p.x for p in positions], dtype=float)
    y = np.array([p.y for p in positions], dtype=float)
    cell = cell_side(radius)
    cx, cy = _cell_ranks(x, cell), _cell_ranks(y, cell)
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
    return NeighborTable(ids, indptr, index[order], distance[order], radius)


def generate_deployment(
    count: int,
    width: float,
    height: float,
    radius: float,
    seed: int,
    battery_range: tuple[float, float] = (0.5, 1.0),
) -> Deployment:
    """Drop ``count`` idle sensors uniformly at random in the rectangle.

    Batteries are drawn uniformly from ``battery_range``, within [0, 1]
    and not both 0 (an empty node is dead). The same seed reproduces the
    exact same deployment.
    """
    require_int("count", count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not all(0 < v < math.inf for v in (width, height, radius)):
        raise ValueError("width, height and radius must be positive and finite")
    lo, hi = battery_range
    if not (0 <= lo <= hi <= 1 and hi > 0):
        raise ValueError(
            f"battery_range must satisfy 0 <= lo <= hi <= 1 and hi > 0, got {battery_range}"
        )
    rng = random.Random(seed)
    nodes = []
    for i in range(count):
        pos = Point2D(rng.uniform(0, width), rng.uniform(0, height))
        nodes.append(SensorNode(id=i, position=pos, battery=rng.uniform(lo, hi)))
    return Deployment(nodes, width, height, radius, seed)


def build_neighbor_table(deployment: Deployment) -> NeighborTable:
    """Connect every pair of nodes within 2r of each other (inclusive)."""
    return neighbor_rows({n.id: n.position for n in deployment.nodes}, 2 * deployment.radius)


def drain_battery(node: SensorNode, amount: float) -> SensorNode:
    """Subtract a round's battery cost, clamping at zero (node dies)."""
    if amount < 0:
        raise ValueError(f"drain amount must be >= 0, got {amount}")
    node.battery = max(0.0, node.battery - amount)
    if node.battery == 0.0:
        node.state = DEAD
    return node
