"""Sensor field model: deployment, node lifecycle, neighbor relations.

A deployment is a set of sensors dropped uniformly at random in a
rectangle, each with a normalized battery level. It is built, every
node idle, from id, ``x``, ``y`` and battery columns and holds the one
coverage radius r they all share, its sensors' coordinates as read-only
``x`` and ``y`` columns, and its ``state_code``, ``battery`` and
``sleep_left`` arrays and its ``rounds_run`` count, the only store of
simulation state, which only the constructor and a round write. A node's
state is its int8 code, ``IDLE``, ``ACTIVE``, ``SLEEPING`` or ``DEAD``,
named by ``STATE_NAME``; a ``SensorNode`` is a read-only view of one
slot, made when asked for. Two sensors are direct neighbors
when their centers are at most 2r apart, which is also the request
broadcast range. Positions never change
after deployment, so a deployment keeps each neighbor table it needs, held
as CSR arrays, in ``tables``, by reach, for every round.

``neighbor_rows`` builds every ``NeighborTable`` from id and coordinate
columns, at 2r and at a wider eps, in one numpy pass over grid cells:
each point, in cell order, proposes the points of half of its 3x3 cell
block, so every pair is proposed once, and ``geometry.hypot`` gives each
pair's distance, the float ``math.hypot`` gives. It orders the rows by
one int64 key per entry, (row, distance rank, id), sorted once; the key
bounds a table to n * n * U < 2**63 for n points and U distinct pair
distances.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .geometry import Point2D, hypot

# a node state is the int8 code a Deployment's ``state_code`` array holds,
# and STATE_NAME[code] names it
STATE_NAME = ("idle", "active", "sleeping", "dead")
IDLE, ACTIVE, SLEEPING, DEAD = range(len(STATE_NAME))

# points of the cell order per numpy pass of ``neighbor_rows``: each pass's
# arrays stay ~100 kB at the default density; passes of 256 points raised
# the peak resident memory of a 5k-node round by ~2.5 MB
ROW_CHUNK = 64

# the int64 key that orders a table's entries holds values below 2**63
KEY_LIMIT = 2**63

# the (min, max) battery range ``generate_deployment`` draws from by default
BATTERY_RANGE = (0.5, 1.0)


@dataclass(eq=False, slots=True)
class SensorNode:
    """A read-only view of one slot of a ``Deployment``, made when asked
    for: its ``state`` and ``battery`` read the deployment's arrays, which
    only the constructor and a round write."""

    deployment: Deployment
    slot: int

    @property
    def id(self) -> int:
        return int(self.deployment.ids[self.slot])

    @property
    def position(self) -> Point2D:
        return Point2D(self.deployment.x.item(self.slot), self.deployment.y.item(self.slot))

    @property
    def state(self) -> int:
        return int(self.deployment.state_code[self.slot])

    @property
    def battery(self) -> float:
        return float(self.deployment.battery[self.slot])

    @property
    def alive(self) -> bool:
        return self.state != DEAD

    def __repr__(self) -> str:
        return (
            f"SensorNode(id={self.id!r}, position={self.position!r}, "
            f"battery={self.battery!r}, state={STATE_NAME[self.state]!r})"
        )


class Deployment:
    """Sensors of one field as columns sorted by id, indexed by slot:
    ``ids``, ``x`` and ``y`` (read-only float64), and the only store of
    node state, ``state_code`` (each node's state code, ``IDLE`` at
    construction), ``battery`` and ``sleep_left`` (the rounds a sleeper
    has left, 0 at construction). ``rounds_run`` counts the rounds run on
    the deployment, from 0, and ``tables`` maps a reach to the
    deployment's ``NeighborTable`` at it, empty until a round builds one;
    none of the three is a constructor argument. ``radius`` is the
    coverage radius r of every sensor; nothing else stores a copy of it.
    The columns may come in any id order and are copied in. ``ValueError``
    unless the columns pass ``require_ids`` and ``require_reals`` with one
    entry per node each, ids are unique, batteries in (0, 1], the radius
    and region sides, kept as floats, positive and finite, and the seed
    None or an int, kept as a Python int."""

    def __init__(
        self,
        ids: Sequence[int],
        x: Sequence[float],
        y: Sequence[float],
        battery: Sequence[float],
        region_width: float,
        region_height: float,
        radius: float,
        seed: int | None = None,
    ):
        self.region_width = require_positive("region_width", region_width)
        self.region_height = require_positive("region_height", region_height)
        self.radius = require_positive("radius", radius)
        self.seed = seed if seed is None else require_int("seed", seed)
        ids, battery = require_ids("node ids", ids), require_reals("battery", battery)
        x, y = require_reals("x coordinates", x), require_reals("y coordinates", y)
        n = len(ids)
        if not len(x) == len(y) == len(battery) == n:
            raise ValueError("ids, x, y and battery need one entry per node")
        order = np.argsort(ids, kind="stable")
        self.ids = ids[order]
        if (self.ids[1:] == self.ids[:-1]).any():
            raise ValueError("node ids must be unique")
        outside = (battery <= 0.0) | (battery > 1.0)
        if outside.any():
            raise ValueError(f"battery must be in (0, 1], got {battery[outside][0]}")
        x, y = x[order], y[order]
        self.battery = battery[order]
        self.state_code = np.full(n, IDLE, dtype=np.int8)
        # the kept tables hold distances between these positions
        x.flags.writeable = y.flags.writeable = False
        self.x, self.y = x, y
        self.sleep_left = np.zeros(n, dtype=np.int64)
        self.rounds_run = 0
        self.tables: dict[float, NeighborTable] = {}

    def __repr__(self) -> str:
        return (
            f"Deployment(region_width={self.region_width!r}, region_height={self.region_height!r}, "
            f"radius={self.radius!r}, seed={self.seed!r}, rounds_run={self.rounds_run!r})"
        )

    def slots(self, node_ids: Sequence[int]) -> np.ndarray:
        """Slots of ``node_ids`` (``require_ids``); ``KeyError`` for an id that is not a node's."""
        wanted = require_ids("node_ids", node_ids)
        slot = np.searchsorted(self.ids, wanted)
        found = slot < len(self.ids)
        found[found] = self.ids[slot[found]] == wanted[found]
        if not found.all():
            raise KeyError(f"unknown node id {wanted[~found][0]}")
        return slot

    def node(self, node_id: int) -> SensorNode:
        return SensorNode(self, int(self.slots([node_id])[0]))

    @property
    def nodes(self) -> tuple[SensorNode, ...]:
        """A view of every node, in id order."""
        return tuple(SensorNode(self, slot) for slot in range(len(self.ids)))


@dataclass(eq=False)
class NeighborTable:
    """Distance-annotated adjacency, at the 2r communication threshold for
    the table every round of a deployment reads.

    CSR arrays over the sorted node ``ids``: the row of ``ids[i]`` is
    ``index[indptr[i]:indptr[i + 1]]`` (neighbor positions into ``ids``)
    with the matching ``distance`` entries, sorted by (distance, id); its
    length is the direct-neighbor count of the node. ``radius`` is the
    reach the rows hold, so they also serve any eps <= radius neighborhood.
    ``neighbor_rows`` builds every table. ``degrees`` holds every row's
    length, and ``row(i)`` gives the row of ``ids[i]`` as array views and
    ``arcs(i)`` its overlap arcs, which the protocol reads; ``neighbors``
    builds every row as Python ints and floats, and no package code reads
    it.
    """

    ids: np.ndarray
    indptr: np.ndarray
    index: np.ndarray
    distance: np.ndarray
    radius: float
    degrees: np.ndarray = field(init=False, repr=False)
    _bounds: list[int] = field(init=False, repr=False)
    _arcs: list[np.ndarray | None] = field(init=False, repr=False)

    def __post_init__(self):
        self.degrees = np.diff(self.indptr)
        self._bounds = self.indptr.tolist()
        self._arcs = [None] * len(self.ids)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the row of ``ids[i]``: neighbor positions into ``ids``,
        and distances."""
        row = slice(self._bounds[i], self._bounds[i + 1])
        return self.index[row], self.distance[row]

    def arcs(self, i: int) -> np.ndarray:
        """``2 * acos(d / radius)`` for each distance d of the row of
        ``ids[i]``: the boundary arc (2*alpha) that a disc of radius
        ``radius / 2`` centered at ``ids[i]`` cuts from an equal disc at
        each neighbor, as ``geometry.overlap_angle`` gives it for a 2r
        table. Computed at the row's first call and kept, since the rows
        never change; a row no one asks for is never computed.
        """
        arcs = self._arcs[i]
        if arcs is None:
            distance = self.distance[self._bounds[i] : self._bounds[i + 1]]
            # every d <= radius, so each acos lies in [0, pi/2] and
            # overlap_angle's clamps never bind. math.acos, as there:
            # np.arccos can differ in the last bit.
            alpha = map(math.acos, (distance / self.radius).tolist())
            arcs = self._arcs[i] = 2 * np.fromiter(alpha, float, len(distance))
        return arcs

    @property
    def neighbors(self) -> Mapping[int, list[tuple[int, float]]]:
        """Read-only ``{id: row}`` of every row, built on each access."""
        rows = {}
        for i, pid in enumerate(self.ids.tolist()):
            index, distance = self.row(i)
            rows[pid] = list(zip(self.ids[index].tolist(), distance.tolist()))
        return MappingProxyType(rows)


def require_int(name: str, value: object) -> int:
    """``value`` as a Python int; ``ValueError`` unless it is an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


def require_count(name: str, value: object, least: int) -> None:
    """Reject a count that is not an int >= ``least``."""
    require_int(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _real(value: object) -> float:
    """``value`` as a float if it is a Python or numpy int or float, else
    NaN, which fails every check: bools, ``Fraction``, ``Decimal``, strings
    and 0-d arrays are not real arguments. An int past the floats is inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf


def require_positive(name: str, value: float) -> float:
    """``value`` as a float; ``ValueError`` unless it is a positive and finite real."""
    real = _real(value)
    if not 0 < real < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return real


def require_finite(name: str, value: float) -> float:
    """``value`` as a float; ``ValueError`` unless it is a finite real."""
    real = _real(value)
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return real


def require_ids(name: str, values: Sequence[int]) -> np.ndarray:
    """``values`` as an int64 array, uncopied if it is one; ``ValueError``
    unless numpy reads it as a 1-D column of ints that int64 holds: bool,
    float, string, object and complex columns fail. An empty column passes."""
    column = np.asarray(values)
    if column.ndim != 1 or (column.dtype.kind not in "iu" and column.size):
        raise ValueError(f"{name} must be ints in a 1-D column, got {column.dtype} {column.shape}")
    if column.dtype.kind == "u" and column.size and column.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{name} must be ints below 2**63, got {column.max()}")
    return column.astype(np.int64, copy=False)


def require_reals(name: str, values: Sequence[float]) -> np.ndarray:
    """``values`` as a float64 array, uncopied if it is one; ``ValueError``
    unless numpy reads it as a 1-D column of ints or floats, each finite:
    bool, string, object (``None``) and complex columns fail. An empty
    column passes."""
    column = np.asarray(values)
    if column.ndim != 1 or (column.dtype.kind not in "iuf" and column.size):
        raise ValueError(f"{name} must be reals in a 1-D column, got {column.dtype} {column.shape}")
    column = column.astype(np.float64, copy=False)
    if not np.isfinite(column).all():
        raise ValueError(f"{name} must be finite, got {column[~np.isfinite(column)][0]}")
    return column


def cell_side(radius: float) -> float:
    """Grid cell side of ``neighbor_rows`` at ``radius``, a hair wider than
    the radius: points two cells apart along an axis are then more than the
    radius apart even after rounding, so a point's 3x3 cell block holds
    every pair within the radius."""
    return radius * (1 + 1e-9)


def _cell_ranks(values: np.ndarray, side: float) -> np.ndarray:
    """Rank of each value's cell along one axis among the occupied cells.

    Cells count from the smallest value, so no offset is negative and a
    pair straddling 0 cannot skip a cell. Adjacent cells get adjacent
    ranks, so a block of ranks holds at least the block of cells, and keys
    built from ranks stay small however far apart the points are.
    """
    return np.unique(np.floor((values - values.min()) / side), return_inverse=True)[1]


def _dense_rank(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, ascending, and the rank of each value among
    them, as ``np.unique(values, return_inverse=True)`` gives, from one
    argsort."""
    order = np.argsort(values)
    ascending = values[order]
    # a value starts a level where it differs from the one before it
    level_start = np.ones(len(values), dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=level_start[1:])
    rank = np.empty(len(values), dtype=np.int64)
    rank[order] = np.cumsum(level_start) - 1
    return ascending[level_start], rank


def neighbor_rows(ids: np.ndarray, x: np.ndarray, y: np.ndarray, radius: float) -> NeighborTable:
    """The ``NeighborTable``, with ``ids`` as its ids, of the pairs within
    ``radius`` of the points (``x[i]``, ``y[i]``) of id ``ids[i]``.
    ``ValueError`` unless the columns pass ``require_ids`` and ``require_reals``
    with one entry per point each, and the ids are strictly increasing.

    A pair's distance is one float, ``math.hypot(x_b - x_a, y_b - y_a)``
    for its points a and b, held by both rows, and the pair is kept iff it
    is <= radius; ``geometry.hypot`` gives that float for a whole chunk of
    pairs. numpy only proposes candidates, ROW_CHUNK points of the cell
    order at a time: each point proposes the rest of its own cell and the
    cell above it, and the three cells of the next column, so each pair
    of the 3x3 cell blocks is proposed once, and a candidate is kept for
    its distance when its squared distance is within the cell side
    squared (a superset of the kept pairs).

    Each directed entry gets one int64 key, (row, distance rank, id) as
    ``(row * U + rank) * n + id`` with rank the dense rank of its distance
    among the U distinct pair distances; the keys are unique, so one sort
    puts every row in (distance, id) order, and the entries are read back
    from the sorted keys. ``ValueError`` if ``n * n * U`` reaches 2**63.
    """
    radius = require_positive("radius", radius)
    ids = require_ids("ids", ids)
    x, y = require_reals("x coordinates", x), require_reals("y coordinates", y)
    n = len(ids)
    if not len(x) == len(y) == n:
        raise ValueError("ids, x and y need one entry per point")
    # index i is the i-th smallest id, so the keys order entries by id
    if (ids[1:] <= ids[:-1]).any():
        raise ValueError("ids must be strictly increasing")
    if n == 0:
        no_pairs = np.empty(0, dtype=np.intp)
        return NeighborTable(ids, np.zeros(1, dtype=np.intp), no_pairs, np.empty(0), radius)
    cell = cell_side(radius)
    cx, cy = _cell_ranks(x, cell), _cell_ranks(y, cell)
    # key (column, row) -> column * span + row; rows run 0..span - 2, so a
    # row range [cy - 1, cy + 1] never reaches another column
    span = int(cy.max()) + 2
    key = cx * span + cy
    by_cell = np.argsort(key, kind="stable")
    sorted_key = key[by_cell]
    # the half stencil of the point at each position of the cell order, as
    # two runs of positions [lo, hi): the rest of its own cell and the cell
    # above it (keys k and k + 1), and the next column's three cells (keys
    # k + span - 1 to k + span + 1). The other four neighboring cells
    # propose the point, so every pair is proposed once.
    lo = np.stack((np.arange(1, n + 1), np.searchsorted(sorted_key, sorted_key + (span - 1))), 1)
    hi = np.searchsorted(sorted_key, sorted_key[:, None] + [1, span + 1], side="right")
    runs = hi - lo
    proposed = runs.sum(axis=1)
    reach2 = cell * cell
    pairs = []
    for start in range(0, n, ROW_CHUNK):
        chunk = slice(start, start + ROW_CHUNK)
        counts = runs[chunk].ravel()
        offsets = np.cumsum(counts) - counts
        pos = np.arange(counts.sum()) + np.repeat(lo[chunk].ravel() - offsets, counts)
        a, b = np.repeat(by_cell[chunk], proposed[chunk]), by_cell[pos]
        dx, dy = x[b] - x[a], y[b] - y[a]
        keep = dx * dx + dy * dy <= reach2
        a, b = a[keep], b[keep]
        # math.hypot's floats, and hypot(-u, -v) is hypot(u, v): which
        # point of a pair comes first does not change its distance
        d = hypot(dx[keep], dy[keep])
        within = d <= radius
        pairs.append((a[within], b[within], d[within]))
    a, b, d = (np.concatenate(column) for column in zip(*pairs))
    distinct, rank = _dense_rank(d)
    levels = max(len(distinct), 1)
    if n * n * levels >= KEY_LIMIT:
        raise ValueError(
            f"{n} points with {levels} distinct pair distances overflow the int64 "
            "row key: n * n * distinct distances must be below 2**63"
        )
    # both directions of every pair, keyed in place: rows first, for indptr
    m = len(a)
    key = np.concatenate((a, b), dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=n), out=indptr[1:])
    key *= levels
    key[:m] += rank
    key[m:] += rank
    key *= n
    key[:m] += b
    key[m:] += a
    del a, b, d, rank
    # unique keys, so the sort need not be stable
    key.sort()
    index = key % n
    key //= n
    key %= levels
    return NeighborTable(ids, indptr, index, distinct[key], radius)


def require_generation_args(
    count: int,
    width: float,
    height: float,
    radius: float,
    seed: int,
    battery_range: tuple[float, float],
) -> None:
    """The checks ``generate_deployment`` runs before it draws."""
    require_count("count", count, 1)
    for name, value in (("width", width), ("height", height), ("radius", radius)):
        require_positive(name, value)
    require_int("seed", seed)
    lo, hi = battery_range
    require_finite("battery_range min", lo)
    require_finite("battery_range max", hi)
    if not (0 <= lo <= hi <= 1 and hi > 0):
        raise ValueError(
            f"battery_range must satisfy 0 <= min <= max <= 1 and max > 0, got {battery_range}"
        )


def _uniform(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """``random.uniform(a, b)``'s ``a + (b - a) * u`` for each draw u, bit
    for bit: Python computes ``b - a`` and turns each operand into a
    float, and numpy then rounds each step as Python would."""
    return float(a) + float(b - a) * u


def generate_deployment(
    count: int,
    width: float,
    height: float,
    radius: float,
    seed: int,
    battery_range: tuple[float, float] = BATTERY_RANGE,
) -> Deployment:
    """Drop ``count`` idle sensors uniformly at random in the rectangle.

    Batteries are drawn uniformly from ``battery_range``, within [0, 1]
    and not both 0 (a deployment's batteries lie in (0, 1]). The same
    seed reproduces the exact same deployment: one ``random.Random(seed)``
    stream gives node 0's x, y and battery, then node 1's, and so on,
    each value ``a + (b - a) * random()`` over its range [a, b]
    (``[0, width]``, ``[0, height]``, ``battery_range``), the float
    ``rng.uniform(a, b)`` returns, seeded by the int ``seed`` (numpy's too).
    """
    require_generation_args(count, width, height, radius, seed, battery_range)
    lo, hi = battery_range
    rng = random.Random(int(seed))
    # rng.random never returns None, so the iterator runs until fromiter
    # has its 3 * count values: a row per node, x, y and battery
    draws = np.fromiter(iter(rng.random, None), float, 3 * count).reshape(count, 3)
    x = _uniform(0, width, draws[:, 0])
    y = _uniform(0, height, draws[:, 1])
    battery = _uniform(lo, hi, draws[:, 2])
    return Deployment(range(count), x, y, battery, width, height, radius, seed)


def build_neighbor_table(deployment: Deployment) -> NeighborTable:
    """Connect every pair of nodes within 2r of each other (inclusive).

    A new table on each call; a round reads the one its deployment keeps.
    """
    return neighbor_rows(deployment.ids, deployment.x, deployment.y, 2 * deployment.radius)

