"""Sensor field model: deployment, node lifecycle, neighbor relations.

A deployment is a set of sensors dropped uniformly at random in a
rectangle, each with a normalized battery level; the deployment holds the
one coverage radius r they all share. Two sensors are direct neighbors
when their centers are at most 2r apart, which is also the request
broadcast range. Positions never change after deployment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from .geometry import Point2D
from .spatial import neighbor_rows

IDLE = "idle"
ACTIVE = "active"
SLEEPING = "sleeping"
DEAD = "dead"

STATES = frozenset({IDLE, ACTIVE, SLEEPING, DEAD})


@dataclass
class SensorNode:
    id: int
    position: Point2D
    battery: float
    state: str = IDLE

    def __post_init__(self):
        if not 0.0 <= self.battery <= 1.0:
            raise ValueError(f"battery must be in [0, 1], got {self.battery}")
        if self.state not in STATES:
            raise ValueError(f"unknown state {self.state!r}")
        if (self.battery == 0.0) != (self.state == DEAD):
            raise ValueError("a node is dead exactly when its battery is empty")

    @property
    def alive(self) -> bool:
        return self.state != DEAD


@dataclass
class Deployment:
    """Sensors of one field. ``nodes`` is stored as a tuple, since the id
    index is built once, at construction. ``radius`` is the coverage
    radius r of every sensor; nothing else stores a copy of it."""

    nodes: Sequence[SensorNode]
    region_width: float
    region_height: float
    radius: float
    seed: int | None = None
    _by_id: dict[int, SensorNode] = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        self.nodes = tuple(self.nodes)
        self._by_id = {n.id: n for n in self.nodes}
        if len(self._by_id) != len(self.nodes):
            raise ValueError("node ids must be unique")

    def node(self, node_id: int) -> SensorNode:
        return self._by_id[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._by_id


@dataclass
class NeighborTable:
    """Distance-annotated adjacency at the 2r communication threshold.

    ``neighbors[j]`` lists (neighbor id, distance) pairs sorted by id;
    its length is the direct-neighbor count of node j. ``radius`` is the
    2r the rows hold, so they also serve any eps <= radius neighborhood.
    """

    neighbors: dict[int, list[tuple[int, float]]]
    radius: float

    def degree(self, node_id: int) -> int:
        return len(self.neighbors[node_id])

    def __getitem__(self, node_id: int) -> list[tuple[int, float]]:
        return self.neighbors[node_id]


def generate_deployment(
    count: int,
    width: float,
    height: float,
    radius: float,
    seed: int,
    battery_range: tuple[float, float] = (0.5, 1.0),
) -> Deployment:
    """Drop ``count`` idle sensors uniformly at random in the rectangle.

    Batteries are drawn uniformly from ``battery_range``. The same seed
    reproduces the exact same deployment.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not all(0 < v < math.inf for v in (width, height, radius)):
        raise ValueError("width, height and radius must be positive and finite")
    lo, hi = battery_range
    rng = random.Random(seed)
    nodes = []
    for i in range(count):
        pos = Point2D(rng.uniform(0, width), rng.uniform(0, height))
        nodes.append(SensorNode(id=i, position=pos, battery=rng.uniform(lo, hi)))
    return Deployment(nodes, width, height, radius, seed)


def build_neighbor_table(deployment: Deployment) -> NeighborTable:
    """Connect every pair of nodes within 2r of each other (inclusive).

    ``spatial.neighbor_rows`` finds the pairs: a numpy prefilter over cell
    blocks proposes candidates, 64 nodes at a time, and each kept distance
    is ``math.hypot`` of the pair's coordinate differences.
    """
    radius = 2 * deployment.radius
    positions = {n.id: n.position for n in deployment.nodes}
    return NeighborTable(neighbor_rows(positions, radius), radius)


def drain_battery(node: SensorNode, amount: float) -> SensorNode:
    """Subtract a round's battery cost, clamping at zero (node dies)."""
    if amount < 0:
        raise ValueError(f"drain amount must be >= 0, got {amount}")
    node.battery = max(0.0, node.battery - amount)
    if node.battery == 0.0:
        node.state = DEAD
    return node
