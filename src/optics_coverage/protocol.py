"""Per-cluster node activation and the round-based active/sleep rotation.

Each round the eligible sensors are clustered (an OPTICS ordering cut at
``OpticsParams.eps_prime``), every cluster grows a selection tree from a
seed node, and the union of tree nodes becomes the round's active set. A
tree node sends one request per visit; its idle neighbors in the cluster
reply, ranked by the acceptance level

    L = (w_b * battery + w_n * neighbor_count) / (w_d * distance)

which prefers close, well-connected, well-charged candidates, and the
node activates the best reply that is not redundant. A reply is
discarded as redundant when the overlap arcs (2*alpha each) that the
already-activated discs of its cluster cut from its boundary add up to
more than ``1 - theta`` of the full circle. The arcs are summed, not
united, so where two active discs cover the same stretch of boundary it
counts twice; each member keeps a running sum, grown by the discs of its
neighbor-table row as they activate. Actives retire to sleep at the end
of their round and rejoin the pool after a configurable number of rounds.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

import numpy as np

from .geometry import CoLocatedSensorsError
# perfbench/tracing.py wraps overlap_angle here; the protocol sums arcs in numpy
from .geometry import overlap_angle  # noqa: F401
from .metrics import RoundReport, active_ratio, analytic_cr, grid_cr
from .network import (
    ACTIVE,
    IDLE,
    SLEEPING,
    STATE_CODE,
    Deployment,
    NeighborTable,
    build_neighbor_table,
    drain_battery,
    require_int,
)
from .optics import Cluster, OpticsParams, OrderedPoint, extract_clusters, optics_order

TWO_PI = 2 * math.pi
IDLE_CODE = STATE_CODE[IDLE]


class AllNodesDeadError(RuntimeError):
    """Every sensor battery is exhausted; carries the failing round index."""

    def __init__(self, round_index: int):
        super().__init__(f"all nodes dead at round {round_index}")
        self.round_index = round_index


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables of the activation protocol.

    ``theta`` is the minimum fraction of a candidate's boundary that must
    stay free of the summed overlap arcs of already-active discs for it to
    be worth activating.
    """

    theta: float = 0.1
    battery_drain: float = 0.1
    sleep_rounds: int = 1
    w_battery: float = 0.4
    w_neighbors: float = 0.3
    w_distance: float = 0.2
    grid_resolution: int = 500

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        require_int("sleep_rounds", self.sleep_rounds)
        require_int("grid_resolution", self.grid_resolution)
        if not 0 <= self.theta <= 1:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if self.battery_drain < 0:
            raise ValueError(f"battery_drain must be >= 0, got {self.battery_drain}")
        if self.sleep_rounds < 1:
            raise ValueError(f"sleep_rounds must be >= 1, got {self.sleep_rounds}")
        if self.w_distance <= 0:
            raise ValueError(f"w_distance must be positive, got {self.w_distance}")
        if self.grid_resolution < 10:
            raise ValueError(
                f"grid_resolution must be >= 10, got {self.grid_resolution}"
            )


@dataclass
class SelectionTree:
    """Activation order of one cluster, rooted at its seed sensor."""

    cluster_id: int
    root: int
    edges: list[tuple[int, int]] = field(default_factory=list)

    def node_ids(self) -> set[int]:
        return {self.root} | {child for _, child in self.edges}


@dataclass
class RoundState:
    round_index: int
    active: set[int] = field(default_factory=set)
    # sleeping node id -> rounds left before it returns to the idle pool
    sleeping: dict[int, int] = field(default_factory=dict)
    trees: list[SelectionTree] = field(default_factory=list)
    ordering: list[OrderedPoint] = field(default_factory=list)


def acceptance_level(
    battery: float,
    neighbor_count: int,
    distance: float,
    config: ProtocolConfig | None = None,
) -> float:
    """One candidate's score under ``config``'s weights; higher is better.

    A distance weighting to 0 is co-location. ``select_next`` scores a
    whole row with the same expression.
    """
    cfg = config or ProtocolConfig()
    if distance < 0:
        raise ValueError(f"distance must be positive, got {distance}")
    if cfg.w_distance * distance == 0:  # zero, or too small to divide by
        raise CoLocatedSensorsError(f"candidate at distance {distance} from selector")
    return (cfg.w_battery * battery + cfg.w_neighbors * neighbor_count) / (
        cfg.w_distance * distance
    )


def choose_initial_sensor(cluster: Cluster, deployment: Deployment) -> int:
    """Cluster member closest to the member centroid, lower id on ties."""
    if not cluster.members:
        raise ValueError("cannot seed an empty cluster")
    positions = [deployment.node(m).position for m in cluster.members]
    x = np.array([p.x for p in positions])
    y = np.array([p.y for p in positions])
    # Python's sum adds in member order; numpy's pairwise sum would round differently
    cx, cy = sum(x.tolist()) / len(x), sum(y.tolist()) / len(y)
    distance = np.fromiter(map(math.hypot, (x - cx).tolist(), (y - cy).tolist()), float, len(x))
    return cluster.members[np.lexsort((cluster.members, distance))[0]]


def select_next(
    current: int,
    table: NeighborTable,
    deployment: Deployment,
    allowed: np.ndarray | None = None,
    config: ProtocolConfig | None = None,
) -> list[int]:
    """Replies to one request from ``current``, best first.

    The sender must be active; only idle neighbors answer (sleeping,
    active and dead ones stay silent). ``allowed``, a boolean mask over
    ``table.ids``, restricts who answers (e.g. to one cluster's members).
    Replies are ranked by acceptance level, highest first, ties going to
    the lower id; a reply scoring -inf is never offered. Empty when no idle
    neighbor answers. ``table`` must be the deployment's: its row positions
    index the deployment's state and battery arrays.
    """
    cfg = config or ProtocolConfig()
    if current not in deployment:
        raise KeyError(f"unknown node id {current}")
    sender = deployment.node(current)
    if sender.state != ACTIVE:
        raise ValueError(f"node {current} is {sender.state}, not active")
    index, distance = table.row(current)
    answers = deployment.state_code[index] == IDLE_CODE
    if allowed is not None:
        answers &= allowed[index]
    index, distance = index[answers], distance[answers]
    if not len(index):
        return []
    # rows run by distance, so the first is the nearest: zero, or too small to divide by
    if cfg.w_distance * distance[0] == 0:
        raise CoLocatedSensorsError(f"candidate at distance {distance[0]} from selector")
    # acceptance_level's expression; a subnormal distance can score +-inf
    with np.errstate(over="ignore", invalid="ignore"):
        score = (
            cfg.w_battery * deployment.battery[index] + cfg.w_neighbors * table.degrees[index]
        ) / (cfg.w_distance * distance)
    ranked = np.lexsort((index, -score))  # positions sort like ids
    if not score[ranked[-1]] > -np.inf:  # -inf and NaN sort last
        ranked = ranked[: np.count_nonzero(score > -np.inf)]
    return table.ids[index[ranked]].tolist()


def cover_cluster(
    cluster: Cluster,
    deployment: Deployment,
    table: NeighborTable,
    config: ProtocolConfig | None = None,
) -> SelectionTree:
    """Grow one cluster's selection tree until no candidate is acceptable.

    The frontier rotates breadth-first in activation order. Each visit of
    a tree node sends one request and walks the ranked replies: a
    redundant reply leaves the cluster's candidate pool for the rest of
    the round, and the first acceptable one activates, after which the
    node re-enters the frontier behind its new child. A node whose
    replies are all redundant, or that gets none, drops out.
    Each activation adds its arc to the sums of the members in its table
    row, so a sensor co-located with a member raises as soon as it activates.
    """
    cfg = config or ProtocolConfig()
    _check_table(table, deployment)
    root = choose_initial_sensor(cluster, deployment)
    tree = SelectionTree(cluster.cluster_id, root)
    # candidate pool over table positions, and the summed arc (2*alpha
    # each) the cluster's actives cut from each member. A discarded
    # member's sum can only grow, so it would stay redundant and is dropped.
    pool = np.zeros(len(table.ids), dtype=bool)
    pool[[table.position(m) for m in cluster.members]] = True
    covered = np.zeros(len(table.ids))
    reach = 2 * deployment.radius

    def activate(nid: int) -> None:
        deployment.node(nid).state = ACTIVE
        index, distance = table.row(nid)
        if len(distance) and distance[0] == 0 and pool[index[distance == 0]].any():
            raise CoLocatedSensorsError(f"node {nid} shares its position with a member")
        # the table holds d <= 2r, so every acos lies in [0, pi/2]: the
        # scalar overlap_angle's clamps never bind. math.acos, as there:
        # np.arccos can differ in the last bit.
        alpha = map(math.acos, (distance / reach).tolist())
        covered[index] += 2 * np.fromiter(alpha, float, len(distance))

    activate(root)
    frontier = deque([root])
    while frontier:
        u = frontier.popleft()
        for candidate in select_next(u, table, deployment, allowed=pool, config=cfg):
            i = table.position(candidate)
            free = (TWO_PI - covered.item(i)) / TWO_PI
            # nothing free: redundant unless theta = 0, however far the sum overshoots
            if (cfg.theta > 0) if free <= 0 else free < cfg.theta:
                pool[i] = False
                continue
            activate(candidate)
            tree.edges.append((u, candidate))
            frontier.append(candidate)
            frontier.append(u)
            break
    return tree


def _check_table(table: NeighborTable, deployment: Deployment) -> None:
    """A table passed in must be the deployment's: at its 2r, one row per node."""
    if table.radius != 2 * deployment.radius:
        raise ValueError(
            f"table radius {table.radius} is not 2r = {2 * deployment.radius}"
        )
    if not np.array_equal(table.ids, deployment.ids):
        raise ValueError("table rows are not the deployment's node ids")


def run_round(
    state: RoundState,
    deployment: Deployment,
    params: OpticsParams,
    config: ProtocolConfig | None = None,
    table: NeighborTable | None = None,
) -> tuple[RoundState, RoundReport]:
    """Advance the simulation by one round.

    Last round's actives go to sleep, expired sleepers rejoin the idle
    pool, the idle pool is re-clustered and covered cluster by cluster,
    and the new actives pay the round's battery cost. Outliers of the
    clustering stay idle. A ``table`` passed in must be this deployment's:
    built at its 2r, with a row for each of its nodes and no other.
    """
    cfg = config or ProtocolConfig()
    round_index = state.round_index + 1
    if not any(n.alive for n in deployment.nodes):
        raise AllNodesDeadError(round_index)
    if table is None:
        table = build_neighbor_table(deployment)
    else:
        _check_table(table, deployment)

    sleeping: dict[int, int] = {}
    for nid, remaining in state.sleeping.items():
        node = deployment.node(nid)
        if not node.alive:
            continue
        if remaining <= 1:
            node.state = IDLE
        else:
            sleeping[nid] = remaining - 1
    for nid in state.active:
        node = deployment.node(nid)
        if node.alive:
            node.state = SLEEPING
            sleeping[nid] = cfg.sleep_rounds

    eligible = {
        n.id: n.position for n in deployment.nodes if n.state == IDLE
    }
    trees: list[SelectionTree] = []
    ordering: list[OrderedPoint] = []
    if eligible:
        ordering = optics_order(eligible, params, table)
        assignment = extract_clusters(ordering, params.eps_prime)
        for cluster in assignment.clusters:
            trees.append(cover_cluster(cluster, deployment, table, cfg))

    active = set()
    for tree in trees:
        active |= tree.node_ids()
    area = deployment.region_width * deployment.region_height
    report = RoundReport(
        deployed_count=len(deployment.nodes),
        active_count=len(active),
        ratio_r=active_ratio(len(active), len(deployment.nodes)),
        analytic_cr=analytic_cr(len(active), deployment.radius, area),
        grid_cr=grid_cr(
            [deployment.node(nid).position for nid in active],
            deployment.radius,
            (deployment.region_width, deployment.region_height),
            cfg.grid_resolution,
        ),
    )
    survivors = set()
    for nid in sorted(active):
        node = drain_battery(deployment.node(nid), cfg.battery_drain)
        if node.alive:
            survivors.add(nid)
    return RoundState(round_index, survivors, sleeping, trees, ordering), report


def iterate_rounds(
    deployment: Deployment,
    params: OpticsParams,
    config: ProtocolConfig | None = None,
    rounds: int = 1,
) -> Iterator[tuple[RoundState, RoundReport]]:
    """Yield (state, report) for each round of a fresh simulation.

    ``rounds`` and the deployment are checked here: every alive node must
    be idle, since a deployment that has already run keeps its actives and
    sleepers, which a fresh round state does not know of. The neighbor
    table is built at the first ``next()``.
    """
    require_int("rounds", rounds)
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    for node in deployment.nodes:
        if node.alive and node.state != IDLE:
            raise ValueError(
                f"node {node.id} is {node.state}: iterate_rounds needs a "
                f"deployment whose alive nodes are all idle"
            )
    return _rounds(deployment, params, config, rounds)


def _rounds(
    deployment: Deployment,
    params: OpticsParams,
    config: ProtocolConfig | None,
    rounds: int,
) -> Iterator[tuple[RoundState, RoundReport]]:
    table = build_neighbor_table(deployment)
    state = RoundState(0)
    for _ in range(rounds):
        state, report = run_round(state, deployment, params, config, table)
        yield state, report


def write_trace(
    out: IO[str],
    deployment: Deployment,
    rounds: Iterable[tuple[RoundState, RoundReport]],
) -> None:
    """JSON-lines trace: a header record, then one record per round.

    The header snapshots node positions so the trace can be replayed and
    plotted without the original deployment.
    """
    header = {
        "type": "header",
        "region": [deployment.region_width, deployment.region_height],
        "radius": deployment.radius,
        "seed": deployment.seed,
        "nodes": [[n.id, n.position.x, n.position.y] for n in deployment.nodes],
    }
    out.write(json.dumps(header) + "\n")
    for state, report in rounds:
        record = {
            "type": "round",
            "round_index": state.round_index,
            "active": sorted(state.active),
            "trees": [
                {
                    "cluster_id": t.cluster_id,
                    "root": t.root,
                    "edges": [[p, c] for p, c in t.edges],
                }
                for t in state.trees
            ],
            "report": {
                "deployed_count": report.deployed_count,
                "active_count": report.active_count,
                "ratio_r": report.ratio_r,
                "analytic_cr": report.analytic_cr,
                "grid_cr": report.grid_cr,
            },
            "ordering": [
                [op.point_id, op.reachability, op.core_distance]
                for op in state.ordering
            ],
        }
        out.write(json.dumps(record) + "\n")


def read_trace(src: IO[str]) -> tuple[dict, list[dict]]:
    """Parse a trace file into its header and round records, JSON objects each."""
    lines = [line for line in src.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty trace")
    header, *rounds = map(json.loads, lines)
    if not isinstance(header, dict) or header.get("type") != "header":
        raise ValueError("trace does not start with a header record")
    for record in rounds:
        if not isinstance(record, dict) or record.get("type") != "round":
            raise ValueError("unexpected record type in trace")
    return header, rounds
