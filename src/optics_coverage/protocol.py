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
neighbor-table row as they activate, from the arcs the table keeps for
each row it has been asked for. Actives retire to sleep at the end
of their round and rejoin the pool after a configurable number of rounds.
A round runs on the deployment alone: its arrays ``state_code``, each
node's ``network`` state code (``IDLE``, ``ACTIVE``, ``SLEEPING`` or
``DEAD``), ``battery`` and the sleepers' countdown ``sleep_left``, and
the neighbor tables it keeps, at 2r and, for an eps wider than 2r, at
eps, each built from the ``x`` and ``y`` columns by the first round that
needs it. Waking, retiring and draining are masked writes, the ordering
masks a kept table with ``state_code == IDLE``, the actives are the
slots left ``ACTIVE``, and a ``RoundState`` only records what the round
did. A selection tree works at the 2r table's slots. It splits L in
two: each idle member's offer, the numerator, is computed once per
cluster into one array over the slots, NaN wherever no reply may come,
and a tree node's first request divides the offers in its row by
``w_d * distance`` and ranks them. Within one tree the scores are fixed
and a reply can only leave the pool, so the node's later requests get
that ranking, less the replies walked or gone NaN since: each node is
ranked once.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .geometry import CoLocatedSensorsError, sum_in_order
# perfbench/tracing.py wraps overlap_angle here; the protocol sums arcs in numpy
from .geometry import overlap_angle  # noqa: F401
from .metrics import GRID_RESOLUTION, RoundReport, active_ratio, analytic_cr, grid_cr
from .metrics import require_resolution
from .network import (
    ACTIVE,
    DEAD,
    IDLE,
    SLEEPING,
    STATE_NAME,
    Deployment,
    NeighborTable,
    build_neighbor_table,
    neighbor_rows,
    require_count,
    require_finite,
    require_positive,
)
from .optics import Cluster, OpticsParams, Ordering, extract_clusters, optics_order

TWO_PI = 2 * math.pi


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
    be worth activating. The five weights and rates are kept as floats.
    """

    theta: float = 0.1
    battery_drain: float = 0.1
    sleep_rounds: int = 1
    w_battery: float = 0.4
    w_neighbors: float = 0.3
    w_distance: float = 0.2
    grid_resolution: int = GRID_RESOLUTION

    def __post_init__(self):
        for name in ("theta", "battery_drain", "w_battery", "w_neighbors"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))
        object.__setattr__(self, "w_distance", require_positive("w_distance", self.w_distance))
        require_count("sleep_rounds", self.sleep_rounds, 1)
        require_resolution("grid_resolution", self.grid_resolution)
        if not 0 <= self.theta <= 1:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if self.battery_drain < 0:
            raise ValueError(f"battery_drain must be >= 0, got {self.battery_drain}")


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
    """What one round did, read from the deployment's arrays as the round
    ends: the surviving actives, and each sleeper's rounds left, 1 for one
    that wakes at the next round. No round reads it back."""

    round_index: int
    active: set[int] = field(default_factory=set)
    # sleeping node id -> rounds left before it returns to the idle pool
    sleeping: dict[int, int] = field(default_factory=dict)
    trees: list[SelectionTree] = field(default_factory=list)
    ordering: Ordering = field(default_factory=Ordering)


def _seed_slot(deployment: Deployment, slots: np.ndarray) -> int:
    """Of the member ``slots``, in member order, the one closest to their
    centroid, the lowest slot (and so the lowest id) on ties."""
    if not len(slots):
        raise ValueError("cannot seed an empty cluster")
    x, y = deployment.x[slots], deployment.y[slots]
    cx, cy = sum_in_order(x) / len(x), sum_in_order(y) / len(y)
    # geometry.hypot gives the same floats, but its fixed cost, about 35 us,
    # outweighs math.hypot below some 400 members, and most clusters are small
    distance = np.fromiter(map(math.hypot, (x - cx).tolist(), (y - cy).tolist()), float, len(x))
    # finite coordinates give a finite or infinite centroid, so no distance is NaN
    return int(slots[distance == distance.min()].min())


def _table(deployment: Deployment, reach: float) -> NeighborTable:
    """The deployment's neighbor table at ``reach``, built on first use:
    positions never change, so it serves every later round."""
    table = deployment.tables.get(reach)
    if table is None:
        if reach == 2 * deployment.radius:
            table = build_neighbor_table(deployment)
        else:
            table = neighbor_rows(deployment.ids, deployment.x, deployment.y, reach)
        deployment.tables[reach] = table
    return table


def select_next(
    sender: int,
    deployment: Deployment,
    offers: np.ndarray,
    config: ProtocolConfig | None = None,
) -> np.ndarray:
    """Reply slots to one request from the node at slot ``sender``, best
    first, as an int array.

    ``cover_cluster`` ranks each tree node's replies with it once, at the
    node's first visit, over the deployment's 2r table; slots index its
    ids and the deployment's arrays alike. ``offers`` holds, at the slot
    of each node that answers, the numerator of its acceptance level,
    ``w_b * battery + w_n * neighbor_count``, and NaN at every other slot.
    The replies are ranked by that numerator over ``w_d * distance``,
    highest first, ties going to the lower slot (and so the lower id); a
    reply scoring -inf is never offered. Empty when no neighbor answers.
    The sender must be active (``ValueError`` otherwise). The caller
    ignores numpy's overflow and invalid warnings: a subnormal distance
    can score +-inf.
    """
    cfg = config or ProtocolConfig()
    table = _table(deployment, 2 * deployment.radius)
    code = deployment.state_code[sender]
    if code != ACTIVE:
        raise ValueError(f"node {table.ids[sender]} is {STATE_NAME[code]}, not active")
    index, distance = table.row(sender)
    offer = offers[index]
    answers = ~np.isnan(offer)
    index, offer, distance = index[answers], offer[answers], distance[answers]
    if not len(index):
        return index
    # rows run by distance, so the first is the nearest: zero, or too small to divide by
    if cfg.w_distance * distance[0] == 0:
        raise CoLocatedSensorsError(f"candidate at distance {distance[0]} from selector")
    score = offer / (cfg.w_distance * distance)
    ranked = np.lexsort((index, -score))
    if not score[ranked[-1]] > -np.inf:  # -inf and NaN sort last
        ranked = ranked[: np.count_nonzero(score > -np.inf)]
    return index[ranked]


def cover_cluster(
    cluster: Cluster,
    deployment: Deployment,
    config: ProtocolConfig | None = None,
) -> SelectionTree:
    """Grow one cluster's selection tree until no candidate is acceptable.

    The frontier rotates breadth-first in activation order. Each visit of
    a tree node sends one request and walks the ranked replies: a
    redundant reply leaves the cluster's candidate pool for the rest of
    the round, and the first acceptable one activates, after which the
    node re-enters the frontier behind its new child. A node whose
    replies are all redundant, or that gets none, drops out.
    The walk runs over the slots of the deployment's 2r table, and the
    members are resolved to slots once: the root is the member closest to
    their centroid, the lower id on ties, found among those slots. One
    ``offers`` array, built once, holds each idle member's acceptance-level
    numerator, which nothing in the walk changes; a member's offer goes to
    NaN as it activates or is discarded, so only the candidate pool answers.
    Scores are fixed and replies only leave the pool, so a node's replies
    are ranked once (``select_next``), at its first visit: a later visit
    walks what is left of that ranking, less the replies gone NaN since.
    Each activation adds its row's arcs (``NeighborTable.arcs``) to the
    sums of the members in its table row, so a sensor co-located with a
    candidate member raises as soon as it activates.
    """
    cfg = config or ProtocolConfig()
    table = _table(deployment, 2 * deployment.radius)
    ids, codes = table.ids, deployment.state_code
    members = deployment.slots(cluster.members)
    u = _seed_slot(deployment, members)
    tree = SelectionTree(cluster.cluster_id, ids.item(u))
    members = members[codes[members] == IDLE]
    # the summed arc (2*alpha each) the cluster's actives cut from each
    # member. A discarded member's sum can only grow, so it would stay
    # redundant and is dropped.
    covered = np.zeros(len(ids))
    # tree node slot -> the unwalked rest of its ranked replies
    unwalked: dict[int, np.ndarray] = {}
    # a subnormal distance can score +-inf, and huge weights overflow
    with np.errstate(over="ignore", invalid="ignore"):
        offers = np.full(len(ids), np.nan)
        offers[members] = (
            cfg.w_battery * deployment.battery[members] + cfg.w_neighbors * table.degrees[members]
        )

        def activate(i: int) -> None:
            codes[i] = ACTIVE
            offers[i] = np.nan
            index, distance = table.row(i)
            # rows run by distance, so only a zero first entry has twins
            if len(distance) and distance[0] == 0:
                if not np.isnan(offers[index[distance == 0]]).all():
                    raise CoLocatedSensorsError(f"node {ids[i]} shares its position with a member")
            covered[index] += table.arcs(i)

        activate(u)
        frontier = deque([u])
        while frontier:
            u = frontier.popleft()
            ranked = unwalked.pop(u, None)
            if ranked is None:
                ranked = select_next(u, deployment, offers, cfg)
            else:
                ranked = ranked[~np.isnan(offers[ranked])]
            for k, i in enumerate(ranked.tolist()):
                free = (TWO_PI - covered.item(i)) / TWO_PI
                # nothing free: redundant unless theta = 0, however far the sum overshoots
                if (cfg.theta > 0) if free <= 0 else free < cfg.theta:
                    offers[i] = np.nan
                    continue
                activate(i)
                tree.edges.append((ids.item(u), ids.item(i)))
                unwalked[u] = ranked[k + 1 :]
                frontier.append(i)
                frontier.append(u)
                break
    return tree


def run_round(
    deployment: Deployment,
    params: OpticsParams,
    config: ProtocolConfig | None = None,
) -> tuple[RoundState, RoundReport]:
    """Advance the deployment by one round, its ``rounds_run + 1``-th.

    Sleepers count down and those with no rounds left rejoin the idle
    pool, last round's actives go to sleep for ``sleep_rounds``, the
    idle pool is re-clustered and covered cluster by cluster, and the new
    actives pay the round's battery cost. Outliers of the clustering stay
    idle; an eps wider than 2r orders over a table at eps. The first round
    that needs a table builds it into the deployment's ``tables``, which
    every later round reads. A round that raises (``CoLocatedSensorsError``,
    say) restores the deployment's ``state_code``, ``sleep_left`` and
    ``rounds_run`` first.
    """
    cfg = config or ProtocolConfig()
    round_index = deployment.rounds_run + 1
    ids, codes, left = deployment.ids, deployment.state_code, deployment.sleep_left
    if not (codes != DEAD).any():
        raise AllNodesDeadError(round_index)
    saved = codes.copy(), left.copy()
    deployment.rounds_run = round_index
    # sleepers, each with a round or more left, count down, those with none
    # left wake, and last round's actives retire
    asleep = codes == SLEEPING
    left[asleep] -= 1
    codes[asleep & (left == 0)] = IDLE
    retiring = codes == ACTIVE
    codes[retiring] = SLEEPING
    left[retiring] = cfg.sleep_rounds
    asleep = np.flatnonzero(codes == SLEEPING)
    sleeping = dict(zip(ids[asleep].tolist(), left[asleep].tolist()))

    idle = codes == IDLE
    trees: list[SelectionTree] = []
    ordering = Ordering()
    try:
        if idle.any():
            # an eps up to 2r orders over the 2r table
            rows = _table(deployment, max(params.eps, 2 * deployment.radius))
            ordering = optics_order(rows, params, idle)
            for cluster in extract_clusters(ordering, params.eps_prime).clusters:
                trees.append(cover_cluster(cluster, deployment, cfg))
    except BaseException:
        codes[:], left[:] = saved
        deployment.rounds_run = round_index - 1
        raise

    # last round's actives retired above, so the actives are the tree nodes
    chosen = np.flatnonzero(codes == ACTIVE)
    area = deployment.region_width * deployment.region_height
    report = RoundReport(
        deployed_count=len(ids),
        active_count=len(chosen),
        ratio_r=active_ratio(len(chosen), len(ids)),
        analytic_cr=analytic_cr(len(chosen), deployment.radius, area),
        grid_cr=grid_cr(
            deployment.x[chosen],
            deployment.y[chosen],
            deployment.radius,
            (deployment.region_width, deployment.region_height),
            cfg.grid_resolution,
        ),
    )
    # the round's cost, clamped at an empty battery, which is death
    charge = np.maximum(deployment.battery[chosen] - cfg.battery_drain, 0.0)
    deployment.battery[chosen] = charge
    codes[chosen[charge == 0.0]] = DEAD
    survivors = set(ids[chosen[charge > 0.0]].tolist())
    return RoundState(round_index, survivors, sleeping, trees, ordering), report


def iterate_rounds(
    deployment: Deployment,
    params: OpticsParams,
    config: ProtocolConfig | None = None,
    rounds: int = 1,
) -> Iterator[tuple[RoundState, RoundReport]]:
    """Yield (state, report) for each of the deployment's next ``rounds``
    rounds.

    ``rounds`` is checked here; the rounds run one per ``next()``, the
    first building the tables the deployment does not yet keep. A
    deployment that has run resumes where it stopped: its actives retire
    and its sleepers keep counting down.
    """
    require_count("rounds", rounds, 1)
    return (run_round(deployment, params, config) for _ in range(rounds))

