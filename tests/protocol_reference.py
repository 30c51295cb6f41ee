"""Reference selection loop: one request per candidate, and every active
disc rescanned for every candidate; and the per-entry request walk.

Grows a selection tree the way ``protocol.cover_cluster`` did before its
requests returned ranked replies: each request returns only the idle
neighbor with the highest acceptance level (the lowest id on ties,
never one scoring -inf), and a redundant one is excluded before the
next request. The seed is ``reference_seed``'s pick. Each
candidate is tested for redundancy by summing the overlap arcs (2*alpha
each) of all active discs of its cluster, from distances computed afresh,
and the sum stops once the full circle is reached. It is the oracle for
the ranked replies and for the per-member arc sums that ``cover_cluster``
keeps from the arcs of the neighbor table's rows.

``reference_seed`` picks a cluster's seed with ``min`` over (distance
to the members' centroid, id): the oracle of the root that
``cover_cluster`` picks.

``acceptance_level`` scores one candidate with the whole expression
``(w_b * battery + w_n * neighbor_count) / (w_d * distance)``; it is the
oracle of the score that ``cover_cluster`` splits into a per-cluster
offer (the numerator) and a per-request division.

``reference_select_next`` answers one request entry by entry, reading each
neighbor's node and scoring it with ``acceptance_level``; it is the oracle
for ``select_next``'s numpy ranking over the offers.

The oracles read rows from a table that ``build_neighbor_table`` builds
afresh, never from the one the deployment keeps.

``reference_run_round`` runs a round node by node, reading the
deployment's views and writing its ``state_code``, ``battery`` and
``sleep_left`` arrays at one node's slot at a time: it counts down or
wakes each sleeper and retires each active one, collects the idle nodes
into the eligible dict and orders it with ``order_points`` over a 2r
table built for the round (a table of its own at an eps wider than 2r),
cuts it with ``reference_clusters``, takes the union of the tree nodes
as the actives, and drains each new active's battery, clamped at zero;
an empty battery kills the node. It is the oracle for ``run_round``'s
masked writes over the arrays.
"""

from __future__ import annotations

import math
from collections import deque

from network_reference import table_degree, table_row
from optics_reference import as_rows, order_points, reference_clusters

from optics_coverage.geometry import CoLocatedSensorsError, overlap_angle
from optics_coverage.metrics import RoundReport, active_ratio, analytic_cr, grid_cr
from optics_coverage.network import (
    ACTIVE,
    DEAD,
    IDLE,
    SLEEPING,
    STATE_CODE,
    build_neighbor_table,
)
from optics_coverage.optics import Cluster, Ordering
from optics_coverage.protocol import (
    AllNodesDeadError,
    ProtocolConfig,
    RoundState,
    SelectionTree,
    cover_cluster,
)

TWO_PI = 2 * math.pi


def euclidean_distance(a, b):
    return math.hypot(a.x - b.x, a.y - b.y)


def reference_seed(cluster, deployment):
    """The member nearest the members' centroid, the lower id on ties. The
    centroid adds the coordinates in member order, with Python's ``sum``."""
    positions = [deployment.node(m).position for m in cluster.members]
    cx = sum(p.x for p in positions) / len(positions)
    cy = sum(p.y for p in positions) / len(positions)
    distance = [math.hypot(p.x - cx, p.y - cy) for p in positions]
    return min(zip(distance, cluster.members))[1]


def acceptance_level(battery, neighbor_count, distance, config=None):
    """One candidate's score under ``config``'s weights; higher is better.
    A distance weighting to 0 is co-location."""
    cfg = config or ProtocolConfig()
    if distance < 0:
        raise ValueError(f"distance must be positive, got {distance}")
    if cfg.w_distance * distance == 0:  # zero, or too small to divide by
        raise CoLocatedSensorsError(f"candidate at distance {distance} from selector")
    return (cfg.w_battery * battery + cfg.w_neighbors * neighbor_count) / (
        cfg.w_distance * distance
    )


def mostly_overlapped(pos, active_positions, radius, theta):
    """True when less than ``theta`` of the boundary at ``pos`` stays free."""
    covered = 0.0
    for ap in active_positions:
        covered += 2 * overlap_angle(euclidean_distance(pos, ap), radius)
        if covered >= TWO_PI:
            return theta > 0
    return (TWO_PI - covered) / TWO_PI < theta


def reference_select_next(current, deployment, allowed=None, config=None):
    """Idle neighbors of ``current`` whose id is in ``allowed`` (any
    container, None for all), ranked by level, lower id on ties, none
    scoring -inf."""
    cfg = config or ProtocolConfig()
    sender = deployment.node(current)  # KeyError for an unknown id
    if sender.state != ACTIVE:
        raise ValueError(f"node {current} is {sender.state}, not active")
    table = build_neighbor_table(deployment)
    replies = []
    for nid, dist in table_row(table, current):
        if allowed is not None and nid not in allowed:
            continue
        node = deployment.node(nid)
        if node.state != IDLE:
            continue
        score = acceptance_level(node.battery, table_degree(table, nid), dist, cfg)
        if score > -math.inf:
            replies.append((-score, nid))  # sorts best first, lower id on ties
    return [nid for _, nid in sorted(replies)]


def best_reply(current, table, deployment, allowed, exclude, config):
    """Idle allowed neighbor of ``current`` with the highest level, or None."""
    best = None
    best_score = -math.inf
    for nid, dist in table_row(table, current):
        if nid in exclude or nid not in allowed:
            continue
        node = deployment.node(nid)
        if node.state != IDLE:
            continue
        score = acceptance_level(node.battery, table_degree(table, nid), dist, config)
        if score > best_score or (score == best_score > -math.inf and nid < best):
            best, best_score = nid, score
    return best


def write_state(deployment, slot, state, left=0):
    """Write ``state`` at ``slot``, with ``left`` rounds of sleep."""
    deployment.state_code[slot] = STATE_CODE[state]
    deployment.sleep_left[slot] = left


def reference_cover_cluster(cluster, deployment, config: ProtocolConfig):
    table = build_neighbor_table(deployment)
    root = reference_seed(cluster, deployment)
    write_state(deployment, deployment.node(root).slot, ACTIVE)
    tree = SelectionTree(cluster.cluster_id, root)
    members = set(cluster.members)
    active_positions = [deployment.node(root).position]
    discarded: set[int] = set()
    frontier = deque([root])
    while frontier:
        u = frontier.popleft()
        while True:
            candidate = best_reply(u, table, deployment, members, discarded, config)
            if candidate is None:
                break
            pos = deployment.node(candidate).position
            if mostly_overlapped(pos, active_positions, deployment.radius, config.theta):
                discarded.add(candidate)
                continue
            write_state(deployment, deployment.node(candidate).slot, ACTIVE)
            tree.edges.append((u, candidate))
            active_positions.append(pos)
            frontier.append(candidate)
            frontier.append(u)
            break
    return tree


def reference_run_round(deployment, params, config):
    """One round of the deployment, walking node views."""
    round_index = deployment.rounds_run + 1
    if not any(n.alive for n in deployment.nodes):
        raise AllNodesDeadError(round_index)
    deployment.rounds_run = round_index
    left = deployment.sleep_left
    for node in deployment.nodes:
        if node.state == SLEEPING:
            if left[node.slot] <= 1:
                write_state(deployment, node.slot, IDLE)
            else:
                left[node.slot] -= 1
        elif node.state == ACTIVE:
            write_state(deployment, node.slot, SLEEPING, config.sleep_rounds)
    sleeping = {n.id: int(left[n.slot]) for n in deployment.nodes if n.state == SLEEPING}

    eligible = {n.id: n.position for n in deployment.nodes if n.state == IDLE}
    trees, ordering = [], Ordering()
    if eligible:
        ordering = order_points(eligible, params, build_neighbor_table(deployment))
        clusters, _ = reference_clusters(as_rows(ordering), params.eps_prime)
        for k, members in enumerate(clusters):
            trees.append(cover_cluster(Cluster(k, members), deployment, config))

    active = set()
    for tree in trees:
        active |= tree.node_ids()
    deployed = len(deployment.nodes)
    region = (deployment.region_width, deployment.region_height)
    report = RoundReport(
        deployed_count=deployed,
        active_count=len(active),
        ratio_r=active_ratio(len(active), deployed),
        analytic_cr=analytic_cr(len(active), deployment.radius, region[0] * region[1]),
        grid_cr=grid_cr(
            [deployment.node(nid).position.x for nid in active],
            [deployment.node(nid).position.y for nid in active],
            deployment.radius,
            region,
            config.grid_resolution,
        ),
    )
    survivors = set()
    for nid in sorted(active):
        node = deployment.node(nid)
        deployment.battery[node.slot] = max(0.0, node.battery - config.battery_drain)
        if node.battery == 0.0:
            deployment.state_code[node.slot] = STATE_CODE[DEAD]
        else:
            survivors.add(nid)
    return RoundState(round_index, survivors, sleeping, trees, ordering), report
