"""Reference selection loop: one request per candidate, and every active
disc rescanned for every candidate; and the per-entry request walk.

Grows a selection tree the way ``protocol.cover_cluster`` did before its
requests returned ranked replies: each request returns only the idle
neighbor with the highest acceptance level (the lowest id on ties,
never one scoring -inf), and a redundant one is excluded before the
next request. Seed choice and candidate scoring are the library's. Each
candidate is tested for redundancy by summing the overlap arcs (2*alpha
each) of all active discs of its cluster, from distances computed afresh,
and the sum stops once the full circle is reached. It is the oracle for
the ranked replies and for the per-member arc sums that ``cover_cluster``
keeps from the neighbor table's distances.

``reference_select_next`` answers one request entry by entry, reading each
neighbor's node and scoring it with ``acceptance_level``; it is the oracle
for ``select_next``'s numpy ranking over the deployment's arrays.
"""

from __future__ import annotations

import math
from collections import deque

from optics_coverage.geometry import euclidean_distance, overlap_angle
from optics_coverage.network import ACTIVE, IDLE
from optics_coverage.protocol import (
    ProtocolConfig,
    SelectionTree,
    acceptance_level,
    choose_initial_sensor,
)

TWO_PI = 2 * math.pi


def mostly_overlapped(pos, active_positions, radius, theta):
    """True when less than ``theta`` of the boundary at ``pos`` stays free."""
    covered = 0.0
    for ap in active_positions:
        covered += 2 * overlap_angle(euclidean_distance(pos, ap), radius)
        if covered >= TWO_PI:
            return theta > 0
    return (TWO_PI - covered) / TWO_PI < theta


def reference_select_next(current, table, deployment, allowed=None, config=None):
    """Idle neighbors of ``current`` whose id is in ``allowed`` (any
    container, None for all), ranked by level, lower id on ties, none
    scoring -inf."""
    cfg = config or ProtocolConfig()
    if current not in deployment:
        raise KeyError(f"unknown node id {current}")
    sender = deployment.node(current)
    if sender.state != ACTIVE:
        raise ValueError(f"node {current} is {sender.state}, not active")
    replies = []
    for nid, dist in table[current]:
        if allowed is not None and nid not in allowed:
            continue
        node = deployment.node(nid)
        if node.state != IDLE:
            continue
        score = acceptance_level(node.battery, table.degree(nid), dist, cfg)
        if score > -math.inf:
            replies.append((-score, nid))  # sorts best first, lower id on ties
    return [nid for _, nid in sorted(replies)]


def best_reply(current, table, deployment, allowed, exclude, config):
    """Idle allowed neighbor of ``current`` with the highest level, or None."""
    best = None
    best_score = -math.inf
    for nid, dist in table[current]:
        if nid in exclude or nid not in allowed:
            continue
        node = deployment.node(nid)
        if node.state != IDLE:
            continue
        score = acceptance_level(node.battery, table.degree(nid), dist, config)
        if score > best_score or (score == best_score > -math.inf and nid < best):
            best, best_score = nid, score
    return best


def reference_cover_cluster(cluster, deployment, table, config: ProtocolConfig):
    root = choose_initial_sensor(cluster, deployment)
    deployment.node(root).state = ACTIVE
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
            deployment.node(candidate).state = ACTIVE
            tree.edges.append((u, candidate))
            active_positions.append(pos)
            frontier.append(candidate)
            frontier.append(u)
            break
    return tree
