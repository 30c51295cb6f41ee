"""Reference redundancy rule: rescan every active disc for every candidate.

Grows a selection tree the way ``protocol.cover_cluster`` does, with the
library's seed choice and candidate scoring, but tests each candidate for
redundancy by summing the overlap arcs (2*alpha each) of all active discs
of its cluster, from distances computed afresh, and stops summing once the
full circle is reached. It is the oracle for the per-member arc sums that
``cover_cluster`` keeps from the neighbor table's distances.
"""

from __future__ import annotations

import math
from collections import deque

from optics_coverage.geometry import euclidean_distance, overlap_angle
from optics_coverage.network import ACTIVE
from optics_coverage.protocol import (
    ProtocolConfig,
    SelectionTree,
    choose_initial_sensor,
    select_next,
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
            candidate = select_next(
                u, table, deployment, allowed=members, exclude=discarded, config=config
            )
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
