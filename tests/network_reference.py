"""Neighbor rows by brute force, one row of a table read by node id, and
a deployment's draws one ``rng.uniform`` at a time.

``reference_rows`` scans every pair with ``brute_force_query``; it is the
oracle of ``network.neighbor_rows``. The package reads a table's rows by
slot only (``NeighborTable.row``); ``table_row`` and ``table_degree`` read
one by node id, as Python ints and floats, for the tests' references.
``reference_draws`` is the oracle of ``network.generate_deployment``'s
columns. ``traced_peak`` measures the memory bound of a table build or an
ordering.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np

from optics_coverage.spatial import brute_force_query


def reference_rows(points, reach):
    """Rows by the brute-force scan at ``reach``, minus each point itself,
    sorted by (distance, id)."""
    return {
        pid: sorted(
            [(q, d) for q, d in brute_force_query(points, p, reach) if q != pid],
            key=lambda entry: (entry[1], entry[0]),
        )
        for pid, p in points.items()
    }


def reference_table(dep):
    """Neighbor rows by the brute-force scan at 2r."""
    return reference_rows({n.id: n.position for n in dep.nodes}, 2 * dep.radius)


def table_slot(table, node_id):
    """Slot of ``node_id`` in ``table.ids``; ``KeyError`` if it has none."""
    slot = int(np.searchsorted(table.ids, node_id))
    if slot == len(table.ids) or table.ids[slot] != node_id:
        raise KeyError(node_id)
    return slot


def table_row(table, node_id):
    """The row of ``node_id``: (neighbor id, distance) pairs by (distance, id)."""
    index, distance = table.row(table_slot(table, node_id))
    return list(zip(table.ids[index].tolist(), distance.tolist()))


def table_degree(table, node_id):
    """The length of the row of ``node_id``."""
    return int(table.degrees[table_slot(table, node_id)])


def reference_draws(count, width, height, seed, battery_range):
    """x, y and battery columns as float64 arrays, drawn node by node with
    ``rng.uniform``: x in [0, width], y in [0, height], then battery in
    ``battery_range``, from one ``random.Random(seed)``."""
    rng = random.Random(seed)
    lo, hi = battery_range
    draws = [
        (rng.uniform(0, width), rng.uniform(0, height), rng.uniform(lo, hi))
        for _ in range(count)
    ]
    return tuple(np.array(column, dtype=np.float64) for column in zip(*draws))


def traced_peak(call):
    """``call()``'s result and the peak bytes ``tracemalloc`` traced while
    it ran: numpy reports its arrays' buffers there."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
