"""In-memory span store for the traced benchmark run.

Tracing wraps the module-level bindings the orchestration calls through,
and restores them on exit; the package itself holds no tracing code. A
span is (name, start, end, parent index, run id). A span's self time is
its duration minus the durations of its direct children. Calls that are
too frequent to time (``overlap_angle``, ``select_next``) are only counted.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable


def _edges(counts, args, table):
    counts["network.neighbor_edges"] += sum(map(len, table.neighbors.values())) // 2


def _hits(counts, args, hits):
    counts["spatial.query.hits"] += len(hits)


def _ordered(counts, args, ordering):
    counts["optics.ordered_points"] += len(ordering)


def _clusters(counts, args, assignment):
    counts["optics.clusters"] += len(assignment.clusters)
    counts["optics.outliers"] += len(assignment.outliers)


def _tree(counts, args, tree):
    counts["protocol.tree_edges"] += len(tree.edges)


def _offer(counts, args, best):
    counts["protocol.offers"] += best is not None


def _discs(counts, args, cr):
    counts["metrics.grid_cr.discs"] += len(args[0])


# (module, attribute, span name, timed, hook on the call's result)
PATCHES = [
    ("protocol", "build_neighbor_table", "network.build_neighbor_table", True, _edges),
    ("protocol", "run_round", "protocol.run_round", True, None),
    ("protocol", "optics_order", "optics.optics_order", True, _ordered),
    ("protocol", "extract_clusters", "optics.extract_clusters", True, _clusters),
    ("protocol", "cover_cluster", "protocol.cover_cluster", True, _tree),
    ("protocol", "select_next", "protocol.select_next", False, _offer),
    ("protocol", "overlap_angle", "geometry.overlap_angle", False, None),
    ("protocol", "grid_cr", "metrics.grid_cr", True, _discs),
    ("experiments", "generate_deployment", "experiments.generate_deployment", True, None),
    ("experiments", "write_trace", "experiments.write_trace", True, None),
    ("experiments", "write_reachability_csv", "experiments.write_reachability_csv", True, None),
    ("experiments", "write_table_csv", "experiments.write_table_csv", True, None),
    ("spatial.GridIndex", "query", "spatial.query", True, _hits),
    ("optics", "brute_force_query", "spatial.query", True, _hits),
]

OP = "op"  # root span of one benchmark operation


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run_id]
        self.counts: Counter = Counter()
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._cells: dict[str, list[int]] = {}

    def wrap(self, name: str, fn: Callable, timed: bool = True, hook=None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = f"{name}.calls"

        if not timed and hook is None:
            # the cheapest counter: overlap_angle runs millions of times a pass
            cell = self._cells.setdefault(calls, [0])

            def ticked(*args):
                cell[0] += 1
                return fn(*args)

            return ticked

        if not timed:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[calls] += 1
                hook(counts, args, result)
                return result

            return counted

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts[calls] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def op(self, run_id: str) -> Callable:
        """``call`` argument of ``workloads.run_pass``: a root span per op."""

        def call(fn):
            self.run_id = run_id
            return self.wrap(OP, fn)()

        return call

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            self_s[name] += end - start - child[i]
        return total, self_s

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, run_id]) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Patch every binding in ``PATCHES`` for the duration of the block."""
    saved = []
    try:
        for target, attr, name, timed, hook in PATCHES:
            owner = _resolve(target)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, timed, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _resolve(target: str):
    module, _, cls = target.partition(".")
    owner = importlib.import_module(f"optics_coverage.{module}")
    return getattr(owner, cls) if cls else owner


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of a traced run."""
    total, self_s = tracer.totals()
    c = tracer.counts + Counter({name: cell[0] for name, cell in tracer._cells.items()})
    queries = c["spatial.query.calls"]
    offers = c["protocol.offers"]
    wall = total[OP]
    return {
        "network.build_neighbor_table.s": self_s["network.build_neighbor_table"],
        "network.neighbor_edges": c["network.neighbor_edges"],
        "spatial.query.s": self_s["spatial.query"],
        "spatial.query.calls": queries,
        "spatial.query.hits_per_call": c["spatial.query.hits"] / queries if queries else 0.0,
        "optics.optics_order.s": self_s["optics.optics_order"],
        "optics.ordered_points": c["optics.ordered_points"],
        "optics.extract_clusters.s": self_s["optics.extract_clusters"],
        "optics.clusters": c["optics.clusters"],
        "optics.outliers": c["optics.outliers"],
        "protocol.cover_cluster.s": self_s["protocol.cover_cluster"],
        "protocol.requests": c["protocol.select_next.calls"],
        "protocol.offers": offers,
        "protocol.accept_ratio": c["protocol.tree_edges"] / offers if offers else 0.0,
        "protocol.run_round.self_s": self_s["protocol.run_round"],
        "geometry.overlap_angle.calls": c["geometry.overlap_angle.calls"],
        "metrics.grid_cr.s": self_s["metrics.grid_cr"],
        "metrics.grid_cr.discs": c["metrics.grid_cr.discs"],
        "experiments.generate_deployment.s": self_s["experiments.generate_deployment"],
        "experiments.write_trace.s": self_s["experiments.write_trace"],
        "experiments.write_reachability_csv.s": self_s["experiments.write_reachability_csv"],
        "experiments.write_table_csv.s": self_s["experiments.write_table_csv"],
        "trace.wall_s": wall,
        # op self time: whatever no named layer's span covers
        "trace.residual_share": self_s[OP] / wall if wall else 0.0,
    }
