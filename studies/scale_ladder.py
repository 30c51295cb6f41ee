"""Time one round, one neighbor-table build and one ordering on a
constant-density scale ladder.

    python3 studies/scale_ladder.py [--large]

Size n (500, 2k, 5k and 10k; ``--large`` adds 20k, 50k and 100k) is a
field of n sensors on a sqrt(n / 0.2) m square: 0.2 sensors/m², the density
of the default sweep at D = 500 on 50 m, with r = 5 m and seed 42. For each
size it times 5 first rounds through ``iterate_rounds`` (eps = 10,
min_pts = 4, theta = 0.1, as in perfbench), each on a freshly generated
deployment, then 5 ``build_neighbor_table`` calls and 5 all-idle
``optics_order`` calls on one deployment, and reports the medians in wall
seconds. The ordering's ``argmin`` scans every node once per emitted point,
so its share of the round grows with n. The 100k rung holds one ~100 MB
table at a time. The times
are not scaled by a calibration kernel, so compare runs made back to back on
the same machine. The last line of output is one JSON object with the
results and a stamp (git sha, python and numpy versions, nproc). The
package is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import optics_coverage as oc  # noqa: E402

DENSITY = 0.2
RADIUS = 5.0
SEED = 42
SIZES = (500, 2000, 5000, 10000)
LARGE_SIZES = (20000, 50000, 100000)
REPEATS = 5
PARAMS = oc.OpticsParams(eps=10.0, min_pts=4)
PROTO = oc.ProtocolConfig(theta=0.1)


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def first_round(n: int, side: float) -> float:
    """Seconds of the first round of a freshly generated deployment, which
    is dropped with its tables afterwards."""
    dep = oc.generate_deployment(n, side, side, RADIUS, SEED)
    return timed(lambda: next(oc.iterate_rounds(dep, PARAMS, PROTO)))


def orderings(dep: oc.Deployment, repeats: int) -> list[float]:
    """Seconds of all-idle orderings over one table of ``dep``, which is
    dropped afterwards."""
    table, idle = oc.build_neighbor_table(dep), np.ones(len(dep.ids), dtype=bool)
    return [timed(lambda: oc.optics_order(table, PARAMS, idle)) for _ in range(repeats)]


def rung(n: int, repeats: int) -> dict:
    side = math.sqrt(n / DENSITY)
    rounds = [first_round(n, side) for _ in range(repeats)]
    dep = oc.generate_deployment(n, side, side, RADIUS, SEED)
    orders = orderings(dep, repeats)
    tables = [timed(lambda: oc.build_neighbor_table(dep)) for _ in range(repeats)]
    return {
        "nodes": n,
        "field_side_m": round(side, 3),
        "round_s": round(statistics.median(rounds), 4),
        "table_s": round(statistics.median(tables), 4),
        "order_s": round(statistics.median(orders), 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Time rounds, tables and orderings by size.")
    parser.add_argument(
        "--large", action="store_true", help="add the 20k, 50k and 100k rungs"
    )
    sizes = SIZES + LARGE_SIZES if parser.parse_args().large else SIZES
    results = []
    for n in sizes:
        result = rung(n, REPEATS)
        results.append(result)
        print(
            f"{n:>6} nodes  round {result['round_s']:.4f} s  "
            f"table {result['table_s']:.4f} s  order {result['order_s']:.4f} s"
        )
    stamp = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "density_per_m2": DENSITY,
        "seed": SEED,
        "repeats": REPEATS,
    }
    print(json.dumps({"stamp": stamp, "ladder": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
