"""Benchmark workloads: seeded inputs, timed operations and output checks.

Operations go through the public library API only (``generate_deployment``,
``iterate_rounds``, ``run_table_experiment``). Each operation is timed on its
own; the checks on its outputs run after the clock stops.

A pass is the unit of repeated work:

- ``sweep``: the default ``optics-coverage run`` sweep, one operation per
  deployment size (3 trials plus their artifacts).
- ``scale``: one round on a 5,000-node field, one operation.
- ``rotation``: 24 rounds on a 2,000-node field, one operation per round.

Pass 0 of ``scale`` and ``rotation`` uses the reference seed, so its digest
can be compared with the one in ``digests.json``. ``sweep`` instead checks a
separate, untimed run of the default configuration (see ``reference_sweep``).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

if not (SRC / "optics_coverage" / "__init__.py").is_file():
    raise SystemExit(f"no optics_coverage package under {SRC}: run from a full checkout")
sys.path.insert(0, str(SRC))

import optics_coverage as oc  # noqa: E402
from optics_coverage.config import RunConfig  # noqa: E402
from optics_coverage.experiments import run_table_experiment  # noqa: E402
from optics_coverage.network import IDLE  # noqa: E402

if Path(oc.__file__).resolve().parent != SRC / "optics_coverage":
    raise SystemExit(f"imported optics_coverage from {oc.__file__}, not from {SRC}")

# the CLI's default master seed; reference digests are taken at it
REFERENCE_SEED = 42
DENSITY = 0.2  # sensors per square metre, as in the default sweep at D=500
RADIUS = 5.0
PARAMS = oc.OpticsParams(eps=10.0, min_pts=4)
PROTO = oc.ProtocolConfig(theta=0.1)
SWEEP_CONFIG = RunConfig()


@dataclass(frozen=True)
class Spec:
    name: str
    nodes: int  # nodes per deployment; for sweep, the sum over one pass
    side: float  # field side in metres
    rounds: int
    passes: int  # distinct passes of one repeat

    def stamp(self) -> dict:
        params = {"n": self.nodes, "field_side_m": self.side, "rounds": self.rounds}
        if self.name == "sweep":
            params.update(
                d_list=list(SWEEP_CONFIG.d_list),
                trials=SWEEP_CONFIG.trials,
                grid_resolution=SWEEP_CONFIG.grid_resolution,
            )
        return params


SPECS = {
    "sweep": Spec(
        "sweep",
        sum(SWEEP_CONFIG.d_list) * SWEEP_CONFIG.trials,
        SWEEP_CONFIG.width,
        SWEEP_CONFIG.rounds,
        passes=6,  # enough inputs that the median size's latency is steady
    ),
    "scale": Spec("scale", 5000, math.sqrt(5000 / DENSITY), 1, passes=2),
    "rotation": Spec("rotation", 2000, 100.0, 24, passes=2),
}


# Seconds per calibration-kernel iteration on the reference machine. Times
# are reported scaled to that machine (see README.md).
KERNEL_REF_S = 1e-6
PROBE_INTERVAL_S = 0.05
PROBE_ITERATIONS = 1500


def kernel(iterations: int = 16000) -> float:
    """Seconds per iteration of the calibration kernel, run now.

    The kernel is fixed pure-Python work (float math, dict and heap
    operations, like the simulator's), so its speed tracks how fast the
    shared machine runs the interpreter at this moment.
    """
    start = time.perf_counter()
    acc, seen, heap = 0.0, {}, []
    for i in range(iterations):
        x, y = (i * 0.618034) % 1.0, (i * 0.414214) % 1.0
        d = math.hypot(x - 0.5, y - 0.5)
        acc += math.acos(min(1.0, d))
        seen[i & 511] = d
        if not i & 7:
            heapq.heappush(heap, (d, i))
    return (time.perf_counter() - start) / iterations


@dataclass
class Op:
    """One timed operation and what its checks found."""

    seconds: float
    kernel_s: float  # mean kernel seconds per iteration around and during it
    node_rounds: int = 0
    problems: list[str] = field(default_factory=list)
    grid_cr: list[float] = field(default_factory=list)
    ratio_r: list[float] = field(default_factory=list)
    artifact_bytes: int = 0

    @property
    def normalized(self) -> float:
        return self.seconds * KERNEL_REF_S / self.kernel_s


class Timer:
    """Times operations and samples the machine's speed around them.

    The calibration kernel runs before and after each operation and, when
    ``probe`` is set, every PROBE_INTERVAL_S during it from a SIGALRM
    handler; the handler's own time is taken off the operation's.
    """

    def __init__(self, probe: bool = True):
        self.probe = probe
        self.before = kernel()
        self._samples: list[float] = []
        self._spent = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self._samples.append(kernel(PROBE_ITERATIONS))
        self._spent += time.perf_counter() - start
        self._busy = False

    def __call__(self, call: Callable, fn: Callable) -> tuple[object, Op]:
        """(result or None, Op) of ``call(fn)``; an exception fails the op."""
        self._samples, self._spent = [], 0.0
        if self.probe:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result, problems = call(fn), []
        except Exception as exc:  # any failure, AllNodesDeadError included
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            seconds = time.perf_counter() - start
            if self.probe:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        after = kernel()
        speed = statistics.fmean([self.before, after, *self._samples])
        self.before = after
        return result, Op(seconds - self._spent, speed, problems=problems)


@dataclass
class PassResult:
    ops: list[Op]
    digest: str


def pass_seed(seed: int, k: int) -> int:
    """Deployment (or master) seed of pass ``k`` of a run seeded ``seed``."""
    return seed * 1000 + 10 * k


def generate_inputs(name: str, seed: int) -> None:
    """Generate the deployments of pass 1; set-up time is measured on this."""
    spec = SPECS[name]
    if name == "sweep":
        for d in SWEEP_CONFIG.d_list:
            for t in range(SWEEP_CONFIG.trials):
                oc.generate_deployment(
                    d, SWEEP_CONFIG.width, SWEEP_CONFIG.height, SWEEP_CONFIG.radius,
                    pass_seed(seed, 1) + t,
                )
    else:
        oc.generate_deployment(spec.nodes, spec.side, spec.side, RADIUS, pass_seed(seed, 1))


def run_pass(
    spec: Spec,
    seed: int,
    k: int,
    workdir: Path,
    call: Callable = lambda fn: fn(),
    probe: bool = True,
) -> PassResult:
    """Run pass ``k``. ``call`` invokes each operation (a traced run opens a
    span in it); ``probe`` samples the machine's speed during operations."""
    timer = Timer(probe)
    if spec.name == "sweep":
        return _sweep_pass(pass_seed(seed, k), workdir, call, timer)
    dep_seed = REFERENCE_SEED if k == 0 else pass_seed(seed, k)
    return _rounds_pass(spec, dep_seed, call, timer)


def check_round(
    eligible: set[int],
    ordering: list[int],
    order_indices: list[int],
    trees: list[set[int]],
    survivors: set[int],
    active_count: int,
    grid_cr: float,
    analytic_cr: float,
) -> list[str]:
    """Invariants of one round, given the ids that were idle when it began."""
    problems = []
    if sorted(ordering) != sorted(eligible):
        problems.append("ordering is not a permutation of the eligible ids")
    if order_indices != list(range(len(ordering))):
        problems.append("ordering indices are not 0..n-1")
    union: set[int] = set()
    for tree in trees:
        if union & tree:
            problems.append("selection trees share nodes")
        if not tree <= eligible:
            problems.append("a tree node was not idle when the round began")
        union |= tree
    if active_count != len(union):
        problems.append(f"active_count {active_count} != {len(union)} tree nodes")
    if not survivors <= union:
        problems.append("a surviving active node is in no tree")
    if grid_cr > min(100.0, analytic_cr):
        problems.append(f"grid_cr {grid_cr} > min(100, analytic_cr {analytic_cr})")
    return problems


def _rounds_pass(spec: Spec, dep_seed: int, call: Callable, timer: Timer) -> PassResult:
    dep = oc.generate_deployment(spec.nodes, spec.side, spec.side, RADIUS, dep_seed)
    rounds = oc.iterate_rounds(dep, PARAMS, PROTO, spec.rounds)
    eligible = {n.id for n in dep.nodes}
    ops: list[Op] = []
    lines: list[str] = []
    for _ in range(spec.rounds):
        step, op = timer(call, lambda: next(rounds))
        ops.append(op)
        if step is None:
            break
        state, report = step
        trees = [t.node_ids() for t in state.trees]
        active = set().union(*trees)
        op.node_rounds = spec.nodes
        op.grid_cr.append(report.grid_cr)
        op.ratio_r.append(report.ratio_r)
        op.problems += check_round(
            eligible,
            [p.point_id for p in state.ordering],
            [p.order_index for p in state.ordering],
            trees,
            state.active,
            report.active_count,
            report.grid_cr,
            report.analytic_cr,
        )
        lines.append(f"{state.round_index}:{','.join(map(str, sorted(active)))}")
        # the rotation rule: idle nodes stay eligible, and sleepers whose
        # last sleeping round this was rejoin them
        eligible = {n.id for n in dep.nodes if n.state == IDLE} | {
            nid for nid, left in state.sleeping.items() if left <= 1 and dep.node(nid).alive
        }
    return PassResult(ops, _sha256("\n".join(lines).encode()))


def _sweep_pass(master_seed: int, workdir: Path, call: Callable, timer: Timer) -> PassResult:
    ops: list[Op] = []
    digests: list[str] = []
    for d in SWEEP_CONFIG.d_list:
        config = replace(SWEEP_CONFIG, d_list=(d,), seed=master_seed)
        out = workdir / f"D{d}"
        result, op = timer(call, lambda: run_table_experiment(config, out))
        ops.append(op)
        if result is not None:
            op.node_rounds = d * config.trials * config.rounds
            if not all(o.succeeded for o in result.outcomes) or result.summary is None:
                op.problems.append("a trial failed")
            _check_sweep_artifacts(out, config, op)
            digests.append(dir_digest(out))
        shutil.rmtree(out, ignore_errors=True)
    return PassResult(ops, _sha256("\n".join(digests).encode()))


def _check_sweep_artifacts(out: Path, config: RunConfig, op: Op) -> None:
    """Check the traces and reachability CSVs of a one-round sweep."""
    op.artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
    for d in config.d_list:
        for t in range(config.trials):
            stem = f"D{d}_trial{t}"
            with open(out / f"trace_{stem}.jsonl") as fh:
                header, *records = [json.loads(line) for line in fh]
            if len(records) != 1:
                op.problems.append(f"{stem}: expected one round record")
                continue
            record = records[0]
            report = record["report"]
            ordering = [pid for pid, _, _ in record["ordering"]]
            with open(out / f"reachability_{stem}_round1.csv") as fh:
                rows = [line.split(",")[:2] for line in fh.read().splitlines()[1:]]
            if [int(pid) for _, pid in rows] != ordering:
                op.problems.append(f"{stem}: reachability CSV disagrees with the trace")
            problems = check_round(
                {nid for nid, _, _ in header["nodes"]},  # round 1: all idle
                ordering,
                [int(idx) for idx, _ in rows],
                [{tree["root"]} | {c for _, c in tree["edges"]} for tree in record["trees"]],
                set(record["active"]),
                report["active_count"],
                report["grid_cr"],
                report["analytic_cr"],
            )
            op.problems.extend(f"{stem}: {p}" for p in problems)
            op.grid_cr.append(report["grid_cr"])
            op.ratio_r.append(report["ratio_r"])


def reference_sweep(workdir: Path) -> str:
    """Digest of the artifacts of the default sweep, as the CLI writes them."""
    out = workdir / "reference"
    run_table_experiment(SWEEP_CONFIG, out)
    digest = dir_digest(out)
    shutil.rmtree(out)
    return digest


def dir_digest(path: Path) -> str:
    """sha256 over the sorted file names and contents of a directory."""
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recorded_digests() -> dict[str, str]:
    with open(DIGESTS) as fh:
        return json.load(fh)


def ckdtree_reference(samples: int = 5) -> tuple[float, int]:
    """Median seconds and pair count of a scipy cKDTree 2r pair query on
    the reference ``scale`` deployment: a floor for the neighbor table.

    scipy is not a dependency of the package; without it this reports
    (0.0, 0).
    """
    try:
        import numpy as np
        from scipy.spatial import cKDTree
    except ImportError:
        print("scipy is not installed: no cKDTree reference", file=sys.stderr)
        return 0.0, 0
    spec = SPECS["scale"]
    dep = oc.generate_deployment(spec.nodes, spec.side, spec.side, RADIUS, REFERENCE_SEED)
    points = np.array([(n.position.x, n.position.y) for n in dep.nodes])
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        pairs = cKDTree(points).query_pairs(2 * RADIUS, output_type="ndarray")
        times.append(time.perf_counter() - start)
    return sorted(times)[samples // 2], len(pairs)
