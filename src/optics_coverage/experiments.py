"""Seeded experiment orchestration and artifact emission.

A table experiment sweeps the configured deployment sizes, running a
fixed number of seeded trials per size; trial t of every size uses seed
``master_seed + t`` so reruns are byte-identical. The baseline experiment
pairs each protocol run with a uniformly random active subset of the same
size, isolating the value of informed selection at equal battery cost.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

from .config import RunConfig
from .geometry import Point2D
from .metrics import (
    GRID_RESOLUTION,
    ExperimentSummary,
    RoundReport,
    coverage_grid,
    grid_cr,
    require_resolution,
    summarize_experiment,
    write_coverage_grid_csv,
    write_table_csv,
)
from .network import Deployment, generate_deployment, require_positive
from .optics import Ordering, write_reachability_csv
from .protocol import (
    AllNodesDeadError,
    RoundState,
    iterate_rounds,
    read_trace,
    write_trace,
)

TABLE_FILENAME = "active_node_table.csv"


@dataclass
class TrialOutcome:
    deployed: int
    trial: int
    seed: int
    active_counts: list[int] = field(default_factory=list)
    failed_round: int | None = None

    @property
    def succeeded(self) -> bool:
        return self.failed_round is None and bool(self.active_counts)


@dataclass
class TableExperimentResult:
    outcomes: list[TrialOutcome]
    summary: ExperimentSummary | None


def trial_seed(master_seed: int, trial: int) -> int:
    return master_seed + trial


def _run_trial(
    config: RunConfig, deployed: int, trial: int, rounds: int
) -> tuple[Deployment, list[tuple[RoundState, RoundReport]], TrialOutcome]:
    """Seed, generate and simulate one trial of ``deployed`` sensors; the
    rounds stop early, as the outcome records, if every node dies."""
    seed = trial_seed(config.seed, trial)
    outcome = TrialOutcome(deployed, trial, seed)
    deployment = generate_deployment(
        deployed,
        config.width,
        config.height,
        config.radius,
        seed,
        battery_range=(config.battery_min, config.battery_max),
    )
    history: list[tuple[RoundState, RoundReport]] = []
    try:
        for state, report in iterate_rounds(
            deployment, config.optics_params(), config.protocol_config(), rounds
        ):
            history.append((state, report))
            outcome.active_counts.append(report.active_count)
    except AllNodesDeadError as exc:
        outcome.failed_round = exc.round_index
    return deployment, history, outcome


def run_table_experiment(
    config: RunConfig, out_dir: str | Path | None = None
) -> TableExperimentResult:
    """Sweep d_list x trials; optionally write traces, reachability CSVs
    and the summary table under ``out_dir``.

    A trial's table entry is its first round's active count. Trials that
    die mid-simulation are recorded and skipped by the summary; the
    summary is None when every trial failed. Raises ``ConfigError`` for an
    invalid config before any deployment is generated.
    """
    config.validate()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    outcomes: list[TrialOutcome] = []
    per_d: dict[int, list[int]] = {}
    for deployed in config.d_list:
        for trial in range(config.trials):
            deployment, rounds, outcome = _run_trial(config, deployed, trial, config.rounds)
            outcomes.append(outcome)
            if outcome.succeeded:
                per_d.setdefault(deployed, []).append(outcome.active_counts[0])
            if out_path is not None:
                _write_trial_artifacts(out_path, deployment, deployed, trial, rounds)
    summary = summarize_experiment(per_d) if per_d else None
    if summary is not None and out_path is not None:
        with open(out_path / TABLE_FILENAME, "w", newline="") as fh:
            write_table_csv(summary, fh)
    return TableExperimentResult(outcomes, summary)


def _write_trial_artifacts(
    out_path: Path,
    deployment: Deployment,
    deployed: int,
    trial: int,
    rounds: list[tuple[RoundState, RoundReport]],
) -> None:
    stem = f"D{deployed}_trial{trial}"
    with open(out_path / f"trace_{stem}.jsonl", "w") as fh:
        write_trace(fh, deployment, rounds)
    for state, _ in rounds:
        if not state.ordering:
            continue
        name = f"reachability_{stem}_round{state.round_index}.csv"
        with open(out_path / name, "w", newline="") as fh:
            write_reachability_csv(state.ordering, fh)


@dataclass(frozen=True)
class BaselinePair:
    trial: int
    seed: int
    active_count: int
    protocol_grid_cr: float
    rand_grid_cr: float


@dataclass
class BaselineResult:
    deployed: int
    pairs: list[BaselinePair]

    @property
    def mean_protocol_cr(self) -> float:
        return sum(p.protocol_grid_cr for p in self.pairs) / len(self.pairs)

    @property
    def mean_rand_cr(self) -> float:
        return sum(p.rand_grid_cr for p in self.pairs) / len(self.pairs)


def run_rand_baseline(config: RunConfig) -> BaselineResult:
    """Paired protocol-vs-random coverage comparison at equal active counts.

    ``config.trials`` deployments of ``config.count`` sensors each; for
    each one the protocol picks its active set, and a uniformly random
    subset of the same size from the same deployment is scored with the
    same grid estimator. Raises ``ConfigError``, before any deployment is
    generated, for an invalid value of a key it reads.
    """
    config.validate(sweep=False)
    region = (config.width, config.height)
    pairs: list[BaselinePair] = []
    for trial in range(config.trials):
        deployment, rounds, outcome = _run_trial(config, config.count, trial, 1)
        if not outcome.succeeded:
            continue
        _, report = rounds[0]
        k = report.active_count
        # separate deterministic stream so the random pick cannot be
        # correlated with the deployment draw
        rng = random.Random(outcome.seed * 1_000_003 + 17)
        picked = deployment.slots(rng.sample(deployment.ids.tolist(), k))
        rand_cr = grid_cr(
            deployment.x[picked],
            deployment.y[picked],
            config.radius,
            region,
            config.grid_resolution,
        )
        pairs.append(BaselinePair(trial, outcome.seed, k, report.grid_cr, rand_cr))
    return BaselineResult(config.count, pairs)


def write_baseline_csv(result: BaselineResult, out) -> None:
    writer = csv.writer(out)
    writer.writerow(
        ["trial", "seed", "active_count", "protocol_grid_cr", "rand_grid_cr"]
    )
    for p in result.pairs:
        writer.writerow(
            [p.trial, p.seed, p.active_count, repr(p.protocol_grid_cr), repr(p.rand_grid_cr)]
        )
    if result.pairs:
        writer.writerow(
            ["mean", "", "", repr(result.mean_protocol_cr), repr(result.mean_rand_cr)]
        )


def export_plot_data(
    trace_path: str | Path, out_dir: str | Path, resolution: int = GRID_RESOLUTION
) -> list[Path]:
    """Turn a round trace into plot-ready CSVs.

    Emits one reachability CSV per round plus one coverage 0/1 grid per
    round, reconstructed from the trace's node snapshot. A resolution
    that is not an int >= 10, a trace field missing, of the wrong type or
    (for a coordinate) not finite, a node id the header lists twice, a
    round ordering that lists an id twice or one the header does not
    list, or a header radius or region side that is not positive and
    finite raises ``ValueError`` before anything is written.
    """
    require_resolution("resolution", resolution)
    trace_path = Path(trace_path)
    with open(trace_path) as fh:
        header, rounds = read_trace(fh)
    if not rounds:
        raise ValueError(f"trace {trace_path} contains no rounds")
    try:
        positions = {int(nid): Point2D(float(x), float(y)) for nid, x, y in header["nodes"]}
        radius = float(header["radius"])
        region = (float(header["region"][0]), float(header["region"][1]))
        frames = [
            (
                int(record["round_index"]),
                # each row unpacks to exactly three fields; null reads as NaN
                Ordering(*zip(*[(pid, reach, core) for pid, reach, core in record["ordering"]])),
                [positions[nid] for nid in record["active"]],
            )
            for record in rounds
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed trace field: {exc!r}") from exc
    if len(positions) < len(header["nodes"]):
        raise ValueError("the trace header lists a node id twice")
    for k, ordering, _ in frames:
        listed = set(ordering.ids.tolist())
        if len(listed) < len(ordering) or not listed <= positions.keys():
            raise ValueError(f"round {k}'s ordering lists an id twice or one not in the header")
    require_positive("the trace header's radius", radius)
    for side in region:
        require_positive("the trace header's region sides", side)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    written = []
    for k, ordering, active in frames:
        reach_file = out_path / f"reachability_round{k}.csv"
        with open(reach_file, "w", newline="") as fh:
            write_reachability_csv(ordering, fh)
        written.append(reach_file)
        x, y = [p.x for p in active], [p.y for p in active]
        grid = coverage_grid(x, y, radius, region, resolution)
        grid_file = out_path / f"coverage_round{k}.csv"
        with open(grid_file, "w", newline="") as fh:
            write_coverage_grid_csv(grid, fh)
        written.append(grid_file)
    return written
