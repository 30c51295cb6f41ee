"""Seeded experiment orchestration and artifact emission.

A table experiment sweeps the configured deployment sizes, running a
fixed number of seeded trials per size; trial t of every size uses seed
``master_seed + t`` so reruns are byte-identical. The baseline experiment
pairs each protocol run with a uniformly random active subset of the same
size, isolating the value of informed selection at equal battery cost.

Every artifact format is written, and read back, here; the other modules
only compute.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .config import RunConfig
from .geometry import sum_in_order
from .metrics import GRID_RESOLUTION, ExperimentSummary, RoundReport, coverage_grid, grid_cr
from .metrics import require_resolution, summarize_experiment
from .network import Deployment, generate_deployment, require_int
from .optics import Ordering
from .protocol import AllNodesDeadError, RoundState, iterate_rounds

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


def _run_trial(
    config: RunConfig, deployed: int, trial: int, rounds: int
) -> tuple[Deployment, list[tuple[RoundState, RoundReport]], TrialOutcome]:
    """Seed, generate and simulate one trial of ``deployed`` sensors; the
    rounds stop early, as the outcome records, if every node dies."""
    seed = config.seed + trial
    outcome = TrialOutcome(deployed, trial, seed)
    deployment = generate_deployment(deployed, *config.generation_args(seed))
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
        return sum_in_order([p.protocol_grid_cr for p in self.pairs]) / len(self.pairs)

    @property
    def mean_rand_cr(self) -> float:
        return sum_in_order([p.rand_grid_cr for p in self.pairs]) / len(self.pairs)


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
    """A row per pair and a footer of the means; csv writes a float as its ``repr``."""
    writer = csv.writer(out)
    writer.writerow([f.name for f in fields(BaselinePair)])
    writer.writerows(map(astuple, result.pairs))
    if result.pairs:
        writer.writerow(["mean", "", "", result.mean_protocol_cr, result.mean_rand_cr])


def export_plot_data(
    trace_path: str | Path, out_dir: str | Path, resolution: int = GRID_RESOLUTION
) -> list[Path]:
    """Turn a round trace into plot-ready CSVs.

    Emits one reachability CSV per round plus one coverage 0/1 grid per
    round, painted over the field of the trace's header, rebuilt as a
    ``Deployment`` with full batteries. A resolution that is not an int
    >= 10, a trace field missing or that a ``Deployment`` refuses, a round
    index that is not an int or that the trace lists twice, or a round
    whose active ids or ordering list an id the header does not, or whose
    ordering lists one twice, raises ``ValueError`` before anything is written.
    """
    require_resolution("resolution", resolution)
    trace_path = Path(trace_path)
    with open(trace_path) as fh:
        header, rounds = read_trace(fh)
    if not rounds:
        raise ValueError(f"trace {trace_path} contains no rounds")
    try:
        # each row unpacks to exactly three fields, and the region to two sides
        ids, x, y = zip(*[(nid, x, y) for nid, x, y in header["nodes"]])
        width, height = header["region"]
        deployment = Deployment(ids, x, y, np.ones(len(ids)), width, height, header["radius"])
        frames = []
        for record in rounds:
            k, active = record["round_index"], record["active"]
            require_int("round_index", k)
            try:
                active = deployment.slots(active)
            except (KeyError, ValueError) as exc:
                raise ValueError(f"round {k}'s active field: {exc}") from exc
            rows = [(pid, reach, core) for pid, reach, core in record["ordering"]]
            frames.append((k, Ordering(*zip(*rows)), active))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed trace field: {exc!r}") from exc
    if len({k for k, _, _ in frames}) < len(frames):
        raise ValueError("the trace lists a round index twice")
    for k, ordering, _ in frames:
        listed = set(ordering.ids.tolist())
        if len(listed) < len(ordering) or not listed.issubset(deployment.ids.tolist()):
            raise ValueError(f"round {k}'s ordering lists an id twice or one not in the header")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    region = (deployment.region_width, deployment.region_height)
    written = []
    for k, ordering, active in frames:
        reach_file = out_path / f"reachability_round{k}.csv"
        with open(reach_file, "w", newline="") as fh:
            write_reachability_csv(ordering, fh)
        written.append(reach_file)
        x, y = deployment.x[active], deployment.y[active]
        grid = coverage_grid(x, y, deployment.radius, region, resolution)
        grid_file = out_path / f"coverage_round{k}.csv"
        with open(grid_file, "w", newline="") as fh:
            write_coverage_grid_csv(grid, fh)
        written.append(grid_file)
    return written


def write_trace(
    out: IO[str],
    deployment: Deployment,
    rounds: Iterable[tuple[RoundState, RoundReport]],
) -> None:
    """JSON-lines trace: a header record, then one record per round.

    The header snapshots node positions so the trace can be replayed and
    plotted without the original deployment. A round's ordering, its
    record's last key, is written as ``[id, reachability, core distance]``
    rows, null where the column holds NaN. Every line is ``json.dumps``'
    text; the ordering's rows are built from ``_ordering_text``, and each
    round's text is kept for its reachability CSV until that CSV or the
    next trace is written.
    """
    _kept.clear()
    columns = deployment.ids.tolist(), deployment.x.tolist(), deployment.y.tolist()
    header = {
        "type": "header",
        "region": [deployment.region_width, deployment.region_height],
        "radius": deployment.radius,
        "seed": deployment.seed,
        "nodes": list(zip(*columns)),
    }
    out.write(json.dumps(header) + "\n")
    for state, report in rounds:
        record = {
            "type": "round",
            "round_index": state.round_index,
            "active": sorted(state.active),
            "trees": [
                {"cluster_id": t.cluster_id, "root": t.root, "edges": t.edges}
                for t in state.trees
            ],
            "report": asdict(report),
        }
        text = _ordering_text(state.ordering)
        ids, reach, core = text
        reach, core = map(_JSON.get, reach, reach), map(_JSON.get, core, core)
        rows = ", ".join(map("[{}, {}, {}]".format, ids, reach, core))
        # json.dumps' text of the record with "ordering" added as its last key
        out.write(json.dumps(record)[:-1] + ', "ordering": [' + rows + "]}\n")
        _kept[id(state.ordering)] = state.ordering, text


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


# json's text for a distance whose ``_ordering_text`` differs from it
_JSON = {"": "null", "inf": "Infinity", "-inf": "-Infinity"}

# the ids' text, and the reachabilities' and core distances'
_OrderingText = tuple[list[str], list[str], list[str]]

# each round of the last trace ``write_trace`` wrote: its ordering and that
# ordering's text by the ordering's id, kept for the round's reachability
# CSV, which takes it. An entry holds its ordering, so no other object can
# take that id while the entry is kept
_kept: dict[int, tuple[Ordering, _OrderingText]] = {}


def _ordering_text(ordering: Ordering) -> _OrderingText:
    """The text of ``ordering``'s columns, which the trace and the
    reachability CSV are both built from: each id's, and each distance's
    ``repr``, "" for NaN."""
    ids, reach, core = (column.tolist() for column in ordering.columns())
    return list(map(str, ids)), _distance_text(reach), _distance_text(core)


def _distance_text(values: list[float]) -> list[str]:
    return [repr(v) if v == v else "" for v in values]


def write_reachability_csv(ordering: Ordering, out: IO[str]) -> None:
    """Plot-ready dump of the ordering, in one ``out.write``.

    The bytes are those of ``csv.writer``'s default dialect: the header
    ``order_index,point_id,reachability,core_distance``, then one row per
    point in emission order, its index from 0, its id, and its
    reachability and core distance as the float's ``repr`` (``inf``,
    ``-0.0``, ``1e-300``), NaN as an empty field; no field is quoted,
    and every line ends in ``\\r\\n``.

    The fields are ``_ordering_text``'s. The text of each round of the
    last trace ``write_trace`` wrote is kept for that round's CSV, and this
    takes it when given the same ``Ordering`` object (its columns are
    read-only, so the text cannot go stale); so the trial that writes a
    trace and then its CSVs formats each round's ordering once, and holds
    no text past its last CSV.
    """
    kept = _kept.pop(id(ordering), None)
    ids, reach, core = kept[1] if kept else _ordering_text(ordering)
    rows = map("{},{},{},{}\r\n".format, range(len(ids)), ids, reach, core)
    out.write("order_index,point_id,reachability,core_distance\r\n" + "".join(rows))


def write_table_csv(summary: ExperimentSummary, out: IO[str]) -> None:
    """Summary table as CSV, one row per deployment size plus a footer.

    The footer's N cell holds the raw average ratio truncated to two
    decimals and its R cell the displayed integer.
    """
    max_trials = max(len(row.trials) for row in summary.rows)
    writer = csv.writer(out)
    writer.writerow(["D"] + [f"n{i + 1}" for i in range(max_trials)] + ["N", "R"])
    for row in summary.rows:
        padded = list(row.trials) + [""] * (max_trials - len(row.trials))
        writer.writerow([row.deployed] + padded + [row.n_display, row.r_display])
    truncated = math.floor(summary.r_avg * 100) / 100
    writer.writerow(
        ["R_avg"] + [""] * max_trials + [f"{truncated:.2f}", summary.r_avg_display]
    )


def write_coverage_grid_csv(grid: np.ndarray, out: IO[str]) -> None:
    """0/1 matrix dump of a coverage raster; row k is the y index k."""
    csv.writer(out).writerows(grid.T.astype(int).tolist())
