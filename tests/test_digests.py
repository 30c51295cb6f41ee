"""Simulated outputs stay byte-identical to the benchmark's recorded digests.

The benchmark's workload module is loaded read-only; its ``digests.json``
holds the digests of the default ``optics-coverage run`` artifacts and of the
per-round active ids of the reference 5,000-node round. (The 24-round
rotation digest is left to the benchmark run: it takes too long here.)
Those cover round 1 only, so the benchmark's own round checks run here over
four rounds of a small field, where each round's eligible ids are read back
from the node views, and a four-round sweep is pinned too: at the
default eps (2r); at an eps wider than 2r, where the ordering reads a table
of its own; and at an eps below 2r, where the ordering reads the 2r table
and shuts out the row entries beyond eps; and at theta 0.5, where the
selection walk discards more replies between a tree node's visits.
The plot-data export of the default sweep's D=100 trial-0 trace is pinned
as well: it is the only output that paints a coverage raster. So are the
``rand-baseline`` CSVs at D=100 and D=300: the only output that scores
random subsets of a deployment, picked by slot, with ``grid_cr``.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from optics_coverage.config import RunConfig
from optics_coverage.experiments import (
    export_plot_data,
    run_rand_baseline,
    run_table_experiment,
    write_baseline_csv,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def test_default_sweep_artifacts_match_recorded_digest(tmp_path):
    assert workloads.reference_sweep(tmp_path) == workloads.recorded_digests()["sweep"]


def test_scale_round_matches_recorded_digest(tmp_path):
    spec = workloads.SPECS["scale"]
    result = workloads.run_pass(spec, 0, 0, tmp_path, probe=False)
    assert result.digest == workloads.recorded_digests()["scale"]


def test_multi_round_pass_reports_no_problem():
    # the one-round digests never read a node view after a round; the
    # rotation workload recomputes each round's eligible ids from them
    spec = workloads.Spec("rotation", 300, 38.0, 4, passes=1)
    result = workloads._rounds_pass(spec, 5, lambda fn: fn(), workloads.Timer(probe=False))
    assert len(result.ops) == 4
    assert [op.problems for op in result.ops] == [[]] * 4


# digests of the four-round artifacts, by case: the config fields it
# overrides, and the digest
MULTI_ROUND_DIGESTS = {
    "eps_2r": (
        {"eps": None},
        "a50c72de0d4f81cfeb7bab4416c496a7a21a4eeb3a06787f9beb595d9fbb433a",
    ),
    "eps_15": (
        {"eps": 15.0},
        "80be66a8771bb16d2e3dc7d14e30b4f0f05994f38cb377f90b066e8fa7a1369a",
    ),
    "eps_7": (
        {"eps": 7.0},
        "a3a19622a11a06aa6c5e91bc02712848df75304c7e3e6e0d951f66310cf9866c",
    ),
    "theta_0.5": (
        {"theta": 0.5},
        "5cc0d152ba89a5217ff74adf4d59c086c15eb61ac26c7e2a98de1dc6301174de",
    ),
}


@pytest.mark.parametrize("case", list(MULTI_ROUND_DIGESTS))
def test_multi_round_artifacts_match_pinned_digest(tmp_path, case):
    overrides, digest = MULTI_ROUND_DIGESTS[case]
    config = replace(RunConfig(), rounds=4, d_list=(100, 300), trials=2, **overrides)
    run_table_experiment(config, tmp_path)
    assert workloads.dir_digest(tmp_path) == digest


# the reachability and coverage CSVs of round 1 at resolution 500
PLOT_DATA_DIGEST = "d05b4f31a30028bd7135c1f7e38233ab5b6dec2fef18c63699be6a50318b0b83"


def test_plot_data_export_matches_pinned_digest(tmp_path):
    # trial 0 of a size draws the same deployment whatever else the sweep lists
    run_table_experiment(replace(RunConfig(), d_list=(100,), trials=1), tmp_path / "run")
    export_plot_data(tmp_path / "run" / "trace_D100_trial0.jsonl", tmp_path / "plots", 500)
    assert workloads.dir_digest(tmp_path / "plots") == PLOT_DATA_DIGEST


# the paired protocol-vs-random CSV of 3 trials, by deployment size
RAND_BASELINE_DIGESTS = {
    100: "edfc38225669c7997e2dc787f6191015269190b81f6ec8e75953f81762bc52ac",
    300: "2c1f8001d909856e0bc573a900e9c3a4206fd7e8be2b0c411a997b981e73df40",
}


@pytest.mark.parametrize("count", list(RAND_BASELINE_DIGESTS))
def test_rand_baseline_matches_pinned_digest(tmp_path, count):
    result = run_rand_baseline(replace(RunConfig(), count=count, trials=3))
    with open(tmp_path / f"rand_baseline_D{count}.csv", "w", newline="") as fh:
        write_baseline_csv(result, fh)
    assert workloads.dir_digest(tmp_path) == RAND_BASELINE_DIGESTS[count]
