"""Simulated outputs stay byte-identical to the benchmark's recorded digests.

The benchmark's workload module is loaded read-only; its ``digests.json``
holds the digests of the default ``optics-coverage run`` artifacts and of the
per-round active ids of the reference 5,000-node round. (The 24-round
rotation digest is left to the benchmark run: it takes too long here.)
"""

import importlib.util
import sys
from pathlib import Path

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
