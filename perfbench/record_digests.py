"""Record the reference output digests in perfbench/digests.json.

    python3 perfbench/record_digests.py

``sweep``: the digest of the artifacts of ``optics-coverage run`` at default
settings, taken from two CLI invocations that must agree. ``scale`` and
``rotation``: the digest of the per-round active ids of pass 0, which runs
at the reference seed. Rerun this only when a change is meant to alter
the simulated outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl


def cli_sweep_digest(out: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(wl.SRC)}
    subprocess.run(
        [sys.executable, "-m", "optics_coverage.cli", "run", "--out", str(out)],
        cwd=wl.ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return wl.dir_digest(out)


def main() -> int:
    with tempfile.TemporaryDirectory(dir=wl.BENCH_DIR) as tmp:
        first, second = (cli_sweep_digest(Path(tmp) / f"run{i}") for i in (1, 2))
        if first != second:
            print(f"two default CLI runs disagree: {first} != {second}", file=sys.stderr)
            return 1
        digests = {"sweep": first}
        for name in ("scale", "rotation"):
            result = wl.run_pass(wl.SPECS[name], 0, 0, Path(tmp))
            problems = [p for op in result.ops for p in op.problems]
            if problems:
                print(f"{name}: reference pass failed its checks: {problems[:3]}", file=sys.stderr)
                return 1
            digests[name] = result.digest
    with open(wl.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
