"""Benchmark of the optics-coverage simulator.

    python3 perfbench/run.py --workload sweep|scale|rotation --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics for about S seconds of
operations; with ``--trace 1`` it runs a fixed number of passes untraced and
then traced, and reports per-layer metrics. Outputs are checked in both
modes. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A copy of the result
with the run's stamp, and the spans of a traced run, go to ``perfbench/out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads as wl

SETUP_SAMPLES = 9
SETUP_REF_CODE = "import numpy"
SETUP_REF_S = 0.15
MIN_REPEATS = 2
OUT = wl.BENCH_DIR / "out"

def _child_seconds(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=wl.ROOT, check=True)
    return time.perf_counter() - start


def measure_setups(name: str, seed: int) -> list[tuple[float, float]]:
    """(scaled, raw) wall seconds of fresh interpreters that import the
    package and generate one pass of the workload's deployments.

    Start-up is file and loader work more than interpreter work, so the
    calibration is a bare interpreter importing numpy, run between the
    samples; each sample is scaled to a machine where that takes
    SETUP_REF_S.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(wl.BENCH_DIR)!r}); "
        f"import workloads; workloads.generate_inputs({name!r}, {seed})"
    )
    before = _child_seconds(SETUP_REF_CODE)
    samples = []
    for _ in range(SETUP_SAMPLES):
        raw = _child_seconds(code)
        after = _child_seconds(SETUP_REF_CODE)
        samples.append((raw * SETUP_REF_S * 2 / (before + after), raw))
        before = after
    return samples


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with ten samples or fewer, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_repeats(spec: wl.Spec, seed: int, seconds: int, workdir: Path) -> list[list[wl.PassResult]]:
    """Repeat the workload's distinct passes until their operations have
    taken ``seconds`` in total, and at least MIN_REPEATS times."""
    repeats: list[list[wl.PassResult]] = []
    elapsed = 0.0
    while elapsed < seconds or len(repeats) < MIN_REPEATS:
        repeats.append([wl.run_pass(spec, seed, k, workdir) for k in range(spec.passes)])
        elapsed += sum(op.seconds for p in repeats[-1] for op in p.ops)
    for k, digests in enumerate(zip(*([p.digest for p in r] for r in repeats))):
        if len(set(digests)) > 1:
            repeats[-1][k].ops[-1].problems.append(f"pass {k} is not reproducible: {digests}")
    return repeats


def untraced_run(spec: wl.Spec, seed: int, seconds: int, workdir: Path, info: dict) -> tuple:
    setups = measure_setups(spec.name, seed)
    repeats = run_repeats(spec, seed, seconds, workdir)
    ops = [op for r in repeats for p in r for op in p.ops]
    # an operation's latency is its mean over the repeats, which run the
    # same inputs; percentiles are over the distinct operations
    same_op = list(zip(*([op for p in r for op in p.ops] for r in repeats)))
    latencies = [statistics.fmean(op.normalized for op in group) for group in same_op]
    tail_s, tail_pct = tail(latencies)
    # coverage over one repeat: the repeats simulate the same inputs
    first = [op for p in repeats[0] for op in p.ops]
    grid = [v for op in first for v in op.grid_cr]
    ratio = [v for op in first for v in op.ratio_r]
    node_rounds = sum(op.node_rounds for op in ops)
    metrics = {
        "node_rounds_per_s": node_rounds / sum(op.normalized for op in ops),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "setup_s": statistics.median(n for n, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "grid_cr_mean": statistics.fmean(grid),
        "active_ratio_mean": statistics.fmean(ratio),
    }
    raw = [statistics.fmean(op.seconds for op in group) for group in same_op]
    info.update(
        repeats=len(repeats),
        ops=len(latencies),
        op_tail_percentile=tail_pct,
        kernel_s_median=statistics.median(op.kernel_s for op in ops),
        raw={
            "node_rounds_per_s": node_rounds / sum(op.seconds for op in ops),
            "op_p50_s": statistics.median(raw),
            "op_tail_s": tail(raw)[0],
            "setup_s": statistics.median(r for _, r in setups),
        },
        setup_samples=setups,
        latencies=[[(op.seconds, op.kernel_s) for p in r for op in p.ops] for r in repeats],
    )
    return [p for r in repeats for p in r], metrics


def traced_run(spec: wl.Spec, seed: int, workdir: Path, info: dict) -> tuple:
    # no in-operation probe on either side: its handler would run inside spans
    untraced = [wl.run_pass(spec, seed, k, workdir, probe=False) for k in range(spec.passes)]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = [
            wl.run_pass(spec, seed, k, workdir, tracer.op(f"{spec.name}:{seed}:pass{k}"), False)
            for k in range(spec.passes)
        ]
    for k, (plain, wrapped) in enumerate(zip(untraced, traced)):
        if plain.digest != wrapped.digest:
            wrapped.ops[-1].problems.append(f"pass {k}: traced digest differs from untraced")
    plain_s = sum(op.normalized for p in untraced for op in p.ops)
    traced_s = sum(op.normalized for p in traced for op in p.ops)
    metrics = tracing.layer_metrics(tracer)
    metrics["experiments.artifact_bytes"] = sum(op.artifact_bytes for p in traced for op in p.ops)
    # same passes on both sides, so the throughput ratio is a time ratio
    metrics["trace.overhead_ratio"] = plain_s / traced_s
    metrics["reference.ckdtree_pairs.s"], metrics["reference.ckdtree_pairs"] = (
        wl.ckdtree_reference()
    )
    spans_file = OUT / f"spans-{spec.name}-seed{seed}.jsonl"
    tracer.write(spans_file)
    info.update(passes=spec.passes, spans=len(tracer.spans), spans_file=spans_file.name)
    return untraced + traced, metrics


def stamp(spec: wl.Spec, seed: int, args) -> dict:
    import numpy

    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "params": spec.stamp(),
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    spec = wl.SPECS[args.workload]
    with open(wl.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    # one CPU for the benchmark and its set-up children, so the calibration
    # kernel measures the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    info: dict = {}
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            passes, metrics = traced_run(spec, args.seed, workdir, info)
        else:
            passes, metrics = untraced_run(spec, args.seed, args.seconds, workdir, info)
        ops = [op for p in passes for op in p.ops]
        problems = [p for op in ops for p in op.problems]
        attempted, failed = len(ops), sum(1 for op in ops if op.problems)
        reference = wl.recorded_digests()[spec.name]
        if spec.name == "sweep":
            attempted += 1
            try:
                got = wl.reference_sweep(workdir)
            except Exception as exc:  # counted as a failed operation below
                got = f"{type(exc).__name__}: {exc}"
        else:
            got = passes[0].digest
        if got != reference:
            failed += 1
            problems.append(f"reference digest {got} != recorded {reference}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"stamp": stamp(spec, args.seed, args), "info": info, "problems": problems[:50]}
    with open(OUT / f"{spec.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)

    for p in problems[:10]:
        print(f"FAILED CHECK: {p}")
    print(json.dumps(record["stamp"]))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    if not args.trace:
        print(
            f"op_tail_s is p{info['op_tail_percentile']:.1f} of {info['ops']} operations,"
            f" each the mean of {info['repeats']} repeats"
        )
        print(
            f"times scaled by {wl.KERNEL_REF_S} s / kernel seconds per iteration"
            f" (median {info['kernel_s_median']:.4g} s); unscaled: "
            + ", ".join(f"{k} {v:.6g}" for k, v in info["raw"].items())
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
