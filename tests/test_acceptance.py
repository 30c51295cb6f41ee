"""End-to-end acceptance checks for the toolkit.

One test per criterion; each prints a PASS/FAIL line so the suite doubles
as a checklist. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from optics_coverage.config import RunConfig
from optics_coverage.experiments import run_rand_baseline
from optics_coverage.geometry import Point2D, overlap_angle
from optics_coverage.metrics import RoundReport, analytic_cr, grid_cr, summarize_experiment
from optics_coverage.network import Deployment, generate_deployment
from optics_coverage.optics import OpticsParams, extract_clusters
from optics_coverage.protocol import iterate_rounds

from optics_reference import order_points, reference_optics

REFERENCE_TRIALS = {
    100: (27, 32, 40),
    150: (49, 51, 62),
    200: (53, 57, 67),
    250: (58, 63, 86),
    300: (77, 82, 87),
    350: (91, 95, 104),
    400: (109, 127, 130),
    450: (121, 128, 152),
    500: (140, 152, 163),
}
REFERENCE_N = {100: 33, 150: 54, 200: 59, 250: 69, 300: 82, 350: 97, 400: 122, 450: 134, 500: 152}
REFERENCE_R = {100: 33, 150: 36, 200: 30, 250: 28, 300: 28, 350: 28, 400: 31, 450: 30, 500: 31}


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    return ok


FRACTION_FLOOR = 22  # percent; also the size of the random comparison subset
FRACTION_CEILING = 42.0


@dataclass(frozen=True)
class BandRun:
    seed: int
    deployment: Deployment
    report: RoundReport


def _run_band_sweep(config: RunConfig) -> dict[int, list[BandRun]]:
    """First round of 3 seeded trials per deployment size, keyed by size."""
    params = config.optics_params()
    proto = config.protocol_config()
    sweep = {}
    for deployed in config.d_list:
        runs = []
        for trial in range(3):
            seed = config.seed + trial
            dep = generate_deployment(
                deployed, config.width, config.height, config.radius, seed
            )
            _, report = next(iter(iterate_rounds(dep, params, proto, 1)))
            runs.append(BandRun(seed, dep, report))
        sweep[deployed] = runs
    return sweep


@pytest.fixture(scope="module")
def band_sweep():
    """The default configuration's sweep, shared by the statistical-band and
    coverage-honesty criteria, with the time it took."""
    config = RunConfig()
    started = time.perf_counter()
    sweep = _run_band_sweep(config)
    return config, sweep, time.perf_counter() - started


def _random_floor_grid_cr(config: RunConfig, run: BandRun) -> float:
    """Grid coverage of a uniformly random ceil(22% of D) subset of the
    run's deployment, drawn from criterion 9's per-seed stream."""
    ids = [n.id for n in run.deployment.nodes]
    k = -(-FRACTION_FLOOR * len(ids) // 100)
    picked = random.Random(run.seed * 1_000_003 + 17).sample(ids, k)
    slots = run.deployment.slots(picked)
    return grid_cr(
        run.deployment.x[slots], run.deployment.y[slots], config.radius, (config.width, config.height), config.grid_resolution
    )


@dataclass(frozen=True)
class SizeBand:
    deployed: int
    counts: list[int]
    fraction: float
    protocol_cr: float
    random_cr: float

    @property
    def failure(self) -> str | None:
        """Why this size breaks criterion 3's per-size band, or None.

        Above the ceiling always fails. Below the floor fails only when the
        protocol covers less of the field than a random floor-sized subset:
        fewer actives are the aim, holes are not.
        """
        if self.fraction > FRACTION_CEILING:
            return f"D={self.deployed}: {self.fraction:.1f}% > {FRACTION_CEILING:.0f}%"
        if self.fraction < FRACTION_FLOOR and self.protocol_cr < self.random_cr:
            return (
                f"D={self.deployed}: {self.fraction:.1f}% < {FRACTION_FLOOR}% "
                f"with grid CR {self.protocol_cr:.1f}% < random-22% {self.random_cr:.1f}%"
            )
        return None

    def line(self) -> str:
        if self.failure is not None:
            status = "FAILS the band"
        elif self.fraction < FRACTION_FLOOR:
            status = "below 22%, covers >= random-22%"
        else:
            status = "in [22, 42]"
        return (
            f"    D={self.deployed:4d} actives={self.counts} "
            f"fraction={self.fraction:5.1f}% protocol CR={self.protocol_cr:5.1f}% "
            f"random-22% CR={self.random_cr:5.1f}% {status}"
        )


def _size_bands(config: RunConfig, sweep: dict[int, list[BandRun]]) -> list[SizeBand]:
    """Criterion 3's per-size means: active fraction, protocol grid coverage
    and the grid coverage of a random 22% subset of the same deployments."""
    bands = []
    for deployed, runs in sorted(sweep.items()):
        counts = [run.report.active_count for run in runs]
        bands.append(
            SizeBand(
                deployed=deployed,
                counts=counts,
                fraction=100.0 * sum(counts) / (len(counts) * deployed),
                protocol_cr=sum(run.report.grid_cr for run in runs) / len(runs),
                random_cr=sum(_random_floor_grid_cr(config, run) for run in runs)
                / len(runs),
            )
        )
    return bands


def test_criterion_1_summary_table_arithmetic_exact():
    summary = summarize_experiment(REFERENCE_TRIALS)
    mismatches = []
    for row in summary.rows:
        if row.n_display != REFERENCE_N[row.deployed]:
            mismatches.append(f"N[{row.deployed}]={row.n_display}")
        if row.r_display != REFERENCE_R[row.deployed]:
            mismatches.append(f"R[{row.deployed}]={row.r_display}")
    truncated = math.floor(summary.r_avg * 100) / 100
    if truncated != 30.55:
        mismatches.append(f"r_avg={summary.r_avg}")
    if summary.r_avg_display != 31:
        mismatches.append(f"r_avg_display={summary.r_avg_display}")
    ok = _verdict(
        "criterion 1: summary-table arithmetic bit-exact",
        not mismatches,
        "all N, R, R_avg values reproduced" if not mismatches else "; ".join(mismatches),
    )
    assert ok


def test_criterion_2_analytic_coverage_reference_value():
    value = analytic_cr(31, 5, 2500)
    ok = _verdict(
        "criterion 2: analytic coverage ratio at 31 actives",
        abs(value - 97.389) <= 0.001,
        f"analytic_cr(31, 5, 2500) = {value:.4f}",
    )
    assert ok


def test_criterion_3_active_fraction_bands(band_sweep):
    config, sweep, elapsed = band_sweep
    print(f"    sweep of 27 seeded runs took {elapsed:.1f}s (target < 60s)")
    bands = _size_bands(config, sweep)
    failures = []
    for band in bands:
        print(band.line())
        if band.failure is not None:
            failures.append(band.failure)
    grand = sum(band.fraction for band in bands) / len(bands)
    grand_ok = 25.0 <= grand <= 38.0
    print(f"    grand mean = {grand:.2f}% {'in' if grand_ok else 'OUT OF'} [25, 38]")
    if not grand_ok:
        failures.append(f"grand mean {grand:.2f}%")
    ok = _verdict(
        "criterion 3: per-size active fraction <= 42%, and >= 22% unless grid "
        "coverage >= a random 22% subset's; grand mean in [25, 38]",
        not failures,
        "all bands hold" if not failures else "; ".join(failures),
    )
    assert ok


@pytest.mark.parametrize(
    "override, failing_sizes",
    [
        ({"eps_prime": 2.0}, [100, 150, 200, 250, 300, 350, 500]),
        ({"theta": 0.5}, [400, 450, 500]),
    ],
    ids=["eps_prime=2.0", "theta=0.5"],
)
def test_criterion_3_floor_rejects_under_activating_protocols(override, failing_sizes):
    """The coverage condition on the floor still catches a protocol that
    saves sensors by leaving holes."""
    config = replace(RunConfig(), **override)
    bands = _size_bands(config, _run_band_sweep(config))
    failed = [band.deployed for band in bands if band.failure is not None]
    ok = _verdict(
        f"criterion 3 guard: {override} breaks the per-size band",
        failed == failing_sizes,
        f"fails at D={failed}",
    )
    assert ok


def test_criterion_4_ordering_matches_bruteforce_reference():
    rng = random.Random(2024)
    mismatched = 0
    for _ in range(200):
        n = rng.randint(2, 50)
        span = rng.uniform(5, 30)
        points = {
            i: Point2D(rng.uniform(0, span), rng.uniform(0, span)) for i in range(n)
        }
        eps = rng.uniform(1, 10)
        min_pts = rng.randint(1, 6)
        got = order_points(points, OpticsParams(eps=eps, min_pts=min_pts))
        expected = reference_optics(
            {i: (p.x, p.y) for i, p in points.items()}, eps, min_pts
        )
        if [(o.point_id, o.reachability, o.core_distance) for o in got] != expected:
            mismatched += 1
    ok = _verdict(
        "criterion 4: ordering equals brute-force reference on 200 datasets",
        mismatched == 0,
        f"{200 - mismatched}/200 exact matches",
    )
    assert ok


def _blob_points(rng, centers, per_blob=12, spread=1.0):
    points = {}
    for cx, cy in centers:
        for _ in range(per_blob):
            points[len(points)] = Point2D(
                cx + rng.uniform(-spread, spread), cy + rng.uniform(-spread, spread)
            )
    return points


def test_criterion_5_blob_cluster_count_recovery():
    layouts = {
        2: ((10.0, 10.0), (40.0, 40.0)),
        3: ((10.0, 10.0), (40.0, 10.0), (25.0, 40.0)),
    }
    params = OpticsParams(eps=5, min_pts=3)
    wrong = []
    for expected_count, centers in layouts.items():
        for seed in range(50):
            points = _blob_points(random.Random(seed), centers)
            ordering = order_points(points, params)
            assignment = extract_clusters(ordering, eps_prime=4.0)
            if len(assignment.clusters) != expected_count:
                wrong.append((expected_count, seed, len(assignment.clusters)))
    ok = _verdict(
        "criterion 5: blob datasets recover exact cluster counts over 50 seeds",
        not wrong,
        "2-blob and 3-blob both exact" if not wrong else f"mismatches: {wrong[:5]}",
    )
    assert ok


def test_criterion_6_boundary_overlap_against_sampling_oracle():
    r, samples = 5.0, 10**6
    problems = []
    for frac in (0.2, 0.5, 0.8):
        d = frac * 2 * r
        rng = np.random.default_rng(int(frac * 1000))
        angles = rng.uniform(0.0, 2.0 * np.pi, samples)
        inside = ((r * np.cos(angles) - d) ** 2 + (r * np.sin(angles)) ** 2) <= r * r
        sampled = (1.0 - float(inside.mean())) * 2 * math.pi * r
        # the boundary outside the neighbor: the circle less its 2*alpha arc
        exact = 2 * r * (math.pi - overlap_angle(d, r))
        rel_err = abs(exact - sampled) / sampled
        if rel_err > 0.01:
            problems.append(f"d/2r={frac}: rel err {rel_err:.4f}")
    # both arcs of the partition are non-negative: alpha within [0, pi/2]
    for frac in np.linspace(1e-6, 1.0, 1000):
        alpha = overlap_angle(frac * 2 * r, r)
        if not 0 <= alpha <= math.pi / 2:
            problems.append(f"alpha {alpha} outside [0, pi/2] at d/2r={frac:.4f}")
            break
    ok = _verdict(
        "criterion 6: perimeter matches sampling oracle, overlap arc in range",
        not problems,
        "within 1%, alpha in [0, pi/2]" if not problems else "; ".join(problems),
    )
    assert ok


def test_criterion_7_grid_coverage_never_exceeds_analytic(band_sweep):
    _, sweep, _ = band_sweep
    reports = [run.report for runs in sweep.values() for run in runs]
    # add a multi-round run so sleep/wake rounds are covered too
    dep = generate_deployment(300, 50, 50, 5, seed=42)
    config = RunConfig()
    rotation_reports = [
        report
        for _, report in iterate_rounds(
            dep, config.optics_params(), config.protocol_config(), 3
        )
    ]
    violations = [
        f"active={r.active_count}: grid {r.grid_cr:.3f} > min(100, {r.analytic_cr:.3f})"
        for r in reports + rotation_reports
        if r.grid_cr > min(100.0, r.analytic_cr)
    ]
    ok = _verdict(
        "criterion 7: grid coverage <= min(100, analytic) in every round",
        not violations,
        f"{len(reports) + len(rotation_reports)} rounds checked"
        if not violations
        else "; ".join(violations[:3]),
    )
    assert ok


def test_criterion_8_rotation_disjoint_and_battery_drops():
    config = RunConfig()
    dep = generate_deployment(500, 50, 50, 5, seed=config.seed)
    params = config.optics_params()
    proto = config.protocol_config()
    actives = []
    totals = []
    rounds = iterate_rounds(dep, params, proto, 3)
    for state, _ in rounds:
        actives.append(set(state.active))
        totals.append(sum(n.battery for n in dep.nodes))
    problems = []
    for a, b in zip(actives, actives[1:]):
        if a & b:
            problems.append(f"consecutive overlap of {len(a & b)} nodes")
    if not all(x > y for x, y in zip(totals, totals[1:])):
        problems.append(f"battery not strictly decreasing: {totals}")
    if not all(actives):
        problems.append("a round activated nothing")
    ok = _verdict(
        "criterion 8: 3-round rotation at 500 nodes",
        not problems,
        f"active counts {[len(a) for a in actives]}, battery {['%.1f' % t for t in totals]}"
        if not problems
        else "; ".join(problems),
    )
    assert ok


def test_criterion_9_protocol_vs_random_baseline():
    config = RunConfig()
    result = run_rand_baseline(replace(config, count=300, trials=20))
    print("    paired grid coverage (protocol vs random, equal active counts):")
    for pair in result.pairs:
        print(
            f"    trial {pair.trial:2d}: k={pair.active_count:3d}  "
            f"protocol={pair.protocol_grid_cr:6.2f}%  rand={pair.rand_grid_cr:6.2f}%  "
            f"delta={pair.protocol_grid_cr - pair.rand_grid_cr:+6.2f}"
        )
    mean_protocol = result.mean_protocol_cr
    mean_rand = result.mean_rand_cr
    print(f"    means: protocol={mean_protocol:.2f}%  rand={mean_rand:.2f}%")
    ok = _verdict(
        "criterion 9: protocol coverage >= random baseline - 2pp over 20 pairs",
        len(result.pairs) == 20 and mean_protocol >= mean_rand - 2.0,
        f"protocol {mean_protocol:.2f}% vs rand {mean_rand:.2f}%",
    )
    assert ok
