"""Experiment metrics: active-node ratio and coverage-ratio estimates.

Two coverage figures are reported side by side. The analytic one
multiplies disc area by the active count and so ignores overlap and
border clipping (it can exceed 100%); the grid one rasterizes the actual
union of discs over the region and is the honest estimate. Both take the
one coverage radius the sensors share, next to the active count or the
active sensors' ``x`` and ``y`` coordinate arrays.

Integer display values follow the ceiling convention: the summary table's
N (average actives) and R (percent ratio) round up to whole numbers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class RoundReport:
    """Per-round metrics. Ratios and coverage figures are percentages."""

    deployed_count: int
    active_count: int
    ratio_r: float
    analytic_cr: float
    grid_cr: float


@dataclass(frozen=True)
class TableRow:
    """One deployment-size row of the experiment summary."""

    deployed: int
    trials: tuple[int, ...]
    n_display: int
    r_display: int


@dataclass(frozen=True)
class ExperimentSummary:
    rows: tuple[TableRow, ...]
    r_avg: float
    r_avg_display: int


def active_ratio(active: int, deployed: int) -> float:
    """Active nodes as a percentage of deployed nodes."""
    if deployed < 1:
        raise ValueError(f"deployed must be >= 1, got {deployed}")
    return 100.0 * active / deployed


def analytic_cr(active: int, radius: float, area: float) -> float:
    """Summed-disc-area coverage percentage, deliberately uncapped.

    Overlap between discs is not subtracted, so values above 100 are
    possible and expose the formula's optimistic bias.
    """
    if active < 0:
        raise ValueError(f"active must be >= 0, got {active}")
    if radius <= 0 or area <= 0:
        raise ValueError("radius and area must be positive")
    return 100.0 * active * math.pi * radius * radius / area


def coverage_grid(
    x: Sequence[float],
    y: Sequence[float],
    radius: float,
    region: tuple[float, float],
    resolution: int = 500,
) -> np.ndarray:
    """Boolean raster of cell centers covered by at least one disc of
    ``radius`` centered at a point (``x[k]``, ``y[k]``).

    The region splits into ``resolution`` cells per side; element [i, j]
    is the cell at x index i, y index j, covered when its center's offsets
    dx, dy from a disc's center have ``dx * dx + dy * dy <= radius *
    radius``. ``x`` and ``y`` must be as long.
    """
    if len(x) != len(y):
        raise ValueError(f"x and y need one entry per disc, got {len(x)} and {len(y)}")
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if resolution < 10:
        raise ValueError(f"resolution must be >= 10, got {resolution}")
    width, height = region
    xs = (np.arange(resolution) + 0.5) * (width / resolution)
    ys = (np.arange(resolution) + 0.5) * (height / resolution)
    covered = np.zeros((resolution, resolution), dtype=bool)
    px, py = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    # each disc's window of cell indices, [i0, i1) x [j0, j1)
    i0 = np.searchsorted(xs, px - radius, side="left")
    i1 = np.searchsorted(xs, px + radius, side="right")
    j0 = np.searchsorted(ys, py - radius, side="left")
    j1 = np.searchsorted(ys, py + radius, side="right")
    hit = np.flatnonzero((i0 < i1) & (j0 < j1))
    if not len(hit):
        return covered
    px, py, i0, i1, j0, j1 = px[hit], py[hit], i0[hit], i1[hit], j0[hit], j1[hit]
    # each disc's squared offsets (xs[i] - px)**2 and (ys[j] - py)**2, w
    # of them from its window's start, w the widest window (the axes padded
    # by w): len(hit) * w * 16 bytes. A cell then adds the same two squares
    # that dx * dx + dy * dy would.
    w = int(max((i1 - i0).max(), (j1 - j0).max()))
    pad = np.zeros(w)
    sx = sliding_window_view(np.concatenate((xs, pad)), w)[i0]
    sx -= px[:, None]
    sx *= sx
    sy = sliding_window_view(np.concatenate((ys, pad)), w)[j0]
    sy -= py[:, None]
    sy *= sy
    reach2 = radius * radius
    windows = zip(i0.tolist(), i1.tolist(), j0.tolist(), j1.tolist(), sx, sy)
    for a, b, c, d, dx2, dy2 in windows:
        covered[a:b, c:d] |= dx2[: b - a, None] + dy2[None, : d - c] <= reach2
    return covered


def grid_cr(
    x: Sequence[float],
    y: Sequence[float],
    radius: float,
    region: tuple[float, float],
    resolution: int = 500,
) -> float:
    """Percentage of grid cell centers covered by discs of ``radius`` at
    the active sensors' coordinates (``x[k]``, ``y[k]``)."""
    return 100.0 * float(coverage_grid(x, y, radius, region, resolution).mean())


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


def summarize_experiment(trials: Mapping[int, Sequence[int]]) -> ExperimentSummary:
    """Build the deployment-size vs active-count summary table.

    ``trials`` maps deployment size to that size's per-trial active
    counts. Row values: N = ceil(mean of counts), R = ceil(100 * N / D);
    the overall average ratio is the mean of the R column.
    """
    if not trials:
        raise ValueError("need at least one deployment size")
    rows = []
    for deployed in sorted(trials):
        counts = tuple(int(c) for c in trials[deployed])
        if not counts:
            raise ValueError(f"deployment size {deployed} has no trials")
        n_display = _ceil_div(sum(counts), len(counts))
        r_display = _ceil_div(100 * n_display, deployed)
        rows.append(
            TableRow(
                deployed=deployed,
                trials=counts,
                n_display=n_display,
                r_display=r_display,
            )
        )
    r_avg = sum(row.r_display for row in rows) / len(rows)
    return ExperimentSummary(tuple(rows), r_avg, math.ceil(r_avg))


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
    writer = csv.writer(out)
    for j in range(grid.shape[1]):
        writer.writerow(grid[:, j].astype(int).tolist())
