"""Experiment metrics: active-node ratio and coverage-ratio estimates.

Two coverage figures are reported side by side. The analytic one
multiplies disc area by the active count and so ignores overlap and
border clipping (it can exceed 100%); the grid one counts the grid cell
centers in the actual union of discs over the region and is the honest
estimate. Both take the one coverage radius the sensors share, next to
the active count or the active sensors' ``x`` and ``y`` coordinate
arrays.

One test decides whether a disc covers a cell center, ``dx * dx + dy *
dy <= radius * radius``, and one helper applies it: it describes each
disc, column by column, as the run of rows it covers. ``grid_cr`` counts
the union of the runs without painting a raster; ``coverage_grid`` paints
them for the plot export.

Integer display values follow the ceiling convention: the summary table's
N (average actives) and R (percent ratio) round up to whole numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .network import require_count, require_int, require_positive, require_reals

# cells per side of the coverage grid unless a caller asks for another
GRID_RESOLUTION = 500


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
    """Active nodes as a percentage of deployed nodes; ``ValueError``
    unless both counts are ints and ``deployed >= 1``."""
    require_int("active", active)
    require_count("deployed", deployed, 1)
    return 100.0 * active / deployed


def analytic_cr(active: int, radius: float, area: float) -> float:
    """Summed-disc-area coverage percentage, deliberately uncapped.

    Overlap between discs is not subtracted, so values above 100 are
    possible and expose the formula's optimistic bias. ``ValueError``
    unless ``active`` is an int >= 0 and the radius and area are positive
    and finite.
    """
    require_count("active", active, 0)
    radius, area = require_positive("radius", radius), require_positive("area", area)
    return 100.0 * active * math.pi * radius * radius / area


def require_resolution(name: str, value: object) -> None:
    """Reject a grid resolution that is not an int >= 10."""
    require_count(name, value, 10)


def _column_runs(
    x: Sequence[float],
    y: Sequence[float],
    radius: float,
    region: tuple[float, float],
    resolution: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells covered by each disc, as runs: the arrays ``column``,
    ``lo`` and ``hi`` hold one entry per column i a disc covers, covered
    at rows ``lo <= j < hi`` (``lo < hi``). Runs of different discs may
    overlap.

    The region splits into ``resolution`` cells per side, and cell (i, j)
    is covered when its center's offsets dx, dy from a disc's center have
    ``dx * dx + dy * dy <= radius * radius``, in float64; that test alone
    decides. A disc's candidate columns are those whose centers lie within
    ``radius`` of its center along x, widened by one on each side (a
    center one float outside may still pass the test) and clamped to the
    grid. Within a column the rows' dy * dy falls and then rises, so the
    covered rows are one run around the grid row nearest the disc's
    center. A ``sqrt`` estimate of the run's ends only picks where to
    start; each end then moves a row at a time, within the grid, for as
    long as the exact test says it should.
    """
    px, py = require_reals("x of the disc centers", x), require_reals("y of the disc centers", y)
    if len(px) != len(py):
        raise ValueError(f"x and y need one entry per disc, got {len(px)} and {len(py)}")
    radius = require_positive("radius", radius)
    width, height = (require_positive("region sides", side) for side in region)
    require_resolution("resolution", resolution)
    xs = (np.arange(resolution) + 0.5) * (width / resolution)
    ys = (np.arange(resolution) + 0.5) * (height / resolution)
    i0 = np.maximum(np.searchsorted(xs, px - radius, side="left") - 1, 0)
    i1 = np.minimum(np.searchsorted(xs, px + radius, side="right") + 1, resolution)
    # the grid row with the smallest dy * dy: the row nearest the center
    # (k - 1 or k, the lower on a tie)
    k = np.searchsorted(ys, py)
    below, above = np.maximum(k - 1, 0), np.minimum(k, resolution - 1)
    dy_below, dy_above = ys[below] - py, ys[above] - py
    near = np.where(dy_below * dy_below <= dy_above * dy_above, below, above)
    dy = ys[near] - py
    # one entry per candidate column of each disc
    count = i1 - i0
    disc = np.repeat(np.arange(len(px)), count)
    column = np.arange(len(disc)) - np.repeat(np.cumsum(count) - count - i0, count)
    dx = xs[column] - px[disc]
    dx2 = dx * dx
    reach2 = radius * radius
    # a column covers some row iff it covers its nearest one
    keep = dx2 + (dy * dy)[disc] <= reach2
    disc, column, dx2 = disc[keep], column[keep], dx2[keep]
    cy, near = py[disc], near[disc]

    def covers(e, row: np.ndarray) -> np.ndarray:
        dy = ys[row] - cy[e]
        return dx2[e] + dy * dy <= reach2

    # rows from the center, and the center's row, in cells: row j's center
    # lies at (j + 0.5) * cell; fmax/fmin pass over a NaN estimate
    cell = height / resolution
    half = np.sqrt(np.maximum(reach2 - dx2, 0.0)) / cell
    mid = (py / cell - 0.5)[disc]
    lo = np.fmin(np.fmax(np.ceil(mid - half), 0), near).astype(np.intp)
    hi = np.fmin(np.fmax(np.floor(mid + half) + 1, near + 1), resolution).astype(np.intp)
    # the exact test alone decides where a run ends. At the grid's edge a
    # test may read a row outside it (index -1 is the top row, and hi is
    # capped at the last), and the bound masks it out.
    last = resolution - 1
    _walk(lo, -1, lambda e: (lo[e] > 0) & covers(e, lo[e] - 1))
    _walk(lo, 1, lambda e: ~covers(e, lo[e]))
    _walk(hi, 1, lambda e: (hi[e] < resolution) & covers(e, np.minimum(hi[e], last)))
    _walk(hi, -1, lambda e: ~covers(e, hi[e] - 1))
    return column, lo, hi


def _walk(end: np.ndarray, step: int, moves) -> None:
    """Add ``step`` to each ``end[e]`` for as long as ``moves(e)`` holds;
    ``moves`` maps an index array to a mask over it."""
    # the first test reads whole arrays (a slice), not copies
    e = np.flatnonzero(moves(slice(None)))
    while len(e):
        end[e] += step
        e = e[moves(e)]


def coverage_grid(
    x: Sequence[float],
    y: Sequence[float],
    radius: float,
    region: tuple[float, float],
    resolution: int = GRID_RESOLUTION,
) -> np.ndarray:
    """Boolean raster of cell centers covered by at least one disc of
    ``radius`` centered at a point (``x[k]``, ``y[k]``).

    The region splits into ``resolution`` cells per side; element [i, j]
    is the cell at x index i, y index j, covered when its center's offsets
    dx, dy from a disc's center have ``dx * dx + dy * dy <= radius *
    radius``. Each disc's covered cells are found column by column as a
    run of rows, and the runs are painted. ``ValueError`` unless ``x``
    and ``y`` pass ``require_reals`` and are as long, the radius and both
    region sides are positive and finite, and ``resolution`` is an int >= 10.
    """
    column, lo, hi = _column_runs(x, y, radius, region, resolution)
    # +1 at each run's start and -1 past its end, summed along each column
    starts = column * (resolution + 1)
    cells = resolution * (resolution + 1)
    depth = np.bincount(starts + lo, minlength=cells) - np.bincount(starts + hi, minlength=cells)
    return depth.reshape(resolution, resolution + 1).cumsum(axis=1)[:, :resolution] > 0


def grid_cr(
    x: Sequence[float],
    y: Sequence[float],
    radius: float,
    region: tuple[float, float],
    resolution: int = GRID_RESOLUTION,
) -> float:
    """Percentage of grid cell centers covered by discs of ``radius`` at
    the active sensors' coordinates (``x[k]``, ``y[k]``): the same cells
    and the same float as ``100 * coverage_grid(...).mean()``, counted
    from the union of each column's runs without painting a raster.
    ``ValueError`` as for ``coverage_grid``.
    """
    column, lo, hi = _column_runs(x, y, radius, region, resolution)
    # cell (i, j) as the number i * resolution + j: runs of different
    # columns never overlap
    start, stop = column * resolution + lo, column * resolution + hi
    order = np.argsort(start)
    start, stop = start[order], stop[order]
    # each run adds its cells past the furthest end of the runs before it
    reached = np.maximum.accumulate(stop)
    reached = np.concatenate(([0], reached[:-1]))
    count = int(np.maximum(stop - np.maximum(start, reached), 0).sum())
    return 100.0 * (count / resolution**2)


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


def summarize_experiment(trials: Mapping[int, Sequence[int]]) -> ExperimentSummary:
    """Build the deployment-size vs active-count summary table.

    ``trials`` maps deployment size (an int >= 1) to that size's
    per-trial active counts (ints >= 0), ``ValueError`` otherwise or with
    no size or no trials. Row values: N = ceil(mean of counts), R =
    ceil(100 * N / D); the overall average ratio is the mean of the R column.
    """
    if not trials:
        raise ValueError("need at least one deployment size")
    for deployed, counts in trials.items():
        require_count("deployment size", deployed, 1)
        for count in counts:
            require_count("active count", count, 0)
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

