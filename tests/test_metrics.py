import io
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from optics_coverage.metrics import (
    active_ratio,
    analytic_cr,
    coverage_grid,
    grid_cr,
    summarize_experiment,
    write_coverage_grid_csv,
    write_table_csv,
)


def random_columns(n, rng, span=50.0):
    """x and y coordinate lists of ``n`` uniform points."""
    points = [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(n)]
    return [x for x, _ in points], [y for _, y in points]


def reference_coverage_grid(x, y, radius, region, resolution):
    """Every cell center tested against every disc, one pair at a time."""
    width, height = region
    grid = np.zeros((resolution, resolution), dtype=bool)
    for i in range(resolution):
        cx = (i + 0.5) * (width / resolution)
        for j in range(resolution):
            cy = (j + 0.5) * (height / resolution)
            for px, py in zip(x, y):
                dx, dy = cx - px, cy - py
                if dx * dx + dy * dy <= radius * radius:
                    grid[i, j] = True
                    break
    return grid


# single discs on 1 m cells where the sqrt estimate of a run's end is a
# row off, so that end must move: its low end out and in, its high end out
# and in
MISPLACED_RUN_ENDS = [
    ([26.5], [23.199411333417995], 6.040627137418228, (40.0, 40.0), 40),
    ([20.5], [31.03207457590068], 9.532074575900678, (40.0, 40.0), 40),
    ([26.5], [16.567509677663402], 6.0720291666996635, (40.0, 40.0), 40),
    ([20.5], [3.936942869615969], 13.56305713038403, (40.0, 40.0), 40),
]

# one disc on a 10 x 10 grid whose cell (2, 0) has its center at
# nextafter(py - radius, -inf), yet passes the exact test
EDGE_FIELD = ([2.5], [95.84279387631881], 87.71561489852716, (10.0, 162.54357955583285), 10)

# a region with a side that is not positive and finite
BAD_REGIONS = [(-50.0, 50.0), (0.0, 50.0), (50.0, 0.0), (math.nan, 50.0), (50.0, math.inf)]


@st.composite
def grid_fields(draw):
    """Discs of one radius, from 0.01 m to wider than the region, centered
    inside it, on its edges or beyond them; zero discs allowed. Half the
    fields are aligned: cells a quarter-meter multiple wide, radii a
    multiple of half a cell, and centers on cell edges or cell centers, so
    that disc edges land exactly on cell centers."""
    resolution = draw(st.integers(10, 60))
    if draw(st.booleans()):
        side = st.integers(1, 8).map(lambda k: k * resolution / 4)
        width, height = draw(side), draw(side)
        radius = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 5.0])) * (width / resolution)

        def coordinate(span):
            # in half cells: even on a cell edge, odd on a cell center
            halves = st.integers(-2 * resolution, 4 * resolution)
            return halves.map(lambda h: h / 2 * (span / resolution))

    else:
        side = st.floats(1.0, 100.0)
        width, height = draw(side), draw(side)
        radius = draw(st.floats(0.01, 1.5 * max(width, height)))

        def coordinate(span):
            return st.floats(-span, 2 * span) | st.sampled_from([0.0, span, -radius, span + radius])

    discs = draw(st.lists(st.tuples(coordinate(width), coordinate(height)), max_size=12))
    return [px for px, _ in discs], [py for _, py in discs], radius, (width, height), resolution


class TestActiveRatio:
    def test_table_first_row(self):
        assert active_ratio(33, 100) == 33

    def test_fractional(self):
        assert active_ratio(152, 500) == pytest.approx(30.4)

    def test_zero(self):
        assert active_ratio(0, 100) == 0

    def test_bad_deployed(self):
        with pytest.raises(ValueError):
            active_ratio(1, 0)

    @pytest.mark.parametrize("name", ["active", "deployed"])
    @pytest.mark.parametrize("value", [math.nan, 2.5, 5.0, True])
    def test_counts_must_be_ints(self, name, value):
        counts = {"active": 5, "deployed": 100, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            active_ratio(**counts)

    def test_numpy_int_counts_accepted(self):
        assert active_ratio(np.int64(33), np.int32(100)) == 33


class TestAnalyticCr:
    def test_reference_value(self):
        assert analytic_cr(31, 5, 2500) == pytest.approx(97.389, abs=0.001)

    def test_zero_actives(self):
        assert analytic_cr(0, 5, 2500) == 0

    def test_uncapped_above_100(self):
        assert analytic_cr(32, 5, 2500) == pytest.approx(100.531, abs=0.001)

    def test_linear_in_active_count(self):
        one = analytic_cr(1, 5, 2500)
        for k in (2, 7, 40):
            assert analytic_cr(k, 5, 2500) == pytest.approx(k * one)

    @pytest.mark.parametrize("active", [math.nan, 2.5, 31.0, True])
    def test_active_must_be_an_int(self, active):
        with pytest.raises(ValueError, match="active must be an int"):
            analytic_cr(active, 5, 2500)

    def test_numpy_int_active_accepted(self):
        assert analytic_cr(np.int64(31), 5, 2500) == analytic_cr(31, 5, 2500)

    @pytest.mark.parametrize("name", ["radius", "area"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_radius_and_area_positive_and_finite(self, name, value):
        args = {"radius": 5.0, "area": 2500.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            analytic_cr(1, **args)


class TestGridCr:
    def test_full_cover(self):
        assert grid_cr([25], [25], 40, (50, 50), 200) == 100

    def test_no_discs(self):
        assert grid_cr([], [], 5, (50, 50), 200) == 0

    def test_single_interior_disc(self):
        estimate = grid_cr([25], [25], 5, (50, 50), 500)
        assert estimate == pytest.approx(100 * math.pi * 25 / 2500, abs=0.1)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            grid_cr([], [], 5, (50, 50), 9)

    @pytest.mark.parametrize("resolution", [10.5, 50.0, "50", True])
    @pytest.mark.parametrize("measure", [grid_cr, coverage_grid])
    def test_resolution_must_be_an_int(self, measure, resolution):
        with pytest.raises(ValueError, match="resolution must be an int"):
            measure([25.0], [25.0], 5, (50, 50), resolution)

    def test_numpy_int_resolution_accepted(self):
        assert grid_cr([25.0], [25.0], 5, (50, 50), np.int64(200)) == grid_cr(
            [25.0], [25.0], 5, (50, 50), 200
        )

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("measure", [grid_cr, coverage_grid])
    def test_disc_centers_must_be_finite(self, measure, axis, bad):
        centers = {"x": [25.0, 10.0], "y": [25.0, 10.0]}
        centers[axis][1] = bad
        with pytest.raises(ValueError, match="disc centers must be finite"):
            measure(centers["x"], centers["y"], 5, (50, 50), 50)

    def test_convergence_with_resolution(self):
        rng = random.Random(31)
        x, y = random_columns(30, rng)
        coarse = grid_cr(x, y, 5, (50, 50), 500)
        fine = grid_cr(x, y, 5, (50, 50), 1000)
        assert abs(coarse - fine) < 0.5

    def test_disc_outside_region_ignored(self):
        assert grid_cr([200], [200], 5, (50, 50), 100) == 0

    @given(grid_fields())
    @example(MISPLACED_RUN_ENDS[0])
    @example(MISPLACED_RUN_ENDS[1])
    @example(MISPLACED_RUN_ENDS[2])
    @example(MISPLACED_RUN_ENDS[3])
    @settings(max_examples=200, deadline=None)
    def test_matches_per_cell_reference(self, field):
        # the counted runs give the float the painted raster's mean gives
        assert grid_cr(*field) == 100.0 * reference_coverage_grid(*field).mean()

    @pytest.mark.parametrize("region", BAD_REGIONS)
    def test_region_sides_positive_and_finite(self, region):
        with pytest.raises(ValueError, match="region sides"):
            grid_cr([25], [25], 5, region, 64)

    def test_never_exceeds_capped_analytic(self):
        rng = random.Random(77)
        for trial in range(5):
            n = rng.randint(20, 60)
            g = grid_cr(*random_columns(n, rng), 5, (50, 50), 500)
            a = analytic_cr(n, 5, 2500)
            assert g <= min(100.0, a)


class TestCoverageGrid:
    def test_shape_and_dtype(self):
        grid = coverage_grid([], [], 5, (50, 50), 64)
        assert grid.shape == (64, 64)
        assert grid.dtype == bool

    def test_boundary_inclusive(self):
        # cell centers sit at 0.5, 1.5, ...: (1.5, 0.5) is exactly r = 1 away
        grid = coverage_grid([0.5], [0.5], 1.0, (10, 10), 10)
        assert grid[0, 0] and grid[1, 0] and grid[0, 1]
        assert not grid[1, 1]
        assert grid.sum() == 3

    @pytest.mark.parametrize("transposed", [False, True])
    def test_exact_test_decides_one_float_past_the_edge(self, transposed):
        # the center of cell (2, 0) lies one float below py - radius, though
        # its dx * dx + dy * dy rounds to radius * radius: the exact test
        # covers it, along y and, with the field transposed, along x
        x, y, radius, (width, height), resolution = EDGE_FIELD
        field = EDGE_FIELD
        if transposed:
            field = (y, x, radius, (height, width), resolution)
        grid = coverage_grid(*field)
        assert (grid == reference_coverage_grid(*field)).all()
        assert grid[(0, 2) if transposed else (2, 0)]
        assert grid.sum() == 91 and grid_cr(*field) == 91.0

    @pytest.mark.parametrize("radius", [0, -5, math.nan, math.inf])
    def test_radius_positive(self, radius):
        with pytest.raises(ValueError, match="radius"):
            coverage_grid([25], [25], radius, (50, 50), 64)

    @pytest.mark.parametrize("region", BAD_REGIONS)
    def test_region_sides_positive_and_finite(self, region):
        with pytest.raises(ValueError, match="region sides"):
            coverage_grid([25], [25], 5, region, 64)

    @pytest.mark.parametrize("x, y", [([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0]), ([], [1.0])])
    def test_x_and_y_need_one_entry_per_disc(self, x, y):
        # zip would drop the unmatched coordinates and their discs
        with pytest.raises(ValueError, match="one entry per disc"):
            coverage_grid(x, y, 5, (50, 50), 64)

    @given(grid_fields())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_cell_reference(self, field):
        assert (coverage_grid(*field) == reference_coverage_grid(*field)).all()

    def test_csv_export(self):
        grid = coverage_grid([5], [5], 4, (10, 10), 10)
        buf = io.StringIO()
        write_coverage_grid_csv(grid, buf)
        rows = buf.getvalue().strip().splitlines()
        assert len(rows) == 10
        parsed = np.array([[int(v) for v in row.split(",")] for row in rows])
        assert parsed.sum() == grid.sum()
        assert set(np.unique(parsed)) <= {0, 1}


TABLE_TRIALS = {
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
EXPECTED_N = {100: 33, 150: 54, 200: 59, 250: 69, 300: 82, 350: 97, 400: 122, 450: 134, 500: 152}
EXPECTED_R = {100: 33, 150: 36, 200: 30, 250: 28, 300: 28, 350: 28, 400: 31, 450: 30, 500: 31}


class TestSummarizeExperiment:
    def test_first_row(self):
        summary = summarize_experiment({100: (27, 32, 40)})
        row = summary.rows[0]
        assert row.n_display == 33
        assert row.r_display == 33

    def test_fourth_row(self):
        summary = summarize_experiment({250: (58, 63, 86)})
        row = summary.rows[0]
        assert row.n_display == 69
        assert row.r_display == 28

    def test_single_trial_passthrough(self):
        summary = summarize_experiment({300: (81,)})
        assert summary.rows[0].n_display == 81

    def test_full_table_reproduced(self):
        summary = summarize_experiment(TABLE_TRIALS)
        for row in summary.rows:
            assert row.n_display == EXPECTED_N[row.deployed], row
            assert row.r_display == EXPECTED_R[row.deployed], row
        assert summary.r_avg == pytest.approx(30.5555, abs=1e-3)
        assert math.floor(summary.r_avg * 100) / 100 == 30.55
        assert summary.r_avg_display == 31

    def test_rows_sorted_by_size(self):
        summary = summarize_experiment({300: (1,), 100: (1,), 200: (1,)})
        assert [r.deployed for r in summary.rows] == [100, 200, 300]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_experiment({})
        with pytest.raises(ValueError):
            summarize_experiment({100: ()})

    def test_csv_layout(self):
        summary = summarize_experiment(TABLE_TRIALS)
        buf = io.StringIO()
        write_table_csv(summary, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "D,n1,n2,n3,N,R"
        assert lines[1] == "100,27,32,40,33,33"
        assert lines[-1] == "R_avg,,,,30.55,31"
