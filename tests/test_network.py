import inspect
import io
import json
import math
import random
import re
import weakref
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.vendor.pretty import pretty
from network_reference import (
    reference_draws,
    reference_rows,
    reference_table,
    table_degree,
    table_row,
)
from optics_reference import points_table
from protocol_reference import write_state

from optics_coverage import network
from optics_coverage.config import RunConfig
from optics_coverage.experiments import write_trace
from optics_coverage.geometry import Point2D, overlap_angle
from optics_coverage.network import (
    ACTIVE,
    DEAD,
    IDLE,
    SLEEPING,
    Deployment,
    NeighborTable,
    _cell_ranks,
    build_neighbor_table,
    cell_side,
    generate_deployment,
    neighbor_rows,
)
from optics_coverage.metrics import analytic_cr, coverage_grid, grid_cr
from optics_coverage.optics import OpticsParams, Ordering, extract_clusters
from optics_coverage.protocol import AllNodesDeadError, ProtocolConfig, iterate_rounds, run_round
from optics_coverage.spatial import GridIndex


def make_deployment(positions, radius=5.0, battery=1.0, ids=None):
    ids = range(len(positions)) if ids is None else ids
    x, y = [x for x, _ in positions], [y for _, y in positions]
    return Deployment(ids, x, y, [battery] * len(positions), 100.0, 100.0, radius)


class TestGenerateDeployment:
    def test_reproducible_for_fixed_seed(self):
        a = generate_deployment(100, 50, 50, 5, seed=42)
        b = generate_deployment(100, 50, 50, 5, seed=42)
        for na, nb in zip(a.nodes, b.nodes):
            assert (na.position, na.battery, na.state) == (
                nb.position,
                nb.battery,
                nb.state,
            )

    def test_columns_in_the_draw_order(self):
        # x, y, then battery, node by node: the draws every seeded
        # deployment, and so every recorded digest, rests on
        d = generate_deployment(40, 30, 20, 5, seed=7, battery_range=(0.25, 0.75))
        rng = random.Random(7)
        draws = [
            (rng.uniform(0, 30), rng.uniform(0, 20), rng.uniform(0.25, 0.75)) for _ in range(40)
        ]
        assert d.ids.tolist() == list(range(40))
        assert d.x.dtype == d.y.dtype == np.float64
        assert list(zip(d.x.tolist(), d.y.tolist())) == [(x, y) for x, y, _ in draws]
        assert d.battery.tolist() == [b for _, _, b in draws]
        assert d.state_code.tolist() == [IDLE] * 40

    @pytest.mark.parametrize(
        "battery_range", [(0.5, 1.0), (0.0, 1.0), (0, 0.3), (0.7, 0.7), (1, 1)]
    )
    @pytest.mark.parametrize("sides", [(50, 50), (30, 20.5), (0.1, 1e6)])
    def test_columns_are_rng_uniforms_bit_for_bit(self, sides, battery_range):
        width, height = sides
        for seed in (0, 7, 42, 2**40 + 3):
            for count in (*range(1, 8), 64, 501):
                d = generate_deployment(count, width, height, 5, seed, battery_range)
                x, y, battery = reference_draws(count, width, height, seed, battery_range)
                assert d.x.tobytes() == x.tobytes()
                assert d.y.tobytes() == y.tobytes()
                assert d.battery.tobytes() == battery.tobytes()

    def test_different_seeds_differ(self):
        a = generate_deployment(100, 50, 50, 5, seed=1)
        b = generate_deployment(100, 50, 50, 5, seed=2)
        assert any(na.position != nb.position for na, nb in zip(a.nodes, b.nodes))

    def test_single_node(self):
        d = generate_deployment(1, 50, 50, 5, seed=0)
        assert len(d.nodes) == 1
        assert d.nodes[0].state == IDLE

    def test_positions_within_bounds_at_scale(self):
        d = generate_deployment(500, 50, 50, 5, seed=9)
        assert len(d.nodes) == 500
        for n in d.nodes:
            assert 0 <= n.position.x <= 50
            assert 0 <= n.position.y <= 50
            assert 0.5 <= n.battery <= 1.0

    @pytest.mark.parametrize("count", [0, 2.5, 30.0, True])
    def test_bad_count(self, count):
        with pytest.raises(ValueError, match="count"):
            generate_deployment(count, 50, 50, 5, seed=0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("arg", [1, 2, 3], ids=["width", "height", "radius"])
    def test_geometry_must_be_positive_and_finite(self, arg, bad):
        args = [10, 50.0, 50.0, 5.0]
        args[arg] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            generate_deployment(*args, seed=0)

    @pytest.mark.parametrize(
        "battery_range", [(0.0, 0.0), (-0.1, 0.5), (0.6, 0.5), (0.5, 1.1), (math.nan, 1.0)]
    )
    def test_battery_range_checked(self, battery_range):
        # (0, 0) would draw only empty, so dead, nodes
        with pytest.raises(ValueError, match="battery_range"):
            generate_deployment(5, 50, 50, 5, seed=0, battery_range=battery_range)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (0.0, 0.5), (0.25, 0.25)])
    def test_battery_range_edges_accepted(self, lo, hi):
        d = generate_deployment(50, 50, 50, 5, seed=0, battery_range=(lo, hi))
        assert all(lo <= n.battery <= hi and n.state == IDLE for n in d.nodes)

    def test_default_battery_range_is_the_network_constant(self):
        default = inspect.signature(generate_deployment).parameters["battery_range"].default
        assert default is network.BATTERY_RANGE
        assert (RunConfig().battery_min, RunConfig().battery_max) == network.BATTERY_RANGE

    @pytest.mark.parametrize("seed", ["x", 1.5, True, b"ab", None], ids=repr)
    def test_seed_must_be_an_int(self, seed):
        # refused before drawing, not by random.Random or the trace's JSON
        with pytest.raises(ValueError, match="seed must be an int"):
            generate_deployment(5, 50, 50, 5, seed)

    def test_numpy_int_seed_gives_that_ints_deployment_and_trace(self):
        a = generate_deployment(60, 50, 50, 5, np.int64(3))
        b = generate_deployment(60, 50, 50, 5, 3)
        assert type(a.seed) is int and a.seed == 3
        assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
        assert a.battery.tobytes() == b.battery.tobytes()
        traces = []
        for d in (a, b):
            out = io.StringIO()
            write_trace(out, d, iterate_rounds(d, OpticsParams(10.0, 4), None, 2))
            traces.append(out.getvalue())
        assert traces[0] == traces[1]
        assert json.loads(traces[0].splitlines()[0])["seed"] == 3

    @pytest.mark.parametrize("seed", ["x", 1.5, True, b"ab"], ids=repr)
    def test_deployment_refuses_a_seed_that_is_not_an_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an int"):
            Deployment([0], [1.0], [1.0], [1.0], 10.0, 10.0, 1.0, seed)

    def test_deployment_keeps_no_seed_as_none(self):
        assert Deployment([0], [1.0], [1.0], [1.0], 10.0, 10.0, 1.0).seed is None


class TestNeighborTable:
    def test_direct_neighbor_counts(self):
        # j1 in the middle touches both others; j2 on the end touches one
        dep = make_deployment([(0, 0), (8, 0), (-8, 0)])
        table = build_neighbor_table(dep)
        assert table_degree(table, 0) == 2
        assert table_degree(table, 1) == 1
        assert table_degree(table, 2) == 1

    def test_boundary_inclusive(self):
        dep = make_deployment([(0, 0), (10, 0)])
        table = build_neighbor_table(dep)
        assert table_degree(table, 0) == 1

    def test_just_beyond_boundary(self):
        dep = make_deployment([(0, 0), (10.001, 0)])
        table = build_neighbor_table(dep)
        assert table_degree(table, 0) == 0

    def test_distances_recorded(self):
        dep = make_deployment([(0, 0), (6, 8)])
        table = build_neighbor_table(dep)
        assert table_row(table, 0) == [(1, 10.0)]
        assert table_row(table, 1) == [(0, 10.0)]

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed):
        dep = generate_deployment(60, 50, 50, 5, seed=seed)
        table = build_neighbor_table(dep)
        for nid, entries in table.neighbors.items():
            for other, dist in entries:
                assert (nid, dist) in table_row(table, other)
                assert dist <= 2 * dep.radius

    @given(
        st.integers(1, 120),
        st.floats(1.0, 80.0),
        st.floats(1.0, 80.0),
        st.floats(0.5, 10.0),
        st.integers(0, 10_000),
        st.lists(st.integers(0, 119), max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, count, width, height, radius, seed, twins):
        drawn = generate_deployment(count, width, height, radius, seed)
        x, y = drawn.x.tolist(), drawn.y.tolist()
        # extra nodes on the positions of drawn nodes, some drawn twice
        x += [x[i % count] for i in twins]
        y += [y[i % count] for i in twins]
        n = len(x)
        dep = Deployment(range(n), x, y, [1.0] * n, width, height, radius)
        assert build_neighbor_table(dep).neighbors == reference_table(dep)

    def test_matches_brute_force_on_cell_edges(self):
        # r = 5, so 2r = 10 is both the reach and the grid's cell side
        positions = [
            (0, 0), (10, 0), (6, 8),  # exactly 2r apart: on an axis, 3-4-5
            (-10, 0), (0, -10), (-6, -8), (-10, -10),  # negative coordinates
            (10, 10), (20, 10), (20, 20), (30, 0),  # cell corners and edges
            (-20, 10), (-20.000000000000004, 0),  # 2r apart, one just past an edge
            (4, 3), (16, 18),
        ]
        dep = make_deployment(positions)
        table = build_neighbor_table(dep)
        assert table.neighbors == reference_table(dep)
        assert (1, 10.0) in table_row(table, 0) and (2, 10.0) in table_row(table, 0)
        assert (5, 10.0) in table_row(table, 0) and (0, 10.0) in table_row(table, 3)

    def test_pair_rounding_down_to_2r(self):
        # nodes 1 and 2 are 0.5 = 2r apart after rounding; with cells of
        # side exactly 2r they sit two cells apart
        dep = make_deployment([(0.0, 0.0), (1.0, 0.0), (0.49999999999999994, 0.0)], radius=0.25)
        table = build_neighbor_table(dep)
        assert table.neighbors == reference_table(dep)
        assert table_row(table, 1) == [(2, 0.5)]

    def test_pair_at_2r_whose_squares_round_up(self):
        # math.hypot gives exactly 10.0, but dx*dx + dy*dy rounds to
        # 100.00000000000001: a prefilter at (2r)^2 would drop the pair
        dep = make_deployment(
            [(8.429714851915298, 11.346867301343616), (13.692736402074342, 19.849843495745287)]
        )
        table = build_neighbor_table(dep)
        assert table.neighbors == reference_table(dep)
        assert table_row(table, 0) == [(1, 10.0)]

    def test_empty_deployment(self):
        dep = Deployment([], [], [], [], 50.0, 50.0, 5.0)
        table = build_neighbor_table(dep)
        assert table.neighbors == {} and table.radius == 10.0
        with pytest.raises(AllNodesDeadError):
            next(iterate_rounds(dep, OpticsParams(eps=10, min_pts=4)))

    def test_unsorted_sparse_ids(self):
        dep = make_deployment([(0.0, 0.0), (4.0, 0.0), (8.0, 0.0)], ids=[7, 3, 100])
        table = build_neighbor_table(dep)
        assert table.ids.tolist() == list(table.neighbors) == [3, 7, 100]
        assert table_row(table, 7) == [(3, 4.0), (100, 8.0)]
        assert table_row(table, 3) == [(7, 4.0), (100, 4.0)]
        assert table_row(table, 100) == [(3, 4.0), (7, 8.0)]

    def test_co_located_twins(self):
        dep = make_deployment([(3.0, 4.0), (3.0, 4.0), (9.0, 12.0)])
        table = build_neighbor_table(dep)
        assert table_row(table, 0) == [(1, 0.0), (2, 10.0)]
        assert table_row(table, 1) == [(0, 0.0), (2, 10.0)]

    def test_far_offset_field(self):
        base = generate_deployment(300, 50, 50, 5, seed=3)
        dep = make_deployment(list(zip(base.x + 1e6, base.y + 1e6)))
        assert build_neighbor_table(dep).neighbors == reference_table(dep)

    def test_entries_are_plain_python_shared_objects(self):
        # numpy scalars would change the reachability CSV's float reprs and
        # break json.dumps of traces. Rows hold node ids (past the
        # small-int cache here) and one distance value per pair.
        base = generate_deployment(200, 50, 50, 5, seed=4)
        dep = Deployment(base.ids + 10**6, base.x, base.y, base.battery, 50.0, 50.0, 5.0)
        table = build_neighbor_table(dep)
        for nid, row in table.neighbors.items():
            assert type(nid) is int and nid in dep.ids
            for other, d in row:
                assert type(other) is int and type(d) is float
                assert other in dep.ids
                back = next(e for o, e in table_row(table, other) if o == nid)
                assert type(back) is float and back == d

    @pytest.mark.parametrize("radius", [0.5, 3.0, 10.0, 17.5])
    def test_neighbor_rows_builds_a_table_at_its_radius(self, radius):
        dep = generate_deployment(150, 40, 40, 5, seed=8)
        points = {n.id: n.position for n in dep.nodes}
        table = neighbor_rows(dep.ids, dep.x, dep.y, radius)
        assert isinstance(table, NeighborTable) and table.radius == radius
        assert table.ids is dep.ids
        assert table.neighbors == reference_rows(points, radius)

    @pytest.mark.parametrize("radius", [0.5, 3.0, 6.0])
    def test_neighbor_rows_matches_brute_force_on_cell_edges_and_corners(self, radius):
        # spatial.GridIndex's test layouts: points on the cell edges of
        # radius 3, some exactly 3 or 6 apart, and points on the edges and
        # corners of cells of side ``radius``, the origin among them twice
        rng = random.Random(42)
        coords = [(rng.uniform(0, 25), rng.uniform(0, 25)) for _ in range(150)]
        coords += [(3.0 * i, 3.0 * (i % 3)) for i in range(9)]
        coords += [(radius * i, rng.uniform(0, 25)) for i in range(5)]
        coords += [(radius * i, radius * j) for i in range(4) for j in range(4)]
        x, y = zip(*coords)
        table = neighbor_rows(np.arange(len(coords)), x, y, radius)
        points = {i: Point2D(*c) for i, c in enumerate(coords)}
        assert table.neighbors == reference_rows(points, radius)

    @given(
        st.lists(
            st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-8, 8)] * 2),
            min_size=1,
            max_size=30,
        ),
        st.lists(st.integers(0, 29), max_size=8),
        st.sampled_from([0.5, 2.0, 5.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_distance_is_negative_zero(self, positions, twins, radius):
        # the ordering's seed queue sorts its seeds as uint64 bits, where a
        # -0.0 would sort above NaN and never be emitted: no table distance,
        # co-located pairs' 0.0 and pairs of signed zeros among them, is -0.0
        positions += [positions[i % len(positions)] for i in twins]
        positions += [(-0.0, -0.0), (0.0, 0.0), (-0.0, 0.0), (3.0, 4.0), (3.0, 4.0)]
        x, y = zip(*positions)
        table = neighbor_rows(np.arange(len(positions)), x, y, radius)
        assert (table.distance == 0.0).sum() >= 8
        assert not np.signbit(table.distance).any()

    @pytest.mark.parametrize("radius", [np.float32(0.25), 0.25], ids=repr)
    def test_a_float32_radius_keeps_the_pair_at_exactly_2r(self, radius):
        # points 1 and 2 are exactly 0.5 apart. Kept as a float32, the 2r
        # of 0.5 would lose the cell side's margin over 2r, so they would
        # sit two cells apart and their pair would never be proposed
        x = [0.0, 1.0, 0.49999999999999994, 0.75]
        dep = Deployment(range(4), x, [0.0, 0.0, 0.0, 100.0], [1.0] * 4, 10.0, 200.0, radius)
        table = build_neighbor_table(dep)
        assert table.neighbors == reference_table(dep)
        assert table_row(table, 1) == [(2, 0.5)]

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_neighbor_rows_rejects_a_bad_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            neighbor_rows(np.array([0, 1]), [0.0, 1.0], [0.0, 0.0], radius)

    @pytest.mark.parametrize("ids", [[1, 0, 2], [0, 1, 1], [0.0, 1.0, 2.0]])
    def test_neighbor_rows_needs_strictly_increasing_int_ids(self, ids):
        with pytest.raises(ValueError, match="ids must be"):
            neighbor_rows(np.array(ids), [0.0, 1.0, 2.0], [0.0, 0.0, 0.0], 5.0)

    @pytest.mark.parametrize(
        "x, y", [([0.0, 1.0], [0.0, 0.0, 0.0]), ([0.0, 1.0, 2.0], [0.0, 0.0]), ([0.0], [0.0])]
    )
    def test_neighbor_rows_needs_one_coordinate_per_id(self, x, y):
        with pytest.raises(ValueError, match="one entry per point"):
            neighbor_rows(np.array([0, 1, 2]), x, y, 5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_neighbor_rows_rejects_a_non_finite_coordinate(self, axis, bad):
        columns = {"x": [0.0, 1.0, 2.0], "y": [0.0, 0.0, 0.0]}
        columns[axis][1] = bad
        with pytest.raises(ValueError, match="coordinates must be finite"):
            neighbor_rows(np.array([0, 1, 2]), columns["x"], columns["y"], 5.0)

    def test_row_key_width_is_checked(self, monkeypatch):
        # 4 points, pair distances 1 (twice), 2, 3, sqrt(2) and sqrt(5):
        # n * n * U = 80. A key bound of 80 rejects the table; one above it
        # holds the largest key, n * n * U - 1, and builds the reference rows.
        xy = [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (1.0, 1.0)]
        points = {i: Point2D(x, y) for i, (x, y) in enumerate(xy)}
        assert network.KEY_LIMIT == 2**63 == int(np.iinfo(np.int64).max) + 1
        monkeypatch.setattr(network, "KEY_LIMIT", 80)
        with pytest.raises(ValueError, match=r"4 points with 5 distinct .* below 2\*\*63"):
            points_table(points, 5.0)
        monkeypatch.setattr(network, "KEY_LIMIT", 81)
        assert points_table(points, 5.0).neighbors == reference_rows(points, 5.0)

    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=40),
        st.lists(st.integers(0, 39), max_size=8),
        st.sampled_from([1.0, math.hypot(1, 1), 2.0, math.hypot(2, 1)]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_tied_distances_keep_the_lexsort_order(self, cells, twins, radius, rng):
        # lattice points tie on many row distances and radii land on
        # lattice distances; twins repeat drawn points; ids are sparse and
        # come in shuffled order
        positions = [Point2D(float(x), float(y)) for x, y in cells]
        positions += [positions[i % len(cells)] for i in twins]
        ids = rng.sample(range(10**6), len(positions))
        points = dict(zip(ids, positions))
        table = points_table(points, radius)
        assert table.neighbors == reference_rows(points, radius)
        # oracle: a stable three-key sort by (row, distance, id) moves no entry
        rows = np.repeat(np.arange(len(table.ids)), table.degrees)
        order = np.lexsort((table.index, table.distance, rows))
        assert order.tolist() == list(range(len(order)))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
        st.floats(1e-3, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_cell_ranks_are_dense_ranks_of_floor_cells(self, values, side):
        v0 = min(values)
        cells = [math.floor((v - v0) / side) for v in values]
        rank = {c: i for i, c in enumerate(sorted(set(cells)))}
        assert _cell_ranks(np.array(values), side).tolist() == [rank[c] for c in cells]

    @given(st.integers(0, 10_000), st.integers(1, 150))
    @settings(max_examples=30, deadline=None)
    def test_csr_arrays(self, seed, count):
        dep = generate_deployment(count, 40, 40, 5, seed=seed)
        table = build_neighbor_table(dep)
        ids, indptr = table.ids.tolist(), table.indptr.tolist()
        assert ids == sorted(n.id for n in dep.nodes)
        assert indptr[0] == 0 and indptr[-1] == len(table.index) == len(table.distance)
        assert all(a <= b for a, b in zip(indptr, indptr[1:]))
        edges = sum(map(len, reference_table(dep).values())) // 2
        assert len(table.index) == 2 * edges
        for i, pid in enumerate(ids):
            row = slice(indptr[i], indptr[i + 1])
            entries = list(zip(table.distance[row].tolist(), table.index[row].tolist()))
            assert entries == sorted(entries)
            assert i not in table.index[row]
            assert table_degree(table, pid) == len(entries)


class TestHalfStencil:
    """``neighbor_rows`` proposes each pair once, from the point earlier in
    the cell order: the rest of its own cell and the cell above it, then
    the next column's three cells. Each field below is compared with
    ``reference_rows``, a brute-force scan by ``math.hypot``."""

    REACH = 10.0

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_ids_against_the_cell_order(self, order):
        dep = generate_deployment(300, 60, 60, 5, seed=9)
        # by x, then y: by cell column, then row, as the cell order runs
        spots = sorted(zip(dep.x.tolist(), dep.y.tolist()))
        ids = list(range(len(spots)))[::-1]
        if order == "shuffled":
            ids = random.Random(9).sample(range(10**6), len(spots))
        points = {pid: Point2D(x, y) for pid, (x, y) in zip(ids, spots)}
        assert points_table(points, self.REACH).neighbors == reference_rows(points, self.REACH)

    def test_every_point_in_one_cell(self):
        rng = random.Random(5)
        points = {pid: Point2D(rng.uniform(0, 7), rng.uniform(0, 7)) for pid in range(40)}
        table = points_table(points, self.REACH)
        assert table.neighbors == reference_rows(points, self.REACH)
        # at most 7 * sqrt(2) apart: every pair is a neighbor pair
        assert len(table.index) == 40 * 39

    def test_co_located_twins_in_one_cell(self):
        rng = random.Random(6)
        copies = [1, 2, 3, 4, 1, 2, 3, 4]
        spots = [Point2D(rng.uniform(0, 7), rng.uniform(0, 7)) for _ in copies]
        positions = [spot for spot, m in zip(spots, copies) for _ in range(m)]
        ids = rng.sample(range(1000), len(positions))
        points = dict(zip(ids, positions))
        table = points_table(points, self.REACH)
        assert table.neighbors == reference_rows(points, self.REACH)
        assert int((table.distance == 0.0).sum()) == sum(m * (m - 1) for m in copies)

    def test_points_on_cell_edges_in_all_eight_directions(self):
        side = cell_side(self.REACH)
        # just below, on, and between the edges of the cell [side, 2 * side)
        # along each axis, and a point at the origin, where cells count from
        edges = [math.nextafter(side, 0), side, 1.5 * side, math.nextafter(2 * side, 0), 2 * side]
        positions = [Point2D(0.0, 0.0)] + [Point2D(x, y) for x in edges for y in edges]
        points = dict(enumerate(positions))
        table = points_table(points, self.REACH)
        assert table.neighbors == reference_rows(points, self.REACH)
        cx = _cell_ranks(np.array([p.x for p in positions]), side)
        cy = _cell_ranks(np.array([p.y for p in positions]), side)
        rows = np.repeat(np.arange(len(positions)), table.degrees)
        steps = set(zip((cx[table.index] - cx[rows]).tolist(), (cy[table.index] - cy[rows]).tolist()))
        assert steps == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}


def columns(n=3, battery=1.0, ids=None):
    """Constructor arguments of ``n`` nodes in a row, 1 m apart."""
    ids = list(range(n)) if ids is None else ids
    x, y = [float(i) for i in range(n)], [0.0] * n
    return ids, x, y, [battery] * n, 10.0, 10.0, 5.0, None


class TestRowArcs:
    @staticmethod
    def count_acos(monkeypatch):
        calls = [0]
        acos = math.acos

        def counted(value):
            calls[0] += 1
            return acos(value)

        monkeypatch.setattr(math, "acos", counted)
        return calls

    @pytest.mark.parametrize("seed", [3, 8])
    def test_each_arc_is_twice_the_overlap_angle(self, seed):
        dep = generate_deployment(150, 30, 30, 5, seed=seed)
        table = build_neighbor_table(dep)
        for i in range(len(table.ids)):
            _, distance = table.row(i)
            expected = [2 * overlap_angle(d, dep.radius) for d in distance.tolist()]
            assert table.arcs(i).tolist() == expected

    def test_a_row_is_computed_once(self, monkeypatch):
        table = build_neighbor_table(generate_deployment(60, 20, 20, 5, seed=5))
        calls = self.count_acos(monkeypatch)
        arcs = table.arcs(7)
        assert calls[0] == table.degrees[7] > 0
        assert table.arcs(7) is arcs
        assert calls[0] == table.degrees[7]

    def test_rounds_compute_the_rows_of_their_actives_once(self, monkeypatch):
        # round 1 computes its actives' rows only; a later round adds the
        # rows of its actives that no earlier round activated
        dep = generate_deployment(2000, 100, 100, 5, seed=42)
        calls = self.count_acos(monkeypatch)
        ever_active, reactivated = set(), set()
        for _ in range(3):
            state, _ = run_round(dep, OpticsParams(10, 4))
            reactivated |= state.active & ever_active
            ever_active |= state.active
            rows = dep.slots(sorted(ever_active))
            assert calls[0] == dep.tables[10.0].degrees[rows].sum()
        assert reactivated


def deployment_with(name, value):
    sides = {"region_width": 10.0, "region_height": 10.0, "radius": 5.0, name: value}
    return Deployment(*columns()[:4], **sides)


def grid_cr_with(name, value):
    sides = {"radius": 1.0, "width": 10.0, "height": 10.0, name: value}
    return grid_cr([1.0], [1.0], sides["radius"], (sides["width"], sides["height"]), 10)


# every argument that require_positive or require_finite checks: the name
# its message gives, a call with the argument under test as ``value``, and
# for an argument that is kept, a reader of the kept value from the result
REAL_ARGUMENTS = {
    "OpticsParams.eps": (
        "eps", lambda value: OpticsParams(eps=value, min_pts=2), attrgetter("eps")
    ),
    "OpticsParams.eps_prime": (
        "eps_prime",
        lambda value: OpticsParams(eps=5.0, min_pts=2, eps_prime=value),
        attrgetter("eps_prime"),
    ),
    **{
        f"ProtocolConfig.{name}": (
            name, lambda value, name=name: ProtocolConfig(**{name: value}), attrgetter(name)
        )
        for name in ("theta", "battery_drain", "w_battery", "w_neighbors", "w_distance")
    },
    "generate_deployment battery min": (
        "battery_range min",
        lambda value: generate_deployment(5, 10.0, 10.0, 1.0, 0, (value, 1.0)),
        None,
    ),
    "generate_deployment battery max": (
        "battery_range max",
        lambda value: generate_deployment(5, 10.0, 10.0, 1.0, 0, (0.0, value)),
        None,
    ),
    "analytic_cr radius": ("radius", lambda value: analytic_cr(1, value, 100.0), None),
    "analytic_cr area": ("area", lambda value: analytic_cr(1, 5.0, value), None),
    "GridIndex": (
        "radius", lambda value: GridIndex({0: Point2D(0.0, 0.0)}, value), attrgetter("radius")
    ),
    "extract_clusters": (
        "eps_prime", lambda value: extract_clusters(Ordering([0], [None], [0.0]), value), None
    ),
    **{
        f"Deployment.{name}": (
            name, lambda value, name=name: deployment_with(name, value), attrgetter(name)
        )
        for name in ("radius", "region_width", "region_height")
    },
    "neighbor_rows": (
        "radius",
        lambda value: neighbor_rows([0, 1], [0.0, 1.0], [0.0, 0.0], value),
        attrgetter("radius"),
    ),
    **{
        f"grid_cr {name}": (
            "radius" if name == "radius" else "region sides",
            lambda value, name=name: grid_cr_with(name, value),
            None,
        )
        for name in ("radius", "width", "height")
    },
}
# the arguments whose rule bounds them to [0, 1]
UNIT_INTERVAL = {
    "ProtocolConfig.theta", "generate_deployment battery min", "generate_deployment battery max"
}
# values that no rule passes: not real numbers, or not finite ones
NOT_FINITE_REALS = [
    "5", b"5", None, True, False, [5.0], 5j, Decimal("5"), Fraction(5, 2),
    np.array(5.0), np.bool_(True), math.nan, math.inf, -math.inf,
]
# scalars that every rule passes, within [0, 1] for the arguments bounded to it
REAL_SCALARS = [np.float64(2.5), np.float32(2.5), np.int64(3), np.int32(3), np.uint8(3)]
UNIT_SCALARS = [np.float64(0.25), np.float32(0.75), np.int64(1), np.int32(1), np.uint8(1)]


class TestRequirePositive:
    @pytest.mark.parametrize(
        "caller, value",
        [
            (caller, value)
            for caller in REAL_ARGUMENTS
            for value in NOT_FINITE_REALS
            # None is the blank cut, which resolves to eps / 2
            if not (caller == "OpticsParams.eps_prime" and value is None)
        ],
        ids=repr,
    )
    def test_a_value_that_is_not_a_finite_real_is_named(self, caller, value):
        name, call, _ = REAL_ARGUMENTS[caller]
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
            call(value)

    @pytest.mark.parametrize(
        "caller, value",
        [
            (caller, value)
            for caller in REAL_ARGUMENTS
            for value in (UNIT_SCALARS if caller in UNIT_INTERVAL else REAL_SCALARS)
        ],
        ids=repr,
    )
    def test_real_scalars_pass(self, caller, value):
        _, call, kept = REAL_ARGUMENTS[caller]
        result = call(value)
        if kept is not None:
            assert type(kept(result)) is float and kept(result) == value

    @pytest.mark.parametrize("check", [network.require_positive, network.require_finite])
    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["10**400", "-10**400"])
    def test_an_int_past_the_floats_is_not_finite(self, check, value):
        with pytest.raises(ValueError, match="^length must be"):
            check("length", value)

    def test_a_fraction_radius_fails_before_any_round(self):
        # a Fraction once reached grid_cr, past run_round's rollback
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            Deployment(*columns()[:6], Fraction(5, 2))
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            generate_deployment(20, 10.0, 10.0, Fraction(5, 2), seed=1)


def deployment_of(n, **column):
    """A deployment of ``n`` nodes, with ``column`` as one of its columns."""
    columns = {"ids": range(n), "x": [0.5] * n, "y": [0.5] * n, "battery": [1.0] * n, **column}
    return Deployment(**columns, region_width=10.0, region_height=10.0, radius=1.0)


def ordering_of(n, **column):
    columns = {"ids": range(n), "reachability": [None] * n, "core_distance": [None] * n}
    return Ordering(**{**columns, **column})


def xy_of(n, **column):
    """``x`` and ``y`` columns of ``n`` points, with ``column`` as one of them."""
    return {"x": [0.5] * n, "y": [0.5] * n, **column}


# every column argument that require_ids or require_reals checks, or, for an
# ordering's distances, its own rule: the rule, the name its message gives, a
# call with the argument under test as ``value`` (its other columns as long),
# and for a column that is kept, a reader of the kept column from the result
COLUMN_ARGUMENTS = {
    **{
        f"Deployment.{name}": (
            "ids" if name == "ids" else "reals",
            "node ids" if name == "ids" else f"{name} coordinates" if name in "xy" else name,
            lambda value, name=name: deployment_of(len(value), **{name: value}),
            attrgetter(name),
        )
        for name in ("ids", "x", "y", "battery")
    },
    "Deployment.slots": ("ids", "node_ids", lambda value: deployment_of(3).slots(value), None),
    "neighbor_rows ids": (
        "ids",
        "ids",
        lambda value: neighbor_rows(value, **xy_of(len(value)), radius=1.0),
        attrgetter("ids"),
    ),
    **{
        f"neighbor_rows {axis}": (
            "reals",
            f"{axis} coordinates",
            lambda value, axis=axis: neighbor_rows(
                range(len(value)), **xy_of(len(value), **{axis: value}), radius=1.0
            ),
            None,
        )
        for axis in "xy"
    },
    **{
        f"{measure.__name__} {axis}": (
            "reals",
            f"{axis} of the disc centers",
            lambda value, axis=axis, measure=measure: measure(
                **xy_of(len(value), **{axis: value}), radius=1.0, region=(10.0, 10.0), resolution=10
            ),
            None,
        )
        for measure in (grid_cr, coverage_grid)
        for axis in "xy"
    },
    **{
        f"Ordering.{name}": (
            "ids" if name == "ids" else "distances",
            name,
            lambda value, name=name: ordering_of(len(value), **{name: value}),
            attrgetter(name),
        )
        for name in ("ids", "reachability", "core_distance")
    },
}
# columns that no rule passes, and those that no id rule passes
JUNK_COLUMNS = {
    "strings": ["0", "1"], "bools": [True, False], "None": [None, None], "2-D": [[0], [1]],
    "complex": [0j, 1j],
}
JUNK_IDS = {"floats": [0.9, 1.5], "past-int64": [2**63, 2**63 + 1]}
# columns that every rule of their kind passes, as int64 or float64
GOOD_COLUMNS = {
    "ids": [
        [0, 1, 2], (0, 1, 2), range(3), np.arange(3), np.arange(3, dtype=np.int32),
        np.arange(3, dtype=np.uint8), [],
    ],
    "reals": [
        [0.25, 0.5, 1], (0.25, 0.5, 1), range(1, 2), np.array([0.25, 0.5, 1.0]),
        np.array([0.25, 0.5, 1.0], dtype=np.float32), np.array([1, 1], dtype=np.int32),
        np.array([1], dtype=np.uint8), [],
    ],
}
GOOD_COLUMNS["distances"] = GOOD_COLUMNS["reals"]


class TestColumnRules:
    @pytest.mark.parametrize(
        "caller, junk",
        [
            (caller, junk)
            for caller, (rule, *_) in COLUMN_ARGUMENTS.items()
            for junk in [*JUNK_COLUMNS, *(JUNK_IDS if rule == "ids" else ())]
            # an ordering's distances read None as NaN
            if not (rule == "distances" and junk == "None")
        ],
    )
    def test_a_junk_column_is_named(self, caller, junk):
        _, name, call, _ = COLUMN_ARGUMENTS[caller]
        with pytest.raises(ValueError, match=f"{re.escape(name)} must be"):
            call({**JUNK_COLUMNS, **JUNK_IDS}[junk])

    @pytest.mark.parametrize(
        "caller, value",
        [
            (caller, value)
            for caller, (rule, *_) in COLUMN_ARGUMENTS.items()
            for value in GOOD_COLUMNS[rule]
        ],
        ids=repr,
    )
    def test_good_columns_pass(self, caller, value):
        rule, _, call, kept = COLUMN_ARGUMENTS[caller]
        result = call(value)
        if kept is not None:
            column = kept(result)
            assert column.dtype == (np.int64 if rule == "ids" else np.float64)
            assert column.ndim == 1 and column.tolist() == list(value)

    @pytest.mark.parametrize("check", [network.require_ids, network.require_reals])
    def test_a_column_of_the_target_dtype_is_not_copied(self, check):
        column = np.arange(3, dtype=np.int64 if check is network.require_ids else np.float64)
        assert check("column", column) is column

    def test_a_mix_of_true_and_ints_is_read_as_ints(self):
        # numpy promotes the list to int64, and the rule judges by dtype
        assert network.require_ids("ids", [True, 2]).tolist() == [1, 2]

    def test_a_2d_deployment_column_fails_before_any_round(self):
        # it once built, and the first round failed inside numpy
        with pytest.raises(ValueError, match="x coordinates must be reals in a 1-D column"):
            Deployment(range(3), [[0.0], [1.0], [2.0]], [0.0] * 3, [1.0] * 3, 10.0, 10.0, 1.0)


class TestNodeInvariants:
    @pytest.mark.parametrize("battery", [1.5, -0.25, 0.0, -0.0])
    def test_battery_range_enforced(self, battery):
        # an empty battery is a dead node, which only a round makes
        ids, x, y, batteries, *rest = columns()
        batteries[1] = battery
        with pytest.raises(ValueError, match=r"battery must be in \(0, 1\]"):
            Deployment(ids, x, y, batteries, *rest)

    @pytest.mark.parametrize("battery", [math.nan, math.inf])
    def test_battery_must_be_finite(self, battery):
        # require_reals refuses a non-finite battery before the range test
        ids, x, y, batteries, *rest = columns()
        batteries[1] = battery
        with pytest.raises(ValueError, match="battery must be finite"):
            Deployment(ids, x, y, batteries, *rest)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Deployment(*columns(ids=[4, 0, 4]))

    @pytest.mark.parametrize("ids", [[0.0, 1.0, 2.0], ["a", "b", "c"], [True, False, True]])
    def test_ids_must_be_ints(self, ids):
        with pytest.raises(ValueError, match="ids must be ints"):
            Deployment(*columns(ids=ids))

    @pytest.mark.parametrize("column", [0, 1, 2, 3], ids=["ids", "x", "y", "battery"])
    def test_column_lengths_must_match(self, column):
        args = list(columns())
        args[column] = args[column][:2]
        with pytest.raises(ValueError, match="one entry per node"):
            Deployment(*args)

    @pytest.mark.parametrize("radius", [0, -1, math.nan, math.inf])
    def test_radius_positive_and_finite(self, radius):
        ids, x, y, batteries, width, height, _, seed = columns()
        with pytest.raises(ValueError, match="radius must be positive"):
            Deployment(ids, x, y, batteries, width, height, radius, seed)

    @pytest.mark.parametrize("side", ["region_width", "region_height"])
    @pytest.mark.parametrize("value", [-50.0, 0.0, math.nan, math.inf])
    def test_region_sides_positive_and_finite(self, side, value):
        # a round would build its trees before analytic_cr refused the area
        ids, x, y, batteries, width, height, radius, seed = columns()
        region = {"region_width": width, "region_height": height, side: value}
        with pytest.raises(ValueError, match=f"{side} must be positive and finite"):
            Deployment(ids, x, y, batteries, radius=radius, seed=seed, **region)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [1, 2], ids=["x", "y"])
    def test_coordinates_must_be_finite(self, axis, bad):
        args = list(columns())
        args[axis][1] = bad
        with pytest.raises(ValueError, match="coordinates must be finite"):
            Deployment(*args)

    def test_nodes_fixed_at_construction(self):
        # the columns are copied in, so a node added to the input lists later
        # would be in neither the arrays nor the neighbor table
        ids, x, y, batteries, *rest = columns()
        dep = Deployment(ids, x, y, batteries, *rest)
        ids.append(3)
        x.append(3.0)
        y.append(0.0)
        batteries[0] = 0.5
        assert len(dep.nodes) == 3 and 3 not in dep.ids
        assert [n.id for n in dep.nodes] == [0, 1, 2] and dep.node(0).battery == 1.0

    def test_columns_sorted_by_id(self):
        ids, x, y, _, *rest = columns(ids=[30, 10, 20])
        dep = Deployment(ids, x, y, [0.25, 0.5, 1.0], *rest)
        assert dep.ids.tolist() == [10, 20, 30]
        assert dep.x.tolist() == [1.0, 2.0, 0.0] and dep.y.tolist() == [0.0, 0.0, 0.0]
        assert dep.battery.tolist() == [0.5, 1.0, 0.25]


def assert_arrays_match(dep):
    """The deployment's arrays, slot by slot in id order, equal its views'."""
    nodes = dep.nodes
    assert dep.ids.tolist() == [n.id for n in nodes] == sorted(n.id for n in nodes)
    assert dep.state_code.tolist() == [n.state for n in nodes]
    assert dep.battery.tolist() == [n.battery for n in nodes]
    assert list(zip(dep.x.tolist(), dep.y.tolist())) == [(n.position.x, n.position.y) for n in nodes]


class TestDeploymentArrays:
    def test_after_a_run(self):
        # 12 rounds at a 0.3 drain: actives sleep, wake and some die
        dep = generate_deployment(200, 50, 50, 5, seed=3)
        config = ProtocolConfig(battery_drain=0.3)
        for _ in iterate_rounds(dep, OpticsParams(eps=10, min_pts=4), config, rounds=12):
            assert_arrays_match(dep)
        assert {n.state for n in dep.nodes} == {IDLE, ACTIVE, SLEEPING, DEAD}

    def test_views_read_the_constructor_columns(self):
        dep = Deployment(
            [7, 3, 100], [7.0, 3.0, 100.0], [0.0] * 3, [1.0, 0.25, 1.0], 100.0, 100.0, 5.0,
        )
        assert dep.ids.tolist() == [3, 7, 100]
        write_state(dep, 1, ACTIVE)
        write_state(dep, 2, SLEEPING, 1)
        assert_arrays_match(dep)
        assert dep.state_code.tolist() == [IDLE, ACTIVE, SLEEPING]
        assert dep.battery.tolist() == [0.25, 1.0, 1.0]
        assert dep.node(7).state == ACTIVE and dep.node(3).battery == 0.25

    def test_a_view_names_its_state(self):
        dep = Deployment([0, 1], [0.0, 3.0], [0.0, 0.0], [1.0, 0.5], 10.0, 10.0, 5.0)
        write_state(dep, 1, SLEEPING, 1)
        assert dep.node(1).state == SLEEPING
        assert repr(dep.node(1)) == (
            "SensorNode(id=1, position=Point2D(x=3.0, y=0.0), battery=0.5, state='sleeping')"
        )
        assert repr(dep.node(0)).endswith("state='idle')")

    @pytest.mark.parametrize("field, value", [("state", ACTIVE), ("battery", 0.5)])
    def test_views_are_read_only(self, field, value):
        # only the constructor and a round write node state
        dep = make_deployment([(0, 0), (3, 0)])
        with pytest.raises(AttributeError):
            setattr(dep.node(1), field, value)
        assert dep.state_code.tolist() == [IDLE] * 2
        assert dep.battery.tolist() == [1.0, 1.0]

    def test_countdown_and_round_count_start_at_zero(self):
        # every node is built idle: only a round puts one to sleep
        dep = Deployment(*columns(4, ids=[9, 2, 5, 0]))
        assert dep.state_code.dtype == np.int8 and dep.state_code.tolist() == [IDLE] * 4
        assert dep.sleep_left.dtype == np.int64
        assert dep.sleep_left.tolist() == [0, 0, 0, 0] and dep.rounds_run == 0

    @pytest.mark.parametrize(
        "name, value",
        [("sleep_left", [2, 2, 2]), ("rounds_run", 3), ("states", [ACTIVE, IDLE, DEAD])],
    )
    def test_countdown_and_round_count_not_constructor_arguments(self, name, value):
        with pytest.raises(TypeError, match=name):
            Deployment(*columns(), **{name: value})

    def test_tables_start_empty_and_are_not_a_constructor_argument(self):
        assert Deployment(*columns()).tables == {}
        with pytest.raises(TypeError, match="tables"):
            Deployment(*columns(), tables={})

    def test_hypothesis_prints_a_deployment_as_its_repr(self):
        # the printer of a falsifying example shows a deployment by its repr
        dep = generate_deployment(30, 30, 30, 5, seed=4)
        assert repr(dep) == (
            "Deployment(region_width=30.0, region_height=30.0, radius=5.0, seed=4, rounds_run=0)"
        )
        assert pretty(dep) == repr(dep)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_positions_are_read_only(self, axis):
        # the tables a deployment keeps hold distances between its positions
        dep = generate_deployment(30, 30, 30, 5, seed=4)
        before = getattr(dep, axis).tolist()
        with pytest.raises(ValueError, match="read-only"):
            getattr(dep, axis)[0] = 1.0
        assert getattr(dep, axis).tolist() == before

    def test_views_are_made_on_call(self):
        dep = generate_deployment(30, 30, 30, 5, seed=4)
        assert dep.node(7) is not dep.node(7)
        assert dep.nodes[7].slot == dep.node(7).slot == 7
        with pytest.raises(KeyError, match="unknown node id 30"):
            dep.node(30)

    def test_nodes_wrapped_in_a_second_deployment(self):
        # as the brute-force table test does: a field's columns plus extra
        # nodes make a second deployment, with arrays of its own
        first = generate_deployment(40, 30, 30, 5, seed=5)
        second = Deployment(
            list(range(43)), [*first.x, *(first.x[:3] + 0.5)], [*first.y, 0.0, 0.0, 0.0],
            [*first.battery, 1.0, 1.0, 1.0], 30.0, 30.0, 5.0,
        )
        assert_arrays_match(second)
        drawn = first.battery.copy()
        for _ in iterate_rounds(second, OpticsParams(eps=10, min_pts=2), rounds=2):
            assert_arrays_match(second)
        assert (second.battery[:40] != drawn).any()
        assert first.battery.tolist() == drawn.tolist()
        assert first.state_code.tolist() == [IDLE] * 40
        assert_arrays_match(first)

    def test_dropped_deployments_are_released(self):
        # no node refers back to a deployment it is not a view of, so a
        # dropped deployment leaves no cycle: reference counting frees its
        # arrays at once, with no garbage collection
        live = generate_deployment(30, 30, 30, 5, seed=4)
        dropped = [
            Deployment(live.ids, live.x, live.y, live.battery, 30.0, 30.0, 5.0)
            for _ in range(200)
        ]
        list(iterate_rounds(dropped[-1], OpticsParams(eps=10, min_pts=2), rounds=2))
        freed = [weakref.ref(a) for d in dropped for a in (d.battery, d.state_code)]
        del dropped
        assert all(ref() is None for ref in freed)
        before = live.battery.copy()
        list(iterate_rounds(live, OpticsParams(eps=10, min_pts=2), rounds=1))
        assert_arrays_match(live)
        assert (live.battery != before).any()
