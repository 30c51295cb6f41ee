import csv
import io
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from optics_coverage.experiments import write_reachability_csv
from optics_coverage.geometry import Point2D
from optics_coverage.network import (
    Deployment,
    build_neighbor_table,
    generate_deployment,
    neighbor_rows,
)
from optics_coverage.optics import (
    Cluster,
    OpticsParams,
    OrderedPoint,
    Ordering,
    extract_clusters,
    optics_order,
)
from optics_coverage.spatial import GridIndex, brute_force_query

from network_reference import traced_peak
from optics_reference import (
    as_rows,
    order_points,
    points_table,
    reference_clusters,
    reference_optics,
    reference_reachability_csv,
)


def line_points(xs):
    return {i: Point2D(x, 0.0) for i, x in enumerate(xs)}


def random_points(n, rng, span=20.0):
    return {i: Point2D(rng.uniform(0, span), rng.uniform(0, span)) for i in range(n)}


def two_blobs(rng, per_blob=10, spread=1.0, centers=((10.0, 10.0), (40.0, 40.0))):
    points = {}
    next_id = 0
    for cx, cy in centers:
        for _ in range(per_blob):
            points[next_id] = Point2D(
                cx + rng.uniform(-spread, spread), cy + rng.uniform(-spread, spread)
            )
            next_id += 1
    return points


def as_tuples(points):
    return {i: (p.x, p.y) for i, p in points.items()}


@st.composite
def table_layouts(draw):
    """A deployment with co-located twins, pairs exactly 2r apart and
    sparse, unsorted ids, and the idle subset a rotation round would
    order, in draw order."""
    coord = st.floats(0, 30)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    twins = draw(st.lists(st.integers(0, len(positions) - 1), max_size=4))
    positions += [positions[i] for i in twins]
    radius = draw(st.sampled_from([2.0, 3.5, 5.0]))
    for x, y in draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=4)):
        positions += [(float(x), float(y)), (x + 2 * radius, float(y))]
    n = len(positions)
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    picked = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    x, y = [x for x, _ in positions], [y for _, y in positions]
    dep = Deployment(ids, x, y, [1.0] * n, 30.0, 30.0, radius)
    return dep, {ids[i]: Point2D(*positions[i]) for i in picked}


@st.composite
def lattice_layouts(draw):
    """Distinct integer lattice points, so that many distances and
    reachabilities tie exactly, under shuffled sparse ids, and the subset
    to order: the others stay in the table between eligible ids."""
    cell = st.tuples(st.integers(0, 6), st.integers(0, 6))
    cells = draw(st.lists(cell, min_size=1, max_size=40, unique=True))
    n = len(cells)
    ids = draw(st.permutations(range(0, 3 * n, 3)))
    radius = draw(st.sampled_from([1.0, 1.5, 2.0]))
    x, y = [float(x) for x, _ in cells], [float(y) for _, y in cells]
    picked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    picked[draw(st.integers(0, n - 1))] = True
    eligible = {nid: Point2D(*xy) for nid, *xy, keep in zip(ids, x, y, picked) if keep}
    return Deployment(ids, x, y, [1.0] * n, 6.0, 6.0, radius), eligible


@st.composite
def cut_columns(draw):
    """Ordering columns and a cut: reachabilities and core distances drawn
    NaN (None), exactly at the cut, a float either side of it, or anywhere
    in [0, 2 * cut] or at +inf, under distinct ids."""
    eps_prime = draw(st.sampled_from([0.25, 1.0, 2.5]))
    value = st.one_of(
        st.none(),
        st.sampled_from(
            [eps_prime, math.nextafter(eps_prime, 0), math.nextafter(eps_prime, math.inf)]
        ),
        st.floats(0, 2 * eps_prime),
        st.just(math.inf),
    )
    n = draw(st.integers(0, 30))
    ids = draw(st.lists(st.integers(-5, 10**6), min_size=n, max_size=n, unique=True))
    reach = draw(st.lists(value, min_size=n, max_size=n))
    core = draw(st.lists(value, min_size=n, max_size=n))
    return ids, reach, core, eps_prime


def round_table(dep, eps):
    """The table a round of ``dep`` orders over at ``eps``: the deployment's
    2r table, or, for a wider eps, one at eps over every node."""
    if eps <= 2 * dep.radius:
        return build_neighbor_table(dep)
    return points_table({n.id: n.position for n in dep.nodes}, eps)


def assert_matches_reference(points, table, eps, min_pts):
    got = order_points(points, OpticsParams(eps=eps, min_pts=min_pts), table)
    expected = reference_optics(as_tuples(points), eps, min_pts)
    assert as_rows(got) == expected
    assert_columns(got)


def assert_columns(ordering):
    # the writers format .tolist() values, so the columns' dtypes decide
    # what reaches the trace and the CSV
    assert ordering.ids.dtype == np.int64
    assert ordering.reachability.dtype == ordering.core_distance.dtype == np.float64
    for column in ordering.columns():
        assert column.ndim == 1 and len(column) == len(ordering)
        assert not column.flags.writeable


def assert_same_bits(got, expected):
    for a, b in zip(got.columns(), expected.columns()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def by_id(points, params):
    """{point_id: (reachability, core_distance)}, None for NaN."""
    return {pid: (r, cd) for pid, r, cd in as_rows(order_points(points, params))}


class TestCoreDistance:
    def test_second_closest_including_self(self):
        pts = line_points([0, 1, 3])
        _, core_distance = by_id(pts, OpticsParams(eps=5, min_pts=2))[0]
        assert core_distance == 1

    def test_sparse_neighborhood_undefined(self):
        pts = line_points([0, 1, 3])
        _, core_distance = by_id(pts, OpticsParams(eps=0.5, min_pts=2))[0]
        assert core_distance is None

    def test_min_pts_one_is_zero(self):
        pts = line_points([0, 1, 3])
        out = order_points(pts, OpticsParams(eps=2, min_pts=1))
        assert out.core_distance.tolist() == [0.0, 0.0, 0.0]


class TestReachabilityDistance:
    # a point's reachability is max(core distance of the core point that
    # reached it, distance between the two), minimized over processed cores
    def test_core_distance_dominates(self):
        # 0 is the start, core distance 2; 1 sits 1 away
        pts = line_points([0, 1, 2])
        ordered = by_id(pts, OpticsParams(eps=5, min_pts=3))
        (_, core_distance), (reachability, _) = ordered[0], ordered[1]
        assert core_distance == 2
        assert reachability == 2

    def test_actual_distance_dominates(self):
        # 2 is reached from 1 (core distance 0.5) across a distance of 2.5
        pts = line_points([0, 0.5, 3])
        ordered = by_id(pts, OpticsParams(eps=5, min_pts=2))
        (_, core_distance), (reachability, _) = ordered[1], ordered[2]
        assert core_distance == 0.5
        assert reachability == 2.5

    def test_non_core_point_undefined(self):
        pts = line_points([0, 1, 3])
        out = order_points(pts, OpticsParams(eps=5, min_pts=10))
        assert np.isnan(out.reachability).all()


class TestOpticsOrder:
    def test_single_point(self):
        out = order_points({7: Point2D(1, 1)}, OpticsParams(eps=1, min_pts=2))
        assert len(out) == 1
        assert as_rows(out) == [(7, None, None)]
        assert_columns(out)

    @pytest.mark.parametrize(
        "name", ["point_id", "order_index", "reachability", "core_distance"]
    )
    def test_ordered_points_are_immutable(self, name):
        # iterating an ordering yields immutable points, built as it iterates
        pts = {5: Point2D(0, 0), 9: Point2D(1, 0)}
        first, op = order_points(pts, OpticsParams(eps=2, min_pts=2))
        assert first == OrderedPoint(5, 0, None, 1.0)
        assert op == OrderedPoint(9, 1, 1.0, 1.0)
        with pytest.raises(AttributeError):
            setattr(op, name, 0)
        assert (op.point_id, op.order_index, op.reachability, op.core_distance) == (
            9, 1, 1.0, 1.0
        )

    def test_collinear_chain(self):
        pts = line_points([0, 1, 2, 3, 4])
        out = order_points(pts, OpticsParams(eps=2, min_pts=2))
        assert out.ids.tolist() == [0, 1, 2, 3, 4]
        assert [r for _, r, _ in as_rows(out)] == [None, 1, 1, 1, 1]

    def test_two_blobs_reachability_structure(self):
        rng = random.Random(5)
        pts = two_blobs(rng)
        out = order_points(pts, OpticsParams(eps=5, min_pts=3))
        blob_diameter = 2 * math.hypot(1, 1)
        undefined = np.isnan(out.reachability)
        assert undefined.sum() == 2  # one group start per blob
        assert (out.reachability[~undefined] <= blob_diameter).all()

    def test_empty_input_rejected(self):
        # an empty point set is a mask that marks no node
        table = points_table(line_points([0, 1, 3]), 2.0)
        with pytest.raises(ValueError, match="eligible must mark at least one node"):
            optics_order(table, OpticsParams(eps=2, min_pts=2), np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("min_pts", [0, 2.5, 4.0, True])
    def test_min_pts_must_be_a_positive_int(self, min_pts):
        with pytest.raises(ValueError, match="min_pts"):
            OpticsParams(eps=10, min_pts=min_pts)

    @pytest.mark.parametrize("eps", [0, -1, math.nan, math.inf])
    def test_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="eps"):
            OpticsParams(eps=eps, min_pts=1)

    @pytest.mark.parametrize("eps_prime", [0, -1, math.nan, math.inf, 12])
    def test_eps_prime_must_lie_in_zero_to_eps(self, eps_prime):
        with pytest.raises(ValueError, match="eps_prime"):
            OpticsParams(eps=10, min_pts=4, eps_prime=eps_prime)

    def test_eps_prime_defaults_to_half_eps(self):
        assert OpticsParams(eps=10, min_pts=4).eps_prime == 5.0
        assert OpticsParams(eps=10, min_pts=4, eps_prime=10).eps_prime == 10

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_small(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 50)
        pts = random_points(n, rng)
        params = OpticsParams(eps=rng.uniform(1, 8), min_pts=rng.randint(1, 5))
        got = order_points(pts, params)
        expected = reference_optics(as_tuples(pts), params.eps, params.min_pts)
        assert as_rows(got) == expected

    def test_matches_reference_on_a_wide_field(self):
        # a field 7.5 eps wide, so the neighbor table spans many cells;
        # results must stay identical to the brute-force reference
        rng = random.Random(99)
        pts = random_points(120, rng, span=30.0)
        params = OpticsParams(eps=4.0, min_pts=4)
        got = order_points(pts, params)
        expected = reference_optics(as_tuples(pts), params.eps, params.min_pts)
        assert as_rows(got) == expected

    @given(st.integers(0, 10_000), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_output_is_permutation(self, seed, n):
        rng = random.Random(seed)
        pts = random_points(n, rng)
        out = order_points(pts, OpticsParams(eps=5, min_pts=3))
        assert sorted(out.ids.tolist()) == sorted(pts)
        assert len(out) == n

    @pytest.mark.parametrize("seed", range(5))
    def test_emitted_reachability_is_min_over_prior_core_points(self, seed):
        # direct post-condition check, independent of any ordering loop:
        # each point's recorded reachability must equal the minimum
        # reachability distance from the core points processed before it
        # whose neighborhood contains it, and None when no such point
        rng = random.Random(seed + 400)
        pts = random_points(rng.randint(5, 45), rng)
        params = OpticsParams(eps=rng.uniform(2, 7), min_pts=rng.randint(1, 4))
        out = as_rows(order_points(pts, params))
        for k, (pid, reachability, _) in enumerate(out):
            candidates = []
            for prior, _, core_distance in out[:k]:
                if core_distance is None:
                    continue
                d = math.hypot(pts[prior].x - pts[pid].x, pts[prior].y - pts[pid].y)
                if d <= params.eps:
                    candidates.append(max(core_distance, d))
            if reachability is None:
                assert not candidates
            else:
                assert reachability == min(candidates)

    @given(table_layouts(), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_masked_round_table_orders_as_a_table_of_its_own(self, layout, min_pts):
        # the eligible nodes masked in the round's table order as they do in
        # a table of their own
        dep, eligible = layout
        r = dep.radius
        for eps in (r, 1.5 * r, 2 * r, 3 * r):  # 3r is past the deployment's 2r
            params = OpticsParams(eps=eps, min_pts=min_pts)
            assert order_points(eligible, params, round_table(dep, eps)) == order_points(
                eligible, params
            )

    @given(table_layouts(), st.sampled_from([1, 2, 4, 9]))
    @settings(max_examples=120, deadline=None)
    def test_table_ordering_matches_reference(self, layout, min_pts):
        dep, eligible = layout
        r = dep.radius
        for eps in (r, 1.5 * r, 2 * r, 3 * r):  # 3r orders over a table at eps
            assert_matches_reference(eligible, round_table(dep, eps), eps, min_pts)

    @given(lattice_layouts(), st.sampled_from([1, 2, 4]))
    @settings(max_examples=150, deadline=None)
    def test_tied_reachabilities_match_reference(self, layout, min_pts):
        # the seed queue takes the smallest reachability, the lower id among
        # equal ones, as the reference's linear scan does
        dep, eligible = layout
        r = dep.radius
        for eps in (r, 2 * r, 3 * r):  # 3r orders over a table at eps
            assert_matches_reference(eligible, round_table(dep, eps), eps, min_pts)

    def test_eps_wider_than_the_table_rejected(self):
        table = points_table(line_points([0, 1, 3]), 2.0)
        with pytest.raises(ValueError, match="wider than the table's radius 2.0"):
            optics_order(table, OpticsParams(eps=2.5, min_pts=2), np.ones(3, dtype=bool))

    @pytest.mark.parametrize(
        "eligible",
        [np.ones(3, dtype=int), np.ones(2, dtype=bool), np.ones(4, dtype=bool), [[True] * 3]],
        ids=["int", "short", "long", "2d"],
    )
    def test_mask_must_be_bool_over_the_tables_nodes(self, eligible):
        table = points_table(line_points([0, 1, 3]), 2.0)
        with pytest.raises(ValueError, match="eligible must be a bool mask of 3 entries"):
            optics_order(table, OpticsParams(eps=2, min_pts=2), eligible)

    def test_masked_nodes_are_neither_ordered_nor_counted(self):
        # node 1 sits between 0 and 2; masked off, it neither appears nor
        # counts toward 0's core distance, so 0 reaches 2 at 3.0
        table = points_table(line_points([0, 1, 3]), 5.0)
        out = optics_order(table, OpticsParams(eps=5, min_pts=2), np.array([True, False, True]))
        assert as_rows(out) == [
            (0, None, 3.0),
            (2, 3.0, 3.0),
        ]

    @pytest.mark.parametrize(
        "xs, eligible, radius, eps, min_pts",
        [
            # no eligible entry within eps in any row: no point is core
            ([0, 10, 20], [0, 1, 2], 2.0, 2.0, 2),
            ([0, 3, 6, 9], [0, 1, 2, 3], 5.0, 1.0, 2),
            ([0, 3, 6, 9], [0, 1, 2, 3], 5.0, 1.0, 3),
            # min_pts = 1: every point is core at 0.0
            ([0, 1, 3, 7], [0, 1, 2, 3], 5.0, 5.0, 1),
            ([0, 1, 3, 7], [0, 2, 3], 5.0, 2.0, 1),
            # min_pts larger than every row
            ([0, 0.5, 1, 1.5, 2], [0, 1, 2, 3, 4], 5.0, 5.0, 6),
            ([0, 0.5, 1, 1.5, 2], [0, 1, 2, 3, 4], 5.0, 5.0, 9),
            # eps below the table's radius: entries past eps stay in the rows
            ([0, 1, 2.5, 4, 8], [0, 1, 2, 3, 4], 6.0, 1.5, 2),
            ([0, 1, 2.5, 4, 8], [0, 1, 2, 3, 4], 6.0, 2.5, 3),
            # ineligible nodes between eligible ones in a row
            ([0, 1, 2, 3, 4, 5], [0, 2, 4, 5], 5.0, 3.0, 2),
            ([0, 1, 2, 3, 4, 5], [0, 2, 4, 5], 5.0, 3.0, 3),
            ([0, 1, 2, 3, 4, 5], [1, 5], 5.0, 5.0, 2),
            # co-located points: rows of 0.0 entries, so 0.0 seeds, offers
            # and core distances, with a masked node among them
            ([2, 2, 2, 2, 6], [0, 1, 2, 3, 4], 5.0, 5.0, 1),
            ([2, 2, 2, 2, 6], [0, 1, 2, 3, 4], 5.0, 5.0, 2),
            ([2, 2, 2, 2, 6], [0, 2, 3, 4], 5.0, 5.0, 1),
            ([2, 2, 2, 2, 6], [0, 2, 3, 4], 5.0, 5.0, 2),
        ],
        ids=[
            "no-core-empty-rows", "no-core-beyond-eps", "no-core-beyond-eps-3",
            "min-pts-1", "min-pts-1-masked", "min-pts-above-rows", "min-pts-far-above-rows",
            "eps-below-radius", "eps-below-radius-3", "masked-between", "masked-between-3",
            "masked-between-far", "co-located-1", "co-located-2", "co-located-masked-1",
            "co-located-masked-2",
        ],
    )
    def test_edge_cases_match_reference(self, xs, eligible, radius, eps, min_pts):
        pts = line_points(xs)
        table = points_table(pts, radius)
        assert_matches_reference({i: pts[i] for i in eligible}, table, eps, min_pts)

    @pytest.mark.parametrize("min_pts", [1, 2, 3])
    def test_each_group_starts_at_the_lowest_unemitted_id(self, min_pts):
        # two trios far apart and four outliers, under ids that interleave
        # them; ids 0-2 are masked and sit on or between eligible points.
        # The queue drains to +inf once per group, six times in all
        xs = [0, 100, 50, 100, 0, 200, 101, 1, 300, 0.5, 102, 400, 50]
        pts = line_points(xs)
        eligible = {i: pts[i] for i in range(3, len(xs))}
        table = points_table(pts, 2.0)
        out = order_points(eligible, OpticsParams(eps=2.0, min_pts=min_pts), table)
        assert_matches_reference(eligible, table, 2.0, min_pts)
        ids = out.ids.tolist()
        starts = np.flatnonzero(np.isnan(out.reachability)).tolist()
        for k in starts:
            assert ids[k] == min(set(eligible) - set(ids[:k]))
        assert len(starts) == 6
        assert sorted(ids) == sorted(eligible)


    @given(table_layouts(), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_eps_at_the_radius_orders_as_a_wider_table(self, layout, min_pts):
        # at eps = 2r every entry of the 2r table is within eps, so no mask
        # of the entries beyond eps is built; a 3r table of the same points
        # builds it, and both must order the same, bit for bit
        dep, eligible = layout
        params = OpticsParams(eps=2 * dep.radius, min_pts=min_pts)
        mask = np.isin(dep.ids, list(eligible))
        wider = neighbor_rows(dep.ids, dep.x, dep.y, 3 * dep.radius)
        got = optics_order(build_neighbor_table(dep), params, mask)
        assert_same_bits(got, optics_order(wider, params, mask))

    @pytest.mark.parametrize("min_pts", [1, 2, 3, 4])
    def test_an_empty_table_orders_every_point_alone(self, min_pts):
        # every point isolated, even at 3r: no table has an entry, and the
        # running count holds only the 0 before the first entry
        pts = line_points([0, 10, 20, 30, 45])
        params = OpticsParams(eps=2.0, min_pts=min_pts)
        tables = points_table(pts, 2.0), points_table(pts, 3.0)
        assert [len(table.index) for table in tables] == [0, 0]
        got, wider = (optics_order(table, params, np.ones(5, dtype=bool)) for table in tables)
        assert_same_bits(got, wider)
        assert as_rows(got) == reference_optics(as_tuples(pts), 2.0, min_pts)

    def test_an_all_idle_ordering_peaks_within_1_6_times_the_entries(self):
        # 2,000 nodes at 0.2 sensors/m^2, the rotation workload's field:
        # 1.39 times E * 8 bytes for E table entries at numpy 2.4, the
        # offers' E float64s and the per-node lists of the emit loop; the
        # core distances' int32 running count is freed before the offers
        dep = generate_deployment(2000, 100.0, 100.0, 5.0, seed=42)
        table, idle = build_neighbor_table(dep), np.ones(2000, dtype=bool)
        params = OpticsParams(eps=10.0, min_pts=4)
        _, peak = traced_peak(lambda: optics_order(table, params, idle))
        assert peak <= 1.6 * 8 * len(table.index)


class TestOrdering:
    def test_columns_are_read_only_copies(self):
        ids, reach, core = np.array([4, 2]), np.array([math.nan, 1.0]), np.array([1.0, 2.0])
        ordering = Ordering(ids, reach, core)
        assert_columns(ordering)
        for column in (ids, reach, core):
            assert column.flags.writeable
        ids[0] = 9
        assert ordering.ids.tolist() == [4, 2]
        with pytest.raises(ValueError):
            ordering.reachability[0] = 0.0

    def test_none_reads_as_nan(self):
        ordering = Ordering([3, 1], [None, 0.5], [2.0, None])
        assert np.isnan(ordering.reachability[0]) and np.isnan(ordering.core_distance[1])
        assert as_rows(ordering) == [(3, None, 2.0), (1, 0.5, None)]

    def test_empty(self):
        ordering = Ordering()
        assert len(ordering) == 0 and not ordering
        assert_columns(ordering)
        assert ordering == Ordering([], [], [])
        assert list(ordering) == []

    @pytest.mark.parametrize(
        "columns",
        [([1, 2], [None], [None, None]), ([[1, 2]], [[None, None]], [[None, None]])],
        ids=["lengths", "2d"],
    )
    def test_columns_must_be_1d_and_of_one_length(self, columns):
        with pytest.raises(ValueError, match="1-D and of one length"):
            Ordering(*columns)

    def test_equality_reads_nan_as_equal(self):
        a = Ordering([1, 2], [None, 1.0], [0.5, None])
        assert a == Ordering([1, 2], [math.nan, 1.0], [0.5, math.nan])
        assert a != Ordering([2, 1], [None, 1.0], [0.5, None])
        assert a != Ordering([1, 2], [None, 1.5], [0.5, None])
        assert a != Ordering([1, 2], [None, 1.0], [0.5, 1.0])
        assert a != [(1, None, 0.5), (2, 1.0, None)]

    def test_iteration_builds_points_from_the_columns(self):
        ordering = Ordering([7, 3, 5], [None, 1.5, 2.0], [1.0, None, 0.5])
        assert len(ordering) == 3
        assert list(ordering) == [
            OrderedPoint(7, 0, None, 1.0),
            OrderedPoint(3, 1, 1.5, None),
            OrderedPoint(5, 2, 2.0, 0.5),
        ]
        for op in ordering:
            assert type(op.point_id) is int and type(op.order_index) is int


class TestExtractClusters:
    def test_single_dense_run(self):
        pts = line_points([0, 1, 2, 3, 4])
        out = order_points(pts, OpticsParams(eps=2, min_pts=2))
        assignment = extract_clusters(out, eps_prime=1.5)
        assert len(assignment.clusters) == 1
        assert set(assignment.clusters[0].members) == set(pts)
        assert assignment.outliers == set()

    def test_two_blobs_two_clusters(self):
        rng = random.Random(11)
        pts = two_blobs(rng)
        out = order_points(pts, OpticsParams(eps=5, min_pts=3))
        assignment = extract_clusters(out, eps_prime=4.0)
        assert len(assignment.clusters) == 2
        sizes = sorted(len(c.members) for c in assignment.clusters)
        assert sizes == [10, 10]

    def test_isolated_point_is_outlier(self):
        pts = line_points([0, 1, 2])
        pts[3] = Point2D(100.0, 0.0)
        out = order_points(pts, OpticsParams(eps=2, min_pts=2))
        assignment = extract_clusters(out, eps_prime=1.5)
        assert 3 in assignment.outliers

    def test_partition(self):
        rng = random.Random(3)
        pts = random_points(60, rng)
        out = order_points(pts, OpticsParams(eps=3, min_pts=3))
        assignment = extract_clusters(out, eps_prime=1.5)
        counted = sum(len(c.members) for c in assignment.clusters)
        assert counted + len(assignment.outliers) == len(pts)
        seen = set(assignment.outliers)
        for c in assignment.clusters:
            assert seen.isdisjoint(c.members)
            seen.update(c.members)
        assert seen == set(pts)

    def test_raising_cut_never_adds_outliers(self):
        rng = random.Random(17)
        pts = random_points(80, rng)
        out = order_points(pts, OpticsParams(eps=4, min_pts=3))
        previous = None
        for eps_prime in (0.5, 1.0, 2.0, 3.0, 4.0):
            outliers = extract_clusters(out, eps_prime).outliers
            if previous is not None:
                assert outliers <= previous
            previous = outliers

    def test_min_pts_one_wide_eps_single_cluster(self):
        rng = random.Random(23)
        pts = random_points(40, rng, span=10.0)
        params = OpticsParams(eps=100, min_pts=1)
        out = order_points(pts, params)
        assignment = extract_clusters(out, eps_prime=100)
        assert len(assignment.clusters) == 1
        assert not assignment.outliers

    @pytest.mark.parametrize("eps_prime", [0, -1, math.nan, math.inf])
    def test_bad_eps_prime(self, eps_prime):
        ordering = order_points(line_points([0, 1, 3]), OpticsParams(eps=2, min_pts=2))
        with pytest.raises(ValueError, match="eps_prime"):
            extract_clusters(ordering, eps_prime)

    @given(cut_columns())
    @settings(max_examples=300, deadline=None)
    @example(([1, 2, 3], [None, None, None], [None, 2.0, math.inf], 1.0))  # all outliers
    @example(([1, 2, 3], [None, 0.5, 1.0], [None, None, None], 1.0))  # outlier starter, members
    @example(([4, 5, 6], [1.0, 2.0, 1.0], [3.0, 1.0, None], 1.0))  # first point under the cut
    @example(([], [], [], 1.0))
    def test_matches_reference_cut(self, columns):
        ids, reach, core, eps_prime = columns
        ordering = Ordering(ids, reach, core)
        clusters, outliers = reference_clusters(as_rows(ordering), eps_prime)
        assignment = extract_clusters(ordering, eps_prime)
        assert assignment.clusters == [Cluster(k, m) for k, m in enumerate(clusters)]
        assert assignment.outliers == outliers
        for cluster in assignment.clusters:
            assert all(type(pid) is int for pid in cluster.members)


class TestGridIndex:
    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_radius_must_be_positive_and_finite(self, radius):
        # an infinite radius would put every point in one cell
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            GridIndex({0: Point2D(0.0, 0.0), 1: Point2D(1.0, 2.0)}, radius)

    def test_matches_brute_force(self):
        rng = random.Random(42)
        pts = random_points(150, rng, span=25.0)
        # points on the cell edges of radius 3, some exactly 3 or 6 apart
        for i in range(9):
            pts[150 + i] = Point2D(3.0 * i, 3.0 * (i % 3))
        for radius in (0.5, 3.0, 6.0):
            index = GridIndex(pts, radius)
            centers = [Point2D(rng.uniform(0, 25), rng.uniform(0, 25)) for _ in range(30)]
            # centers on cell edges and corners
            centers += [Point2D(radius * i, rng.uniform(0, 25)) for i in range(5)]
            centers += [Point2D(radius * i, radius * j) for i in range(4) for j in range(4)]
            for center in centers:
                assert index.query(center) == brute_force_query(pts, center, radius)

    def test_pair_straddling_zero(self):
        # 3.0 apart after rounding; cells counted from 0 would put the two
        # points at -1 and 1, outside each other's 3x3 block
        pts = {0: Point2D(-1.5e-323, 0.0), 1: Point2D(3.0, 0.0)}
        index = GridIndex(pts, 3.0)
        for center in pts.values():
            assert index.query(center) == brute_force_query(pts, center, 3.0)
        assert index.query(pts[0]) == [(0, 0.0), (1, 3.0)]

    def test_pair_rounding_down_to_the_radius(self):
        # points 1 and 2 are 0.5 apart after rounding; with cells of side
        # exactly 0.5 they sit in cells 2 and 0, outside each other's block
        pts = {0: Point2D(0.0, 0.0), 1: Point2D(1.0, 0.0), 2: Point2D(0.49999999999999994, 0.0)}
        index = GridIndex(pts, 0.5)
        for center in pts.values():
            assert index.query(center) == brute_force_query(pts, center, 0.5)
        assert index.query(pts[1]) == [(1, 0.0), (2, 0.5)]

    def test_matches_brute_force_near_cell_edges(self):
        # lattice points at multiples of r/2, each coordinate nudged by up
        # to two ulps: pairs land on, just inside and just past cell edges
        rng = random.Random(0)

        def nudge(v):
            for _ in range(rng.randint(0, 2)):
                v = math.nextafter(v, rng.choice((-math.inf, math.inf)))
            return v

        for _ in range(3000):
            r = rng.choice((0.1, 0.3, 0.5, 1.0, 3.0, 5.0, 10.0))
            pts = {
                i: Point2D(nudge(rng.randint(0, 6) * r / 2), nudge(rng.randint(0, 6) * r / 2))
                for i in range(5)
            }
            index = GridIndex(pts, r)
            for center in pts.values():
                assert index.query(center) == brute_force_query(pts, center, r)


# floats whose text is easy to get wrong: signed zeros, infinities, NaN,
# subnormals, the extremes of the normal range and values needing 17 digits
AWKWARD_FLOATS = st.sampled_from(
    [
        *(0.0, -0.0, math.inf, -math.inf, math.nan),
        *(5e-324, -5e-324, 1.1125369292536007e-308, 2.2250738585072014e-308),
        *(1e300, -1e300, 1e-300, 1.7976931348623157e308, 0.1 + 0.2, 1e16, 1e-5),
    ]
)


@st.composite
def csv_orderings(draw):
    """Orderings of any length, 0 included, with ids anywhere in int64
    (often near 2**62) and any float64 columns."""
    n = draw(st.integers(0, 12))
    ids = st.one_of(st.integers(2**62 - 8, 2**62 + 8), st.integers(-(2**63), 2**63 - 1))
    floats = st.one_of(AWKWARD_FLOATS, st.floats(width=64))
    column = st.lists(floats, min_size=n, max_size=n)
    return Ordering(draw(st.lists(ids, min_size=n, max_size=n)), draw(column), draw(column))


class TestReachabilityCsv:
    @given(csv_orderings())
    @example(Ordering())
    @example(Ordering([2**62, 2**62 + 1], [math.nan, -0.0], [5e-324, 1e-300]))
    @example(Ordering([0, 1, 2], [math.inf, 1e300, 0.0], [-math.inf, math.nan, -1e300]))
    def test_bytes_are_csv_writers(self, ordering):
        out = io.StringIO(newline="")
        write_reachability_csv(ordering, out)
        assert out.getvalue() == reference_reachability_csv(ordering)

    def test_roundtrip(self, tmp_path):
        rng = random.Random(8)
        pts = random_points(30, rng)
        out = order_points(pts, OpticsParams(eps=4, min_pts=3))
        path = tmp_path / "reach.csv"
        with open(path, "w", newline="") as fh:
            write_reachability_csv(out, fh)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["order_index", "point_id", "reachability", "core_distance"]
        back = [
            (int(idx), int(pid), float(r) if r else None, float(cd) if cd else None)
            for idx, pid, r, cd in rows
        ]
        assert back == [(k, *row) for k, row in enumerate(as_rows(out))]

    def test_undefined_encodes_empty(self, tmp_path):
        out = order_points({0: Point2D(0, 0)}, OpticsParams(eps=1, min_pts=2))
        path = tmp_path / "reach.csv"
        with open(path, "w", newline="") as fh:
            write_reachability_csv(out, fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "order_index,point_id,reachability,core_distance"
        assert lines[1] == "0,0,,"
