import csv
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from optics_coverage.geometry import Point2D
from optics_coverage.network import Deployment, SensorNode, build_neighbor_table
from optics_coverage.optics import (
    OpticsParams,
    extract_clusters,
    optics_order,
    write_reachability_csv,
)
from optics_coverage.spatial import GridIndex, brute_force_query

from optics_reference import reference_optics


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
    nodes = [SensorNode(nid, Point2D(x, y), 1.0) for nid, (x, y) in zip(ids, positions)]
    picked = draw(st.lists(st.sampled_from(nodes), min_size=1, unique_by=lambda n: n.id))
    return Deployment(nodes, 30.0, 30.0, radius), {n.id: n.position for n in picked}


def by_id(points, params):
    return {op.point_id: op for op in optics_order(points, params)}


class TestCoreDistance:
    def test_second_closest_including_self(self):
        pts = line_points([0, 1, 3])
        assert by_id(pts, OpticsParams(eps=5, min_pts=2))[0].core_distance == 1

    def test_sparse_neighborhood_undefined(self):
        pts = line_points([0, 1, 3])
        assert by_id(pts, OpticsParams(eps=0.5, min_pts=2))[0].core_distance is None

    def test_min_pts_one_is_zero(self):
        pts = line_points([0, 1, 3])
        for op in optics_order(pts, OpticsParams(eps=2, min_pts=1)):
            assert op.core_distance == 0


class TestReachabilityDistance:
    # a point's reachability is max(core distance of the core point that
    # reached it, distance between the two), minimized over processed cores
    def test_core_distance_dominates(self):
        # 0 is the start, core distance 2; 1 sits 1 away
        pts = line_points([0, 1, 2])
        ordered = by_id(pts, OpticsParams(eps=5, min_pts=3))
        assert ordered[0].core_distance == 2
        assert ordered[1].reachability == 2

    def test_actual_distance_dominates(self):
        # 2 is reached from 1 (core distance 0.5) across a distance of 2.5
        pts = line_points([0, 0.5, 3])
        ordered = by_id(pts, OpticsParams(eps=5, min_pts=2))
        assert ordered[1].core_distance == 0.5
        assert ordered[2].reachability == 2.5

    def test_non_core_point_undefined(self):
        pts = line_points([0, 1, 3])
        for op in optics_order(pts, OpticsParams(eps=5, min_pts=10)):
            assert op.reachability is None


class TestOpticsOrder:
    def test_single_point(self):
        out = optics_order({7: Point2D(1, 1)}, OpticsParams(eps=1, min_pts=2))
        assert len(out) == 1
        assert out[0].point_id == 7
        assert out[0].order_index == 0
        assert out[0].reachability is None
        assert out[0].core_distance is None

    def test_collinear_chain(self):
        pts = line_points([0, 1, 2, 3, 4])
        out = optics_order(pts, OpticsParams(eps=2, min_pts=2))
        assert [op.point_id for op in out] == [0, 1, 2, 3, 4]
        assert [op.reachability for op in out] == [None, 1, 1, 1, 1]

    def test_two_blobs_reachability_structure(self):
        rng = random.Random(5)
        pts = two_blobs(rng)
        out = optics_order(pts, OpticsParams(eps=5, min_pts=3))
        blob_diameter = 2 * math.hypot(1, 1)
        undefined = [op for op in out if op.reachability is None]
        assert len(undefined) == 2  # one group start per blob
        for op in out:
            if op.reachability is not None:
                assert op.reachability <= blob_diameter

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            optics_order({}, OpticsParams(eps=1, min_pts=1))

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
        got = optics_order(pts, params)
        expected = reference_optics(as_tuples(pts), params.eps, params.min_pts)
        assert [(o.point_id, o.reachability, o.core_distance) for o in got] == expected

    def test_matches_reference_through_grid_index(self):
        # a larger field spanning many grid cells; results must stay
        # identical to the brute-force reference
        rng = random.Random(99)
        pts = random_points(120, rng, span=30.0)
        params = OpticsParams(eps=4.0, min_pts=4)
        got = optics_order(pts, params)
        expected = reference_optics(as_tuples(pts), params.eps, params.min_pts)
        assert [(o.point_id, o.reachability, o.core_distance) for o in got] == expected

    @given(st.integers(0, 10_000), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_output_is_permutation(self, seed, n):
        rng = random.Random(seed)
        pts = random_points(n, rng)
        out = optics_order(pts, OpticsParams(eps=5, min_pts=3))
        assert sorted(op.point_id for op in out) == sorted(pts)
        assert [op.order_index for op in out] == list(range(n))

    @pytest.mark.parametrize("seed", range(5))
    def test_emitted_reachability_is_min_over_prior_core_points(self, seed):
        # direct post-condition check, independent of any ordering loop:
        # each point's recorded reachability must equal the minimum
        # reachability distance from the core points processed before it
        # whose neighborhood contains it, and None when no such point
        rng = random.Random(seed + 400)
        pts = random_points(rng.randint(5, 45), rng)
        params = OpticsParams(eps=rng.uniform(2, 7), min_pts=rng.randint(1, 4))
        out = optics_order(pts, params)
        for k, op in enumerate(out):
            candidates = []
            for prior in out[:k]:
                if prior.core_distance is None:
                    continue
                d = math.hypot(
                    pts[prior.point_id].x - pts[op.point_id].x,
                    pts[prior.point_id].y - pts[op.point_id].y,
                )
                if d <= params.eps:
                    candidates.append(max(prior.core_distance, d))
            if op.reachability is None:
                assert not candidates
            else:
                assert op.reachability == min(candidates)

    @given(table_layouts(), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_table_neighborhoods_match_grid(self, layout, min_pts):
        dep, eligible = layout
        table = build_neighbor_table(dep)
        r = dep.radius
        for eps in (r, 1.5 * r, 2 * r, 3 * r):  # 3r is past the table's 2r
            params = OpticsParams(eps=eps, min_pts=min_pts)
            assert optics_order(eligible, params, table) == optics_order(
                eligible, params
            )

    @given(table_layouts(), st.sampled_from([1, 2, 4, 9]))
    @settings(max_examples=120, deadline=None)
    def test_table_ordering_matches_reference(self, layout, min_pts):
        dep, eligible = layout
        table = build_neighbor_table(dep)
        r = dep.radius
        for eps in (r, 1.5 * r, 2 * r, 3 * r):  # 3r rebuilds rows without the table
            got = optics_order(eligible, OpticsParams(eps=eps, min_pts=min_pts), table)
            expected = reference_optics(as_tuples(eligible), eps, min_pts)
            assert [(o.point_id, o.reachability, o.core_distance) for o in got] == expected
            # an np.float64 would reach the reachability CSV through repr
            for o in got:
                assert type(o.point_id) is int
                assert o.reachability is None or type(o.reachability) is float
                assert o.core_distance is None or type(o.core_distance) is float

    @pytest.mark.parametrize("eps", [5.0, 30.0])  # within the table's 2r, and past it
    def test_point_outside_table_rejected(self, eps):
        rng = random.Random(3)
        dep = Deployment(
            [SensorNode(i, p, 1.0) for i, p in random_points(30, rng).items()], 20.0, 20.0, 5.0
        )
        table = build_neighbor_table(dep)
        points = {99: Point2D(1.0, 1.0), 0: dep.node(0).position}
        with pytest.raises(ValueError, match="point 99 is not a node of the neighbor table"):
            optics_order(points, OpticsParams(eps=eps, min_pts=2), table)


class TestExtractClusters:
    def test_single_dense_run(self):
        pts = line_points([0, 1, 2, 3, 4])
        out = optics_order(pts, OpticsParams(eps=2, min_pts=2))
        assignment = extract_clusters(out, eps_prime=1.5)
        assert len(assignment.clusters) == 1
        assert set(assignment.clusters[0].members) == set(pts)
        assert assignment.outliers == set()

    def test_two_blobs_two_clusters(self):
        rng = random.Random(11)
        pts = two_blobs(rng)
        out = optics_order(pts, OpticsParams(eps=5, min_pts=3))
        assignment = extract_clusters(out, eps_prime=4.0)
        assert len(assignment.clusters) == 2
        sizes = sorted(len(c.members) for c in assignment.clusters)
        assert sizes == [10, 10]

    def test_isolated_point_is_outlier(self):
        pts = line_points([0, 1, 2])
        pts[3] = Point2D(100.0, 0.0)
        out = optics_order(pts, OpticsParams(eps=2, min_pts=2))
        assignment = extract_clusters(out, eps_prime=1.5)
        assert 3 in assignment.outliers

    def test_partition(self):
        rng = random.Random(3)
        pts = random_points(60, rng)
        out = optics_order(pts, OpticsParams(eps=3, min_pts=3))
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
        out = optics_order(pts, OpticsParams(eps=4, min_pts=3))
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
        out = optics_order(pts, params)
        assignment = extract_clusters(out, eps_prime=100)
        assert len(assignment.clusters) == 1
        assert not assignment.outliers

    @pytest.mark.parametrize("eps_prime", [0, -1, math.nan, math.inf])
    def test_bad_eps_prime(self, eps_prime):
        ordering = optics_order(line_points([0, 1, 3]), OpticsParams(eps=2, min_pts=2))
        with pytest.raises(ValueError, match="eps_prime"):
            extract_clusters(ordering, eps_prime)


class TestGridIndex:
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


class TestReachabilityCsv:
    def test_roundtrip(self, tmp_path):
        rng = random.Random(8)
        pts = random_points(30, rng)
        out = optics_order(pts, OpticsParams(eps=4, min_pts=3))
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
        assert back == [
            (op.order_index, op.point_id, op.reachability, op.core_distance)
            for op in out
        ]

    def test_undefined_encodes_empty(self, tmp_path):
        out = optics_order({0: Point2D(0, 0)}, OpticsParams(eps=1, min_pts=2))
        path = tmp_path / "reach.csv"
        with open(path, "w", newline="") as fh:
            write_reachability_csv(out, fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "order_index,point_id,reachability,core_distance"
        assert lines[1] == "0,0,,"
