import math

import pytest
from hypothesis import given, settings, strategies as st

from optics_coverage.geometry import Point2D
from optics_coverage.network import (
    DEAD,
    IDLE,
    Deployment,
    SensorNode,
    build_neighbor_table,
    drain_battery,
    generate_deployment,
)
from optics_coverage.optics import OpticsParams
from optics_coverage.protocol import AllNodesDeadError, iterate_rounds
from optics_coverage.spatial import brute_force_query


def make_deployment(positions, radius=5.0, battery=1.0, states=None):
    nodes = [
        SensorNode(i, Point2D(x, y), battery, (states or {}).get(i, IDLE))
        for i, (x, y) in enumerate(positions)
    ]
    return Deployment(nodes, 100.0, 100.0, radius)


def reference_table(dep):
    """Neighbor rows by the brute-force scan at 2r, minus each node itself."""
    points = {n.id: n.position for n in dep.nodes}
    return {
        n.id: [
            (q, d)
            for q, d in brute_force_query(points, n.position, 2 * dep.radius)
            if q != n.id
        ]
        for n in dep.nodes
    }


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

    def test_bad_count(self):
        with pytest.raises(ValueError):
            generate_deployment(0, 50, 50, 5, seed=0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("arg", [1, 2, 3], ids=["width", "height", "radius"])
    def test_geometry_must_be_positive_and_finite(self, arg, bad):
        args = [10, 50.0, 50.0, 5.0]
        args[arg] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            generate_deployment(*args, seed=0)


class TestNeighborTable:
    def test_direct_neighbor_counts(self):
        # j1 in the middle touches both others; j2 on the end touches one
        dep = make_deployment([(0, 0), (8, 0), (-8, 0)])
        table = build_neighbor_table(dep)
        assert table.degree(0) == 2
        assert table.degree(1) == 1
        assert table.degree(2) == 1

    def test_boundary_inclusive(self):
        dep = make_deployment([(0, 0), (10, 0)])
        table = build_neighbor_table(dep)
        assert table.degree(0) == 1

    def test_just_beyond_boundary(self):
        dep = make_deployment([(0, 0), (10.001, 0)])
        table = build_neighbor_table(dep)
        assert table.degree(0) == 0

    def test_distances_recorded(self):
        dep = make_deployment([(0, 0), (6, 8)])
        table = build_neighbor_table(dep)
        assert table[0] == [(1, 10.0)]
        assert table[1] == [(0, 10.0)]

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed):
        dep = generate_deployment(60, 50, 50, 5, seed=seed)
        table = build_neighbor_table(dep)
        for nid, entries in table.neighbors.items():
            for other, dist in entries:
                assert (nid, dist) in table[other]
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
        nodes = list(generate_deployment(count, width, height, radius, seed).nodes)
        # extra nodes on the positions of drawn nodes, some drawn twice
        nodes += [
            SensorNode(count + k, nodes[i % count].position, 1.0)
            for k, i in enumerate(twins)
        ]
        dep = Deployment(nodes, width, height, radius)
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
        assert (1, 10.0) in table[0] and (2, 10.0) in table[0]
        assert (5, 10.0) in table[0] and (0, 10.0) in table[3]

    def test_pair_rounding_down_to_2r(self):
        # nodes 1 and 2 are 0.5 = 2r apart after rounding; with cells of
        # side exactly 2r they sit two cells apart
        dep = make_deployment([(0.0, 0.0), (1.0, 0.0), (0.49999999999999994, 0.0)], radius=0.25)
        table = build_neighbor_table(dep)
        assert table.neighbors == reference_table(dep)
        assert table[1] == [(2, 0.5)]

    def test_pair_at_2r_whose_squares_round_up(self):
        # math.hypot gives exactly 10.0, but dx*dx + dy*dy rounds to
        # 100.00000000000001: a prefilter at (2r)^2 would drop the pair
        dep = make_deployment(
            [(8.429714851915298, 11.346867301343616), (13.692736402074342, 19.849843495745287)]
        )
        table = build_neighbor_table(dep)
        assert table.neighbors == reference_table(dep)
        assert table[0] == [(1, 10.0)]

    def test_empty_deployment(self):
        dep = Deployment([], 50.0, 50.0, 5.0)
        table = build_neighbor_table(dep)
        assert table.neighbors == {} and table.radius == 10.0
        with pytest.raises(AllNodesDeadError):
            next(iterate_rounds(dep, OpticsParams(eps=10, min_pts=4)))

    def test_unsorted_sparse_ids(self):
        nodes = [SensorNode(nid, Point2D(x, 0.0), 1.0) for nid, x in ((7, 0.0), (3, 4.0), (100, 8.0))]
        table = build_neighbor_table(Deployment(nodes, 50.0, 50.0, 5.0))
        assert list(table.neighbors) == [7, 3, 100]
        assert table[7] == [(3, 4.0), (100, 8.0)]
        assert table[3] == [(7, 4.0), (100, 4.0)]
        assert table[100] == [(3, 4.0), (7, 8.0)]

    def test_co_located_twins(self):
        dep = make_deployment([(3.0, 4.0), (3.0, 4.0), (9.0, 12.0)])
        table = build_neighbor_table(dep)
        assert table[0] == [(1, 0.0), (2, 10.0)]
        assert table[1] == [(0, 0.0), (2, 10.0)]

    def test_far_offset_field(self):
        base = generate_deployment(300, 50, 50, 5, seed=3)
        nodes = [
            SensorNode(n.id, Point2D(n.position.x + 1e6, n.position.y + 1e6), 1.0)
            for n in base.nodes
        ]
        dep = Deployment(nodes, 50.0, 50.0, 5.0)
        assert build_neighbor_table(dep).neighbors == reference_table(dep)

    def test_entries_are_plain_python_shared_objects(self):
        # numpy scalars would change the reachability CSV's float reprs and
        # break json.dumps of traces. Rows hold the nodes' own id objects
        # (ids past the small-int cache) and one distance object per pair.
        base = generate_deployment(200, 50, 50, 5, seed=4)
        nodes = [SensorNode(n.id + 10**6, n.position, 1.0) for n in base.nodes]
        dep = Deployment(nodes, 50.0, 50.0, 5.0)
        table = build_neighbor_table(dep)
        by_id = {n.id: n.id for n in nodes}
        for nid, row in table.neighbors.items():
            for other, d in row:
                assert type(other) is int and type(d) is float
                assert other is by_id[other]
                assert next(e for o, e in table[other] if o == nid) is d


class TestDrainBattery:
    def test_normal_drain(self):
        node = SensorNode(0, Point2D(0, 0), 1.0)
        drain_battery(node, 0.1)
        assert node.battery == pytest.approx(0.9)
        assert node.state == IDLE

    def test_clamps_to_zero_and_dies(self):
        node = SensorNode(0, Point2D(0, 0), 0.05)
        drain_battery(node, 0.1)
        assert node.battery == 0.0
        assert node.state == DEAD

    def test_zero_amount_is_identity(self):
        node = SensorNode(0, Point2D(0, 0), 0.7)
        drain_battery(node, 0.0)
        assert node.battery == 0.7

    def test_negative_amount_rejected(self):
        node = SensorNode(0, Point2D(0, 0), 0.7)
        with pytest.raises(ValueError):
            drain_battery(node, -0.1)

    @given(st.floats(0, 1), st.floats(0, 2, allow_nan=False))
    def test_battery_stays_normalized(self, start, amount):
        state = DEAD if start == 0 else IDLE
        node = SensorNode(0, Point2D(0, 0), start, state)
        drain_battery(node, amount)
        assert 0.0 <= node.battery <= 1.0


class TestNodeInvariants:
    def test_battery_range_enforced(self):
        with pytest.raises(ValueError):
            SensorNode(0, Point2D(0, 0), 1.5)

    def test_dead_iff_empty(self):
        with pytest.raises(ValueError):
            SensorNode(0, Point2D(0, 0), 0.0, IDLE)
        with pytest.raises(ValueError):
            SensorNode(0, Point2D(0, 0), 0.5, DEAD)

    def test_duplicate_ids_rejected(self):
        nodes = [
            SensorNode(0, Point2D(0, 0), 1.0),
            SensorNode(0, Point2D(1, 1), 1.0),
        ]
        with pytest.raises(ValueError):
            Deployment(nodes, 10, 10, 5.0)

    @pytest.mark.parametrize("radius", [0, -1, math.nan, math.inf])
    def test_radius_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            Deployment([SensorNode(0, Point2D(0, 0), 1.0)], 10, 10, radius)

    def test_nodes_fixed_at_construction(self):
        # the id index is built once, so a node added later would be in
        # the neighbor table but unknown to deployment.node inside a round
        nodes = [SensorNode(i, Point2D(i, 0), 1.0) for i in range(3)]
        dep = Deployment(nodes, 10, 10, 5.0)
        nodes.append(SensorNode(3, Point2D(3, 0), 1.0))
        assert len(dep.nodes) == 3
        with pytest.raises(AttributeError):
            dep.nodes.append(SensorNode(3, Point2D(3, 0), 1.0))
        assert 3 not in dep and [n.id for n in dep.nodes] == [0, 1, 2]
