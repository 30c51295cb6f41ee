import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optics_coverage.geometry import Point2D
from optics_coverage.network import (
    ACTIVE,
    DEAD,
    IDLE,
    SLEEPING,
    STATE_CODE,
    Deployment,
    NeighborTable,
    SensorNode,
    _cell_ranks,
    build_neighbor_table,
    drain_battery,
    generate_deployment,
    neighbor_rows,
)
from optics_coverage.optics import OpticsParams
from optics_coverage.protocol import AllNodesDeadError, ProtocolConfig, iterate_rounds
from optics_coverage.spatial import brute_force_query


def make_deployment(positions, radius=5.0, battery=1.0, states=None):
    nodes = [
        SensorNode(i, Point2D(x, y), battery, (states or {}).get(i, IDLE))
        for i, (x, y) in enumerate(positions)
    ]
    return Deployment(nodes, 100.0, 100.0, radius)


def reference_rows(points, reach):
    """Rows by the brute-force scan at ``reach``, minus each point itself,
    sorted by (distance, id)."""
    return {
        pid: sorted(
            [(q, d) for q, d in brute_force_query(points, p, reach) if q != pid],
            key=lambda entry: (entry[1], entry[0]),
        )
        for pid, p in points.items()
    }


def reference_table(dep):
    """Neighbor rows by the brute-force scan at 2r."""
    return reference_rows({n.id: n.position for n in dep.nodes}, 2 * dep.radius)


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
        assert table.ids.tolist() == list(table.neighbors) == [3, 7, 100]
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
        # break json.dumps of traces. Rows hold node ids (past the
        # small-int cache here) and one distance value per pair.
        base = generate_deployment(200, 50, 50, 5, seed=4)
        nodes = [SensorNode(n.id + 10**6, n.position, 1.0) for n in base.nodes]
        dep = Deployment(nodes, 50.0, 50.0, 5.0)
        table = build_neighbor_table(dep)
        for nid, row in table.neighbors.items():
            assert type(nid) is int and nid in dep
            for other, d in row:
                assert type(other) is int and type(d) is float
                assert other in dep
                back = next(e for o, e in table[other] if o == nid)
                assert type(back) is float and back == d

    @pytest.mark.parametrize("radius", [0.5, 3.0, 10.0, 17.5])
    def test_neighbor_rows_builds_a_table_at_its_radius(self, radius):
        dep = generate_deployment(150, 40, 40, 5, seed=8)
        points = {n.id: n.position for n in dep.nodes}
        table = neighbor_rows(points, radius)
        assert isinstance(table, NeighborTable) and table.radius == radius
        assert table.neighbors == reference_rows(points, radius)

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
            assert table.degree(pid) == len(entries)


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


def assert_arrays_match(dep):
    """The deployment's arrays, slot by slot in id order, equal its nodes'."""
    nodes = sorted(dep.nodes, key=lambda n: n.id)
    assert dep.ids.tolist() == [n.id for n in nodes]
    assert dep.state_code.tolist() == [STATE_CODE[n.state] for n in nodes]
    assert dep.battery.tolist() == [n.battery for n in nodes]


class TestDeploymentArrays:
    def test_after_a_run(self):
        # 12 rounds at a 0.3 drain: actives sleep, wake and some die
        dep = generate_deployment(200, 50, 50, 5, seed=3)
        config = ProtocolConfig(battery_drain=0.3)
        for _ in iterate_rounds(dep, OpticsParams(eps=10, min_pts=4), config, rounds=12):
            assert_arrays_match(dep)
        assert {n.state for n in dep.nodes} == {IDLE, ACTIVE, SLEEPING, DEAD}

    def test_direct_writes(self):
        nodes = [SensorNode(nid, Point2D(nid, 0), 1.0) for nid in (7, 3, 100)]
        dep = Deployment(nodes, 50.0, 50.0, 5.0)
        assert dep.ids.tolist() == [3, 7, 100]
        nodes[0].state = ACTIVE
        nodes[2].state = SLEEPING
        nodes[1].battery = 0.25
        assert_arrays_match(dep)
        assert dep.state_code.tolist() == [STATE_CODE[IDLE], STATE_CODE[ACTIVE], STATE_CODE[SLEEPING]]
        with pytest.raises(ValueError, match="unknown state"):
            nodes[0].state = "asleep"
        assert nodes[0].state == ACTIVE
        assert_arrays_match(dep)

    def test_drained_to_dead(self):
        dep = make_deployment([(0, 0), (3, 0)], battery=0.5)
        drain_battery(dep.node(1), 0.75)
        assert dep.node(1).state == DEAD
        assert_arrays_match(dep)
        assert dep.battery.tolist() == [0.5, 0.0]

    def test_nodes_wrapped_in_a_second_deployment(self):
        # as the brute-force table test does: a field's nodes plus extra ones;
        # a write reaches both deployments' arrays
        first = generate_deployment(40, 30, 30, 5, seed=5)
        extra = [
            SensorNode(40 + k, Point2D(first.nodes[k].position.x + 0.5, 0.0), 1.0)
            for k in range(3)
        ]
        second = Deployment(list(first.nodes) + extra, 30.0, 30.0, 5.0)
        assert_arrays_match(second)
        first.nodes[4].battery = 0.125
        drain_battery(first.nodes[5], 1.0)
        drain_battery(extra[0], 1.0)
        assert_arrays_match(first)
        assert_arrays_match(second)
        for _ in iterate_rounds(second, OpticsParams(eps=10, min_pts=2), rounds=2):
            assert_arrays_match(second)
        assert_arrays_match(first)
