import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from protocol_reference import reference_cover_cluster, reference_select_next

from optics_coverage import protocol
from optics_coverage.geometry import CoLocatedSensorsError, Point2D
from optics_coverage.network import (
    ACTIVE,
    DEAD,
    IDLE,
    SLEEPING,
    Deployment,
    SensorNode,
    build_neighbor_table,
    generate_deployment,
)
from optics_coverage.optics import Cluster, OpticsParams
from optics_coverage.protocol import (
    AllNodesDeadError,
    ProtocolConfig,
    RoundState,
    acceptance_level,
    choose_initial_sensor,
    cover_cluster,
    iterate_rounds,
    read_trace,
    run_round,
    select_next,
    write_trace,
)


def make_deployment(positions, radius=5.0, batteries=None, states=None, width=100.0):
    nodes = [
        SensorNode(
            i,
            Point2D(x, y),
            (batteries or {}).get(i, 1.0),
            (states or {}).get(i, IDLE),
        )
        for i, (x, y) in enumerate(positions)
    ]
    return Deployment(nodes, width, width, radius)


@st.composite
def clumped_layouts(draw):
    """Scattered positions plus tight clumps, whose members lose more than
    the full circle to their active neighbors; batteries; cluster members."""
    coord = st.floats(0, 30)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=20))
    offset = st.floats(-1.5, 1.5)
    for cx, cy in draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=3)):
        clump = draw(st.lists(st.tuples(offset, offset), min_size=3, max_size=10))
        positions += [(cx + dx, cy + dy) for dx, dy in clump]
    n = len(positions)
    batteries = draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n))
    outside = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    members = tuple(i for i in range(n) if i not in outside)
    return positions, dict(enumerate(batteries)), members


@st.composite
def request_layouts(draw):
    """One request's inputs: lattice positions (equal distances, so tied
    levels), co-located twins, points a subnormal distance from the origin
    (often the sender), sparse unsorted ids, mixed states around an active
    sender, an allowed set, and weights that can score -inf and +inf."""
    cell = st.integers(0, 4)
    positions = draw(st.lists(st.tuples(cell, cell), max_size=14))
    positions = [(0.0, 0.0)] + [(float(x), float(y)) for x, y in positions]
    positions += draw(st.lists(st.sampled_from(positions), max_size=3))
    tiny = st.sampled_from([5e-324, 1e-320, 1e-310, 2.5e-308])
    positions += [(t, 0.0) for t in draw(st.lists(tiny, max_size=2))]
    n = len(positions)
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    state = st.sampled_from([IDLE, IDLE, ACTIVE, SLEEPING, DEAD])
    states = draw(st.lists(state, min_size=n, max_size=n))
    batteries = draw(st.lists(st.sampled_from([0.5, 0.75, 1.0]), min_size=n, max_size=n))
    sender = draw(st.just(0) | st.integers(0, n - 1))
    states[sender] = ACTIVE
    nodes = [
        SensorNode(nid, Point2D(*pos), 0.0 if state == DEAD else battery, state)
        for nid, pos, state, battery in zip(ids, positions, states, batteries)
    ]
    allowed = draw(st.none() | st.sets(st.sampled_from(ids)))
    config = ProtocolConfig(
        w_battery=draw(st.sampled_from([0.4, 0.0, -1.0])),
        w_neighbors=draw(st.sampled_from([0.3, 0.0])),
    )
    return Deployment(nodes, 10.0, 10.0, 1.0), ids[sender], allowed, config


def allowed_mask(table, allowed_ids):
    return np.isin(table.ids, list(allowed_ids))


class TestAcceptanceLevel:
    def test_formula_simple(self):
        assert acceptance_level(1.0, 2, 5) == pytest.approx(1.0)

    def test_formula_second(self):
        assert acceptance_level(0.5, 3, 2) == pytest.approx(2.75)

    def test_dead_isolated_candidate_scores_zero(self):
        assert acceptance_level(0.0, 0, 7.3) == 0.0

    def test_zero_distance_is_co_location(self):
        # 0.2 * 5e-324 underflows to 0, which would divide by zero
        for distance in (0.0, 5e-324):
            with pytest.raises(CoLocatedSensorsError):
                acceptance_level(1.0, 2, distance)

    def test_neighbor_count_can_outweigh_battery(self):
        weak_battery = acceptance_level(0.6, 2, 4)
        strong_battery = acceptance_level(1.0, 1, 4)
        assert strong_battery == pytest.approx(0.875)
        assert weak_battery == pytest.approx(1.05)
        assert weak_battery > strong_battery

    def test_custom_weights(self):
        weights = ProtocolConfig(w_battery=1.0, w_neighbors=0.0, w_distance=1.0)
        assert acceptance_level(0.8, 5, 2, weights) == pytest.approx(0.4)


class TestProtocolConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"theta": -0.1},
            {"theta": 5},
            {"battery_drain": -1},
            {"sleep_rounds": 0},
            {"w_distance": 0},
            {"grid_resolution": 9},
            {"sleep_rounds": 1.5},
            {"sleep_rounds": True},
            {"grid_resolution": 50.5},
            {"grid_resolution": 500.0},
            {"theta": math.nan},
            {"battery_drain": math.inf},
            {"w_battery": math.nan},
            {"w_neighbors": -math.inf},
            {"w_distance": math.inf},
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_invalid_value_rejected_at_construction(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            ProtocolConfig(**bad)


class TestChooseInitialSensor:
    def test_singleton(self):
        dep = make_deployment([(3, 3)])
        assert choose_initial_sensor(Cluster(0, (0,)), dep) == 0

    def test_collinear_prefers_nearest_to_centroid(self):
        dep = make_deployment([(0, 0), (1, 0), (10, 0)])
        # centroid x = 11/3, closest member is the one at x=1
        assert choose_initial_sensor(Cluster(0, (0, 1, 2)), dep) == 1

    def test_symmetric_square_breaks_tie_by_id(self):
        dep = make_deployment([(0, 0), (0, 2), (2, 0), (2, 2)])
        assert choose_initial_sensor(Cluster(0, (0, 1, 2, 3)), dep) == 0

    def test_empty_cluster_rejected(self):
        dep = make_deployment([(0, 0)])
        with pytest.raises(ValueError):
            choose_initial_sensor(Cluster(0, ()), dep)


class TestSelectNext:
    def test_ranked_by_level(self):
        # radius 1 keeps neighborhoods small: candidate 2 has an extra
        # neighbor (the sleeping node 3), so its level wins despite the
        # weaker battery
        dep = make_deployment(
            [(0, 0), (1.8, 0), (0, 1.8), (0, 2.9)],
            radius=1.0,
            batteries={1: 1.0, 2: 0.6},
            states={0: ACTIVE, 3: SLEEPING},
        )
        table = build_neighbor_table(dep)
        assert table.degree(1) == 1
        assert table.degree(2) == 2
        assert select_next(0, table, dep) == [2, 1]

    def test_full_ranking_order(self):
        positions = [(0, 0), (6, 0), (0, 2), (-4, 1), (3, 3), (1, -7), (-2, -2)]
        batteries = {1: 0.9, 2: 0.55, 3: 0.7, 4: 1.0, 5: 0.8, 6: 0.6}
        dep = make_deployment(positions, batteries=batteries, states={0: ACTIVE})
        table = build_neighbor_table(dep)
        levels = {
            nid: acceptance_level(batteries[nid], table.degree(nid), d)
            for nid, d in table[0]
        }
        assert len(set(levels.values())) == 6
        assert select_next(0, table, dep) == sorted(levels, key=levels.get, reverse=True)

    def test_ties_go_to_lower_id(self):
        # 1, 2 and 3 are exactly 3 m out with equal battery and degree;
        # 4 is closer and outranks them
        dep = make_deployment(
            [(0, 0), (3, 0), (0, 3), (-3, 0), (0, -2)], states={0: ACTIVE}
        )
        table = build_neighbor_table(dep)
        assert {table.degree(nid) for nid in (1, 2, 3)} == {4}
        assert select_next(0, table, dep) == [4, 1, 2, 3]

    def test_no_idle_neighbors(self):
        dep = make_deployment([(0, 0), (3, 0)], states={0: ACTIVE, 1: SLEEPING})
        table = build_neighbor_table(dep)
        assert select_next(0, table, dep) == []

    def test_allowed_filter(self):
        dep = make_deployment([(0, 0), (3, 0), (0, 3)], states={0: ACTIVE})
        table = build_neighbor_table(dep)
        assert select_next(0, table, dep, allowed=allowed_mask(table, {1})) == [1]
        assert select_next(0, table, dep, allowed=allowed_mask(table, set())) == []

    def test_minus_inf_reply_never_offered(self):
        # a negative battery weight over a subnormal distance scores -inf
        dep = make_deployment([(0, 0), (1e-310, 0), (3, 0)], states={0: ACTIVE})
        table = build_neighbor_table(dep)
        config = ProtocolConfig(w_battery=-1.0, w_neighbors=0.0)
        assert acceptance_level(1.0, 2, 1e-310, config) == -math.inf
        assert select_next(0, table, dep, config=config) == [2]
        assert select_next(0, table, dep, allowed=allowed_mask(table, {1}), config=config) == []
        # +inf, from the default weights, ranks first
        assert select_next(0, table, dep) == [1, 2]

    def test_only_idle_neighbors_answer(self):
        dep = generate_deployment(40, 30, 30, 5, seed=3)
        table = build_neighbor_table(dep)
        dep.nodes[0].state = ACTIVE
        for n in dep.nodes[1:20]:
            n.state = SLEEPING
        replies = select_next(0, table, dep)
        assert replies
        assert sorted(replies) == sorted(nid for nid, _ in table[0] if dep.node(nid).state == IDLE)

    def test_distance_rescaling_preserves_ranking(self):
        # scaling all geometry by a common factor scales every level by
        # the same 1/c, so the ranking cannot change
        positions = [(0, 0), (4, 1), (1, 4), (3, 3)]
        batteries = {1: 0.9, 2: 0.7, 3: 0.8}
        rankings = []
        for c in (1.0, 2.0, 7.5):
            dep = make_deployment(
                [(x * c, y * c) for x, y in positions],
                radius=5.0 * c,
                batteries=batteries,
                states={0: ACTIVE},
            )
            table = build_neighbor_table(dep)
            rankings.append(select_next(0, table, dep))
        assert len(rankings[0]) == 3
        assert rankings[0] == rankings[1] == rankings[2]

    @given(request_layouts())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_entry_walk(self, layout):
        dep, sender, allowed, config = layout
        table = build_neighbor_table(dep)
        mask = None if allowed is None else allowed_mask(table, allowed)

        def outcome(request, allowed):
            try:
                return request(sender, table, dep, allowed, config)
            except CoLocatedSensorsError:
                return "co-located"

        assert outcome(select_next, mask) == outcome(reference_select_next, allowed)

    def test_co_located_candidate_raises(self):
        dep = make_deployment([(0, 0), (0, 0)], states={0: ACTIVE})
        table = build_neighbor_table(dep)
        with pytest.raises(CoLocatedSensorsError):
            select_next(0, table, dep)

    def test_selector_must_be_active(self):
        dep = make_deployment([(0, 0), (3, 0)])
        table = build_neighbor_table(dep)
        with pytest.raises(ValueError):
            select_next(0, table, dep)

    def test_unknown_selector(self):
        dep = make_deployment([(0, 0)], states={0: ACTIVE})
        table = build_neighbor_table(dep)
        with pytest.raises(KeyError):
            select_next(99, table, dep)

    def test_isolated_selector(self):
        dep = make_deployment([(0, 0), (50, 50)], states={0: ACTIVE})
        table = build_neighbor_table(dep)
        assert select_next(0, table, dep) == []


class TestCoverCluster:
    def test_singleton_cluster(self):
        dep = make_deployment([(0, 0)])
        table = build_neighbor_table(dep)
        tree = cover_cluster(Cluster(0, (0,)), dep, table)
        assert tree.root == 0
        assert tree.edges == []
        assert dep.node(0).state == ACTIVE

    def test_three_in_a_row(self):
        # spacing 1.5r: the middle disc covers neither end position, so
        # the frontier keeps growing outward
        dep = make_deployment([(0, 0), (7.5, 0), (15, 0)])
        table = build_neighbor_table(dep)
        tree = cover_cluster(Cluster(0, (0, 1, 2)), dep, table)
        active = tree.node_ids()
        assert tree.root == 1
        assert len(active) <= 3
        for node in dep.nodes:
            assert any(
                node.id in active
                or (
                    other in active
                    and abs(node.position.x - dep.node(other).position.x) <= 10
                )
                for other in active
            )

    def test_co_located_members_surface_error(self):
        layouts = [
            # the root (id 0, nearest the centroid) and its twin
            ([(0, 0), (0, 0), (3, 0)], 0),
            # a chain 0 - 1 - {2, 3} at 8 m hops; node 4 only pulls the
            # centroid next to the root
            ([(0, 0), (8, 0), (16, 0), (16, 0), (-21, 0)], 2),
        ]
        for positions, first in layouts:
            dep = make_deployment(positions)
            table = build_neighbor_table(dep)
            with pytest.raises(CoLocatedSensorsError) as err:
                cover_cluster(Cluster(0, tuple(range(len(positions)))), dep, table)
            # raised as the first of the pair activates, before its twin is scored
            assert dep.node(first).state == ACTIVE
            assert dep.node(first + 1).state == IDLE
            assert "select_next" not in {entry.name for entry in err.traceback}

    @given(clumped_layouts())
    @settings(max_examples=150, deadline=None)
    def test_matches_all_actives_rescan(self, layout):
        positions, batteries, members = layout

        def outcome(cover, theta):
            dep = make_deployment(positions, batteries=batteries)
            table = build_neighbor_table(dep)
            try:
                tree = cover(Cluster(0, members), dep, table, ProtocolConfig(theta=theta))
            except CoLocatedSensorsError:
                return "co-located"
            return tree.root, tree.edges, [n.state for n in dep.nodes]

        def twin_activated(states):
            return any(
                states[a] == ACTIVE and positions[a] == positions[m]
                for a in range(len(positions))
                for m in members
                if m != a
            )

        for theta in (0.0, 0.1, 0.5, 1.0):
            ours = outcome(cover_cluster, theta)
            expected = outcome(reference_cover_cluster, theta)
            if expected != "co-located" and not twin_activated(expected[2]):
                assert ours == expected
            else:
                # the rescan raises only if it scores the pair, and its early
                # exit at the full circle can skip the d = 0 term; the arc sums
                # raise once a sensor with a co-located member twin activates
                assert ours == "co-located"

    def test_one_request_per_visit(self, monkeypatch):
        # each activation puts the child and its parent back on the
        # frontier, and the root starts it: 1 + 2 * edges visits
        requests = []

        def counted(current, *args, **kwargs):
            requests.append(current)
            return select_next(current, *args, **kwargs)

        monkeypatch.setattr(protocol, "select_next", counted)
        dep = generate_deployment(80, 40, 40, 5, seed=21)
        table = build_neighbor_table(dep)
        tree = cover_cluster(Cluster(0, tuple(n.id for n in dep.nodes)), dep, table)
        assert tree.edges
        assert len(requests) == 1 + 2 * len(tree.edges)

    def test_tree_property(self):
        dep = generate_deployment(80, 40, 40, 5, seed=21)
        table = build_neighbor_table(dep)
        members = tuple(n.id for n in dep.nodes)
        tree = cover_cluster(Cluster(0, members), dep, table)
        assert len(tree.edges) == len(tree.node_ids()) - 1
        # every child was within communication range of its parent
        for parent, child in tree.edges:
            assert any(nid == child for nid, _ in table[parent])

    def test_redundant_candidates_stay_idle(self):
        # a tight clump saturates quickly; skipped sensors must stay idle
        dep = generate_deployment(60, 12, 12, 5, seed=2)
        table = build_neighbor_table(dep)
        members = tuple(n.id for n in dep.nodes)
        tree = cover_cluster(Cluster(0, members), dep, table)
        active = tree.node_ids()
        assert len(active) < len(members)
        for n in dep.nodes:
            assert n.state == (ACTIVE if n.id in active else IDLE)

    def test_cluster_order_irrelevant(self):
        # two far-apart blobs: covering them in either order yields the
        # same trees because clusters share no nodes
        positions = [(2, 2), (4, 2), (3, 4), (40, 40), (42, 41), (41, 43)]
        cluster_a = Cluster(0, (0, 1, 2))
        cluster_b = Cluster(1, (3, 4, 5))
        trees_fwd, trees_rev = [], []
        for order, sink in (((cluster_a, cluster_b), trees_fwd),
                            ((cluster_b, cluster_a), trees_rev)):
            dep = make_deployment(positions)
            table = build_neighbor_table(dep)
            for cluster in order:
                sink.append(cover_cluster(cluster, dep, table))
        by_id_fwd = {t.cluster_id: (t.root, t.edges) for t in trees_fwd}
        by_id_rev = {t.cluster_id: (t.root, t.edges) for t in trees_rev}
        assert by_id_fwd == by_id_rev


class TestRunRound:
    def test_isolated_nodes_all_become_seeds(self):
        # pairwise distances beyond 2r: with min_pts=1 every node is its
        # own cluster and activates without any acknowledgment exchange
        dep = make_deployment([(0, 0), (30, 0), (0, 30), (30, 30)])
        params = OpticsParams(eps=10, min_pts=1)
        state, report = run_round(RoundState(0), dep, params)
        assert state.active == {0, 1, 2, 3}
        assert all(not t.edges for t in state.trees)
        assert report.active_count == 4

    def test_outliers_stay_idle(self):
        # three-node clump plus one distant straggler
        dep = make_deployment([(0, 0), (2, 0), (0, 2), (60, 60)])
        params = OpticsParams(eps=10, min_pts=2)
        state, _ = run_round(RoundState(0), dep, params)
        assert 3 not in state.active
        assert dep.node(3).state == IDLE

    def test_report_fields_consistent(self):
        dep = generate_deployment(100, 50, 50, 5, seed=1)
        params = OpticsParams(eps=10, min_pts=4)
        state, report = run_round(RoundState(0), dep, params)
        assert report.deployed_count == 100
        assert report.active_count == len(state.active)
        assert report.ratio_r == pytest.approx(100 * report.active_count / 100)
        assert 0 <= report.grid_cr <= 100

    def test_previous_actives_sleep_then_wake(self):
        dep = generate_deployment(120, 50, 50, 5, seed=6)
        params = OpticsParams(eps=10, min_pts=4)
        s1, _ = run_round(RoundState(0), dep, params)
        s2, _ = run_round(s1, dep, params)
        assert s1.active.isdisjoint(s2.active)
        for nid in s1.active:
            assert dep.node(nid).state == SLEEPING
        s3, _ = run_round(s2, dep, params)
        # round-1 actives finished their one-round sleep before round 3
        for nid in s1.active:
            assert dep.node(nid).state in (IDLE, ACTIVE)

    def test_table_of_another_radius_rejected(self):
        # a table built for r = 5 links nodes 8 m apart; at r = 3 (2r = 6)
        # they are isolated, and that table would make them one cluster
        dep = make_deployment([(0, 0), (8, 0), (16, 0)], radius=3.0)
        other = make_deployment([(0, 0), (8, 0), (16, 0)], radius=5.0)
        with pytest.raises(ValueError, match="radius"):
            run_round(
                RoundState(0), dep, OpticsParams(eps=6, min_pts=1),
                table=build_neighbor_table(other),
            )
        assert all(n.state == IDLE for n in dep.nodes)

    def test_table_of_other_nodes_rejected(self):
        dep = generate_deployment(60, 30, 30, 5, seed=2)
        table = build_neighbor_table(generate_deployment(50, 30, 30, 5, seed=2))
        s1, _ = run_round(RoundState(0), dep, OpticsParams(eps=10, min_pts=4))
        states = [n.state for n in dep.nodes]
        with pytest.raises(ValueError, match="node ids"):
            run_round(s1, dep, OpticsParams(eps=10, min_pts=4), table=table)
        assert [n.state for n in dep.nodes] == states

    def test_all_dead_raises_with_round_index(self):
        dep = make_deployment([(0, 0), (3, 0)], batteries={0: 0.5, 1: 0.5})
        params = OpticsParams(eps=10, min_pts=1)
        config = ProtocolConfig(battery_drain=1.0, grid_resolution=10)
        with pytest.raises(AllNodesDeadError) as err:
            list(iterate_rounds(dep, params, config, rounds=5))
        assert err.value.round_index >= 2


class TestIterateRounds:
    def test_single_round(self):
        dep = generate_deployment(50, 50, 50, 5, seed=2)
        rounds = iterate_rounds(dep, OpticsParams(eps=10, min_pts=4), rounds=1)
        reports = [report for _, report in rounds]
        assert len(reports) == 1

    def test_rotation_disjoint_and_battery_decreasing(self):
        dep = generate_deployment(200, 50, 50, 5, seed=3)
        params = OpticsParams(eps=10, min_pts=4)
        rounds = list(iterate_rounds(dep, params, rounds=3))
        actives = [state.active for state, _ in rounds]
        assert actives[0] and actives[1] and actives[2]
        assert actives[0].isdisjoint(actives[1])
        assert actives[1].isdisjoint(actives[2])

    def test_total_battery_non_increasing(self):
        dep = generate_deployment(150, 50, 50, 5, seed=4)
        params = OpticsParams(eps=10, min_pts=4)
        totals = []
        table_rounds = iterate_rounds(dep, params, rounds=3)
        for _ in range(3):
            next(table_rounds)
            totals.append(sum(n.battery for n in dep.nodes))
        assert totals[0] > totals[1] > totals[2]

    def test_fresh_deployment_required(self):
        # a second simulation on a field that has run would start from the
        # first one's actives and sleepers, not from a fresh field
        dep = generate_deployment(200, 50, 50, 5, seed=42)
        params = OpticsParams(eps=10, min_pts=4)
        fresh = [r.active_count for _, r in iterate_rounds(dep, params, rounds=3)]
        assert fresh == [75, 52, 67]
        states = [n.state for n in dep.nodes]
        with pytest.raises(ValueError, match="idle"):
            iterate_rounds(dep, params, rounds=3)
        assert [n.state for n in dep.nodes] == states

    def test_two_round_sleep(self):
        # sleep_rounds = 2: each round's actives sit out the next two rounds,
        # counting down 2 then 1, and are eligible again in the third
        dep = generate_deployment(200, 50, 50, 5, seed=3)
        config = ProtocolConfig(sleep_rounds=2)
        rounds = iterate_rounds(dep, OpticsParams(eps=10, min_pts=4), config, rounds=4)
        s1, _ = next(rounds)
        assert s1.active and s1.sleeping == {}
        s2, _ = next(rounds)
        assert s2.sleeping == dict.fromkeys(s1.active, 2)
        assert all(dep.node(nid).state == SLEEPING for nid in s1.active)
        s3, _ = next(rounds)
        assert s3.sleeping == {**dict.fromkeys(s1.active, 1), **dict.fromkeys(s2.active, 2)}
        assert all(dep.node(nid).state == SLEEPING for nid in s1.active | s2.active)
        assert s3.active.isdisjoint(s1.active | s2.active)
        s4, _ = next(rounds)
        assert s4.sleeping == {**dict.fromkeys(s2.active, 1), **dict.fromkeys(s3.active, 2)}
        assert all(dep.node(nid).state in (IDLE, ACTIVE) for nid in s1.active)
        assert len(s1.active & s4.active) == 27

    def test_dead_nodes_allowed(self):
        dep = make_deployment(
            [(0, 0), (3, 0), (6, 0)], batteries={1: 0.0}, states={1: DEAD}
        )
        ((state, _),) = iterate_rounds(dep, OpticsParams(eps=10, min_pts=1))
        assert state.active and 1 not in state.active

    @pytest.mark.parametrize("rounds", [0, 2.5, 3.0, True])
    def test_bad_round_count(self, rounds):
        dep = generate_deployment(10, 50, 50, 5, seed=5)
        with pytest.raises(ValueError, match="rounds"):
            iterate_rounds(dep, OpticsParams(eps=10, min_pts=4), rounds=rounds)

    def test_rounds_checked_at_call_table_built_at_first_next(self, monkeypatch):
        builds = []

        def counted(deployment):
            builds.append(deployment)
            return build_neighbor_table(deployment)

        monkeypatch.setattr(protocol, "build_neighbor_table", counted)
        dep = generate_deployment(30, 50, 50, 5, seed=5)
        params = OpticsParams(eps=10, min_pts=4)
        with pytest.raises(ValueError, match="rounds"):
            zip(range(0), iterate_rounds(dep, params, rounds=-1))
        rounds = iterate_rounds(dep, params, rounds=2)
        assert builds == []
        next(rounds)
        next(rounds)
        assert builds == [dep]


class TestTrace:
    def test_roundtrip(self):
        dep = generate_deployment(60, 50, 50, 5, seed=12)
        params = OpticsParams(eps=10, min_pts=4)
        rounds = list(iterate_rounds(dep, params, rounds=2))
        buf = io.StringIO()
        write_trace(buf, dep, rounds)
        header, records = read_trace(io.StringIO(buf.getvalue()))
        assert header["region"] == [50.0, 50.0]
        assert header["radius"] == 5.0
        assert len(header["nodes"]) == 60
        assert len(records) == 2
        assert records[0]["round_index"] == 1
        assert records[0]["active"] == sorted(rounds[0][0].active)
        assert records[0]["report"]["active_count"] == rounds[0][1].active_count

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            read_trace(io.StringIO(""))

    def test_headerless_trace_rejected(self):
        with pytest.raises(ValueError):
            read_trace(io.StringIO('{"type": "round"}\n'))

    @pytest.mark.parametrize(
        "text",
        ['[1, 2]\n', '"header"\n', '{"type": "header"}\n[3]\n', '{"type": "header"}\nnull\n'],
    )
    def test_records_must_be_json_objects(self, text):
        with pytest.raises(ValueError, match="record"):
            read_trace(io.StringIO(text))
