import io
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from network_reference import table_degree, table_row
from optics_reference import as_rows
from protocol_reference import (
    acceptance_level,
    reference_cover_cluster,
    reference_run_round,
    reference_seed,
    reference_select_next,
    write_state,
)

from optics_coverage import protocol
from optics_coverage.geometry import CoLocatedSensorsError
from optics_coverage.network import (
    ACTIVE,
    DEAD,
    IDLE,
    SLEEPING,
    Deployment,
    build_neighbor_table,
    generate_deployment,
)
from optics_coverage.config import RunConfig
from optics_coverage.experiments import read_trace, write_trace
from optics_coverage.metrics import coverage_grid
from optics_coverage.optics import Cluster, OpticsParams, extract_clusters
from optics_coverage.protocol import (
    AllNodesDeadError,
    ProtocolConfig,
    RoundState,
    cover_cluster,
    iterate_rounds,
    run_round,
    select_next,
)


def make_deployment(positions, radius=5.0, batteries=None, state_of=None, width=100.0):
    n = len(positions)
    dep = Deployment(
        range(n),
        [x for x, _ in positions],
        [y for _, y in positions],
        [(batteries or {}).get(i, 1.0) for i in range(n)],
        width,
        width,
        radius,
    )
    return with_states(dep, state_of or {})


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
    allowed = draw(st.none() | st.sets(st.sampled_from(ids)))
    config = ProtocolConfig(
        w_battery=draw(st.sampled_from([0.4, 0.0, -1.0])),
        w_neighbors=draw(st.sampled_from([0.3, 0.0])),
    )
    x, y = [x for x, _ in positions], [y for _, y in positions]
    dep = Deployment(ids, x, y, batteries, 10.0, 10.0, 1.0)
    with_states(dep, dict(zip(ids, states)))
    return dep, ids[sender], allowed, config


@st.composite
def rotation_layouts(draw):
    """Constructor arguments of a field, with batteries low enough that a
    0.3 or 0.6 drain kills within a few rounds, and the ids of the nodes
    that are dead from the start."""
    n = draw(st.integers(1, 60))
    rng = random.Random(draw(st.integers(0, 10_000)))
    side = draw(st.sampled_from([15.0, 25.0, 40.0]))
    x, y = [], []
    for _ in range(n):
        x.append(rng.uniform(0, side))
        y.append(rng.uniform(0, side))
    batteries = [rng.uniform(0.1, 1.0) for _ in range(n)]
    dead = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    ids = rng.sample(range(10 * n), n)
    return (ids, x, y, batteries, side, side, 5.0), [ids[i] for i in dead]


@st.composite
def transposable_fields(draw):
    """Constructor arguments of a small field, square or not, whose points
    include integer lattice points, so that pair distances tie and pairs
    sit exactly on cell edges or 2r apart."""
    width = draw(st.sampled_from([12.0, 20.0, 35.0]))
    height = draw(st.sampled_from([12.0, 20.0, 35.0]))
    radius = draw(st.sampled_from([1.5, 2.5, 4.0]))

    def coord(side):
        return st.one_of(st.floats(0, side), st.integers(0, int(side)).map(float))

    points = draw(
        st.lists(st.tuples(coord(width), coord(height)), min_size=1, max_size=50, unique=True)
    )
    n = len(points)
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    batteries = draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n))
    x, y = [x for x, _ in points], [y for _, y in points]
    return ids, x, y, batteries, width, height, radius


def with_states(dep, states):
    """``dep``, with the ``{id: state}`` given written into its arrays as a
    round leaves them: a sleeper with one round left, and a dead node with
    an empty battery."""
    for nid, state in states.items():
        slot = int(dep.slots([nid])[0])
        write_state(dep, slot, state, 1 if state == SLEEPING else 0)
        if state == DEAD:
            dep.battery[slot] = 0.0
    return dep


def replies(current, dep, allowed=None, config=None):
    """Reply ids to one request from node ``current``: ``select_next`` at
    its slot, over the offers ``cover_cluster`` builds for a cluster of
    the ids in ``allowed`` (None for every node), which only idle nodes
    get."""
    cfg = config or ProtocolConfig()
    idle = np.flatnonzero(dep.state_code == IDLE)
    if allowed is not None:
        idle = idle[np.isin(dep.ids[idle], list(allowed))]
    degrees = build_neighbor_table(dep).degrees[idle]
    offers = np.full(len(dep.ids), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        offers[idle] = cfg.w_battery * dep.battery[idle] + cfg.w_neighbors * degrees
        slots = select_next(int(dep.slots([current])[0]), dep, offers, cfg)
    return dep.ids[slots].tolist()


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


class TestClusterRoot:
    """A tree's root is the member closest to the members' centroid, the
    lower id on ties."""

    def test_singleton(self):
        dep = make_deployment([(3, 3)])
        assert cover_cluster(Cluster(0, (0,)), dep).root == 0

    def test_collinear_prefers_nearest_to_centroid(self):
        dep = make_deployment([(0, 0), (1, 0), (10, 0)])
        # centroid x = 11/3, closest member is the one at x=1
        assert cover_cluster(Cluster(0, (0, 1, 2)), dep).root == 1

    def test_symmetric_square_breaks_tie_by_id(self):
        dep = make_deployment([(0, 0), (0, 2), (2, 0), (2, 2)])
        assert cover_cluster(Cluster(0, (0, 1, 2, 3)), dep).root == 0

    def test_empty_cluster_rejected(self):
        dep = make_deployment([(0, 0)])
        with pytest.raises(ValueError, match="empty cluster"):
            cover_cluster(Cluster(0, ()), dep)

    def test_cover_cluster_roots_an_exact_tie_at_the_lower_id(self):
        # 0 and 1 sit 2 m either side of the centroid's x = (8 + 10 + 12) / 3
        # = 10 exactly, the same distance from it; the members arrive in
        # emission order, not id order
        dep = make_deployment([(12.0, 10.0), (8.0, 10.0), (10.0, 30.0)])
        cluster = Cluster(0, (1, 2, 0))
        assert reference_seed(cluster, dep) == 0
        assert cover_cluster(cluster, dep).root == 0

    def test_cover_cluster_centroid_adds_the_members_in_order(self):
        # 0 and 1 sit 0.45 m either side of the exact centroid x = 9.4 / 4 =
        # 2.35, but 2.8 + 1.9 + 1.3 + 3.4 added left to right is
        # 9.399999999999999, which puts the centroid nearer 1. A compensated
        # sum (math.fsum, or Python's sum from 3.12 on) finds the tie and
        # roots at 0
        dep = make_deployment([(2.8, 1.0), (1.9, 1.0), (1.3, 1.0), (3.4, 1.0)])
        cluster = Cluster(0, (0, 1, 2, 3))
        assert reference_seed(cluster, dep) == 1
        assert cover_cluster(cluster, dep).root == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=40),
        st.randoms(use_true_random=False),
    )
    def test_round_roots_are_the_seeds_of_emission_order_clusters(self, cells, rng):
        # lattice points tie often; ids are shuffled so that emission order
        # is not id order
        positions = [(1.5 * i, 1.5 * j) for i, j in sorted(cells)]
        ids = list(range(len(positions)))
        rng.shuffle(ids)
        x, y = zip(*positions)
        dep = Deployment(ids, x, y, [1.0] * len(ids), 30.0, 30.0, 2.0)
        params = OpticsParams(eps=4.0, min_pts=2)
        state, _ = run_round(dep, params)
        clusters = extract_clusters(state.ordering, params.eps_prime).clusters
        assert [tree.root for tree in state.trees] == [
            reference_seed(cluster, dep) for cluster in clusters
        ]


class TestSelectNext:
    def test_ranked_by_level(self):
        # radius 1 keeps neighborhoods small: candidate 2 has an extra
        # neighbor (the sleeping node 3), so its level wins despite the
        # weaker battery
        dep = make_deployment(
            [(0, 0), (1.8, 0), (0, 1.8), (0, 2.9)],
            radius=1.0,
            batteries={1: 1.0, 2: 0.6},
            state_of={0: ACTIVE, 3: SLEEPING},
        )
        table = build_neighbor_table(dep)
        assert table_degree(table, 1) == 1
        assert table_degree(table, 2) == 2
        assert replies(0, dep) == [2, 1]

    def test_full_ranking_order(self):
        positions = [(0, 0), (6, 0), (0, 2), (-4, 1), (3, 3), (1, -7), (-2, -2)]
        batteries = {1: 0.9, 2: 0.55, 3: 0.7, 4: 1.0, 5: 0.8, 6: 0.6}
        dep = make_deployment(positions, batteries=batteries, state_of={0: ACTIVE})
        table = build_neighbor_table(dep)
        levels = {
            nid: acceptance_level(batteries[nid], table_degree(table, nid), d)
            for nid, d in table_row(table, 0)
        }
        assert len(set(levels.values())) == 6
        assert replies(0, dep) == sorted(levels, key=levels.get, reverse=True)

    def test_ties_go_to_lower_id(self):
        # 1, 2 and 3 are exactly 3 m out with equal battery and degree;
        # 4 is closer and outranks them
        dep = make_deployment(
            [(0, 0), (3, 0), (0, 3), (-3, 0), (0, -2)], state_of={0: ACTIVE}
        )
        table = build_neighbor_table(dep)
        assert {table_degree(table, nid) for nid in (1, 2, 3)} == {4}
        assert replies(0, dep) == [4, 1, 2, 3]

    def test_no_idle_neighbors(self):
        dep = make_deployment([(0, 0), (3, 0)], state_of={0: ACTIVE, 1: SLEEPING})
        assert replies(0, dep) == []

    def test_allowed_filter(self):
        dep = make_deployment([(0, 0), (3, 0), (0, 3)], state_of={0: ACTIVE})
        assert replies(0, dep, allowed={1}) == [1]
        assert replies(0, dep, allowed=set()) == []

    def test_minus_inf_reply_never_offered(self):
        # a negative battery weight over a subnormal distance scores -inf
        dep = make_deployment([(0, 0), (1e-310, 0), (3, 0)], state_of={0: ACTIVE})
        config = ProtocolConfig(w_battery=-1.0, w_neighbors=0.0)
        assert acceptance_level(1.0, 2, 1e-310, config) == -math.inf
        assert replies(0, dep, config=config) == [2]
        assert replies(0, dep, allowed={1}, config=config) == []
        # +inf, from the default weights, ranks first
        assert replies(0, dep) == [1, 2]

    def test_only_idle_neighbors_answer(self):
        drawn = generate_deployment(40, 30, 30, 5, seed=3)
        table = build_neighbor_table(drawn)
        dep = with_states(drawn, {0: ACTIVE})
        # every other node idle: the deployment's own row answers whole
        assert sorted(replies(0, dep)) == sorted(nid for nid, _ in table_row(table, 0))
        dep = with_states(dep, dict.fromkeys(range(1, 20), SLEEPING))
        answered = replies(0, dep)
        assert answered
        idle = [nid for nid, _ in table_row(table, 0) if dep.node(nid).state == IDLE]
        assert sorted(answered) == sorted(idle)

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
                state_of={0: ACTIVE},
            )
            rankings.append(replies(0, dep))
        assert len(rankings[0]) == 3
        assert rankings[0] == rankings[1] == rankings[2]

    @given(request_layouts())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_entry_walk(self, layout):
        dep, sender, allowed, config = layout

        def outcome(request):
            try:
                return request(sender, dep, allowed, config)
            except CoLocatedSensorsError:
                return "co-located"

        assert outcome(replies) == outcome(reference_select_next)

    def test_co_located_candidate_raises(self):
        dep = make_deployment([(0, 0), (0, 0)], state_of={0: ACTIVE})
        with pytest.raises(CoLocatedSensorsError):
            replies(0, dep)

    def test_selector_must_be_active(self):
        dep = make_deployment([(0, 0), (3, 0), (6, 0)], state_of={1: SLEEPING})
        with pytest.raises(ValueError, match="node 0 is idle, not active"):
            replies(0, dep)
        with pytest.raises(ValueError, match="node 1 is sleeping, not active"):
            replies(1, dep)

    def test_slot_outside_table(self):
        dep = make_deployment([(0, 0)], state_of={0: ACTIVE})
        with pytest.raises(IndexError):
            select_next(1, dep, np.full(1, np.nan))

    def test_isolated_selector(self):
        dep = make_deployment([(0, 0), (50, 50)], state_of={0: ACTIVE})
        assert replies(0, dep) == []


class TestCoverCluster:
    def test_singleton_cluster(self):
        dep = make_deployment([(0, 0)])
        tree = cover_cluster(Cluster(0, (0,)), dep)
        assert tree.root == 0
        assert tree.edges == []
        assert dep.node(0).state == ACTIVE

    def test_three_in_a_row(self):
        # spacing 1.5r: the middle disc covers neither end position, so
        # the frontier keeps growing outward
        dep = make_deployment([(0, 0), (7.5, 0), (15, 0)])
        tree = cover_cluster(Cluster(0, (0, 1, 2)), dep)
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
            with pytest.raises(CoLocatedSensorsError) as err:
                cover_cluster(Cluster(0, tuple(range(len(positions)))), dep)
            # raised as the first of the pair activates, before its twin is scored
            assert dep.node(first).state == ACTIVE
            assert dep.node(first + 1).state == IDLE
            assert "select_next" not in {entry.name for entry in err.traceback}

    @given(clumped_layouts())
    @settings(max_examples=150, deadline=None)
    def test_matches_all_actives_rescan(self, layout):
        positions, batteries, members = layout

        def outcome(cover, config):
            dep = make_deployment(positions, batteries=batteries)
            try:
                tree = cover(Cluster(0, members), dep, config)
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

        # a negative battery weight ranks the far replies first, so more of
        # a node's replies are discarded between its visits
        configs = [
            ProtocolConfig(theta=theta, **weights)
            for theta in (0.0, 0.1, 0.5, 1.0)
            for weights in ({}, {"w_battery": -1.0, "w_neighbors": 0.0})
        ]
        for config in configs:
            ours = outcome(cover_cluster, config)
            expected = outcome(reference_cover_cluster, config)
            if expected != "co-located" and not twin_activated(expected[2]):
                assert ours == expected
            else:
                # the rescan raises only if it scores the pair, and its early
                # exit at the full circle can skip the d = 0 term; the arc sums
                # raise once a sensor with a co-located member twin activates
                assert ours == "co-located"

    def test_one_ranking_per_tree_node(self, monkeypatch):
        # the root and each child are ranked at their first visit; the
        # 2 * edges revisits walk what is left of those rankings
        rankings = []

        def counted(current, *args, **kwargs):
            rankings.append(current)
            return select_next(current, *args, **kwargs)

        monkeypatch.setattr(protocol, "select_next", counted)
        dep = generate_deployment(80, 40, 40, 5, seed=21)
        tree = cover_cluster(Cluster(0, tuple(n.id for n in dep.nodes)), dep)
        assert tree.edges
        assert len(rankings) == 1 + len(tree.edges)
        assert sorted(dep.ids[rankings].tolist()) == sorted(tree.node_ids())

    @pytest.mark.parametrize(
        "w_battery, edges", [(0.4, [(0, 1), (1, 2)]), (-1.0, [(0, 2)])]
    )
    def test_subnormal_distance_warns_nothing(self, w_battery, edges):
        # test_minus_inf_reply_never_offered's layout: from the root, node 0,
        # node 1 scores +inf at the default battery weight and -inf at -1.0
        dep = make_deployment([(0, 0), (1e-310, 0), (3, 0)])
        config = ProtocolConfig(w_battery=w_battery, w_neighbors=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = cover_cluster(Cluster(0, (0, 1, 2)), dep, config)
        assert (tree.root, tree.edges) == (0, edges)

    def test_tree_property(self):
        dep = generate_deployment(80, 40, 40, 5, seed=21)
        table = build_neighbor_table(dep)
        members = tuple(n.id for n in dep.nodes)
        tree = cover_cluster(Cluster(0, members), dep)
        assert len(tree.edges) == len(tree.node_ids()) - 1
        # every child was within communication range of its parent
        for parent, child in tree.edges:
            assert any(nid == child for nid, _ in table_row(table, parent))

    def test_redundant_candidates_stay_idle(self):
        # a tight clump saturates quickly; skipped sensors must stay idle
        dep = generate_deployment(60, 12, 12, 5, seed=2)
        members = tuple(n.id for n in dep.nodes)
        tree = cover_cluster(Cluster(0, members), dep)
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
            for cluster in order:
                sink.append(cover_cluster(cluster, dep))
        by_id_fwd = {t.cluster_id: (t.root, t.edges) for t in trees_fwd}
        by_id_rev = {t.cluster_id: (t.root, t.edges) for t in trees_rev}
        assert by_id_fwd == by_id_rev


class TestRunRound:
    def test_isolated_nodes_all_become_seeds(self):
        # pairwise distances beyond 2r: with min_pts=1 every node is its
        # own cluster and activates without any acknowledgment exchange
        dep = make_deployment([(0, 0), (30, 0), (0, 30), (30, 30)])
        params = OpticsParams(eps=10, min_pts=1)
        state, report = run_round(dep, params)
        assert state.active == {0, 1, 2, 3}
        assert all(not t.edges for t in state.trees)
        assert report.active_count == 4

    def test_outliers_stay_idle(self):
        # three-node clump plus one distant straggler
        dep = make_deployment([(0, 0), (2, 0), (0, 2), (60, 60)])
        params = OpticsParams(eps=10, min_pts=2)
        state, _ = run_round(dep, params)
        assert 3 not in state.active
        assert dep.node(3).state == IDLE

    def test_report_fields_consistent(self):
        dep = generate_deployment(100, 50, 50, 5, seed=1)
        params = OpticsParams(eps=10, min_pts=4)
        state, report = run_round(dep, params)
        assert report.deployed_count == 100
        assert report.active_count == len(state.active)
        assert report.ratio_r == pytest.approx(100 * report.active_count / 100)
        assert 0 <= report.grid_cr <= 100

    def test_previous_actives_sleep_then_wake(self):
        dep = generate_deployment(120, 50, 50, 5, seed=6)
        params = OpticsParams(eps=10, min_pts=4)
        s1, _ = run_round(dep, params)
        s2, _ = run_round(dep, params)
        assert s1.active.isdisjoint(s2.active)
        for nid in s1.active:
            assert dep.node(nid).state == SLEEPING
        run_round(dep, params)
        # round-1 actives finished their one-round sleep before round 3
        for nid in s1.active:
            assert dep.node(nid).state in (IDLE, ACTIVE)

    @given(
        rotation_layouts(),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([0.0, 0.3, 0.6]),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_node_walk(self, layout, sleep_rounds, drain, min_pts):
        params = OpticsParams(eps=10, min_pts=min_pts)
        config = ProtocolConfig(
            sleep_rounds=sleep_rounds, battery_drain=drain, grid_resolution=50
        )
        columns, dead = layout
        ours, ref = (with_states(Deployment(*columns), dict.fromkeys(dead, DEAD)) for _ in range(2))
        runs = [(run_round, ours), (reference_run_round, ref)]
        for _ in range(8):
            outcomes = []
            for step, dep in runs:
                try:
                    outcomes.append(step(dep, params, config))
                except AllNodesDeadError as err:
                    outcomes.append(err.round_index)
            assert outcomes[0] == outcomes[1]
            assert ours.state_code.tolist() == ref.state_code.tolist()
            assert ours.battery.tolist() == ref.battery.tolist()
            assert ours.sleep_left.tolist() == ref.sleep_left.tolist()
            assert ours.rounds_run == ref.rounds_run
            if isinstance(outcomes[0], int):
                break

    @pytest.mark.parametrize("sleep_rounds", [1, 3])
    def test_node_set_active_retires_for_sleep_rounds(self, sleep_rounds):
        dep = with_states(generate_deployment(60, 30, 30, 5, seed=2), {5: ACTIVE})
        battery = dep.node(5).battery
        config = ProtocolConfig(sleep_rounds=sleep_rounds)
        state, _ = run_round(dep, OpticsParams(eps=10, min_pts=4), config)
        assert state.sleeping == {5: sleep_rounds}
        assert 5 not in state.active
        assert dep.node(5).state == SLEEPING and dep.node(5).battery == battery
        assert dep.sleep_left[dep.slots([5])[0]] == sleep_rounds

    @pytest.mark.parametrize("setup", ["idle", "every_node_sleeping", "node_5_active"])
    def test_round_state_is_read_from_the_arrays(self, setup):
        # each round's actives and sleepers are exactly the nodes the
        # arrays hold active and sleeping, with their rounds left, also on
        # the layouts an input RoundState could once contradict
        dep = generate_deployment(60, 30, 30, 5, seed=2)
        if setup == "every_node_sleeping":
            dep = with_states(dep, dict.fromkeys(range(60), SLEEPING))
        elif setup == "node_5_active":
            dep = with_states(dep, {5: ACTIVE})
        config = ProtocolConfig(sleep_rounds=2, battery_drain=0.3)
        params = OpticsParams(eps=10, min_pts=4)
        for _ in range(6):
            state, _ = run_round(dep, params, config)
            active = dep.state_code == ACTIVE
            asleep = dep.state_code == SLEEPING
            assert state.active == set(dep.ids[active].tolist())
            assert state.sleeping == dict(
                zip(dep.ids[asleep].tolist(), dep.sleep_left[asleep].tolist())
            )
            assert state.active.isdisjoint(state.sleeping)
            assert all(0 < left <= 2 for left in state.sleeping.values())

    @pytest.mark.parametrize("sleep_rounds", [1, 2, 4])
    def test_sleeper_counts_down_and_wakes(self, sleep_rounds):
        # an isolated node activates whenever it is idle: round 1, then
        # asleep for sleep_rounds rounds counting down, then active again
        dep = make_deployment([(0, 0), (30, 0)])
        config = ProtocolConfig(sleep_rounds=sleep_rounds)
        params = OpticsParams(eps=10, min_pts=1)
        state, _ = run_round(dep, params, config)
        assert state.active == {0, 1}
        for left in range(sleep_rounds, 0, -1):
            state, _ = run_round(dep, params, config)
            assert state.active == set() and state.sleeping == {0: left, 1: left}
            assert dep.sleep_left.tolist() == [left, left]
        state, _ = run_round(dep, params, config)
        assert state.round_index == sleep_rounds + 2
        assert state.active == {0, 1} and state.sleeping == {}
        assert dep.sleep_left.tolist() == [0, 0]

    def test_rounds_run_counts_each_round(self):
        # every round that runs advances the count; a round that raises
        # before any write leaves it
        dep = make_deployment([(0, 0), (30, 0)], batteries={0: 0.5, 1: 0.5})
        params = OpticsParams(eps=10, min_pts=1)
        config = ProtocolConfig(battery_drain=0.5, grid_resolution=10)
        state, _ = run_round(dep, params, config)
        assert state.round_index == dep.rounds_run == 1
        assert dep.state_code.tolist() == [DEAD] * 2
        with pytest.raises(AllNodesDeadError) as err:
            run_round(dep, params, config)
        assert err.value.round_index == 2 and dep.rounds_run == 1

    def test_round_that_raises_co_location_changes_nothing(self):
        # nodes 1 and 2 share a position, so node 1's activation raises
        # mid-tree; the far node 5 would retire and the sleeper 6 count down
        positions = [(0, 0), (3, 0), (3, 0), (0, 3), (6, 3), (40, 40), (60, 60)]
        dep = make_deployment(positions, batteries={3: 0.75}, state_of={5: ACTIVE, 6: SLEEPING})
        dep.sleep_left[6] = 3
        dep.rounds_run = 4
        before = dep.state_code.copy(), dep.sleep_left.copy(), dep.battery.copy()
        for _ in range(2):  # and it raises again
            with pytest.raises(CoLocatedSensorsError, match="node 1 shares its position"):
                run_round(dep, OpticsParams(eps=10, min_pts=2))
            assert dep.state_code.tolist() == before[0].tolist()
            assert dep.sleep_left.tolist() == before[1].tolist()
            assert dep.battery.tolist() == before[2].tolist()
            assert dep.rounds_run == 4

    def test_all_dead_raises_with_round_index(self):
        dep = make_deployment([(0, 0), (3, 0)], batteries={0: 0.5, 1: 0.5})
        params = OpticsParams(eps=10, min_pts=1)
        config = ProtocolConfig(battery_drain=1.0, grid_resolution=10)
        with pytest.raises(AllNodesDeadError) as err:
            list(iterate_rounds(dep, params, config, rounds=5))
        assert err.value.round_index >= 2


def round_outcome(dep, params, config):
    """``run_round``'s state and report, or the type and message of the
    ``CoLocatedSensorsError`` it raises; and the deployment's arrays and
    round count after it."""
    try:
        outcome = run_round(dep, params, config)
    except CoLocatedSensorsError as exc:
        outcome = (type(exc), str(exc))
    arrays = (dep.state_code.tobytes(), dep.battery.tobytes(), dep.sleep_left.tobytes())
    return outcome, arrays, dep.rounds_run


class TestTransposedField:
    @given(transposable_fields(), st.sampled_from([1, 2, 4]), st.sampled_from([1.0, 2.0, 3.0]))
    # two points a subnormal distance apart: both orientations raise and
    # restore the deployment
    @example(([0, 1], [0.0, 0.0], [0.0, 5e-324], [1.0, 1.0], 12.0, 12.0, 1.5), 1, 1.0)
    @settings(max_examples=150, deadline=None)
    def test_transposed_field_gives_the_same_rounds(self, field, min_pts, eps_in_r):
        # x <-> y and width <-> height: the table's half stencil and grid
        # coverage's column runs each treat x and y differently, and the
        # rounds must not show it, nor which of them raise. 3r orders over
        # a table at eps.
        ids, x, y, batteries, width, height, radius = field
        dep = Deployment(ids, x, y, batteries, width, height, radius)
        flip = Deployment(ids, y, x, batteries, height, width, radius)
        params = OpticsParams(eps=eps_in_r * radius, min_pts=min_pts)
        config = ProtocolConfig(grid_resolution=40)
        for _ in range(3):
            step = round_outcome(dep, params, config)
            assert step == round_outcome(flip, params, config)
            state = step[0][0]
            if not isinstance(state, RoundState):
                continue  # both raised
            active = np.isin(dep.ids, list(state.active))
            grid = coverage_grid(dep.x[active], dep.y[active], radius, (width, height), 40)
            flipped = coverage_grid(flip.x[active], flip.y[active], radius, (height, width), 40)
            assert np.array_equal(grid, flipped.T)
        assert dep.tables.keys() == flip.tables.keys()
        for reach, table in dep.tables.items():
            other = flip.tables[reach]
            for name in ("ids", "indptr", "index", "distance"):
                assert getattr(table, name).tobytes() == getattr(other, name).tobytes()


def nan_bits(column):
    """The bytes of a float column, every NaN written as one NaN."""
    return np.where(np.isnan(column), np.nan, column).tobytes()


def round_views(dep, params, config, shift=0, f=1.0, rounds=3):
    """What each of ``rounds`` rounds did, with every id plus ``shift`` and
    every distance times ``f``: its index, actives, sleepers, trees,
    ordering and report, or the type of the ``CoLocatedSensorsError`` it
    raised (whose message names a node or a distance); each with the
    deployment's arrays and round count after the round."""
    views = []
    for _ in range(rounds):
        outcome, *after = round_outcome(dep, params, config)
        if isinstance(outcome[0], RoundState):
            state, report = outcome
            ordering = state.ordering
            outcome = (
                state.round_index,
                {i + shift for i in state.active},
                {i + shift: left for i, left in state.sleeping.items()},
                [
                    (t.cluster_id, t.root + shift, [(a + shift, b + shift) for a, b in t.edges])
                    for t in state.trees
                ],
                (ordering.ids + shift).tolist(),
                nan_bits(ordering.reachability * f),
                nan_bits(ordering.core_distance * f),
                report,
            )
        else:
            outcome = outcome[0]
        views.append((outcome, *after))
    return views


# fields whose coordinates are 0 or at least 2**-900: scaled by 2**-2, every
# length, difference and square the rounds compute stays a normal float
scalable_fields = transposable_fields().filter(
    lambda field: all(v == 0 or v >= 2.0**-900 for v in field[1] + field[2])
)


class TestMetamorphicFields:
    @given(
        scalable_fields,
        st.sampled_from([1, -2, 10]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1.0, 2.0, 3.0]),
    )
    # two points 2**-900 apart, the nearest a field holds: scaled to 2**-902
    @example(([0, 1], [0.0, 0.0], [0.0, 2.0**-900], [1.0, 1.0], 12.0, 12.0, 1.5), -2, 1, 1.0)
    @settings(max_examples=100, deadline=None)
    def test_scaling_every_length_by_a_power_of_2_scales_the_rounds(
        self, field, k, min_pts, eps_in_r
    ):
        # a power of 2 scales every float exactly, so a rule that hides an
        # absolute length shows: the rounds pick the same nodes, report the
        # same figures, and every distance, reachability and core distance
        # among them is the original times 2**k, bit for bit
        ids, x, y, batteries, width, height, radius = field
        f = 2.0**k
        dep = Deployment(ids, x, y, batteries, width, height, radius)
        xy = [v * f for v in x], [v * f for v in y]
        scaled = Deployment(ids, *xy, batteries, width * f, height * f, radius * f)
        params = OpticsParams(eps=eps_in_r * radius, min_pts=min_pts)
        scaled_params = OpticsParams(eps=params.eps * f, min_pts=min_pts)
        assert scaled_params.eps_prime == params.eps_prime * f
        config = ProtocolConfig(grid_resolution=40)
        views = round_views(dep, params, config, f=f)
        assert views == round_views(scaled, scaled_params, config)
        assert [reach * f for reach in dep.tables] == list(scaled.tables)
        for table, other in zip(dep.tables.values(), scaled.tables.values()):
            assert table.indptr.tobytes() == other.indptr.tobytes()
            assert table.index.tobytes() == other.index.tobytes()
            assert (table.distance * f).tobytes() == other.distance.tobytes()

    @given(transposable_fields(), st.sampled_from([1, 2, 4]), st.sampled_from([1.0, 2.0, 3.0]))
    @example(([0, 1], [0.0, 0.0], [0.0, 5e-324], [1.0, 1.0], 12.0, 12.0, 1.5), 1, 1.0)
    @settings(max_examples=100, deadline=None)
    def test_shifting_every_id_shifts_the_rounds_ids(self, field, min_pts, eps_in_r):
        # ids name nodes and break ties, and a slot is no id: with every id
        # 10**6 higher, the rounds are the same once their ids are mapped
        ids, x, y, batteries, width, height, radius = field
        shift = 10**6
        dep = Deployment(ids, x, y, batteries, width, height, radius)
        shifted = Deployment([i + shift for i in ids], x, y, batteries, width, height, radius)
        params = OpticsParams(eps=eps_in_r * radius, min_pts=min_pts)
        config = ProtocolConfig(grid_resolution=40)
        views = round_views(dep, params, config, shift=shift)
        assert views == round_views(shifted, params, config)


def one_node_round(battery, drain):
    """An isolated node, which activates, after one round at ``drain``."""
    dep = make_deployment([(0, 0)], batteries={0: battery})
    config = ProtocolConfig(battery_drain=drain, grid_resolution=10)
    state, _ = run_round(dep, OpticsParams(eps=10, min_pts=1), config)
    return state, dep.node(0)


class TestRoundDrain:
    def test_normal_drain(self):
        state, node = one_node_round(1.0, 0.1)
        assert node.battery == 1.0 - 0.1
        assert node.state == ACTIVE and state.active == {0}

    def test_clamps_to_zero_and_dies(self):
        state, node = one_node_round(0.05, 0.1)
        assert node.battery == 0.0
        assert node.state == DEAD and state.active == set()

    def test_zero_drain_is_identity(self):
        _, node = one_node_round(0.7, 0.0)
        assert node.battery == 0.7 and node.state == ACTIVE

    @given(st.floats(0, 1, exclude_min=True), st.floats(0, 2))
    def test_battery_stays_normalized(self, start, amount):
        state, node = one_node_round(start, amount)
        assert 0.0 <= node.battery <= 1.0
        assert (node.battery == 0.0) == (node.state == DEAD) == (state.active == set())


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

    @pytest.mark.parametrize("first_rounds", [1, 3, 4])
    def test_resumes_where_it_stopped(self, first_rounds):
        # a second run on a field that has run picks up its actives,
        # sleepers and round count: 3 rounds, then 2, are one 5-round run,
        # and so are 1 then 4 and 4 then 1
        params = OpticsParams(eps=10, min_pts=4)
        config = ProtocolConfig(sleep_rounds=2)
        dep, twin = (generate_deployment(200, 50, 50, 5, seed=42) for _ in range(2))
        first = list(iterate_rounds(dep, params, config, rounds=first_rounds))
        resumed = list(iterate_rounds(dep, params, config, rounds=5 - first_rounds))
        whole = list(iterate_rounds(twin, params, config, rounds=5))
        assert [s.round_index for s, _ in resumed] == list(range(first_rounds + 1, 6))
        assert first + resumed == whole
        assert dep.rounds_run == twin.rounds_run == 5
        assert dep.state_code.tolist() == twin.state_code.tolist()
        assert dep.battery.tolist() == twin.battery.tolist()
        assert dep.sleep_left.tolist() == twin.sleep_left.tolist()

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

    def test_idle_remainder_after_a_round_has_no_cluster(self):
        # the default run config at D = 100 on 50 m: round 1's actives sleep
        # through round 2, and the 59 idle nodes left are too sparse for
        # min_pts = 4 at eps' = 5, so all are outliers and none activates
        config = RunConfig()
        params = config.optics_params()
        assert (params.min_pts, params.eps_prime) == (4, 5.0)
        dep = generate_deployment(100, 50, 50, 5, seed=42)
        rounds = iterate_rounds(dep, params, config.protocol_config(), rounds=2)
        s1, r1 = next(rounds)
        first = extract_clusters(s1.ordering, params.eps_prime)
        assert len(s1.ordering) == 100 and r1.active_count == len(s1.active) == 41
        assert (len(first.clusters), len(first.outliers)) == (9, 33)
        s2, r2 = next(rounds)
        second = extract_clusters(s2.ordering, params.eps_prime)
        assert len(s2.ordering) == 59
        assert second.clusters == [] and len(second.outliers) == 59
        assert r2.active_count == 0 and s2.active == set()
        assert len(s2.sleeping) == 41

    def test_dead_nodes_allowed(self):
        dep = make_deployment([(0, 0), (3, 0), (6, 0)], state_of={1: DEAD})
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


    @pytest.mark.parametrize("eps, eps_tables", [(10, 0), (15, 1)])
    def test_each_table_is_built_once(self, eps, eps_tables, monkeypatch):
        # positions never change: six rounds, a resumed run, a bare round
        # and a bare tree all read the tables the first round built, the
        # 2r table and, for an eps wider than 2r, the table at eps
        calls = dict.fromkeys(["build_neighbor_table", "neighbor_rows"], 0)
        for name in calls:

            def counted(*args, name=name, build=getattr(protocol, name)):
                calls[name] += 1
                return build(*args)

            monkeypatch.setattr(protocol, name, counted)
        dep = generate_deployment(200, 50, 50, 5, seed=42)
        params = OpticsParams(eps=eps, min_pts=4)
        assert dep.tables == {}
        list(iterate_rounds(dep, params, rounds=6))
        built = {"build_neighbor_table": 1, "neighbor_rows": eps_tables}
        assert calls == built
        tables = dict(dep.tables)
        assert {reach: t.radius for reach, t in tables.items()} == {10: 10, eps: eps}
        list(iterate_rounds(dep, params, rounds=2))
        run_round(dep, params)
        idle = dep.ids[dep.state_code == IDLE]
        assert cover_cluster(Cluster(0, tuple(idle.tolist())), dep).edges
        assert calls == built
        assert dep.tables.keys() == tables.keys()
        assert all(dep.tables[reach] is table for reach, table in tables.items())


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

    def test_ordering_rows_write_null_never_nan(self):
        # isolated nodes at min_pts = 2: every node starts its own group and
        # none is core, so each row holds two NaNs
        dep = make_deployment([(0, 0), (30, 0), (0, 30)])
        rounds = list(iterate_rounds(dep, OpticsParams(eps=10, min_pts=2), rounds=1))
        assert np.isnan(rounds[0][0].ordering.reachability).all()
        buf = io.StringIO()
        write_trace(buf, dep, rounds)
        assert "NaN" not in buf.getvalue()
        _, records = read_trace(io.StringIO(buf.getvalue()))
        assert records[0]["ordering"] == [[0, None, None], [1, None, None], [2, None, None]]

    def test_ordering_rows_round_trip(self):
        dep = generate_deployment(60, 50, 50, 5, seed=12)
        rounds = list(iterate_rounds(dep, OpticsParams(eps=10, min_pts=4), rounds=2))
        buf = io.StringIO()
        write_trace(buf, dep, rounds)
        _, records = read_trace(io.StringIO(buf.getvalue()))
        for (state, _), record in zip(rounds, records):
            assert [tuple(row) for row in record["ordering"]] == as_rows(state.ordering)

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
