import numpy as np
import pytest

from isolect import builder as bl
from isolect import chronometry as ch
from isolect import model
from isolect.errors import DomainError
from isolect.model import DistanceMatrix, LanguageSet, WeightVector, serialize

from conftest import coincidence
from oracles import sample_balanced_ambiguous, sample_caterpillar


def distances(matrix, mode="paper"):
    return ch.matrix_to_distances(matrix, mode)


@pytest.fixture
def salish_a_dist(salish_a):
    return distances(salish_a)


@pytest.fixture
def salish_b_dist(salish_b):
    return distances(salish_b)


class TestMinLink:
    def test_four_language_start(self, salish_a_dist):
        state = bl.initial_state(salish_a_dist, None, "paper")
        a, b = bl.min_link(state)
        assert {a.key[0], b.key[0]} == {"3", "4"}
        assert state.distance(a, b) == 62

    def test_join_order_second_group(self, salish_b_dist):
        order = []
        state = bl.initial_state(salish_b_dist, None, "paper")
        node = 4
        while len(state.clusters) > 2:
            pair = bl.min_link(state)
            order.append(tuple(sorted(c.key for c in pair)))
            offset, near, far = bl.lateral_offset(state, pair)
            link = state.distance(near, far)
            d, h, flags, offset = bl.join_geometry(
                link, offset, near.anchor_depth, far.anchor_depth, "paper"
            )
            state, _ = bl.reduce(
                state, bl.JoinGeometry(near, far, link, offset, d, h, flags), node
            )
            node += 1
        assert order == [((("5",)), ("6",)), ((("1",)), ("2",))]

    def test_tie_breaks_lexicographically(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b", "c", "d")),
            np.array([
                [0, 10, 30, 30],
                [10, 0, 30, 10],
                [30, 30, 0, 30],
                [30, 10, 30, 0],
            ], float),
        )
        state = bl.initial_state(dm, None, "paper")
        a, b = bl.min_link(state)
        assert (a.key[0], b.key[0]) == ("a", "b")


def _join(state, pair, node, mode):
    """Join ``pair`` through the step API; returns the next state."""
    offset, near, far = bl.lateral_offset(state, pair)
    link = state.distance(near, far)
    d, h, flags, offset = bl.join_geometry(
        link, offset, near.anchor_depth, far.anchor_depth, mode
    )
    state, _ = bl.reduce(
        state, bl.JoinGeometry(near, far, link, offset, d, h, flags), node
    )
    return state


def _step(state, node, mode):
    """One join through the step API; returns the pair and the next state."""
    pair = bl.min_link(state)
    return pair, _join(state, pair, node, mode)


def _tied_matrix(seed, k=30):
    """Integer distances over a narrow range, so most steps see exact ties;
    shuffled labels, so label order is not node order."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(20, 36, size=(k, k)).astype(float), 1)
    labels = tuple(f"x{int(i):02d}" for i in rng.permutation(k))
    return DistanceMatrix(LanguageSet(labels), upper + upper.T)


def _ranks(state):
    """(distance, sorted key pair, pair) of every active pair."""
    return [
        (state.distance(a, b), tuple(sorted((a.key, b.key))), (a, b))
        for i, a in enumerate(state.clusters)
        for b in state.clusters[i + 1 :]
    ]


class TestStepApiOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_min_link_matches_brute_force_rank(self, seed):
        dm = _tied_matrix(seed)
        k = len(dm.languages)
        state = bl.initial_state(dm, None, "paper")
        node = k
        tied_steps = 0
        while len(state.clusters) > 2:
            ranks = _ranks(state)
            best = min(ranks, key=lambda r: r[:2])
            tied_steps += sum(r[0] == best[0] for r in ranks) > 1
            pair, state = _step(state, node, "paper")
            assert pair == best[2]
            node += 1
        assert tied_steps > k // 2

    def test_earlier_states_unchanged_by_later_reduces(self):
        dm = _tied_matrix(7)
        k = len(dm.languages)
        state = bl.initial_state(dm, None, "paper")
        seen = []
        node = k
        while len(state.clusters) > 2:
            n = len(state.clusters)
            view = state.dist
            assert len(view) == n * (n - 1) // 2
            with pytest.raises(TypeError):
                view[next(iter(view))] = 0.0
            seen.append((state, dict(view)))
            (a, b), state = _step(state, node, "paper")
            ext = state.clusters[0]
            for retired in (a, b):
                with pytest.raises(KeyError):
                    state.dist[frozenset((retired.node, ext.node))]
                with pytest.raises(KeyError):
                    state.distance(retired, ext)
            node += 1
        for earlier, snapshot in seen:
            assert dict(earlier.dist) == snapshot
            by_node = {c.node: c for c in earlier.clusters}
            for pair, d in snapshot.items():
                x, y = (by_node[n] for n in pair)
                assert earlier.distance(x, y) == d

    def test_branching_reduces_keep_both_branches(self):
        # Two reduces of one state that reuse a node id must not see each
        # other's rows.
        dm = _tied_matrix(11, k=8)
        state = bl.initial_state(dm, None, "precise")
        a, b, c = state.clusters[:3]
        first, _ = bl.reduce(state, bl.JoinGeometry(a, b, 0, 0, 1.0, 0.0), 8)
        before = dict(first.dist)
        second, _ = bl.reduce(state, bl.JoinGeometry(a, c, 0, 0, 5.0, 2.0), 8)
        assert dict(first.dist) == before
        assert dict(second.dist) != before
        assert len(second.dist) == len(before)

    def test_incomplete_matrix_rejected(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b", "c")),
            np.array([[0, np.nan, 3], [np.nan, 0, 4], [3, 4, 0]], float),
        )
        with pytest.raises(DomainError, match="complete"):
            bl.initial_state(dm, None, "precise")


def _assert_carried_arrays(state):
    """The state's arrays against a pass over its block of the table."""
    nodes = [c.node for c in state.clusters]
    assert state.nodes.tolist() == nodes
    assert state.weights.tolist() == [c.weight for c in state.clusters]
    links = state.table[np.ix_(nodes, nodes)]
    np.fill_diagonal(links, np.inf)
    assert state.row_min.tobytes() == links.min(axis=1).tobytes()
    for x, other, shortest in zip(nodes, state.row_arg.tolist(), state.row_min.tolist()):
        assert other in nodes and other != x
        assert state.table[x, other] == shortest


def _precise_planted(seed, k=30):
    planted = sample_caterpillar(np.random.default_rng(seed), k)
    return DistanceMatrix(
        LanguageSet(tuple(f"L{i:02d}" for i in range(k))), planted.distance_matrix()
    )


def _precise_random(seed, k=30):
    dm = _tied_matrix(seed, k)
    noise = np.triu(np.random.default_rng(seed).uniform(0, 1, (k, k)), 1)
    return DistanceMatrix(dm.languages, dm.values + noise + noise.T)


ROW_MINIMUM_CASES = (
    [(f"paper-tied-{seed}", "paper", seed) for seed in range(3)]
    + [(f"precise-planted-{seed}", "precise", seed) for seed in range(2)]
    + [(f"precise-random-{seed}", "precise", seed) for seed in range(2)]
)


class TestRowMinima:
    """The carried row minima pick what a rank of every pair picks, after
    any join the step API allows."""

    @staticmethod
    def _matrix(name, seed):
        if name.startswith("paper"):
            return _tied_matrix(seed)
        if name.startswith("precise-planted"):
            return _precise_planted(seed)
        return _precise_random(seed)

    def _walk(self, state, node, mode, rng):
        """Join down to two clusters, checking every state; a third of the
        joins take a random pair instead of ``min_link``'s."""
        while len(state.clusters) > 2:
            _assert_carried_arrays(state)
            pair = bl.min_link(state)
            assert pair == min(_ranks(state), key=lambda r: r[:2])[2]
            if rng.random() < 1 / 3:
                i, j = sorted(rng.choice(len(state.clusters), 2, replace=False).tolist())
                pair = state.clusters[i], state.clusters[j]
            state = _join(state, pair, node, mode)
            node += 1
        _assert_carried_arrays(state)
        return state

    @pytest.mark.parametrize("name, mode, seed", ROW_MINIMUM_CASES,
                             ids=[c[0] for c in ROW_MINIMUM_CASES])
    def test_min_link_matches_brute_force_rank_after_any_join(self, name, mode, seed):
        dm = self._matrix(name, seed)
        state = bl.initial_state(dm, None, mode)
        self._walk(state, len(dm.languages), mode, np.random.default_rng(seed))

    @pytest.mark.parametrize("name, mode, seed", ROW_MINIMUM_CASES,
                             ids=[c[0] for c in ROW_MINIMUM_CASES])
    def test_branches_from_one_state_keep_their_own_minima(self, name, mode, seed):
        dm = self._matrix(name, seed)
        k = len(dm.languages)
        rng = np.random.default_rng(seed)
        state = bl.initial_state(dm, None, mode)
        for node in range(k, k + k // 2):
            _, state = _step(state, node, mode)
        node = k + k // 2
        before = [a.copy() for a in (state.nodes, state.weights, state.row_min, state.row_arg)]
        picked = bl.min_link(state)
        c = state.clusters
        other = next(p for p in ((c[0], c[-1]), (c[1], c[-1])) if set(p) != set(picked))
        # The second branch reuses the new node id, so it writes a copy.
        branches = [_join(state, picked, node, mode), _join(state, other, node, mode)]
        assert branches[1].table is not branches[0].table
        for branch in branches:
            self._walk(branch, node + 1, mode, rng)
        after = (state.nodes, state.weights, state.row_min, state.row_arg)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
        _assert_carried_arrays(state)
        assert bl.min_link(state) == picked

    def test_carried_arrays_are_read_only(self):
        state = bl.initial_state(_tied_matrix(0, k=6), None, "paper")
        for array in (state.nodes, state.weights, state.row_min, state.row_arg):
            with pytest.raises(ValueError):
                array[0] = 0


class TestLateralOffset:
    def test_cherry_offset(self, salish_a_dist):
        state = bl.initial_state(salish_a_dist, None, "paper")
        pair = bl.min_link(state)
        offset, near, far = bl.lateral_offset(state, pair)
        assert offset == 34
        assert near.key == ("3",) and far.key == ("4",)

    def test_single_external_offset(self, salish_a_dist):
        state = bl.initial_state(salish_a_dist, None, "paper")
        pair = bl.min_link(state)
        offset, near, far = bl.lateral_offset(state, pair)
        d, h, flags, offset = bl.join_geometry(62, offset, 0, 0, "paper")
        state, _ = bl.reduce(
            state, bl.JoinGeometry(near, far, 62, offset, d, h, flags), 4
        )
        pair = bl.min_link(state)
        offset, near, far = bl.lateral_offset(state, pair)
        assert offset == 21  # becomes 20 after the integer-parity adjustment
        assert near.key == ("2",)
        assert far.key == ("3", "4")

    def test_equidistant_pair(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b", "x")),
            np.array([[0, 10, 50], [10, 0, 50], [50, 50, 0]], float),
        )
        state = bl.initial_state(dm, None, "precise")
        pair = bl.min_link(state)
        offset, near, far = bl.lateral_offset(state, pair)
        assert offset == 0.0
        assert near.key == ("a",) and far.key == ("b",)

    def test_no_externals_signals_final_link(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b")), np.array([[0, 30], [30, 0]], float)
        )
        state = bl.initial_state(dm, None, "precise")
        with pytest.raises(bl.FinalLinkError):
            bl.lateral_offset(state, bl.min_link(state))

    def test_weighted_vs_simple_external_means(self):
        # One heavy external cluster pulls the weighted mean toward itself.
        dm = DistanceMatrix(
            LanguageSet(("a", "b", "x", "y")),
            np.array([
                [0, 10, 40, 80],
                [10, 0, 60, 60],
                [40, 60, 0, 100],
                [80, 60, 100, 0],
            ], float),
        )
        weights = WeightVector(dm.languages, (1, 1, 3, 1))
        state = bl.initial_state(dm, weights, "precise")
        pair = (state.clusters[0], state.clusters[1])
        off_weighted, _, far_w = bl.lateral_offset(state, pair, "weighted")
        off_simple, _, far_s = bl.lateral_offset(state, pair, "simple")
        assert off_weighted == pytest.approx(10.0)  # means 50 vs 60
        assert off_simple == pytest.approx(0.0)     # means 60 vs 60


class TestJoinGeometry:
    def test_symmetric_cherry(self, ):
        d, h, flags, _ = bl.join_geometry(62, 34, 0, 0, "paper")
        assert (d, h) == (14, 34) and flags == ()

    def test_join_onto_deeper_cluster(self):
        d, h, flags, offset = bl.join_geometry(58, 20, 0, 14, "paper")
        assert (d, h) == (19, 34) and flags == ()
        assert offset == 20

    def test_parity_adjustment(self):
        d, h, flags, offset = bl.join_geometry(58, 21, 0, 14, "paper")
        assert offset == 20
        assert (d, h) == (19, 34)

    def test_no_offset_dichotomy(self):
        d, h, flags, _ = bl.join_geometry(50, 0, 0, 0, "precise")
        assert (d, h) == (25, 0) and flags == ()

    def test_pure_vertical_clamp(self):
        # Offset smaller than the anchor gap: lateral would be negative.
        d, h, flags, _ = bl.join_geometry(60, 2, 10, 0, "precise")
        assert h == 0.0
        assert d == pytest.approx(35.0)
        assert model.FLAG_PURE_VERTICAL in flags

    def test_infeasible_clamp_preserves_path_length(self):
        d, h, flags, _ = bl.join_geometry(54, 25, 0, 19, "paper")
        assert model.FLAG_INFEASIBLE in flags
        assert d == 19
        # anchor-to-anchor path length kept: (d - 0) + h + (d - 19) == 54
        assert 2 * d + h - 0 - 19 == 54

    def test_precise_mode_never_adjusts_parity(self):
        d, h, flags, offset = bl.join_geometry(58, 21, 0, 14, "precise")
        assert offset == 21
        assert d == pytest.approx(18.5)
        assert h == pytest.approx(35.0)


class TestReduce:
    def test_first_reduction(self, salish_a_dist):
        state = bl.initial_state(salish_a_dist, None, "paper")
        near = state.clusters[2]
        far = state.clusters[3]
        geom = bl.JoinGeometry(near, far, 62, 34, 14, 34)
        state, flags = bl.reduce(state, geom, 4)
        merged = state.clusters[-1]
        by = {c.key: c for c in state.clusters}
        assert state.dist[frozenset((merged.node, 0))] == 94
        assert state.dist[frozenset((merged.node, 1))] == 58
        assert flags == ()

    def test_weighted_reduction(self, salish_a_dist):
        # Second reduction uses weights 1 and 2 and lands on 55.
        state = bl.initial_state(salish_a_dist, None, "paper")
        near, far = state.clusters[2], state.clusters[3]
        state, _ = bl.reduce(
            state, bl.JoinGeometry(near, far, 62, 34, 14, 34), 4
        )
        near = next(c for c in state.clusters if c.key == ("2",))
        far = next(c for c in state.clusters if c.key == ("3", "4"))
        state, _ = bl.reduce(
            state, bl.JoinGeometry(near, far, 58, 20, 19, 34), 5
        )
        merged = state.clusters[-1]
        assert state.dist[frozenset((merged.node, 0))] == 55

    def test_second_group_reductions(self, salish_b_dist):
        state = bl.initial_state(salish_b_dist, None, "paper")
        five = next(c for c in state.clusters if c.key == ("5",))
        six = next(c for c in state.clusters if c.key == ("6",))
        state, _ = bl.reduce(
            state, bl.JoinGeometry(five, six, 54, 4, 25, 4), 4
        )
        merged = next(c for c in state.clusters if c.key == ("5", "6"))
        assert state.dist[frozenset((merged.node, 1))] == 139
        assert state.dist[frozenset((merged.node, 0))] == 104
        one = next(c for c in state.clusters if c.key == ("1",))
        two = next(c for c in state.clusters if c.key == ("2",))
        state, _ = bl.reduce(
            state, bl.JoinGeometry(one, two, 73, 35, 19, 35), 5
        )
        pair = next(c for c in state.clusters if c.key == ("1", "2"))
        assert state.dist[frozenset((pair.node, merged.node))] == 85

    def test_negative_entry_clamped(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b", "x")),
            np.array([[0, 100, 20], [100, 0, 30], [20, 30, 0]], float),
        )
        state = bl.initial_state(dm, None, "precise")
        a = state.clusters[0]
        b = state.clusters[1]
        geom = bl.JoinGeometry(a, b, 100, 0, 50, 0)
        state, flags = bl.reduce(state, geom, 3)
        assert model.FLAG_NEGATIVE_REDUCED in flags
        assert state.dist[frozenset((3, 2))] == 0.0


class TestBuild:
    def test_four_language_geometry(self, salish_a_dist):
        tree = bl.build(salish_a_dist, mode="paper")
        geoms = [(j.depth, j.lateral) for j in tree.junctions]
        assert geoms == [(14, 34), (19, 34), (19, 36)]
        assert all(j.status == model.RESOLVED for j in tree.junctions)
        assert model.FLAG_CROSS_CHECKED in tree.junctions[-1].flags

    def test_second_group_umresolved_root(self, salish_b_dist):
        tree = bl.build(salish_b_dist, mode="paper")
        geoms = [(j.depth, j.lateral) for j in tree.junctions[:-1]]
        assert geoms == [(25, 4), (19, 35)]
        root = tree.junctions[-1]
        assert root.status == model.UNRESOLVED
        assert root.total_length == 85
        assert root.depth_range == (25, 65)

    def test_two_language_build(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b")), np.array([[0, 30], [30, 0]], float)
        )
        tree = bl.build(dm, mode="precise")
        root = tree.junctions[0]
        assert root.status == model.UNRESOLVED
        assert root.depth == 15 and root.lateral == 0
        assert model.FLAG_UNRESOLVED_DECOMPOSITION in root.flags

    def test_incomplete_matrix_points_to_merge(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b", "c")),
            np.array([[0, 10, np.nan], [10, 0, 20], [np.nan, 20, 0]], float),
        )
        with pytest.raises(DomainError, match="merge"):
            bl.build(dm)

    def test_attested_leaves_rejected(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b"), (0.0, 5.0)),
            np.array([[0, 30], [30, 0]], float),
        )
        with pytest.raises(DomainError, match="synchronous"):
            bl.build(dm)

    def test_single_language_rejected(self):
        dm = DistanceMatrix(LanguageSet(("a",)), np.zeros((1, 1)))
        with pytest.raises(DomainError):
            bl.build(dm)

    def test_determinism(self, salish_a_dist):
        a = serialize(bl.build(salish_a_dist, mode="paper"))
        b = serialize(bl.build(salish_a_dist, mode="paper"))
        assert a == b

    def test_unit_weight_equivalence(self, salish_a_dist):
        unit = bl.build(salish_a_dist, mode="paper")
        fives = bl.build(
            salish_a_dist,
            WeightVector(salish_a_dist.languages, (5, 5, 5, 5)),
            mode="paper",
        )
        assert [(j.near, j.far, j.depth, j.lateral) for j in unit.junctions] == [
            (j.near, j.far, j.depth, j.lateral) for j in fives.junctions
        ]

    def test_relabeling_invariance(self, salish_a):
        perm = [2, 0, 3, 1]
        labels = tuple(salish_a.languages.labels[i] for i in perm)
        arr = salish_a.values[np.ix_(perm, perm)]
        permuted = coincidence(labels, arr)
        base = bl.build(distances(salish_a), mode="paper")
        moved = bl.build(distances(permuted), mode="paper")
        base_restored = model.restore_distance_matrix(base)
        moved_restored = model.restore_distance_matrix(moved)
        for x in labels:
            for y in labels:
                assert base_restored.value(x, y) == moved_restored.value(x, y)


def _last_link(dm, mode="paper"):
    """The initial state, the last state's pair ordered as ``build`` orders
    it (deeper anchor near) and the link between them, through ``_step``."""
    start = state = bl.initial_state(dm, None, mode)
    node = len(dm.languages)
    while len(state.clusters) > 2:
        _, state = _step(state, node, mode)
        node += 1
    near, far = sorted(state.clusters, key=lambda c: (-c.anchor_depth, c.first_label))
    return start, (near, far), state.distance(near, far)


def _anchor_gap_table():
    """A k = 5 paper-mode table whose root link is shorter than the gap
    between its child anchors."""
    upper = np.triu(np.random.default_rng(3).integers(1, 101, (5, 5)), 1)
    return distances(coincidence(
        tuple(f"L{i}" for i in range(5)), upper + upper.T + 100 * np.eye(5)))


class TestResolveLastLink:
    def test_four_language_cross_check_agrees(self, salish_a_dist):
        res = bl.resolve_last_link(*_last_link(salish_a_dist))
        assert res.resolved
        assert (res.depth, res.lateral) == (19, 36)
        # The rebuild that joins the two root representatives first lands on
        # nearly the same geometry; the one-svodesh slack is rounding.
        assert res.alternate_candidate is not None
        assert abs(res.alternate_candidate[0] - 19) <= 1
        assert abs(res.alternate_candidate[1] - 36) <= 1

    def test_second_group_stays_ambiguous(self, salish_b_dist):
        res = bl.resolve_last_link(*_last_link(salish_b_dist))
        assert not res.resolved
        assert res.total_length == 85
        # Extremes: widest form at the child anchor, deepest form at h=0.
        assert res.depth_range == (25, 65)
        assert res.simple_candidate == (25, 79)

    def test_three_leaf_planted_geometry(self):
        # Forward-generate distances from a known junction pair, then
        # reconstruct: the cross-check must reproduce the planted root.
        d1, h1 = 9.0, 13.0
        root_h = 21.0
        m = np.array([
            [0, 2 * d1 + h1, 2 * d1 + root_h],
            [2 * d1 + h1, 0, 2 * d1 + h1 + root_h],
            [2 * d1 + root_h, 2 * d1 + h1 + root_h, 0],
        ], float)
        dm = DistanceMatrix(LanguageSet(("a", "b", "c")), m)
        tree = bl.build(dm, mode="precise")
        assert [(j.depth, j.lateral) for j in tree.junctions] == [
            (d1, h1), (d1, root_h)
        ]
        assert tree.junctions[-1].status == model.RESOLVED

    def test_root_shorter_than_the_anchor_gap(self):
        dm = _anchor_gap_table()
        root = bl.build(dm, mode="paper").junctions[-1]
        assert root.status == model.UNRESOLVED
        assert (root.depth, root.lateral, root.total_length) == (86, 0, 84)
        assert root.depth_range == (86, 86)
        res = bl.resolve_last_link(*_last_link(dm))
        assert not res.resolved
        assert res.reason == "total length shorter than the child anchor gap"
        assert (res.depth, res.depth_range) == (85, (85, 85))

    def test_rejects_a_state_other_than_the_tree_initial_one(self, salish_a_dist):
        start, root, total = _last_link(salish_a_dist)
        joined = _join(start, bl.min_link(start), 4, "paper")
        labels = tuple(f"x{i}" for i in range(4))
        other = bl.initial_state(
            DistanceMatrix(LanguageSet(labels), salish_a_dist.values), None, "paper"
        )
        with pytest.raises(DomainError, match="needs an initial state"):
            bl.resolve_last_link(joined, root, total)
        with pytest.raises(DomainError, match="carrier leaf '2' of the root is not cluster 1"):
            bl.resolve_last_link(other, root, total)


def test_one_dendrogram_per_build(monkeypatch, salish_a_dist, salish_b_dist):
    calls = []
    check = model.Dendrogram.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(model.Dendrogram, "__post_init__", counted)
    for dm in (salish_a_dist, salish_b_dist, _anchor_gap_table()):
        calls.clear()
        tree = bl.build(dm, mode="paper")
        assert calls == [tree]


def _junction_floats(tree):
    return np.array([
        x for j in tree.junctions
        for x in (j.depth, j.lateral, j.total_length or 0.0, *(j.depth_range or ()))
    ])


@pytest.mark.parametrize("mode", ["paper", "precise"])
def test_build_reads_only_the_upper_triangle(mode):
    rng = np.random.default_rng(41)
    upper = np.triu(rng.integers(20, 90, (9, 9)), 1)
    cm = ch.matrix_to_distances(coincidence(
        tuple(f"x{i}" for i in rng.permutation(9)), upper + upper.T + 100 * np.eye(9)
    ), mode)
    above = np.triu(cm.values, 1)
    mirrored = DistanceMatrix(cm.languages, above + above.T)
    # A lower triangle off by 1e-11: the build must not read it.
    skewed = DistanceMatrix(
        cm.languages, mirrored.values + np.tril(np.full((9, 9), 1e-11), -1)
    )
    weights = WeightVector(cm.languages, tuple(rng.uniform(0.5, 3, 9).tolist()))
    for w in (None, weights):
        starts = [bl.initial_state(dm, w, mode) for dm in (skewed, mirrored)]
        assert starts[0].table.tobytes() == starts[1].table.tobytes()
        for means in bl.EXTERNAL_MEANS:
            got, want = (bl.build(dm, w, mode, means) for dm in (skewed, mirrored))
            assert serialize(got) == serialize(want)
            assert _junction_floats(got).tobytes() == _junction_floats(want).tobytes()


class TestPlantedRecovery:
    def test_caterpillar_corpus_recovered_exactly(self):
        rng = np.random.default_rng(1905)
        for _ in range(60):
            k = int(rng.integers(4, 7))
            planted = sample_caterpillar(rng, k)
            dm = DistanceMatrix(
                LanguageSet(tuple(f"L{i}" for i in range(k))),
                planted.distance_matrix(),
            )
            tree = bl.build(dm, mode="precise")
            for i in range(k - 2):
                assert tree.junctions[i].depth == pytest.approx(
                    planted.depths[i], abs=1e-9
                )
                assert tree.junctions[i].lateral == pytest.approx(
                    planted.laterals[i], abs=1e-9
                )
            root = tree.junctions[-1]
            assert root.status == model.RESOLVED
            assert root.depth == pytest.approx(planted.root_depth, abs=1e-9)
            assert root.lateral == pytest.approx(planted.root_lateral, abs=1e-9)
            restored = model.restore_distance_matrix(tree)
            assert np.allclose(
                restored.values, planted.distance_matrix(), atol=1e-9
            )

    def test_large_caterpillar_recovered_exactly(self):
        rng = np.random.default_rng(128)
        k = 128
        planted = sample_caterpillar(rng, k)
        m = planted.distance_matrix()
        dm = DistanceMatrix(LanguageSet(tuple(f"L{i:03d}" for i in range(k))), m)
        tree = bl.build(dm, mode="precise")
        assert tree.junctions[-1].status == model.RESOLVED
        restored = model.restore_distance_matrix(tree)
        off = ~np.eye(k, dtype=bool)
        assert np.allclose(restored.values[off], m[off], rtol=1e-6, atol=0)

    def test_k512_caterpillar_recovered_exactly(self):
        rng = np.random.default_rng(512)
        k = 512
        planted = sample_caterpillar(rng, k)
        m = planted.distance_matrix()
        dm = DistanceMatrix(LanguageSet(tuple(f"L{i:03d}" for i in range(k))), m)
        tree = bl.build(dm, mode="precise")
        inner = tree.junctions[:-1]
        assert np.allclose([j.depth for j in inner], planted.depths, rtol=0, atol=1e-6)
        assert np.allclose([j.lateral for j in inner], planted.laterals, rtol=0, atol=1e-6)
        root = tree.junctions[-1]
        assert root.status == model.RESOLVED
        assert root.depth == pytest.approx(planted.root_depth, abs=1e-6)
        assert root.lateral == pytest.approx(planted.root_lateral, abs=1e-6)
        restored = model.restore_distance_matrix(tree)
        off = ~np.eye(k, dtype=bool)
        assert np.allclose(restored.values[off], m[off], rtol=1e-9, atol=0)

    def test_reduction_consistency_on_planted_tree(self):
        # After every reduce the new entry equals the true anchor distance.
        rng = np.random.default_rng(7107)
        planted = sample_caterpillar(rng, 6)
        m = planted.distance_matrix()
        dm = DistanceMatrix(LanguageSet(tuple(f"L{i}" for i in range(6))), m)
        pend, anchor_of = planted.leaf_pendants()
        pos = planted.spine_positions()
        state = bl.initial_state(dm, None, "precise")
        node = 6
        step = 0
        while len(state.clusters) > 2:
            pair = bl.min_link(state)
            offset, near, far = bl.lateral_offset(state, pair)
            link = state.distance(near, far)
            d, h, flags, offset = bl.join_geometry(
                link, offset, near.anchor_depth, far.anchor_depth, "precise"
            )
            state, _ = bl.reduce(
                state, bl.JoinGeometry(near, far, link, offset, d, h, flags), node
            )
            merged = state.clusters[-1]
            for ext in state.clusters[:-1]:
                got = state.distance(merged, ext)
                leaf = ext.node
                expected = pend[leaf] + abs(pos[anchor_of[leaf]] - pos[step])
                assert got == pytest.approx(expected, abs=1e-9)
            node += 1
            step += 1

    def test_scale_equivariance(self):
        rng = np.random.default_rng(23)
        planted = sample_caterpillar(rng, 5)
        m = planted.distance_matrix()
        langs = LanguageSet(tuple(f"L{i}" for i in range(5)))
        base = bl.build(DistanceMatrix(langs, m), mode="precise")
        for s in (0.25, 3.75):
            scaled = bl.build(DistanceMatrix(langs, s * m), mode="precise")
            for j_base, j_scaled in zip(base.junctions, scaled.junctions):
                assert j_scaled.depth == pytest.approx(s * j_base.depth)
                assert j_scaled.lateral == pytest.approx(s * j_base.lateral)

    def test_balanced_plant_leaves_root_unresolved(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            planted = sample_balanced_ambiguous(rng)
            dm = DistanceMatrix(
                LanguageSet(("a", "b", "c", "d")), planted.distance_matrix()
            )
            tree = bl.build(dm, mode="precise")
            root = tree.junctions[-1]
            assert root.status == model.UNRESOLVED
            assert root.total_length == pytest.approx(
                planted.bridge_total, abs=1e-9
            )
            restored = model.restore_distance_matrix(tree)
            assert np.allclose(
                restored.values, planted.distance_matrix(), atol=1e-9
            )


class TestLazyAnchorTables:
    """Per-leaf anchor distances are filled only when asked for."""

    @staticmethod
    def _caterpillar(seed, k):
        m = sample_caterpillar(np.random.default_rng(seed), k).distance_matrix()
        return DistanceMatrix(LanguageSet(tuple(f"L{i:03d}" for i in range(k))), m)

    def test_build_and_its_artifacts_never_fill_anchor_tables(self, monkeypatch):
        from isolect import cli, merger

        def unexpected(tree):
            raise AssertionError("anchor tables filled")

        monkeypatch.setattr(model.Dendrogram, "_anchor_tables", property(unexpected))
        tree = bl.build(self._caterpillar(160, 160), mode="precise")
        assert tree.junctions[-1].status == model.RESOLVED  # the cross-check ran
        graph = merger.segment_graph(tree)
        cli.build_report(tree, graph, None, "unit", "weighted")
        cli.render_dot(graph, "precise")
        serialize(tree)
        with pytest.raises(AssertionError, match="anchor tables filled"):
            tree.anchor_tables()

    @pytest.mark.parametrize("k", [40, 400])
    def test_cluster_key_equals_dendrogram_members(self, k):
        # At k = 400, an ultrametric caterpillar nests 399 clusters: reading
        # the outermost key must not recurse once per level.
        if k == 400:
            rank = np.arange(k, dtype=float)
            m = 2 * np.maximum.outer(rank, rank)
            np.fill_diagonal(m, 0)
            dm = DistanceMatrix(LanguageSet(tuple(f"L{i:03d}" for i in range(k))), m)
        else:
            dm = self._caterpillar(k, k)
        tree = bl.build(dm, mode="precise")
        state, node = bl.initial_state(dm, None, "precise"), k
        while len(state.clusters) > 2:
            offset, near, far = bl.lateral_offset(state, bl.min_link(state))
            link = state.distance(near, far)
            d, h, flags, offset = bl.join_geometry(
                link, offset, near.anchor_depth, far.anchor_depth, "precise"
            )
            state, _ = bl.reduce(
                state, bl.JoinGeometry(near, far, link, offset, d, h, flags), node
            )
            node += 1
        labels = dm.languages.labels
        for cluster in state.clusters:
            assert cluster.key == tuple(sorted(labels[i] for i in tree.members(cluster.node)))
