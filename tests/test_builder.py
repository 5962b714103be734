import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from isolect import builder as bl
from isolect import chronometry as ch
from isolect import model
from isolect.errors import DomainError
from isolect.model import DistanceMatrix, LanguageSet, WeightVector, serialize

from conftest import coincidence
import oracles
from oracles import (
    cluster_key,
    sample_balanced_ambiguous,
    sample_caterpillar,
    state_dist,
    state_distance,
)


def distances(matrix, mode="paper"):
    return ch.matrix_to_distances(matrix, mode)


def relabelled_clades(matrix, mode):
    """The build's clades as sets of row indices: each row keeps its
    language under any renaming, so a renamed table's tree reads back
    under the original names."""
    k = len(matrix.languages)
    tree = bl.build(distances(matrix, mode), mode=mode)
    return frozenset(frozenset(tree.members(node)) for node in range(k, 2 * k - 1))


def relabelling_envelope(matrix, mode, seeds=200):
    """The renaming seeds that give each topology, the most common first,
    and those that give the unrenamed one; seed s renames the rows by
    ``default_rng(s).permutation(k)``."""
    labels = matrix.languages.labels
    found: dict[frozenset, list[int]] = {}
    for seed in range(seeds):
        renamed = [labels[i] for i in np.random.default_rng(seed).permutation(len(labels))]
        found.setdefault(relabelled_clades(coincidence(renamed, matrix.values), mode),
                         []).append(seed)
    return (sorted(found.values(), key=len, reverse=True),
            found.get(relabelled_clades(matrix, mode), []))


def planted():
    """The benchmark's table generator, ``perfbench/planted.py``, imported by path."""
    if "planted" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "planted.py"
        spec = importlib.util.spec_from_file_location("planted", path)
        sys.modules["planted"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["planted"]


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
        assert {cluster_key(a, state)[0], cluster_key(b, state)[0]} == {"3", "4"}
        assert state_distance(state, a, b) == 62

    def test_join_order_second_group(self, salish_b_dist):
        order = []
        state = bl.initial_state(salish_b_dist, None, "paper")
        node = 4
        while len(state.clusters) > 2:
            pair = bl.min_link(state)
            order.append(tuple(sorted(cluster_key(c, state) for c in pair)))
            offset, near, far = bl.lateral_offset(state, pair)
            link = state_distance(state, near, far)
            d, h, flags, offset = bl.join_geometry(
                link, offset, near.anchor_depth, far.anchor_depth, "paper"
            )
            state, _ = bl.reduce(
                state, bl.JoinGeometry(near, far, link, offset, d, h, flags), node
            )
            node += 1
        assert order == [((("5",)), ("6",)), ((("1",)), ("2",))]

    def test_one_cluster_has_no_link(self):
        one = DistanceMatrix(LanguageSet(("a",)), np.zeros((1, 1)))
        with pytest.raises(DomainError) as exc:
            bl.min_link(bl.initial_state(one, None, "precise"))
        assert str(exc.value) == "need at least two active clusters"

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
        assert (cluster_key(a, state)[0], cluster_key(b, state)[0]) == ("a", "b")


def _join(state, pair, node, mode, external_means="weighted"):
    """Join ``pair`` through the step API; returns the next state."""
    offset, near, far = bl.lateral_offset(state, pair, external_means)
    link = state_distance(state, near, far)
    d, h, flags, offset = bl.join_geometry(
        link, offset, near.anchor_depth, far.anchor_depth, mode
    )
    state, _ = bl.reduce(
        state, bl.JoinGeometry(near, far, link, offset, d, h, flags), node
    )
    return state


def _step(state, node, mode, external_means="weighted"):
    """One join through the step API; returns the pair and the next state."""
    pair = bl.min_link(state)
    return pair, _join(state, pair, node, mode, external_means)


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
        (state_distance(state, a, b),
         tuple(sorted((cluster_key(a, state), cluster_key(b, state)))), (a, b))
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

    @pytest.mark.parametrize("mode", ["paper", "precise"])
    def test_min_link_matches_brute_force_rank_when_every_row_ties(self, mode):
        # All off-diagonal cells equal: every active row is tied for the
        # shortest link at every join, so the tie rule alone picks the pair.
        rng = np.random.default_rng(12)
        for k in range(3, 13):
            labels = tuple(f"x{int(i):02d}" for i in rng.permutation(k))
            dm = DistanceMatrix(LanguageSet(labels), 40.0 * (1 - np.eye(k)))
            state = bl.initial_state(dm, None, mode)
            for node in range(k, 2 * k - 2):
                nodes = np.flatnonzero(state.alive)
                assert (state.node_min[nodes] == state.node_min[nodes].min()).all()
                best = min(_ranks(state), key=lambda r: r[:2])
                pair, state = _step(state, node, mode)
                assert pair == best[2]

    def test_earlier_states_unchanged_by_later_reduces(self):
        dm = _tied_matrix(7)
        k = len(dm.languages)
        state = bl.initial_state(dm, None, "paper")
        node = k
        while len(state.clusters) > 2:
            n = len(state.clusters)
            view = state_dist(state)
            assert len(view) == n * (n - 1) // 2
            with pytest.raises(TypeError):
                view[next(iter(view))] = 0.0
            (a, b), state = _step(state, node, "paper")
            ext = state.clusters[0]
            for retired in (a, b):
                with pytest.raises(KeyError):
                    state_dist(state)[frozenset((retired.node, ext.node))]
                with pytest.raises(KeyError):
                    state_distance(state, retired, ext)
            node += 1

    def test_incomplete_matrix_rejected(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b", "c")),
            np.array([[0, np.nan, 3], [np.nan, 0, 4], [3, 4, 0]], float),
        )
        with pytest.raises(DomainError, match="complete"):
            bl.initial_state(dm, None, "precise")

    def test_weights_over_other_languages_rejected(self):
        dm = _tied_matrix(0, k=4)
        for labels in (("a", "b", "c", "d"), dm.languages.labels[::-1]):
            weights = WeightVector(LanguageSet(labels), (1.0, 2.0, 3.0, 4.0))
            with pytest.raises(DomainError,
                               match="^weight vector does not match the matrix languages$"):
                bl.initial_state(dm, weights, "paper")


def _assert_carried_arrays(state):
    """The state's arrays against a pass over its block of the table."""
    nodes = [c.node for c in state.clusters]
    assert np.flatnonzero(state.alive).tolist() == nodes
    assert state.size == state.alive.sum() == len(nodes)
    assert state._weight[nodes].tolist() == [c.weight for c in state.clusters]
    links = state.table[np.ix_(nodes, nodes)]
    np.fill_diagonal(links, np.inf)
    assert state.node_min[nodes].tobytes() == links.min(axis=1).tobytes()
    for x, other, shortest in zip(nodes, state.node_arg[nodes].tolist(),
                                  state.node_min[nodes].tolist()):
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
        before = [a.copy() for a in (state.alive, state.node_min, state.node_arg,
                                     state._weight[state.alive])]
        picked = bl.min_link(state)
        c = state.clusters
        other = next(p for p in ((c[0], c[-1]), (c[1], c[-1])) if set(p) != set(picked))
        # A reduce updates its state in place: each branch steps a copy.
        branches = [_join(oracles.copy_state(state), pair, node, mode)
                    for pair in (picked, other)]
        assert branches[1].table is not branches[0].table
        for branch in branches:
            self._walk(branch, node + 1, mode, rng)
        after = (state.alive, state.node_min, state.node_arg, state._weight[state.alive])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
        _assert_carried_arrays(state)
        assert bl.min_link(state) == picked


def _snapshot(state):
    """What a state reads: its clusters and their members, its active nodes'
    weights, row minima and table block."""
    nodes = np.flatnonzero(state.alive)
    return (state.clusters, [cluster_key(c, state) for c in state.clusters], nodes.tolist(),
            *(a.tobytes() for a in (state._weight[nodes], state.node_min[nodes],
                                    state.node_arg[nodes],
                                    state.table[np.ix_(nodes, nodes)])))


class TestSharedNodeStorage:
    """A reduce onto the state's next node id, and the refusals that leave
    a state as it was."""

    @staticmethod
    def _one_join(k=6):
        """The joined pair and the state after one join of a k-leaf table."""
        return _step(bl.initial_state(_tied_matrix(0, k=k), None, "precise"), k, "precise")

    def test_reduce_takes_only_the_next_node_id(self):
        (a, b), state = self._one_join()
        before = _snapshot(state)
        c, d = state.clusters[:2]
        geometry = bl.JoinGeometry(c, d, 0.0, 0.0, 30.0, 0.0)
        # An active leaf, a joined leaf, -1, the id after the next and 2k - 1.
        for node in (c.node, a.node, -1, 8, 11):
            with pytest.raises(DomainError,
                               match=f"^node id {node} is not the state's next node id 7$"):
                bl.reduce(state, geometry, node)
        assert _snapshot(state) == before
        joined, _ = bl.reduce(oracles.copy_state(state), geometry, 7)
        assert state.table.shape == joined.table.shape == (11, 11)
        assert np.flatnonzero(joined.alive).tolist()[-2:] == [6, 7]
        externals = np.flatnonzero(joined.alive).tolist()[:-1]
        assert joined.table[7, externals].tolist() == oracles.reduced_row(state, geometry)[0]
        _assert_carried_arrays(joined)

    def test_steps_refuse_retired_and_self_pairs(self):
        (a, b), state = self._one_join()
        before = _snapshot(state)
        c = state.clusters[0]
        for x, y in ((a, c), (c, b), (a, b), (c, c)):
            refusal = f"^nodes {x.node} and {y.node} are not two distinct active clusters$"
            with pytest.raises(DomainError, match=refusal):
                bl.lateral_offset(state, (x, y))
            with pytest.raises(DomainError, match=refusal):
                bl.reduce(state, bl.JoinGeometry(x, y, 0.0, 0.0, 30.0, 0.0), 7)
        assert _snapshot(state) == before
        assert bl.min_link(state)  # the state still joins


class TestLateralOffset:
    def test_cherry_offset(self, salish_a_dist):
        state = bl.initial_state(salish_a_dist, None, "paper")
        pair = bl.min_link(state)
        offset, near, far = bl.lateral_offset(state, pair)
        assert offset == 34
        assert cluster_key(near, state) == ("3",) and cluster_key(far, state) == ("4",)

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
        assert cluster_key(near, state) == ("2",)
        assert cluster_key(far, state) == ("3", "4")

    def test_equidistant_pair(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b", "x")),
            np.array([[0, 10, 50], [10, 0, 50], [50, 50, 0]], float),
        )
        state = bl.initial_state(dm, None, "precise")
        pair = bl.min_link(state)
        offset, near, far = bl.lateral_offset(state, pair)
        assert offset == 0.0
        assert cluster_key(near, state) == ("a",) and cluster_key(far, state) == ("b",)

    def test_no_externals_signals_final_link(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b")), np.array([[0, 30], [30, 0]], float)
        )
        state = bl.initial_state(dm, None, "precise")
        with pytest.raises(bl.FinalLinkError):
            bl.lateral_offset(state, bl.min_link(state))

    def test_unknown_external_means_rejected(self, salish_a_dist):
        state = bl.initial_state(salish_a_dist, None, "paper")
        with pytest.raises(DomainError) as exc:
            bl.lateral_offset(state, bl.min_link(state), "median")
        assert str(exc.value) == "external_means must be one of ('weighted', 'simple')"

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

    @pytest.mark.parametrize("link, offset", [(-1.0, 0.0), (10.0, -1.0)])
    def test_negative_input_rejected(self, link, offset):
        with pytest.raises(DomainError) as exc:
            bl.join_geometry(link, offset, 0, 0, "precise")
        assert str(exc.value) == "link length and offset must be >= 0"

    @pytest.mark.parametrize("mode", ["paper", "precise"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_input_rejected(self, mode, value, position):
        args = [10.0, 2.0, 0.0, 0.0]
        args[position] = value
        with pytest.raises(DomainError) as exc:
            bl.join_geometry(*args, mode)
        # -inf as a link length or offset is negative first.
        assert str(exc.value) == ("link length and offset must be >= 0"
                                  if value == -math.inf and position < 2 else
                                  "link length, offset and anchor depths must be finite")

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
        by = {cluster_key(c, state): c for c in state.clusters}
        assert state_dist(state)[frozenset((merged.node, 0))] == 94
        assert state_dist(state)[frozenset((merged.node, 1))] == 58
        assert flags == ()

    def test_weighted_reduction(self, salish_a_dist):
        # Second reduction uses weights 1 and 2 and lands on 55.
        state = bl.initial_state(salish_a_dist, None, "paper")
        near, far = state.clusters[2], state.clusters[3]
        state, _ = bl.reduce(
            state, bl.JoinGeometry(near, far, 62, 34, 14, 34), 4
        )
        near = next(c for c in state.clusters if cluster_key(c, state) == ("2",))
        far = next(c for c in state.clusters if cluster_key(c, state) == ("3", "4"))
        state, _ = bl.reduce(
            state, bl.JoinGeometry(near, far, 58, 20, 19, 34), 5
        )
        merged = state.clusters[-1]
        assert state_dist(state)[frozenset((merged.node, 0))] == 55

    def test_second_group_reductions(self, salish_b_dist):
        state = bl.initial_state(salish_b_dist, None, "paper")
        five = next(c for c in state.clusters if cluster_key(c, state) == ("5",))
        six = next(c for c in state.clusters if cluster_key(c, state) == ("6",))
        state, _ = bl.reduce(
            state, bl.JoinGeometry(five, six, 54, 4, 25, 4), 4
        )
        merged = next(c for c in state.clusters if cluster_key(c, state) == ("5", "6"))
        assert state_dist(state)[frozenset((merged.node, 1))] == 139
        assert state_dist(state)[frozenset((merged.node, 0))] == 104
        one = next(c for c in state.clusters if cluster_key(c, state) == ("1",))
        two = next(c for c in state.clusters if cluster_key(c, state) == ("2",))
        state, _ = bl.reduce(
            state, bl.JoinGeometry(one, two, 73, 35, 19, 35), 5
        )
        pair = next(c for c in state.clusters if cluster_key(c, state) == ("1", "2"))
        assert state_dist(state)[frozenset((pair.node, merged.node))] == 85

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
        assert state_dist(state)[frozenset((3, 2))] == 0.0


class TestRecords:
    """Clusters and join geometries are flat named tuples, a cluster naming
    its children by node id and carrying its carrier leaf's record, so
    equality, hash and repr cover every field in O(1); states have no
    ``__dict__``; a state keeps its last row gather, keyed by the pair."""

    def test_cluster_equality_and_hash_cover_every_field(self, salish_a_dist):
        a, b = bl.Cluster(0, 0.0, 1.0, "a"), bl.Cluster(1, 0.0, 1.0, "b")
        joined = bl.Cluster(2, 5.0, 2.0, "a", (0, 1), a)
        assert joined == (2, 5.0, 2.0, "a", (0, 1), a) and hash(joined) == hash(tuple(joined))
        assert a.children == () and a.carrier is None
        for other in (joined._replace(node=3), joined._replace(anchor_depth=5.5),
                      joined._replace(weight=3.0), joined._replace(first_label="b"),
                      joined._replace(children=(1, 0)), joined._replace(carrier=b),
                      bl.Cluster(2, 5.0, 2.0, "a")):
            assert joined != other and not joined == other and len({joined, other}) == 2
        assert repr(joined) == (
            "Cluster(node=2, anchor_depth=5.0, weight=2.0, first_label='a', children=(0, 1), "
            "carrier=Cluster(node=0, anchor_depth=0.0, weight=1.0, first_label='a', "
            "children=(), carrier=None))")
        geometry = bl.JoinGeometry(joined, b, 9.0, 1.0, 6.0, 2.0)
        assert geometry == bl.JoinGeometry(bl.Cluster(*joined), b, 9.0, 1.0, 6.0, 2.0, ())
        assert repr(geometry).startswith(f"JoinGeometry(near={joined!r}, far={b!r}, ")
        # reduce names the joined pair by node id and takes the near child's
        # carrier: leaf 3 joins far onto leaf 2, then that cluster far onto leaf 1.
        state = bl.initial_state(salish_a_dist, None, "paper")
        leaves = state.clusters
        state, _ = bl.reduce(state, bl.JoinGeometry(leaves[2], leaves[3], 62, 34, 14, 34), 4)
        assert state.clusters[-1][4:] == ((2, 3), leaves[2])
        state, _ = bl.reduce(
            state, bl.JoinGeometry(leaves[1], state.clusters[-1], 58, 20, 19, 34), 5)
        assert state.clusters[-1][4:] == ((1, 4), leaves[1])

    def test_root_clusters_of_a_deep_caterpillar(self):
        # d(i, j) = max(i, j) joins leaf after leaf onto one cluster, k - 1
        # joins deep: no record nests more than its carrier leaf, so the
        # root's repr reads two records and no recursion limit.
        k = 2000
        i = np.arange(k)
        values = np.maximum.outer(i, i).astype(float)
        np.fill_diagonal(values, 0.0)
        dm = DistanceMatrix(LanguageSet(tuple(f"x{j}" for j in range(k))), values)
        state = bl.initial_state(dm, None, "precise")
        for node in range(k, 2 * k - 2):
            state, _ = bl.reduce(state, bl._join(state, bl.min_link(state), "weighted"), node)
        leaf, root = state.clusters
        assert len(cluster_key(leaf, state)) == 1 and len(cluster_key(root, state)) == k - 1
        assert repr(state.clusters) == (
            "(Cluster(node=1999, anchor_depth=0.0, weight=1.0, first_label='x1999', "
            "children=(), carrier=None), "
            "Cluster(node=3997, anchor_depth=999.0, weight=1999.0, first_label='x0', "
            "children=(3996, 1998), carrier=Cluster(node=0, anchor_depth=0.0, weight=1.0, "
            "first_label='x0', children=(), carrier=None)))")
        # The carrier is the leaf reached down the near children.
        near = root
        while near.children:
            near = state._record[near.children[0]]
        assert root.carrier is near is state._record[0]
        copy = bl.Cluster(*root)
        assert copy == root and hash(copy) == hash(root) and not copy != root

    def test_state_refuses_assignment(self, salish_a_dist):
        state = bl.initial_state(salish_a_dist, None, "paper")
        assert not hasattr(state, "__dict__")

    @pytest.mark.parametrize("mode", ["paper", "precise"])
    def test_swapped_pair_reads_its_own_rows(self, mode):
        dm = _precise_random(3, k=9)
        state = bl.initial_state(dm, None, mode)
        a, b = state.clusters[2], state.clusters[6]
        for pair in ((a, b), (b, a), (b, a), (a, b)):
            fresh = bl.initial_state(dm, None, mode)
            assert bl.lateral_offset(state, pair) == bl.lateral_offset(fresh, pair)
            offset, near, far = bl.lateral_offset(state, pair)
            m0, m1 = oracles.lateral_offset_means(state, pair)
            assert offset == abs(m1 - m0) and m0 != m1
            assert (near, far) == (pair if m0 < m1 else pair[::-1])
            ext_nodes, rows = state._pair_rows(pair[0].node, pair[1].node)
            assert rows.tolist() == state.table[np.ix_([c.node for c in pair], ext_nodes)].tolist()
            assert not rows.flags.writeable  # lateral_offset and reduce share them
            assert ext_nodes.tolist() == [c.node for c in state.clusters if c not in pair]

    def test_reduces_of_one_state_with_different_pairs(self):
        dm = _precise_random(5, k=9)
        state = bl.initial_state(dm, None, "precise")
        c = state.clusters
        joins = [bl.JoinGeometry(c[0], c[1], 0.0, 0.0, 40.0, 3.0),
                 bl.JoinGeometry(c[4], c[2], 0.0, 0.0, 35.0, 1.0),
                 bl.JoinGeometry(c[1], c[0], 0.0, 0.0, 40.0, 3.0)]
        bl.lateral_offset(state, (c[0], c[1]))  # the gather reduce may reuse
        for geometry in joins:  # each onto a copy's next id, 9
            want, clamped = oracles.reduced_row(state, geometry)
            got, flags = bl.reduce(oracles.copy_state(state), geometry, 9)
            externals = [x.node for x in got.clusters[:-1]]
            assert got.table[9, externals].tolist() == want
            assert flags == (model.FLAG_NEGATIVE_REDUCED,) * clamped
            _assert_carried_arrays(got)


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

    @pytest.mark.parametrize("absent, first", [
        ([(0, 2), (1, 3)], "(1, 3)"),
        ([(1, 3), (2, 3)], "(2, 4)"),
        ([(2, 3)], "(3, 4)"),
    ])
    def test_incomplete_matrix_names_the_first_absent_pair(self, absent, first):
        # Row-major order over a symmetric table meets the upper cell first.
        values = np.full((4, 4), 10.0) - 10 * np.eye(4)
        for i, j in absent:
            values[i, j] = values[j, i] = np.nan
        dm = DistanceMatrix(LanguageSet(("1", "2", "3", "4")), values)
        with pytest.raises(DomainError) as caught:
            bl.build(dm)
        assert str(caught.value) == (
            f"distance matrix has absent entries, the first at {first}; build requires "
            "a complete matrix -- reconstruct per subsystem and use merge to combine")

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

    def test_unknown_external_means_rejected_at_two_languages(self):
        # No offset is computed at k = 2, so only build's own check refuses.
        dm = DistanceMatrix(LanguageSet(("a", "b")), np.array([[0, 30], [30, 0]], float))
        with pytest.raises(DomainError, match=r"external_means must be one of "
                                              r"\('weighted', 'simple'\)") as exc:
            bl.build(dm, external_means="bogus")
        assert exc.value.field == "external_means"

    @pytest.mark.parametrize("tolerance", [float("nan"), -1.0, 0.0, float("inf")])
    @pytest.mark.parametrize("k", [2, 4])
    def test_resolve_tolerance_must_be_finite_and_positive(self, salish_a_dist, tolerance, k):
        dm = salish_a_dist if k == 4 else DistanceMatrix(
            LanguageSet(("a", "b")), np.array([[0, 30], [30, 0]], float))
        with pytest.raises(DomainError,
                           match=r"^resolve_tolerance must be a finite number > 0$") as exc:
            bl.build(dm, mode="paper", resolve_tolerance=tolerance)
        assert exc.value.field == "resolve_tolerance"

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

    @pytest.mark.parametrize("mode", ["paper", "precise"])
    def test_row_order_invariance(self, mode, salish_a, salish_b, baltoslavic):
        # The same table with its rows permuted, every label kept with its
        # row: labels decide ties, so the tree is the same.  Paper mode is
        # exact; precise sums run in another order.
        tables = [distances(cm, mode) for cm in (salish_a, salish_b, baltoslavic)]
        if mode == "precise":
            planted = sample_caterpillar(np.random.default_rng(24), 24)
            tables.append(DistanceMatrix(LanguageSet(tuple(f"L{i:02d}" for i in range(24))),
                                         planted.distance_matrix()))
        rng = np.random.default_rng(20)
        for dm in tables:
            want = _labelled_junctions(bl.build(dm, mode=mode))
            labels, k = dm.languages.labels, len(dm.languages)
            for _ in range(20):
                perm = rng.permutation(k)
                moved = DistanceMatrix(LanguageSet(tuple(labels[i] for i in perm)),
                                       dm.values[np.ix_(perm, perm)])
                got = _labelled_junctions(bl.build(moved, mode=mode))
                if mode == "paper":
                    assert got == want
                    continue
                assert [j[:4] for j in got] == [j[:4] for j in want]
                np.testing.assert_allclose([j[4:] for j in got], [j[4:] for j in want],
                                           rtol=0, atol=1e-9)

    def test_relabelling_envelope(self, baltoslavic):
        # Labels decide tied joins, so renaming the languages can change the
        # tree.  Each row keeps its language and takes another's name, by
        # default_rng(seed).permutation(15); the clades are read back under
        # the original names.  Seeds 0-199 give five paper-mode topologies,
        # the unrenamed one the most often.
        by_count, unrenamed = relabelling_envelope(baltoslavic, "paper")
        assert [len(found) for found in by_count] == [91, 49, 47, 11, 2]
        assert unrenamed == by_count[0]
        assert by_count[0][:5] == [2, 4, 9, 12, 13]
        assert by_count[1][:5] == [0, 6, 11, 14, 15]
        assert by_count[2][:5] == [1, 3, 5, 7, 8]
        assert by_count[3] == [50, 55, 56, 74, 80, 137, 144, 145, 151, 166, 193]
        assert by_count[4] == [133, 173]

    def test_relabelling_envelope_precise(self, baltoslavic):
        # The same 200 renamings in precise mode give two topologies, the
        # unrenamed one the more common.
        by_count, unrenamed = relabelling_envelope(baltoslavic, "precise")
        assert [len(found) for found in by_count] == [102, 98]
        assert unrenamed == by_count[0]
        assert by_count[0][:5] == [2, 4, 9, 12, 13]
        assert by_count[1][:5] == [0, 1, 3, 5, 6]

    @pytest.mark.parametrize("table_seed, changed", [
        (0, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        (1, [0, 1, 3, 4, 5, 6, 7, 8, 9]),
        (2, [0, 1, 3, 4, 5, 6, 7, 8]),
    ])
    def test_relabelling_envelope_at_k96(self, table_seed, changed):
        # A k = 96 paper table, iterate-paper's kind, has dozens of tied
        # joins: most renamings by default_rng(seed).permutation(96), seeds
        # 0-9, change its topology.
        rng = np.random.default_rng(table_seed)
        tree = planted().chain_tree(rng, 96)
        table = coincidence(tree.labels, planted().noisy_percent(rng, tree.distances))
        _, unrenamed = relabelling_envelope(table, "paper", seeds=10)
        assert sorted(set(range(10)) - set(unrenamed)) == changed

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


def _labelled_junctions(tree):
    """Each junction as (near members, far members, status, flags, depth,
    lateral, total length, depth range), members as sorted labels."""
    labels = tree.languages.labels

    def members(node):
        return tuple(sorted(labels[i] for i in tree.members(node)))

    return [(members(j.near), members(j.far), j.status, j.flags, j.depth, j.lateral,
             j.total_length or 0.0, *(j.depth_range or (0.0, 0.0))) for j in tree.junctions]


def _last_link(dm, mode="paper", external_means="weighted"):
    """A fresh initial state, the last state's pair ordered as ``build``
    orders it (deeper anchor near) and the link between them, through
    ``_step``."""
    state = bl.initial_state(dm, None, mode)
    node = len(dm.languages)
    while len(state.clusters) > 2:
        _, state = _step(state, node, mode, external_means)
        node += 1
    near, far = sorted(state.clusters, key=lambda c: (-c.anchor_depth, c.first_label))
    return bl.initial_state(dm, None, mode), (near, far), state_distance(state, near, far)


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
        # The cross-check reports what the root stores: never above the anchor.
        assert (res.depth, res.depth_range) == (86, (86, 86))

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


def _random_table(seed, mode):
    """A table of whole-percent coincidences, k = 3...12, as distances."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 13))
    upper = np.triu(rng.integers(1, 101, (k, k)), 1)
    return distances(coincidence(
        tuple(f"L{i}" for i in range(k)), upper + upper.T + 100 * np.eye(k)), mode)


@pytest.mark.parametrize("tolerance", [0.5, 2.0, 50.0])
@pytest.mark.parametrize("external_means", bl.EXTERNAL_MEANS)
@pytest.mark.parametrize("mode", ["paper", "precise"])
def test_cross_check_reports_the_stored_root(mode, external_means, tolerance):
    # ``resolve_last_link`` alone decides the root of a positive root link:
    # the build stores its depth, lateral width, status and depth range.
    tables = [_anchor_gap_table()] + [_random_table(seed, mode) for seed in range(40)]
    reasons = set()
    for dm in tables:
        start, root, total = _last_link(dm, mode, external_means)
        if total <= 0:
            continue
        res = bl.resolve_last_link(start, root, total, external_means, tolerance)
        stored = bl.build(dm, mode=mode, external_means=external_means,
                          resolve_tolerance=tolerance).junctions[-1]
        status = model.RESOLVED if res.resolved else model.UNRESOLVED
        assert (res.depth, res.lateral, status) == (stored.depth, stored.lateral,
                                                    stored.status)
        if not res.resolved:
            assert res.depth_range == stored.depth_range
            assert res.total_length == stored.total_length
        reasons.add(res.reason.split()[-1])
    assert {"agrees", "disagrees"} <= reasons


class TestZeroLengthRoot:
    """A root link of length 0 is stored resolved without a cross-check."""

    def test_two_languages_at_distance_zero(self):
        dm = DistanceMatrix(LanguageSet(("a", "b")), np.zeros((2, 2)))
        root = bl.build(dm, mode="precise").junctions[-1]
        assert (root.depth, root.lateral, root.status) == (0, 0, model.RESOLVED)
        assert root.flags == ()

    def test_reduced_to_zero_between_unequal_anchors(self):
        # Found by a seeded search over k = 3 tables of whole distances 1..4:
        # the tied first join rounds its depth 0.5 up to 1, so the reduced
        # link to the third leaf, (1 - 1 + 1 - 1) / 2, is 0 while the anchors
        # sit at 1 and 0.
        dm = DistanceMatrix(LanguageSet(("a", "b", "c")), np.ones((3, 3)) - np.eye(3))
        tree = bl.build(dm, mode="paper")
        assert _last_link(dm)[2] == 0
        root = tree.junctions[-1]
        assert (root.near, root.far) == (3, 2)
        assert (root.depth, root.lateral, root.status) == (1, 0, model.RESOLVED)
        assert root.flags == (model.FLAG_INFEASIBLE,)


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
            link = state_distance(state, near, far)
            d, h, flags, offset = bl.join_geometry(
                link, offset, near.anchor_depth, far.anchor_depth, "precise"
            )
            state, _ = bl.reduce(
                state, bl.JoinGeometry(near, far, link, offset, d, h, flags), node
            )
            merged = state.clusters[-1]
            for ext in state.clusters[:-1]:
                got = state_distance(state, merged, ext)
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
            link = state_distance(state, near, far)
            d, h, flags, offset = bl.join_geometry(
                link, offset, near.anchor_depth, far.anchor_depth, "precise"
            )
            state, _ = bl.reduce(
                state, bl.JoinGeometry(near, far, link, offset, d, h, flags), node
            )
            node += 1
        labels = dm.languages.labels
        for cluster in state.clusters:
            assert cluster_key(cluster, state) == tuple(
                sorted(labels[i] for i in tree.members(cluster.node)))
