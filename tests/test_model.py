import itertools
import json
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from isolect import builder, chronometry, cli, merger, model, refinement
from isolect.errors import DomainError, ParseError
from isolect.model import (
    Dendrogram,
    DistanceMatrix,
    Junction,
    LanguageSet,
    WeightVector,
    anchor_distance,
    deserialize,
    leaf_distance,
    restore_coincidence_matrix,
    restore_distance_matrix,
    serialize,
)

from conftest import BUNDLED, SALISH_A_RESTORED, SALISH_A_RESTORED_C


def salish_tree(mode="paper") -> Dendrogram:
    """The reconstructed four-language dendrogram, assembled by hand.

    Junction node ids: leaves 1..4 are 0..3, junctions are 4, 5, 6.
    """
    langs = LanguageSet(("1", "2", "3", "4"))
    junctions = (
        Junction(near=2, far=3, depth=14, lateral=34),          # 3+4 -> node 4
        Junction(near=1, far=4, depth=19, lateral=34),          # 2+(3-4) -> node 5
        Junction(near=5, far=0, depth=19, lateral=36),          # (2-4)+1 -> node 6
    )
    return Dendrogram(langs, junctions, mode=mode)


def two_leaf_tree(depth, lateral, mode="precise") -> Dendrogram:
    return Dendrogram(
        LanguageSet(("a", "b")),
        (Junction(near=0, far=1, depth=depth, lateral=lateral),),
        mode=mode,
    )


class TestLanguageSet:
    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            LanguageSet(("x", "x"))

    def test_rejects_empty_label(self):
        with pytest.raises(DomainError):
            LanguageSet(("x", ""))

    def test_default_depths_are_zero(self):
        assert LanguageSet(("x", "y")).depths == (0.0, 0.0)

    def test_rejects_negative_depth(self):
        with pytest.raises(DomainError):
            LanguageSet(("x",), (-1.0,))


class TestMatrices:
    def test_asymmetry_rejected(self):
        with pytest.raises(DomainError, match="asymmetric"):
            model.CoincidenceMatrix(
                LanguageSet(("a", "b")), np.array([[100, 40], [41, 100]], float)
            )

    def test_first_asymmetric_pair_reported(self):
        # Row-major upper-triangle order: (a, c) comes before (b, c).
        nan = float("nan")
        langs = LanguageSet(("a", "b", "c"))
        with pytest.raises(DomainError) as exc:
            DistanceMatrix(langs, np.array([[0, 4, 5], [4, 0, nan], [6, 7, 0]]))
        assert str(exc.value) == "asymmetric at (a, c): 5.0 vs 6.0"
        with pytest.raises(DomainError) as exc:
            DistanceMatrix(langs, np.array([[0, 4, nan], [4, 0, 7], [5, 8, 0]]))
        assert str(exc.value) == "asymmetric presence at (a, c)"
        # Differences within 1e-9 are tolerated.
        DistanceMatrix(langs, np.array([[0, 4, 5], [4, 0, 7], [5 + 1e-10, 7, 0]]))

    def test_coincidence_range_enforced(self):
        with pytest.raises(DomainError):
            model.CoincidenceMatrix(
                LanguageSet(("a", "b")), np.array([[100, 0], [0, 100]], float)
            )

    def test_distance_diagonal_enforced(self):
        with pytest.raises(DomainError):
            DistanceMatrix(
                LanguageSet(("a", "b")), np.array([[1, 5], [5, 0]], float)
            )

    @pytest.mark.parametrize("cell", [-1.0, math.inf, -math.inf])
    def test_distance_range_error_names_its_pair(self, cell):
        values = np.array([[0, 4, 5], [4, 0, cell], [5, cell, 0]])
        with pytest.raises(DomainError) as exc:
            DistanceMatrix(LanguageSet(("a", "b", "c")), values)
        assert str(exc.value) == f"distances must be finite and >= 0 at (b, c): {cell}"

    def test_distance_with_value(self):
        langs = LanguageSet(("a", "b", "c"))
        before = DistanceMatrix(langs, np.array([[0, 4, 5], [4, 0, 7], [5, 7, 0]]))
        after = before.with_value("c", "a", 6.5)
        assert type(after) is DistanceMatrix
        assert after.values.tolist() == [[0, 4, 6.5], [4, 0, 7], [6.5, 7, 0]]
        assert before.values[0, 2] == 5
        with pytest.raises(DomainError, match="cannot set a diagonal distance"):
            before.with_value("b", "b", 0.0)
        with pytest.raises(DomainError, match="distances must be finite"):
            before.with_value("a", "b", -1.0)

    def test_values_frozen(self, salish_a):
        with pytest.raises(ValueError):
            salish_a.values[0, 1] = 3


class TestAnchorDistance:
    def test_cherry_cluster(self):
        tree = salish_tree()
        assert anchor_distance(tree, 4, "3") == 14
        assert anchor_distance(tree, 4, "4") == 48

    def test_single_leaf_cluster(self):
        tree = salish_tree()
        assert anchor_distance(tree, 2, "3") == 0.0

    def test_three_leaf_cluster_far_side(self):
        # Leaf 3 reaches the second anchor across the first junction's
        # lateral and the 5-svodesh riser: 14 + 5 + 34.
        tree = salish_tree()
        assert anchor_distance(tree, 5, "2") == 19
        assert anchor_distance(tree, 5, "3") == 53
        assert anchor_distance(tree, 5, "4") == 87

    def test_leaf_outside_cluster(self):
        tree = salish_tree()
        with pytest.raises(DomainError):
            anchor_distance(tree, 4, "1")


class TestLeafDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("1", "4", 142), ("2", "4", 106), ("3", "4", 62), ("1", "2", 74),
         ("1", "3", 108), ("2", "3", 72)],
    )
    def test_restored_values(self, a, b, expected):
        assert leaf_distance(salish_tree(), a, b) == expected

    def test_identity(self):
        assert leaf_distance(salish_tree(), "2", "2") == 0.0

    def test_symmetry(self):
        tree = salish_tree()
        assert leaf_distance(tree, "1", "4") == leaf_distance(tree, "4", "1")

    def test_four_point_condition(self):
        # On a tree metric the two largest of the three pair-sums coincide.
        tree = salish_tree()
        labels = tree.languages.labels
        for a, b, c, d in itertools.permutations(labels, 4):
            sums = sorted((
                leaf_distance(tree, a, b) + leaf_distance(tree, c, d),
                leaf_distance(tree, a, c) + leaf_distance(tree, b, d),
                leaf_distance(tree, a, d) + leaf_distance(tree, b, c),
            ))
            assert sums[2] - sums[1] <= 1e-9

    def test_unresolved_root_uses_total(self):
        # Distances across an unresolved root depend only on the stored
        # total, never on the nominal decomposition carried for display.
        langs = LanguageSet(("a", "b", "c"))
        base = (Junction(near=0, far=1, depth=10, lateral=6),)
        for nominal in (20.0, 25.0, 31.0):
            root = Junction(
                near=3, far=2, depth=nominal, lateral=0.0,
                status=model.UNRESOLVED, total_length=40.0,
                depth_range=(10.0, 30.0),
            )
            tree = Dendrogram(langs, base + (root,))
            assert leaf_distance(tree, "a", "c") == 10 + 40.0
            assert leaf_distance(tree, "b", "c") == 16 + 40.0


class TestRestore:
    def test_full_matrix(self):
        out = restore_distance_matrix(salish_tree())
        assert np.array_equal(out.values, np.array(SALISH_A_RESTORED, float))

    def test_coincidence_matrix(self):
        out = restore_coincidence_matrix(salish_tree())
        assert np.array_equal(out.values, np.array(SALISH_A_RESTORED_C, float))

    def test_two_leaf_constant(self):
        tree = two_leaf_tree(depth=12.5, lateral=7.0)
        out = restore_distance_matrix(tree)
        assert out.values[0, 1] == pytest.approx(2 * 12.5 + 7.0)

    def test_zero_tree_gives_full_coincidence(self):
        tree = two_leaf_tree(depth=0.0, lateral=0.0)
        out = restore_coincidence_matrix(tree)
        assert np.array_equal(out.values, np.full((2, 2), 100.0))

    def test_symmetry_and_diagonal(self):
        out = restore_distance_matrix(salish_tree())
        assert np.array_equal(out.values, out.values.T)
        assert np.array_equal(np.diag(out.values), np.zeros(4))

    def test_matches_pairwise_leaf_distance(self):
        tree = salish_tree()
        out = restore_distance_matrix(tree)
        labels = tree.languages.labels
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                assert out.values[i, j] == leaf_distance(tree, a, b)


class TestSerialization:
    def test_round_trip_identity(self):
        tree = salish_tree()
        tree = Dendrogram(
            tree.languages, tree.junctions, mode=tree.mode,
            weights=WeightVector(tree.languages, (1, 2, 3, 4)),
        )
        again = deserialize(serialize(tree))
        assert again == tree
        assert serialize(again) == serialize(tree)

    def test_round_trip_unresolved(self):
        langs = LanguageSet(("a", "b"))
        tree = Dendrogram(
            langs,
            (Junction(near=0, far=1, depth=20, lateral=0,
                      status=model.UNRESOLVED, total_length=40,
                      depth_range=(0.0, 20.0)),),
        )
        again = deserialize(serialize(tree))
        assert again.junctions[0].total_length == 40
        assert again.junctions[0].depth_range == (0.0, 20.0)

    def test_rejects_negative_lateral(self):
        text = serialize(salish_tree()).replace('"lateral": 36', '"lateral": -4')
        with pytest.raises(ParseError, match="lateral"):
            deserialize(text)

    def test_rejects_two_unresolved(self):
        doc = {
            "format": "isolect-dendrogram", "version": 1, "kind": "dendrogram",
            "mode": "paper",
            "languages": [{"name": n, "depth": 0} for n in ("a", "b", "c")],
            "weights": None,
            "junctions": [
                {"near": "a", "far": "b", "depth": 10, "lateral": 0,
                 "status": {"state": "unresolved", "total_length": 20,
                            "depth_min": 0, "depth_max": 10}, "flags": []},
                {"near": 0, "far": "c", "depth": 15, "lateral": 0,
                 "status": {"state": "unresolved", "total_length": 30,
                            "depth_min": 10, "depth_max": 15}, "flags": []},
            ],
        }
        import json

        with pytest.raises(ParseError, match="unresolved"):
            deserialize(json.dumps(doc))

    def test_rejects_unknown_leaf(self):
        text = serialize(salish_tree()).replace('"near": "3"', '"near": "9"')
        with pytest.raises(ParseError, match="unknown leaf"):
            deserialize(text)

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError, match="line"):
            deserialize("{not json")

    def test_stable_output(self):
        tree = salish_tree()
        assert serialize(tree) == serialize(salish_tree())


class TestSerializeMatchesJsonDumps:
    """``serialize`` writes the bytes ``oracles.serialize`` gets from
    ``json.dumps(doc, indent=2, ensure_ascii=False)``."""

    @staticmethod
    def _trees(labels, values, mode, weights=None):
        dm = DistanceMatrix(LanguageSet(labels), values)
        yield builder.build(dm, weights, mode=mode)
        if len(labels) > 2:
            yield builder.build(dm, weights, mode=mode, external_means="simple")
            trace = refinement.iterate_build(dm, mode=mode)
            yield from (p.dendrogram for p in trace.passes)

    def _check(self, trees):
        seen = set()
        for tree in trees:
            assert serialize(tree) == oracles.serialize(tree)
            seen.add(tree.weights is None)
            seen.update(jn.status for jn in tree.junctions)
            seen.update(f for jn in tree.junctions for f in jn.flags)
        return seen

    def test_bundled_and_planted_builds(self):
        trees = []
        for mode in ("paper", "precise"):
            for name in ("salish_a", "salish_b", "baltoslavic"):
                percent = cli.read_matrix_csv(BUNDLED / f"{name}.csv", "coincidence")
                dm = chronometry.matrix_to_distances(percent, mode)
                trees += self._trees(dm.languages.labels, dm.values, mode)
            rng = np.random.default_rng(5)
            for k in (2, 3, 9):
                planted = oracles.sample_caterpillar(rng, k) if k > 3 else None
                values = (
                    planted.distance_matrix() if planted
                    else np.array(rng.integers(10, 90, (k, k)), dtype=float)
                )
                values = np.triu(values, 1) + np.triu(values, 1).T
                trees += self._trees(tuple(f"L{i}" for i in range(k)), values, mode)
        seen = self._check(trees)
        # The documents cover both statuses, weights, and the flags builds raise.
        assert {model.RESOLVED, model.UNRESOLVED, True, False} <= seen
        assert {model.FLAG_PURE_VERTICAL, model.FLAG_INFEASIBLE,
                model.FLAG_CROSS_CHECKED, model.FLAG_UNRESOLVED_DECOMPOSITION} <= seen

    @pytest.mark.parametrize("mode", ["paper", "precise"])
    def test_awkward_labels_weights_and_numbers(self, mode):
        labels = ('q"t', "back\\slash", "tab\tnew\nline", "nul\x00del\x7f", "é",
                  "日本語", "line\u2028sep", "\U0001f600", "x y")
        rng = np.random.default_rng(11)
        k = len(labels)
        upper = np.triu(rng.uniform(5, 300, (k, k)), 1)
        weights = WeightVector(LanguageSet(labels), rng.uniform(0.1, 9, k).round(3))
        trees = list(self._trees(labels, upper + upper.T, mode, weights))
        trees += self._trees(labels[:2], np.array([[0, 7.5], [7.5, 0]]), mode)
        trees.append(Dendrogram(
            LanguageSet(("a", "b"), (2.5, 0)),
            (Junction(near=0, far=1, depth=1e20, lateral=0.1,
                      flags=model.CLAMP_FLAGS),), mode=mode,
        ))
        trees.append(Dendrogram(LanguageSet(("alone",)), (), mode=mode))
        self._check(trees)


class TestDendrogramValidation:
    def test_requires_k_minus_one_junctions(self):
        with pytest.raises(DomainError):
            Dendrogram(LanguageSet(("a", "b", "c")),
                       (Junction(near=0, far=1, depth=5, lateral=0),))

    def test_rejects_reused_child(self):
        with pytest.raises(DomainError):
            Dendrogram(
                LanguageSet(("a", "b", "c")),
                (Junction(near=0, far=1, depth=5, lateral=0),
                 Junction(near=0, far=2, depth=7, lateral=0)),
            )

    def test_rejects_unresolved_below_root(self):
        with pytest.raises(DomainError):
            Dendrogram(
                LanguageSet(("a", "b", "c")),
                (Junction(near=0, far=1, depth=5, lateral=0,
                          status=model.UNRESOLVED, total_length=10,
                          depth_range=(0, 5)),
                 Junction(near=3, far=2, depth=7, lateral=0)),
            )

    def test_rejects_junction_above_child(self):
        with pytest.raises(DomainError):
            Dendrogram(
                LanguageSet(("a", "b", "c")),
                (Junction(near=0, far=1, depth=9, lateral=2),
                 Junction(near=3, far=2, depth=4, lateral=0)),
            )

    @pytest.mark.parametrize("depth_range", [None, (20.0, 10.0)], ids=["none", "reversed"])
    def test_unresolved_requires_an_ordered_depth_range(self, depth_range):
        # Either one used to load and then fail in serialize (TypeError) or
        # render a range with depth_min > depth_max.
        with pytest.raises(DomainError, match="depth range min <= max"):
            Junction(near=0, far=1, depth=15, lateral=0, status=model.UNRESOLVED,
                     total_length=30, depth_range=depth_range)
        # A point range is a range; the nominal depth may lie outside it.
        Junction(near=0, far=1, depth=31, lateral=0, status=model.UNRESOLVED,
                 total_length=30, depth_range=(10.0, 10.0))

    def test_carrier_follows_near_lineage(self):
        tree = salish_tree()
        assert tree.languages.labels[tree.carrier(6)] == "2"
        assert tree.languages.labels[tree.carrier(4)] == "3"

    def test_rejects_non_finite_geometry(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                Junction(near=0, far=1, depth=bad, lateral=0)
            with pytest.raises(DomainError, match="finite"):
                Junction(near=0, far=1, depth=5, lateral=bad)
            with pytest.raises(DomainError, match="finite"):
                Junction(near=0, far=1, depth=5, lateral=0, status=model.UNRESOLVED,
                         total_length=10, depth_range=(0, bad))


class TestNumericFields:
    """Every number in a dendrogram document must be a finite JSON number."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, "abc", None, True, 10**400])
    @pytest.mark.parametrize("path", [
        ("languages", 0, "depth"),
        ("junctions", 0, "depth"),
        ("junctions", 1, "lateral"),
    ])
    def test_rejected_with_location(self, path, value):
        doc = json.loads(serialize(salish_tree()))
        doc[path[0]][path[1]][path[2]] = value
        with pytest.raises(ParseError, match=rf"{path[2]} must be a finite number "
                           rf"\(at {path[0]}\[{path[1]}\]\.{path[2]}\)"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("field", ["total_length", "depth_min", "depth_max"])
    def test_unresolved_fields_rejected(self, field):
        doc = json.loads(serialize(two_leaf_tree(20, 0)))
        doc["junctions"][0]["status"] = {
            "state": "unresolved", "total_length": 40, "depth_min": 0, "depth_max": 20,
        }
        doc["junctions"][0]["status"][field] = "NaN"
        with pytest.raises(ParseError, match=rf"at junctions\[0\]\.status\.{field}"):
            deserialize(json.dumps(doc))


# -- the tree index against independent oracles -------------------------------


@st.composite
def dendrograms(draw):
    """Random dendrograms, attested leaves and an unresolved root included."""
    k = draw(st.integers(2, 9))
    lengths = st.floats(0, 50)
    depths = draw(st.lists(st.sampled_from((0.0, 0.0, 7.5, 20.0)), min_size=k,
                           max_size=k))
    anchor = list(depths)
    open_nodes = list(range(k))
    junctions = []
    for idx in range(k - 1):
        i, j = draw(st.lists(st.integers(0, len(open_nodes) - 1), min_size=2,
                             max_size=2, unique=True))
        near, far = open_nodes[i], open_nodes[j]
        open_nodes = [n for n in open_nodes if n not in (near, far)] + [k + idx]
        low = max(anchor[near], anchor[far])
        if idx == k - 2 and draw(st.booleans()):
            jn = Junction(near, far, low, 0.0, status=model.UNRESOLVED,
                          total_length=draw(st.floats(1, 100)),
                          depth_range=(low, low))
        else:
            jn = Junction(near, far, low + draw(lengths), draw(lengths))
        junctions.append(jn)
        anchor.append(jn.depth)
    langs = LanguageSet(tuple(f"L{i}" for i in range(k)), tuple(depths))
    return Dendrogram(langs, tuple(junctions))


def naive_members(tree: Dendrogram, node: int) -> tuple[int, ...]:
    k = len(tree.languages)
    if node < k:
        return (node,)
    jn = tree.junctions[node - k]
    return tuple(sorted(naive_members(tree, jn.near) + naive_members(tree, jn.far)))


class TestTreeIndexOracle:
    @settings(max_examples=60, deadline=None)
    @given(dendrograms())
    def test_distances_equal_segment_graph_paths(self, tree):
        g = merger.segment_graph(tree).graph()
        labels = tree.languages.labels
        restored = restore_distance_matrix(tree).values
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                expected = nx.shortest_path_length(g, a, b, weight="length")
                assert leaf_distance(tree, a, b) == pytest.approx(expected, abs=1e-6)
                assert restored[i, j] == pytest.approx(expected, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(dendrograms())
    def test_members_and_lca_equal_naive_walk(self, tree):
        k = len(tree.languages)
        nodes = range(k + len(tree.junctions))
        for node in nodes:
            assert tree.members(node) == naive_members(tree, node)
        for a, b in itertools.product(range(k), repeat=2):
            lowest = next(n for n in nodes[k:] if {a, b} <= set(naive_members(tree, n)))
            assert tree.lca_junction(a, b) == lowest
