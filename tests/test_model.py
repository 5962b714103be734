import itertools
import json
import math
import re
from functools import cached_property

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
        languages = LanguageSet(("x", "y"))
        assert languages.depths == (0.0, 0.0)
        assert tuple(languages) == languages.labels == ("x", "y")

    def test_rejects_negative_depth(self):
        with pytest.raises(DomainError):
            LanguageSet(("x",), (-1.0,))

    @pytest.mark.parametrize("labels, depths, message", [
        ((), (), "language set must not be empty"),
        (("x", "y"), (1.0,), "one attestation depth per language required"),
        (("x",), (1.0, 2.0), "one attestation depth per language required"),
    ], ids=["empty", "too-few-depths", "too-many-depths"])
    def test_refusal_messages(self, labels, depths, message):
        with pytest.raises(DomainError) as exc:
            LanguageSet(labels, depths)
        assert str(exc.value) == message


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

    @pytest.mark.parametrize("cls", [model.CoincidenceMatrix, DistanceMatrix])
    def test_shape_refused(self, cls):
        with pytest.raises(DomainError) as exc:
            cls(LanguageSet(("a", "b")), np.zeros((2, 3)))
        assert str(exc.value) == "matrix must be 2x2, got (2, 3)"

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

    def test_unresolved_root_has_no_anchor(self):
        # Only the root's total is known: its leaves' anchor distances are
        # refused, while its children's and the leaves' own stay answerable.
        langs = LanguageSet(("a", "b", "c"))
        root = Junction(near=3, far=2, depth=20.0, lateral=0.0, status=model.UNRESOLVED,
                        total_length=40.0, depth_range=(10.0, 30.0))
        tree = Dendrogram(langs, (Junction(near=0, far=1, depth=10, lateral=6), root))
        assert tree.gains()[-1] == (40.0, 0.0)
        for leaf in "abc":
            with pytest.raises(DomainError, match=re.escape(
                    "node 4 is an unresolved root and has no anchor")):
                anchor_distance(tree, 4, leaf)
        assert (anchor_distance(tree, 3, "a"), anchor_distance(tree, 3, "b")) == (10.0, 16.0)
        assert anchor_distance(tree, 2, "c") == 0.0
        for node_id in (-1, -2, 5):  # no id outside the tree reaches its root's table
            with pytest.raises(DomainError, match=re.escape(
                    f"node ids must lie in 0..4 (got {node_id})")):
                anchor_distance(tree, node_id, "a")
        # A one-leaf tree's leaf 0 is no root.
        assert anchor_distance(Dendrogram(LanguageSet(("x",)), ()), 0, "x") == 0.0

    def test_node_id_is_checked_before_the_anchor_tables_fill(self, monkeypatch):
        def unexpected(tree):
            raise AssertionError("anchor tables filled")

        monkeypatch.setattr(model.Dendrogram, "_anchor_tables", property(unexpected))
        with pytest.raises(DomainError, match=re.escape("node ids must lie in 0..6 (got -1)")):
            anchor_distance(salish_tree(), -1, "1")


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
        # Bit for bit, on the hand-built tree and on builds of whole-percent
        # tables at k = 2..13 in both modes, which end in unresolved roots.
        trees = [salish_tree()]
        for mode, k in itertools.product(("paper", "precise"), range(2, 14)):
            rng = np.random.default_rng(k)
            upper = np.triu(rng.integers(1, 101, size=(k, k)).astype(float), 1)
            values = upper + upper.T + np.diag(np.full(k, 100.0))
            langs = LanguageSet(tuple(f"L{i}" for i in range(k)))
            trees.append(builder.build(chronometry.matrix_to_distances(
                model.CoincidenceMatrix(langs, values), mode), mode=mode))
        assert sum(not t.junctions[-1].resolved for t in trees) >= 20
        for tree in trees:
            out = restore_distance_matrix(tree)
            labels = tree.languages.labels
            for i, a in enumerate(labels):
                for j, b in enumerate(labels):
                    assert out.values[i, j].hex() == leaf_distance(tree, a, b).hex()


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

    def test_rejects_junction_index_out_of_range(self):
        doc = json.loads(serialize(salish_tree()))
        doc["junctions"][2]["near"] = 7
        with pytest.raises(ParseError) as exc:
            deserialize(json.dumps(doc))
        assert str(exc.value) == "junction index 7 out of range (at junctions[2].near)"

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

    def test_first_fault_in_junction_order_is_reported(self):
        # Junction 0 sits above leaf b's anchor; junction 1 names a node that
        # does not exist yet.  One walk in junction order meets junction 0's
        # anchor fault first, as documents report their first fault.
        with pytest.raises(DomainError) as caught:
            Dendrogram(
                LanguageSet(("a", "b", "c"), (0.0, 30.0, 0.0)),
                (Junction(near=0, far=1, depth=10.0, lateral=0.0),
                 Junction(near=3, far=4, depth=40.0, lateral=0.0)),
            )
        assert str(caught.value) == "junction 0 depth 10.0 above a child anchor (30.0)"

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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_accepted_junction_list_has_one_root(self, k):
        # Each junction's (near, far) ranges over every node id 0..2k-2.  Every
        # list the tree accepts leaves exactly one node, the last junction,
        # out of the children; every other list is refused as out of order or
        # as a child used twice (which covers a node joined with itself).
        langs = LanguageSet(tuple("abcd"[:k]))
        junctions = {pair: Junction(*pair, depth=0, lateral=0)
                     for pair in itertools.product(range(2 * k - 1), repeat=2)}
        refused = re.compile(r"junction \d references node \d out of order"
                             r"|node \d used as a child twice")
        accepted = 0
        for pairs in itertools.product(junctions, repeat=k - 1):
            try:
                Dendrogram(langs, tuple(junctions[pair] for pair in pairs))
            except DomainError as exc:
                assert refused.fullmatch(str(exc)), str(exc)
                continue
            accepted += 1
            children = {child for pair in pairs for child in pair}
            assert set(range(2 * k - 1)) - children == {2 * k - 2}
        # Ordered pairs from the n open nodes, n = k..2: 1, 2, 2*6 and 2*6*12.
        assert accepted == [1, 2, 12, 144][k - 1]

    def test_queries_without_a_junction_are_refused(self):
        with pytest.raises(DomainError) as exc:
            salish_tree().junction_at(3)
        assert str(exc.value) == "node 3 is a leaf"
        for query in (lambda tree: tree.lca_junction(0, 0),
                      lambda tree: tree.meeting_junctions(["alone"])):
            with pytest.raises(DomainError) as exc:
                query(Dendrogram(LanguageSet(("alone",)), ()))
            assert str(exc.value) == "leaves do not share a junction"

    @pytest.mark.parametrize("query", ["members", "carrier", "anchor_depth", "junction_at"])
    @pytest.mark.parametrize("node_id", [-1, -7, 7])
    def test_queries_refuse_node_ids_outside_the_tree(self, query, node_id):
        # k = 4: ids 0..6.  A negative id would wrap to an entry counted from the end.
        tree = salish_tree()
        with pytest.raises(DomainError) as exc:
            getattr(tree, query)(node_id)
        assert str(exc.value) == f"node ids must lie in 0..6 (got {node_id})"
        assert (tree.members(6), tree.carrier(0), tree.anchor_depth(6)) == ((0, 1, 2, 3), 0, 19)
        assert tree.junction_at(6) is tree.junctions[-1]

    def test_carrier_follows_near_lineage(self):
        tree = salish_tree()
        assert tree.languages.labels[tree.carrier(6)] == "2"
        assert tree.languages.labels[tree.carrier(4)] == "3"

    @pytest.mark.parametrize("fields, message, field", [
        ({"status": "pending"}, "unknown junction status 'pending'", "status"),
        ({"lateral": -1.0}, "lateral width must be >= 0", "lateral"),
        ({"depth": -1.0}, "junction depth must be >= 0", "depth"),
        ({"total_length": math.nan}, "junction geometry must be finite", None),
        ({"status": model.UNRESOLVED, "depth_range": (0.0, 5.0)},
         "unresolved junction requires total_length > 0", None),
        ({"status": model.UNRESOLVED, "total_length": 0.0, "depth_range": (0.0, 5.0)},
         "unresolved junction requires total_length > 0", None),
        ({"status": model.UNRESOLVED, "total_length": -3.0, "depth_range": (0.0, 5.0)},
         "unresolved junction requires total_length > 0", None),
        # Checks run in this order: status, finiteness, lateral, depth, then
        # what an unresolved junction needs.
        ({"status": "pending", "depth": math.nan}, "unknown junction status 'pending'", "status"),
        ({"lateral": -1.0, "depth": math.inf}, "junction geometry must be finite", None),
        ({"lateral": -1.0, "depth": -1.0}, "lateral width must be >= 0", "lateral"),
        ({"depth": -1.0, "status": model.UNRESOLVED}, "junction depth must be >= 0", "depth"),
        ({"status": model.UNRESOLVED, "depth_range": (5.0, 0.0)},
         "unresolved junction requires total_length > 0", None),
    ], ids=["status", "lateral", "depth", "total-nan", "total-none", "total-zero",
            "total-negative", "status-first", "finite-before-lateral",
            "lateral-before-depth", "depth-before-unresolved", "total-before-range"])
    def test_refusal_messages_and_fields(self, fields, message, field):
        with pytest.raises(DomainError) as exc:
            Junction(**{"near": 0, "far": 1, "depth": 5.0, "lateral": 0.0, **fields})
        assert str(exc.value) == message and exc.value.field == field

    @pytest.mark.parametrize("flags, message, field", [
        ("ab", "flags must be a sequence of strings, not a string", "flags"),
        ((1,), "flag must be a string", "flags[0]"),
        (["a", None], "flag must be a string", "flags[1]"),
        (None, "flags must be a sequence of strings", "flags"),
        (1, "flags must be a sequence of strings", "flags"),
    ], ids=["bare-string", "number", "none-in-a-list", "none", "not-iterable"])
    def test_flags_must_be_strings(self, flags, message, field):
        with pytest.raises(DomainError) as exc:
            Junction(0, 1, 5.0, 0.0, flags=flags)
        assert str(exc.value) == message and exc.value.field == field

    def test_flags_become_a_tuple(self):
        assert Junction(0, 1, 5.0, 0.0, flags=["a", "b"]).flags == ("a", "b")
        flags = ("a",)
        assert Junction(0, 1, 5.0, 0.0, flags=flags).flags is flags

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
        pairs = list(itertools.product(range(k), repeat=2))
        lowest = [next(n for n in nodes[k:] if {a, b} <= set(naive_members(tree, n)))
                  for a, b in pairs]
        assert [tree.lca_junction(a, b) for a, b in pairs] == lowest  # walked
        tree.meeting_junctions(tree.languages.labels)
        assert [tree.lca_junction(a, b) for a, b in pairs] == lowest  # from the table

    @settings(max_examples=60, deadline=None)
    @given(dendrograms())
    def test_first_query_walk_equals_naive_walk(self, tree):
        # A fresh tree answers its first query by walking parent links.
        k = len(tree.languages)
        for a, b in itertools.product(range(k), repeat=2):
            fresh = Dendrogram(tree.languages, tree.junctions)
            lowest = next(n for n in range(k, 2 * k - 1)
                          if {a, b} <= set(naive_members(tree, n)))
            assert fresh.lca_junction(a, b) == lowest

    @settings(max_examples=60, deadline=None)
    @given(dendrograms())
    def test_restore_equals_anchor_table_sums_bit_for_bit(self, tree):
        restored = restore_distance_matrix(tree).values
        assert restored.tobytes() == oracles.restore_by_anchor_tables(tree).tobytes()

    @pytest.mark.parametrize("mode", ["paper", "precise"])
    @pytest.mark.parametrize("seed", range(4))
    def test_restore_of_builds_equals_anchor_table_sums_bit_for_bit(self, mode, seed):
        rng = np.random.default_rng(seed)
        k = 40
        upper = np.triu(rng.uniform(5, 95, size=(k, k)), 1)
        values = upper + upper.T + np.diag(np.full(k, 100.0))
        langs = LanguageSet(tuple(f"L{i}" for i in range(k)))
        tree = builder.build(chronometry.matrix_to_distances(
            model.CoincidenceMatrix(langs, values), mode), mode=mode)
        restored = restore_distance_matrix(tree).values
        assert restored.tobytes() == oracles.restore_by_anchor_tables(tree).tobytes()

    @pytest.mark.parametrize("a, b", [(-1, 0), (0, 4), (4, 4), (0, -1)])
    def test_first_query_rejects_leaf_ids_out_of_range(self, a, b):
        # The walk from a negative id would never reach the root, and the
        # k x k table the batch query builds would wrap it to the last leaf.
        fresh, tabled = salish_tree(), salish_tree()
        tabled.meeting_junctions(["1", "2"])
        assert "_meeting" not in fresh.__dict__ and "_meeting" in tabled.__dict__
        for tree in (fresh, tabled):
            with pytest.raises(DomainError, match="leaf ids must lie in 0..3"):
                tree.lca_junction(a, b)
            assert tree.lca_junction(2, 3) == 4  # the tree still answers


class TestMeetingTableBuilds:
    """The k x k meeting table is filled only by the batch query
    ``meeting_junctions``, once per tree."""

    @pytest.fixture
    def builds(self, monkeypatch):
        fill = Dendrogram.__dict__["_meeting"].func
        counted = []

        def meeting(self):
            counted.append(self)
            return fill(self)

        prop = cached_property(meeting)
        prop.__set_name__(Dendrogram, "_meeting")
        monkeypatch.setattr(Dendrogram, "_meeting", prop)
        return counted

    def test_none_per_perturb(self, builds, salish_a):
        report = refinement.perturb(salish_a, ("1", "4"), [4, -4], track=("1", "2"),
                                    mode="paper")
        assert len(report.rows) == 3
        assert builds == []

    def test_one_per_tree_per_merge(self, builds, salish_a, salish_b):
        tree_a = builder.build(chronometry.matrix_to_distances(salish_a, "paper"), mode="paper")
        tree_b = builder.build(chronometry.matrix_to_distances(salish_b, "paper"), mode="paper")
        merger.merge(tree_a, tree_b)
        assert len(builds) == 2
        assert {id(t) for t in builds} == {id(tree_a), id(tree_b)}

    def test_only_the_batch_query_fills_the_table(self, builds):
        tree = salish_tree()
        queries = ((0, 1), (2, 3), (1, 3), (1, 1))
        for _ in range(3):
            assert [tree.lca_junction(a, b) for a, b in queries] == [6, 4, 5, 5]
        assert builds == []
        labels = tree.languages.labels
        block = tree.meeting_junctions(labels)
        assert builds == [tree]
        assert [tree.lca_junction(a, b) for a, b in queries] == [6, 4, 5, 5]
        tree.meeting_junctions(labels[::-1])
        assert builds == [tree]
        for i, j in itertools.product(range(4), repeat=2):
            assert block[i][j] == tree.junction_at(tree.lca_junction(i, j))
