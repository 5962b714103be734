import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from isolect import builder as bl
from isolect import chronometry as ch
from isolect import cli
from isolect import merger as mg
from isolect.errors import ConsistencyError, DomainError, ParseError
from isolect.model import (
    UNRESOLVED,
    Dendrogram,
    DistanceMatrix,
    Junction,
    LanguageSet,
    deserialize,
    leaf_distance,
    serialize,
)

import oracles
from conftest import cyclic_graph_text
from oracles import sample_caterpillar


@pytest.fixture
def tree_a(salish_a):
    return bl.build(ch.matrix_to_distances(salish_a, "paper"), mode="paper")


@pytest.fixture
def tree_b(salish_b):
    return bl.build(ch.matrix_to_distances(salish_b, "paper"), mode="paper")


class TestSegmentGraph:
    def test_flattening_is_a_tree_with_leaves_at_depth_zero(self, tree_a):
        graph = mg.segment_graph(tree_a)
        import networkx as nx

        assert nx.is_tree(graph.graph())
        for node in graph.nodes:
            if node.leaf is not None:
                assert node.depth == 0.0

    def test_cycle_beside_an_isolated_node_is_refused(self):
        # Four nodes and three edges pass the edge count, but the edges close
        # the cycle 1-j0-j1 and leave leaf 2 unconnected.
        doc = json.loads(cyclic_graph_text())
        with pytest.raises(ParseError, match=r"^bad segment-graph payload: "
                                             r"segment graph must be a tree$"):
            mg.read_graph(doc)
        nodes = tuple(mg.SegmentNode(**n) for n in doc["nodes"])
        edges = tuple(mg.SegmentEdge(**e) for e in doc["edges"])
        with pytest.raises(DomainError, match=r"^segment graph must be a tree$"):
            mg.SegmentGraph(nodes, edges, ("1", "2"), ())

    def test_edge_multiset(self, tree_a):
        graph = mg.segment_graph(tree_a)
        lengths = sorted(e.length for e in graph.edges)
        assert lengths == [5, 14, 14, 19, 19, 34, 34, 36]

    def test_distances_match_leaf_distance(self, tree_a):
        graph = mg.segment_graph(tree_a)
        for a in "1234":
            for b in "1234":
                if a < b:
                    assert graph.distance(a, b) == leaf_distance(tree_a, a, b)

    def test_chain_widths(self, tree_a):
        widths = mg.chain_widths(mg.segment_graph(tree_a))
        assert widths[0] == (19.0, 70.0, 2)
        assert widths[1] == (14.0, 34.0, 1)

    def test_graph_round_trip(self, tree_a):
        graph = mg.segment_graph(tree_a)
        again = mg.deserialize_graph(mg.serialize_graph(graph))
        assert again == graph

    @pytest.mark.parametrize("header, error", [
        ({"format": "other"}, "unknown format 'other' (at format)"),
        ({"version": 2}, "unsupported version 2 (at version)"),
        ({"version": None}, "unsupported version None (at version)"),
        ({"version": True}, "unsupported version True (at version)"),
        ({"version": 1.0}, "unsupported version 1.0 (at version)"),
    ])
    def test_header_errors_match_the_dendrogram_reader(self, tree_a, header, error):
        tree_doc = json.loads(serialize(tree_a))
        graph_doc = json.loads(mg.serialize_graph(mg.segment_graph(tree_a)))
        for read, doc in ((deserialize, tree_doc), (mg.deserialize_graph, graph_doc)):
            with pytest.raises(ParseError) as exc:
                read(json.dumps({**doc, **header}))
            assert str(exc.value) == error
        for text, error in (("[]", "document must be a JSON object (at $)"),
                            ("{", "not valid JSON: Expecting property name enclosed in "
                                  "double quotes (at line 1)")):
            for read in (deserialize, mg.deserialize_graph):
                with pytest.raises(ParseError, match=re.escape(error)):
                    read(text)

    @pytest.mark.parametrize("mode", ["sloppy", None, 1])
    def test_mode_errors_match_the_dendrogram_reader(self, tree_a, mode):
        tree_doc = json.loads(serialize(tree_a))
        graph_doc = json.loads(mg.serialize_graph(mg.segment_graph(tree_a)))
        for read, doc in ((deserialize, tree_doc), (mg.deserialize_graph, graph_doc)):
            with pytest.raises(ParseError) as exc:
                read(json.dumps({**doc, "mode": mode}))
            assert str(exc.value) == f"unknown mode {mode!r} (at mode)"

    def test_absent_mode_reads_as_precise(self, tree_a):
        doc = json.loads(mg.serialize_graph(mg.segment_graph(tree_a)))
        del doc["mode"]
        assert mg.deserialize_graph(json.dumps(doc)).mode == "precise"

    @pytest.mark.parametrize("edit, error", [
        (lambda ls: "x", "languages must be a list of the leaf nodes (at languages)"),
        (lambda ls: None, "languages must be a list of the leaf nodes (at languages)"),
        (lambda ls: ls[:-1], "languages lists 3 of the 4 leaf nodes (at languages)"),
        (lambda ls: ls + [ls[0]], "more languages than the 4 leaf nodes (at languages[4])"),
        (lambda ls: ls[::-1], "must name leaf '1' at depth 0, as the nodes do (at languages[0])"),
        (lambda ls: ls[:1] + [{"name": "9", "depth": 0}] + ls[2:],
         "must name leaf '2' at depth 0, as the nodes do (at languages[1])"),
        (lambda ls: ls[:3] + [{"name": "4", "depth": 2}],
         "must name leaf '4' at depth 0, as the nodes do (at languages[3])"),
        (lambda ls: ls[:2] + ["3"] + ls[3:], "language entry must be an object (at languages[2])"),
    ])
    def test_languages_must_list_the_leaf_nodes(self, tree_a, edit, error):
        doc = json.loads(mg.serialize_graph(mg.segment_graph(tree_a)))
        doc["languages"] = edit(doc["languages"])
        with pytest.raises(ParseError) as exc:
            mg.deserialize_graph(json.dumps(doc))
        assert str(exc.value) == error

    @pytest.mark.parametrize("nodes, edges", [
        (("x",), (("x", "x"),)),
        (("x", "y"), (("x", "y"), ("y", "x"))),
    ], ids=["one-node-self-loop", "repeated-edge"])
    def test_graph_needs_one_edge_fewer_than_nodes(self, nodes, edges):
        with pytest.raises(DomainError, match="must be a tree"):
            mg.SegmentGraph(
                tuple(mg.SegmentNode(n, 0.0, n) for n in nodes),
                tuple(mg.SegmentEdge(a, b, 1.0, mg.VERTICAL) for a, b in edges),
                nodes, (),
            )

    @pytest.mark.parametrize("field, value", [("kind", "diagonal"), ("provenance", "X")])
    def test_edge_refuses_what_the_writer_cannot_write(self, field, value):
        allowed = {"kind": mg.EDGE_KINDS, "provenance": mg.PROVENANCES}[field]
        with pytest.raises(DomainError) as exc:
            mg.SegmentEdge("a", "b", 1.0, **{"kind": mg.VERTICAL, field: value})
        assert str(exc.value) == f"{field} must be one of {', '.join(allowed)}"
        assert exc.value.field == field

    @pytest.mark.parametrize("make, message, field", [
        (lambda: mg.SegmentEdge("a", "b", math.nan, mg.VERTICAL),
         "segment lengths must be finite and >= 0", None),
        (lambda: mg.SegmentEdge("a", "b", math.inf, mg.LATERAL),
         "segment lengths must be finite and >= 0", None),
        (lambda: mg.SegmentEdge("a", "b", -1e-300, mg.LATERAL, mg.PROV_B),
         "segment lengths must be finite and >= 0", None),
        (lambda: mg.SegmentEdge("a", "b", -1.0, "diagonal", "X"),
         "segment lengths must be finite and >= 0", None),
        (lambda: mg.SegmentEdge("a", "b", 1.0, "Vertical"),
         "kind must be one of vertical, lateral, unresolved", "kind"),
        (lambda: mg.SegmentEdge("a", "b", 1.0, "diagonal", "X"),
         "kind must be one of vertical, lateral, unresolved", "kind"),
        (lambda: mg.SegmentEdge("a", "b", 0.0, mg.UNRESOLVED_EDGE, "a"),
         "provenance must be one of shared, A, B", "provenance"),
        (lambda: mg.SegmentEdge("a", "b", -0.0, mg.VERTICAL, None),
         "provenance must be one of shared, A, B", "provenance"),
        (lambda: mg.SegmentNode("j0", math.nan), "segment node j0 needs a finite depth", None),
        (lambda: mg.SegmentNode("x y", -math.inf, "x y"),
         "segment node x y needs a finite depth", None),
    ])
    def test_every_edge_and_node_refusal(self, make, message, field):
        """Each refusal's message and field, the length checked before the
        kind and the kind before the provenance."""
        with pytest.raises(DomainError) as exc:
            make()
        assert (str(exc.value), exc.value.field) == (message, field)

    def test_segment_graph_refuses_an_unknown_provenance(self, tree_a):
        with pytest.raises(DomainError, match=r"^provenance must be one of shared, A, B$"):
            mg.segment_graph(tree_a, "X")

    def test_every_kind_and_provenance_round_trips(self, tree_a, tree_b):
        graphs = [mg.merge(tree_a, tree_b)]
        graphs += [mg.segment_graph(tree_b, p) for p in mg.PROVENANCES]
        seen = set()
        for graph in graphs:
            text = mg.serialize_graph(graph)
            back = mg.deserialize_graph(text)
            assert back.edges == graph.edges and back.nodes == graph.nodes
            assert mg.serialize_graph(back) == text
            seen.update((e.kind, e.provenance) for e in graph.edges)
        assert {kind for kind, _ in seen} == set(mg.EDGE_KINDS)
        assert {prov for _, prov in seen} == set(mg.PROVENANCES)

    def test_each_reader_refuses_the_other_kind(self, tree_a):
        with pytest.raises(ParseError, match=re.escape(
                "not a dendrogram document: kind='segment-graph' (at kind)")):
            deserialize(mg.serialize_graph(mg.segment_graph(tree_a)))
        with pytest.raises(ParseError, match=re.escape(
                "not a segment-graph document: kind='dendrogram' (at kind)")):
            mg.deserialize_graph(serialize(tree_a))


class TestSerializeGraphMatchesJsonDumps:
    """``serialize_graph`` writes the bytes ``oracles.serialize_graph`` gets
    from ``json.dumps(doc, indent=2, ensure_ascii=False)``."""

    @staticmethod
    def _salish(mode):
        trees = [bl.build(ch.matrix_to_distances(
            cli.read_matrix_csv(Path(__file__).parent.parent / "data" / f"salish_{s}.csv",
                                "coincidence"), mode), mode=mode) for s in "ab"]
        return [mg.merge(*trees), mg.segment_graph(trees[1], mg.PROV_B)]

    @staticmethod
    def _planted(labels=None):
        m, labels_a, labels_b, _ = two_studies(np.random.default_rng(16))
        if labels is not None:  # the same studies under other names
            rename = dict(zip(sorted(set(labels_a) | set(labels_b)), labels))
            labels_a = tuple(rename[x] for x in labels_a)
            labels_b = tuple(rename[x] for x in labels_b)
        tree_a = bl.build(DistanceMatrix(LanguageSet(labels_a), m), mode="precise")
        graphs = [mg.segment_graph(tree_a)]
        for seed in range(3):
            noise = np.triu(np.random.default_rng(seed).uniform(-1, 1, size=m.shape), 1)
            tree_b = bl.build(DistanceMatrix(LanguageSet(labels_b), m + noise + noise.T),
                              mode="precise")
            graphs.append(mg.merge(tree_a, tree_b, tolerance=3))
        return graphs

    def test_merges_and_plain_graphs(self):
        # Labels that JSON escapes, or writes as themselves when not ASCII.
        odd = ['é', 'a"b', 'c\\d', '日本', 'tab\there', '\u2028', 'x\ny', '\x7f']
        odd += [f"L{i}" for i in range(20 - len(odd))]
        graphs = (self._salish("paper") + self._salish("precise")
                  + self._planted() + self._planted(odd))
        seen = set()
        for graph in graphs:
            assert mg.serialize_graph(graph) == oracles.serialize_graph(graph)
            seen.update(e.kind for e in graph.edges)
            seen.update(e.provenance for e in graph.edges)
            seen.update(float(x).is_integer()
                        for x in [n.depth for n in graph.nodes] + [e.length for e in graph.edges])
            seen.update(graph.leaves())
            seen.add(("one side", not graph.leaves_a or not graph.leaves_b))
        # Every edge kind and provenance, integral and fractional numbers,
        # the odd labels, merged graphs and plain ones.
        assert set(mg.EDGE_KINDS) | set(mg.PROVENANCES) | {True, False} <= seen
        assert set(odd) <= seen
        assert {("one side", True), ("one side", False)} <= seen


class TestSharedConsistency:
    def test_salish_groups_agree(self, tree_a, tree_b):
        report = mg.shared_consistency(tree_a, tree_b)
        assert report.shared == ("1", "2")
        assert report.passed
        assert report.max_deviation <= 2.0

    def test_identical_trees_have_zero_deviation(self, tree_a):
        report = mg.shared_consistency(tree_a, tree_a)
        assert report.max_deviation == 0.0

    def test_perturbed_copy_fails(self, tree_a, salish_a):
        nudged = salish_a.with_value("1", "4", salish_a.value("1", "4") + 4)
        tree_p = bl.build(ch.matrix_to_distances(nudged, "paper"), mode="paper")
        report = mg.shared_consistency(tree_a, tree_p)
        assert not report.passed

    def test_too_few_shared_leaves(self, tree_a):
        other = bl.build(
            DistanceMatrix(
                LanguageSet(("1", "x")), np.array([[0, 40], [40, 0]], float)
            ),
            mode="paper",
        )
        with pytest.raises(DomainError, match="fewer than two"):
            mg.shared_consistency(tree_a, other)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0, 0.0],
                             ids=["nan", "inf", "negative", "zero"])
    def test_tolerance_must_be_a_finite_number_above_zero(self, tree_a, tree_b, tolerance):
        for check in (mg.shared_consistency, mg.merge):
            with pytest.raises(DomainError) as exc:
                check(tree_a, tree_b, tolerance)
            assert str(exc.value) == "tolerance must be a finite number > 0"
            assert exc.value.field == "tolerance"

    def test_two_modes_are_refused(self, tree_a, salish_b):
        precise_b = bl.build(ch.matrix_to_distances(salish_b, "precise"), mode="precise")
        for a, b in ((tree_a, precise_b), (precise_b, tree_a)):
            for check in (mg.shared_consistency, mg.merge):
                with pytest.raises(DomainError) as exc:
                    check(a, b)
                assert str(exc.value) == (f"dendrograms of different modes ({a.mode} and "
                                          f"{b.mode}) cannot be compared")


class TestWindowMerges:
    """Two windows of one planted 9-leaf caterpillar, built separately.

    A window's root is resolved by the final-link cross-check, but where the
    other window's leaves go on, the same pair meets at an inner junction,
    whose vertical/lateral split differs from the cross-check's: such pairs
    are compared by distance only.  The graft then recovers every distance.
    """

    K = 9

    @staticmethod
    def window(distances, leaves):
        labels = tuple(f"L{i}" for i in leaves)
        return bl.build(DistanceMatrix(LanguageSet(labels), distances[np.ix_(leaves, leaves)]),
                        mode="precise")

    @pytest.mark.parametrize("shared", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(40))
    def test_merge_predicts_every_missing_distance(self, seed, shared):
        m = sample_caterpillar(np.random.default_rng(seed), self.K).distance_matrix()
        end_a = (self.K + shared + 1) // 2
        tree_a = self.window(m, list(range(end_a)))
        tree_b = self.window(m, list(range(end_a - shared, self.K)))
        graph = mg.merge(tree_a, tree_b, tolerance=1e-6)
        assert any("cross-check in one dendrogram only" in n for n in graph.consistency.notes)
        predictions = mg.predict_missing(graph, mg.cross_pairs(graph))
        assert len(predictions) == (end_a - shared) * (self.K - end_a)
        for p in predictions:
            i, j = (int(label[1:]) for label in p.pair)
            assert p.distance == pytest.approx(m[i, j], abs=1e-6)


def three_leaf_tree(labels, root):
    """Leaves ``labels`` in that language order: the first two meet at depth
    10 (lateral 6), and ``root`` joins them to the third."""
    return Dendrogram(LanguageSet(labels), (Junction(near=0, far=1, depth=10, lateral=6), root))


def unresolved_root(total):
    return Junction(near=3, far=2, depth=25, lateral=0, status=UNRESOLVED,
                    total_length=total, depth_range=(10.0, 30.0))


class TestSharedConsistencyReference:
    """``shared_consistency`` gives the per-pair loop's rows and notes
    (``oracles.shared_consistency``): the same tuples in the same order."""

    @staticmethod
    def _check(a, b):
        report = mg.shared_consistency(a, b)
        assert (report.shared, report.rows, report.notes) == oracles.shared_consistency(a, b)
        return report

    def test_salish_pair(self, tree_a, tree_b):
        for a, b in ((tree_a, tree_b), (tree_b, tree_a), (tree_b, tree_b)):
            self._check(a, b)

    @pytest.mark.parametrize("shared", [2, 3, 4])
    def test_windows_cross_checked_in_one_tree_only(self, shared):
        k = TestWindowMerges.K
        for seed in range(10):
            m = sample_caterpillar(np.random.default_rng(seed), k).distance_matrix()
            end_a = (k + shared + 1) // 2
            tree_a = TestWindowMerges.window(m, list(range(end_a)))
            tree_b = TestWindowMerges.window(m, list(range(end_a - shared, k)))
            report = self._check(tree_a, tree_b)
            assert any("cross-check in one dendrogram only" in n for n in report.notes)

    def test_root_unresolved_in_one_tree(self):
        # Shared leaves in different language orders, and a leaf in one tree only.
        a = three_leaf_tree(("c", "a", "b"), unresolved_root(40.0))
        b = Dendrogram(LanguageSet(("b", "x", "c", "a")), (
            Junction(near=2, far=3, depth=10, lateral=6),
            Junction(near=4, far=0, depth=25, lateral=5),
            Junction(near=5, far=1, depth=60, lateral=0),
        ))
        report = self._check(a, b)
        assert [row[0] for row in report.rows] == [  # pairs a-b, a-c, b-c
            "distance", "distance", "depth", "lateral", "distance"]
        assert len(report.notes) == 2
        assert all("resolved in one dendrogram but not the other" in n for n in report.notes)
        self._check(b, a)

    def test_root_unresolved_in_both_trees(self):
        a = three_leaf_tree(("a", "b", "c"), unresolved_root(40.0))
        b = three_leaf_tree(("b", "a", "c"), unresolved_root(43.5))
        report = self._check(a, b)
        totals = [row for row in report.rows if row[0] == "total"]
        assert [(row[1], row[4]) for row in totals] == [(("a", "c"), 3.5), (("b", "c"), 3.5)]
        assert report.notes == ()


class TestMerge:
    def test_salish_fusion(self, tree_a, tree_b):
        graph = mg.merge(tree_a, tree_b)
        # The ambiguous root link carries over as a fixed-length edge.
        bridge = [e for e in graph.edges if e.kind == mg.UNRESOLVED_EDGE]
        assert len(bridge) == 1 and bridge[0].length == 85
        assert bridge[0].provenance == mg.PROV_B
        # Reference geometry is untouched.
        for a in "1234":
            for b in "1234":
                if a < b:
                    assert graph.distance(a, b) == leaf_distance(tree_a, a, b)
        # Grafted subtree keeps its own geometry.
        assert graph.distance("5", "6") == leaf_distance(tree_b, "5", "6")

    def test_cross_distances(self, tree_a, tree_b):
        graph = mg.merge(tree_a, tree_b)
        expected = {("3", "5"): 199, ("3", "6"): 203,
                    ("4", "5"): 233, ("4", "6"): 237}
        for (a, b), want in expected.items():
            assert graph.distance(a, b) == want
            assert graph.distance(b, a) == want

    def test_cross_path_decomposes_at_shared_anchors(self, tree_a, tree_b):
        # Leaf 3 to its side of the bridge, the bridge, then down to leaf 5.
        graph = mg.merge(tree_a, tree_b)
        bridge = next(e for e in graph.edges if e.kind == mg.UNRESOLVED_EDGE)
        g = graph.graph()
        import networkx as nx

        a_side = nx.shortest_path_length(g, "3", bridge.b, weight="length")
        b_side = nx.shortest_path_length(g, bridge.a, "5", weight="length")
        assert a_side == 89 and b_side == 25
        assert a_side + bridge.length + b_side == 199

    def test_predictions(self, tree_a, tree_b):
        graph = mg.merge(tree_a, tree_b)
        preds = mg.predict_missing(graph, mg.cross_pairs(graph))
        table = {p.pair: (p.distance, p.coincidence, p.below_threshold)
                 for p in preds}
        assert table[("3", "5")] == (199, 14, True)
        assert table[("3", "6")] == (203, 13, True)
        assert table[("4", "5")] == (233, 10, True)
        assert table[("4", "6")] == (237, 9, True)

    def test_prediction_inside_one_source_equals_leaf_distance(
        self, tree_a, tree_b
    ):
        graph = mg.merge(tree_a, tree_b)
        (pred,) = mg.predict_missing(graph, [("3", "4")])
        assert pred.distance == leaf_distance(tree_a, "3", "4")

    def test_self_merge_is_identity(self, tree_a):
        graph = mg.merge(tree_a, tree_a)
        base = mg.segment_graph(tree_a)
        assert {n.id for n in graph.nodes} == {n.id for n in base.nodes}
        assert len(graph.edges) == len(base.edges)
        assert all(e.provenance == mg.PROV_SHARED for e in graph.edges)
        assert mg.cross_pairs(graph) == ()

    def test_inconsistent_merge_raises_with_report(self, tree_a, salish_a):
        nudged = salish_a.with_value("1", "4", salish_a.value("1", "4") + 4)
        tree_p = bl.build(ch.matrix_to_distances(nudged, "paper"), mode="paper")
        with pytest.raises(ConsistencyError) as exc:
            mg.merge(tree_a, tree_p)
        assert exc.value.report is not None
        assert not exc.value.report.passed


def master_with_two_projections(rng):
    """A six-leaf master graph split into two overlapping four-leaf views.

    The reference side is a planted caterpillar over s0,s1,x0,x1 whose root
    anchor (on s0's lineage at the root depth) carries a bridge of known
    length to a planted cherry over y0,y1.
    """
    planted = sample_caterpillar(rng, 4)
    # Leaves of the caterpillar: 0,1 cherry, 2 joins, 3 is the root leaf.
    # Anchor of the full caterpillar sits at depth root_depth on leaf 2's
    # lineage (the fresh leaf of the last internal join).
    a_labels = ("s0", "s1", "x0", "x1")  # leaf 2 is s0? map explicitly below
    # Use leaf order: L0, L1, L2, L3 with L2 the carrier of the root anchor.
    pend, anchor_of = planted.leaf_pendants()
    pos = planted.spine_positions()
    qd, qh = rng.uniform(5, 15), rng.uniform(2, 15)
    cherry_len = 2 * qd + qh
    bridge = max(cherry_len, max(pend.values())) + rng.uniform(5, 25)

    def master_distance(u, v):
        # u, v in {0..3} caterpillar leaves or "y0"/"y1" cherry leaves
        def to_root_anchor(w):
            # root anchor is the last spine anchor (position pos[-1])
            return pend[w] + abs(pos[anchor_of[w]] - pos[-1])

        cherry_pend = {"y0": qd, "y1": qd + qh}
        if isinstance(u, int) and isinstance(v, int):
            return (pend[u] + pend[v]
                    + abs(pos[anchor_of[u]] - pos[anchor_of[v]]))
        if isinstance(u, int):
            return to_root_anchor(u) + bridge + cherry_pend[v]
        if isinstance(v, int):
            return to_root_anchor(v) + bridge + cherry_pend[u]
        return abs(cherry_pend[u] - cherry_pend[v]) if u == v else 2 * qd + qh

    return planted, master_distance, bridge, (qd, qh)


class TestMultipleGrafts:
    def test_two_branches_split_one_reference_edge(self):
        # The reference tree only knows the two shared leaves; the other
        # tree hangs two separate pendants at interior points of the shared
        # path, so both grafts must split the same reference edge.
        rng = np.random.default_rng(512)
        planted = sample_caterpillar(rng, 4)
        m = planted.distance_matrix()
        labels = ("s0", "x", "y", "s1")
        tree_b = bl.build(DistanceMatrix(LanguageSet(labels), m), mode="precise")
        span = m[0, 3]
        tree_a = bl.build(
            DistanceMatrix(
                LanguageSet(("s0", "s1")), np.array([[0, span], [span, 0]])
            ),
            mode="precise",
        )
        graph = mg.merge(tree_a, tree_b, tolerance=1e-6)
        for i, a in enumerate(labels):
            for j in range(i + 1, 4):
                assert graph.distance(a, labels[j]) == pytest.approx(
                    m[i, j], abs=1e-9
                )


def two_studies(rng, k=16, relabelled=(3, 6, 10, 13)):
    """One planted caterpillar seen by two studies.

    Leaves get shuffled names, so the first shared leaf (in name order) can
    sit anywhere on the spine.  Study B renames the leaves in ``relabelled``
    (L07 becomes M07), so each is exclusive to one study and B's grafts land
    among many shared leaves.  Returns the planted matrix, both studies'
    labels and each label's planted leaf.
    """
    m = sample_caterpillar(rng, k).distance_matrix()
    labels_a = tuple(f"L{n:02d}" for n in rng.permutation(k))
    labels_b = tuple(
        "M" + lab[1:] if i in relabelled else lab for i, lab in enumerate(labels_a)
    )
    planted = {lab: i for labels in (labels_a, labels_b)
               for i, lab in enumerate(labels)}
    return m, labels_a, labels_b, planted


class TestManySharedLeaves:
    def test_exact_overlap_recovers_planted_distances(self):
        m, labels_a, labels_b, planted = two_studies(np.random.default_rng(16))
        tree_a = bl.build(DistanceMatrix(LanguageSet(labels_a), m), mode="precise")
        tree_b = bl.build(DistanceMatrix(LanguageSet(labels_b), m), mode="precise")
        graph = mg.merge(tree_a, tree_b, tolerance=1e-6)
        leaves = graph.leaves()
        for i, x in enumerate(leaves):
            for y in leaves[i + 1 :]:
                u, v = planted[x], planted[y]
                if u != v:  # twins are one planted leaf seen twice
                    assert graph.distance(x, y) == pytest.approx(m[u, v], abs=1e-6)

    def test_grafts_keep_their_distance_from_the_first_shared_leaf(self):
        # B measures with noise, so its attachment points fall between the
        # reference nodes; each graft must still sit where B puts it.
        m, labels_a, labels_b, _ = two_studies(np.random.default_rng(16))
        tree_a = bl.build(DistanceMatrix(LanguageSet(labels_a), m), mode="precise")
        exclusive = [x for x in labels_b if x not in labels_a]
        first = min(set(labels_a) & set(labels_b))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            noise = np.triu(rng.uniform(-1, 1, size=m.shape), 1)
            tree_b = bl.build(
                DistanceMatrix(LanguageSet(labels_b), m + noise + noise.T),
                mode="precise",
            )
            graph = mg.merge(tree_a, tree_b, tolerance=3)
            for x in exclusive:
                assert graph.distance(x, first) == pytest.approx(
                    leaf_distance(tree_b, x, first), abs=1e-9
                )
            # Split reference segments keep consistent depth coordinates.
            depth = {n.id: n.depth for n in graph.nodes}
            for e in graph.edges:
                if e.provenance != mg.PROV_B:
                    rise = e.length if e.kind == mg.VERTICAL else 0.0
                    assert abs(depth[e.a] - depth[e.b]) == pytest.approx(
                        rise, abs=1e-9
                    )


def _renamed(graph, ids):
    """``graph``'s nodes and edges with node ids mapped through ``ids``."""
    return ({(ids[n.id], n.depth) for n in graph.nodes},
            {(frozenset((ids[e.a], ids[e.b])), e.length, e.kind, e.provenance)
             for e in graph.edges})


class TestGeneratedIdsNeverCollide:
    """A label may read like a generated node id (``j<idx>``,
    ``j<idx>.rise``, ``graft<n>``): the generated id is primed instead, and
    the graph is the one made under the original label."""

    def test_segment_graph_primes_past_the_labels(self, tree_a):
        labels = ("j0", "j1", "j0'", "j0.rise")
        base = mg.segment_graph(tree_a)
        tree = Dendrogram(LanguageSet(labels), tree_a.junctions, mode=tree_a.mode)
        graph = mg.segment_graph(tree)
        assert [n.id for n in graph.nodes if n.leaf] == list(labels) == list(graph.leaves())
        ids = [n.id for n in graph.nodes]
        assert [n.id for n in base.nodes][4:] == ["j0", "j0.rise", "j1", "j1.rise", "j2.rise"]
        assert ids[4:] == ["j0''", "j0.rise'", "j1'", "j1.rise", "j2.rise"]
        assert _renamed(base, dict(zip((n.id for n in base.nodes), ids))) == _renamed(
            graph, {i: i for i in ids})
        assert mg.deserialize_graph(mg.serialize_graph(graph)) == graph

    @staticmethod
    def _merge(rename):
        """``two_studies(rng 16)``'s merge, B with noise seed 0, after
        renaming the labels in ``rename``."""
        m, labels_a, labels_b, _ = two_studies(np.random.default_rng(16))
        labels_a, labels_b = ([rename.get(x, x) for x in labels] for labels in
                              (labels_a, labels_b))
        noise = np.triu(np.random.default_rng(0).uniform(-1, 1, size=m.shape), 1)
        tree_a = bl.build(DistanceMatrix(LanguageSet(tuple(labels_a)), m), mode="precise")
        tree_b = bl.build(DistanceMatrix(LanguageSet(tuple(labels_b)), m + noise + noise.T),
                          mode="precise")
        return mg.merge(tree_a, tree_b, tolerance=3)

    @pytest.mark.parametrize("source, label", [(0, "graft0"), (1, "j0"), (1, "graft0")],
                             ids=["a-graft0", "b-j0", "b-graft0"])
    def test_exclusive_leaf_named_like_a_generated_id(self, source, label):
        base = self._merge({})
        old = mg.cross_pairs(base)[0][source]  # an exclusive leaf of A or of B
        graph = self._merge({old: label})
        back = {label: old}
        leaves = graph.leaves()
        assert label in leaves and label + "'" in {n.id for n in graph.nodes}
        assert sorted(back.get(x, x) for x in leaves) == sorted(base.leaves())
        assert [back.get(x, x) for x in graph.leaves_a + graph.leaves_b] == list(
            base.leaves_a + base.leaves_b)
        for i, x in enumerate(leaves):
            for y in leaves[i + 1:]:
                assert graph.distance(x, y) == base.distance(back.get(x, x), back.get(y, y))
        found = mg.predict_missing(graph, mg.cross_pairs(graph))
        want = mg.predict_missing(base, mg.cross_pairs(base))
        assert [(tuple(back.get(x, x) for x in p.pair), *p[1:]) for p in found] == list(want)
        assert mg.deserialize_graph(mg.serialize_graph(graph)) == graph


class TestPathSummationCrossCheck:
    def test_fifteen_language_restored_distances(self, baltoslavic):
        # Dual route: the model's anchor-table distances must equal explicit
        # path summation over the flattened segment graph, and converting
        # them back stays close to the measured table for the bulk of pairs
        # (the few convergence-affected pairs deviate further).
        from isolect import refinement as rf
        from isolect.model import restore_coincidence_matrix, restore_distance_matrix

        trace = rf.iterate_build(
            ch.matrix_to_distances(baltoslavic, "paper"), mode="paper"
        )
        tree = trace.final
        restored = restore_distance_matrix(tree)
        graph = mg.segment_graph(tree)
        labels = tree.languages.labels
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                assert graph.distance(labels[i], labels[j]) == pytest.approx(
                    restored.values[i, j], abs=1e-9
                )
        percents = restore_coincidence_matrix(tree)
        diffs = np.abs(percents.values - baltoslavic.values)[
            np.triu_indices(len(labels), 1)
        ]
        assert np.median(diffs) <= 2
        assert np.mean(diffs <= 3) >= 0.9
        assert diffs.max() <= 10


class TestSplitMasterOracle:
    def test_merge_recovers_master_distances(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            planted, dist, bridge, (qd, qh) = master_with_two_projections(rng)
            # Projection A: the four caterpillar leaves (shared: L2, L3 are
            # not shared; shared leaves are the two that appear in B).
            # B sees the last two caterpillar leaves plus the cherry.
            shared = (2, 3)
            a_labels = ("p0", "p1", "p2", "p3")
            idx_a = (0, 1, 2, 3)
            b_labels = ("p2", "p3", "y0", "y1")
            idx_b = (2, 3, "y0", "y1")
            ka = len(idx_a)
            ma = np.zeros((ka, ka))
            for i in range(ka):
                for j in range(i + 1, ka):
                    ma[i, j] = ma[j, i] = dist(idx_a[i], idx_a[j])
            mb = np.zeros((4, 4))
            for i in range(4):
                for j in range(i + 1, 4):
                    mb[i, j] = mb[j, i] = dist(idx_b[i], idx_b[j])
            tree_a = bl.build(
                DistanceMatrix(LanguageSet(a_labels), ma), mode="precise"
            )
            tree_b = bl.build(
                DistanceMatrix(LanguageSet(b_labels), mb), mode="precise"
            )
            graph = mg.merge(tree_a, tree_b, tolerance=1e-6)
            for i, u in enumerate(idx_a):
                for v_label, v in zip(b_labels[2:], idx_b[2:]):
                    assert graph.distance(a_labels[i], v_label) == pytest.approx(
                        dist(u, v), abs=1e-6
                    )


class TestSingleCheck:
    """``merge`` hands back the one shared-structure report it decided on."""

    def test_merge_carries_its_report(self, tree_a, tree_b):
        for tolerance in (3.0, 2.0):
            graph = mg.merge(tree_a, tree_b, tolerance)
            assert graph.consistency == mg.shared_consistency(tree_a, tree_b, tolerance)

    def test_report_is_in_memory_only(self, tree_a, tree_b):
        graph = mg.merge(tree_a, tree_b)
        bare = mg.SegmentGraph(graph.nodes, graph.edges, graph.leaves_a,
                               graph.leaves_b, graph.mode)
        assert bare.consistency is None
        assert graph == bare
        assert mg.serialize_graph(graph) == mg.serialize_graph(bare)
        again = mg.deserialize_graph(mg.serialize_graph(graph))
        assert again.consistency is None
        assert again == graph

    def test_members_calls_linear_in_k(self, monkeypatch):
        # The pair table is filled from each junction's near and far members
        # once; a walk per pair would ask for members about 1.4 million
        # times at this size.
        k = 128
        m = sample_caterpillar(np.random.default_rng(3), k).distance_matrix()
        labels = tuple(f"L{i:03d}" for i in range(k))
        tree = bl.build(DistanceMatrix(LanguageSet(labels), m), mode="precise")
        members = Dendrogram.members
        calls = []

        def counted(self, node_id):
            calls.append(node_id)
            return members(self, node_id)

        monkeypatch.setattr(Dendrogram, "members", counted)
        report = mg.shared_consistency(tree, tree)
        assert len(calls) <= 2 * k
        assert len(report.rows) == 3 * k * (k - 1) // 2  # the root is resolved
        assert report.max_deviation == 0.0


TRAVERSAL_CASES = (
    [f"precise-{seed}" for seed in range(3)]
    + [f"noisy-{seed}" for seed in range(3)]
    + ["paper-salish_a", "paper-salish_b", "paper-baltoslavic"]
    + [f"merged-{seed}" for seed in range(3)]
    + ["chain-0"]
)


def traversal_graph(case: str) -> mg.SegmentGraph:
    """Segment graphs of precise, noisy precise and paper-mode builds,
    merged graphs whose grafts split reference segments (built in the test,
    so a broken merge fails its cases rather than the module), and a build
    whose first junction lies at depth 0, so its anchor is leaf A's node and
    A lies on the path from B to the others."""
    kind, arg = case.split("-", 1)
    if kind == "chain":
        m = np.array([[0, 10, 50, 60], [10, 0, 60, 70], [50, 60, 0, 40],
                      [60, 70, 40, 0]], float)
        return mg.segment_graph(
            bl.build(DistanceMatrix(LanguageSet(tuple("ABCD")), m), mode="precise"))
    if kind == "paper":
        matrix = cli.read_matrix_csv(Path(__file__).parent.parent / "data" / f"{arg}.csv",
                                     "coincidence")
        return mg.segment_graph(
            bl.build(ch.matrix_to_distances(matrix, "paper"), mode="paper"))
    seed = int(arg)
    if kind == "merged":
        m, labels_a, labels_b, _ = two_studies(np.random.default_rng(16))
        tree_a = bl.build(DistanceMatrix(LanguageSet(labels_a), m), mode="precise")
        noise = np.triu(np.random.default_rng(seed).uniform(-1, 1, size=m.shape), 1)
        tree_b = bl.build(DistanceMatrix(LanguageSet(labels_b), m + noise + noise.T),
                          mode="precise")
        return mg.merge(tree_a, tree_b, tolerance=3)
    m = sample_caterpillar(np.random.default_rng(seed), 16).distance_matrix()
    if kind == "noisy":
        noise = np.triu(np.random.default_rng(100 + seed).uniform(-2, 2, size=m.shape), 1)
        m = m + noise + noise.T
    labels = LanguageSet(tuple(f"L{i:02d}" for i in range(16)))
    return mg.segment_graph(bl.build(DistanceMatrix(labels, m), mode="precise"))


class TestTraversalOracle:
    """The breadth-first traversals and the merge frame against networkx on
    the same tree."""

    @pytest.mark.parametrize("case", TRAVERSAL_CASES)
    def test_distances_and_legs_match_networkx(self, case):
        import networkx as nx

        graph = traversal_graph(case)
        if case.startswith("merged"):
            assert any(n.id.startswith("graft") for n in graph.nodes)
        g = graph.graph()
        leaves = graph.leaves()
        stopped = 0  # shared leaves whose node lies on an earlier leaf's path
        for i, label in enumerate(leaves):
            source = graph.node_of_leaf(label)
            want, paths = nx.single_source_dijkstra(g, source, weight="length")
            dist, _ = graph._from_leaf(label)
            # repr: equal bits and types, the source's integer 0 included
            assert {v: repr(d) for v, d in dist.items()} == {
                v: repr(d) for v, d in want.items()
            }
            shared = leaves[i:] + leaves[:i]
            lengths, parent, ends, leg_of = mg._frame(graph, shared)
            assert lengths == dist
            legs = [paths[graph.node_of_leaf(s)] for s in shared[1:]]
            assert ends == [leg[-1] for leg in legs]
            assert leg_of == {v: min(j for j, leg in enumerate(legs) if v in leg)
                              for leg in legs for v in leg}
            for v in leg_of.keys() - {source}:
                assert parent[v] == paths[v][-2]
            stopped += sum(leg[-1] in earlier for j, leg in enumerate(legs)
                           for earlier in legs[:j])
        assert stopped or case != "chain-0"

    def test_unknown_leaf_keeps_its_message(self):
        graph = traversal_graph(TRAVERSAL_CASES[0])
        known = graph.leaves()[0]
        for ask in (lambda: graph.node_of_leaf("nowhere"),
                    lambda: graph.distance("nowhere", known),
                    lambda: graph.distance(known, "nowhere")):
            with pytest.raises(DomainError) as exc:
                ask()
            assert str(exc.value) == "unknown leaf 'nowhere'"
