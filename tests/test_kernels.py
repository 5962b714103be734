"""Bit-identity of the array kernels against per-cell scalar references.

Every kernel here replaced a Python loop with one call per cell.  The loops
live on in ``oracles.py``, or as the package's scalar functions, and each
test asserts equal bits (``tobytes``), so a -0.0 or a last-place difference
fails as loudly as a wrong value.
"""

import collections
import json
import math

import numpy as np
import pytest

from isolect import builder as bl
from isolect import chronometry as ch
from isolect import cli
from isolect import merger as mg
from isolect import refinement as rf
from isolect.errors import DomainError
from isolect.model import (
    FLAG_NEGATIVE_REDUCED,
    CoincidenceMatrix,
    DistanceMatrix,
    LanguageSet,
    WeightVector,
    leaf_distance,
    restore_distance_matrix,
)
from isolect.modes import check_mode, quantize, quantize_array, round_half_away

from conftest import BALTOSLAVIC, BALTOSLAVIC_LABELS, SALISH_A, SALISH_A_LABELS, coincidence
import oracles
from oracles import state_distance


def same_bits(got, want) -> bool:
    return np.asarray(got, float).tobytes() == np.asarray(want, float).tobytes()


def random_percents(seed: int, k: int) -> CoincidenceMatrix:
    """Integer percents with no tree structure: ties, clamps and shuffled labels."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(20, 90, size=(k, k)).astype(float), 1)
    values = upper + upper.T
    np.fill_diagonal(values, 100.0)
    labels = tuple(f"x{int(i):02d}" for i in rng.permutation(k))
    return CoincidenceMatrix(LanguageSet(labels), values)


class TestRounding:
    EDGES = [
        0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.0, -0.0, 0.49999999999999994,
        -0.49999999999999994, 4503599627370495.5, -4503599627370495.5,
        2.0 ** 53, -(2.0 ** 53), 1e300, -1e300, 1e-300, -1e-300,
    ]

    def test_edges_and_random_values_match_the_scalar_rounding(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([self.EDGES, rng.normal(0, 300, 2000),
                                 rng.integers(-500, 500, 200) + 0.5])
        want = [round_half_away(x) for x in values.tolist()]
        assert same_bits(quantize_array(values, "paper"), want)
        assert same_bits(quantize_array(values, "paper"),
                         [oracles.round_half_away(x) for x in values.tolist()])

    def test_negative_zero_survives(self):
        out = quantize_array(np.array([-0.0, -0.4, 0.4]), "paper")
        assert np.signbit(out).tolist() == [True, True, False]

    def test_precise_mode_keeps_values(self):
        values = np.array(self.EDGES)
        assert same_bits(quantize_array(values, "precise"), values)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            quantize_array(np.zeros(2), "exact")

    def test_unknown_mode_named_by_check_mode_and_quantize(self):
        message = "unknown mode 'exact'; expected one of ('precise', 'paper')"
        for call in (lambda: check_mode("exact"), lambda: quantize(1.5, "exact")):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message


def _cases():
    """(name, distance matrix, weights, mode, external means)."""
    cases = []
    for seed in range(3):
        cm = random_percents(seed, 20)
        langs = cm.languages
        rng = np.random.default_rng(100 + seed)
        integer_w = WeightVector(langs, tuple(rng.integers(1, 20, len(langs)).tolist()))
        float_w = WeightVector(langs, tuple(rng.uniform(0.2, 5.0, len(langs)).tolist()))
        for means in ("weighted", "simple"):
            cases.append((f"paper-unit-{means}-{seed}",
                          ch.matrix_to_distances(cm, "paper"), None, "paper", means))
            cases.append((f"paper-weights-{means}-{seed}",
                          ch.matrix_to_distances(cm, "paper"), integer_w, "paper", means))
            cases.append((f"precise-weights-{means}-{seed}",
                          ch.matrix_to_distances(cm, "precise"), float_w, "precise", means))
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_builder_steps_match_scalar_loops(case):
    _, dm, weights, mode, means = case
    state = bl.initial_state(dm, weights, mode)
    node = len(dm.languages)
    while len(state.clusters) > 2:
        pair = bl.min_link(state)
        offset, near, far = bl.lateral_offset(state, pair, means)
        m0, m1 = oracles.lateral_offset_means(state, pair, means)
        assert same_bits(offset, abs(m1 - m0) if m0 != m1 else 0.0)
        if m0 != m1:
            assert (near, far) == ((pair[0], pair[1]) if m0 < m1 else (pair[1], pair[0]))
        link = state_distance(state, near, far)
        depth, lateral, flags, offset = bl.join_geometry(
            link, offset, near.anchor_depth, far.anchor_depth, mode
        )
        geometry = bl.JoinGeometry(near, far, link, offset, depth, lateral, flags)
        want, clamped = oracles.reduced_row(state, geometry)
        new_state, reduce_flags = bl.reduce(state, geometry, node)
        externals = [c.node for c in new_state.clusters[:-1]]
        assert same_bits(new_state.table[node, externals], want)
        assert same_bits(new_state.table[externals, node], want)
        assert reduce_flags == (FLAG_NEGATIVE_REDUCED,) * clamped
        state, node = new_state, node + 1


@pytest.mark.parametrize("mode", ["paper", "precise"])
def test_negative_reduced_values_clamp_like_the_scalar_loop(mode):
    # A join placed far deeper than its link pushes many externals below 0.
    cm = random_percents(7, 20)
    weights = WeightVector(cm.languages, tuple(np.linspace(0.5, 3.0, 20).tolist()))
    state = bl.initial_state(ch.matrix_to_distances(cm, mode), weights, mode)
    clamped_total = 0
    for node, depth in zip(range(20, 38), np.linspace(40.3, 160.5, 18).tolist()):
        near, far = bl.min_link(state)
        link = state_distance(state, near, far)
        geometry = bl.JoinGeometry(near, far, link, 0.0, depth, 7.5)
        want, clamped = oracles.reduced_row(state, geometry)
        state, flags = bl.reduce(state, geometry, node)
        assert same_bits(state.table[node, [c.node for c in state.clusters[:-1]]], want)
        assert flags == (FLAG_NEGATIVE_REDUCED,) * clamped
        clamped_total += clamped
    assert 20 < clamped_total < 18 * 19 // 2


def _evaluate_cases():
    cases = []
    bs = coincidence(BALTOSLAVIC_LABELS, BALTOSLAVIC)
    for mode in ("paper", "precise"):
        measured = ch.matrix_to_distances(bs, mode)
        cases.append((f"baltoslavic-{mode}", bl.build(measured, mode=mode), measured))
    # Paper mode on integer data: |residual| ties everywhere.
    for seed in range(3):
        measured = ch.matrix_to_distances(random_percents(seed, 30), "paper")
        cases.append((f"paper-ties-{seed}", bl.build(measured, mode="paper"), measured))
    # Random precise residuals, past numpy's 128-element summation block.
    rng = np.random.default_rng(5)
    measured = ch.matrix_to_distances(random_percents(9, 140), "precise")
    tree = bl.build(measured, mode="precise")
    noise = np.triu(rng.normal(0, 3, measured.values.shape), 1)
    noisy = DistanceMatrix(measured.languages, np.abs(measured.values + noise + noise.T))
    cases.append(("precise-random-k140", tree, noisy))
    # Absent measured pairs: rows left with 7, 2, 1 and no cells.
    values = np.array(noisy.values[:12, :12])
    for i, j in [(0, 1), (0, 2), (7, 8), (7, 9), (7, 10), (11, 0)]:
        values[i, j] = values[j, i] = np.nan
    for row, kept in [(3, (0, 1)), (5, (4,)), (6, ())]:
        absent = [j for j in range(12) if j != row and j not in kept]
        values[row, absent] = values[absent, row] = np.nan
    langs = LanguageSet(measured.languages.labels[:12])
    sub = bl.build(DistanceMatrix(langs, noisy.values[:12, :12]), mode="precise")
    cases.append(("absent-rows", sub, DistanceMatrix(langs, values)))
    for k in (2, 3):
        dm = ch.matrix_to_distances(random_percents(k, k), "paper")
        cases.append((f"k{k}", bl.build(dm, mode="paper"), dm))
    return cases


EVALUATE_CASES = _evaluate_cases()


@pytest.mark.parametrize("case", EVALUATE_CASES, ids=[c[0] for c in EVALUATE_CASES])
def test_evaluate_matches_per_row_and_full_sort(case):
    _, tree, measured = case
    report = rf.evaluate(tree, measured)
    dispersions, worst = oracles.dispersions_and_worst_pairs(
        report.residuals, tree.languages.labels
    )
    assert same_bits(report.dispersions, dispersions)
    assert report.worst_pairs == worst
    assert same_bits([p[2] for p in report.worst_pairs], [p[2] for p in worst])


def test_evaluate_cases_cover_ties_and_absent_rows():
    by_name = {name: rf.evaluate(tree, measured) for name, tree, measured in EVALUATE_CASES}
    # Some paper-mode case has more pairs at the third-largest |residual|
    # than fit in the three worst, so the label key decides.
    tied = 0
    for seed in range(3):
        residuals = by_name[f"paper-ties-{seed}"].residuals
        sizes = np.abs(residuals[np.triu_indices(30, 1)])
        tied = max(tied, np.count_nonzero(sizes >= np.sort(sizes)[-3]))
    assert tied > 3
    absent = by_name["absent-rows"]
    present = (~np.isnan(absent.residuals)).sum(axis=1) - 1
    assert present[[3, 5, 6]].tolist() == [2, 1, 0]
    assert absent.dispersions[3] > 0.0 and absent.dispersions[5] == 0.0


@pytest.mark.parametrize("mode", ["paper", "precise"])
def test_restore_matches_leaf_distances(mode):
    measured = ch.matrix_to_distances(random_percents(4, 25), mode)
    tree = bl.build(measured, mode=mode)
    labels = tree.languages.labels
    want = [[leaf_distance(tree, a, b) for b in labels] for a in labels]
    assert same_bits(restore_distance_matrix(tree).values, want)


def assert_perturb_equals_rebuilding(measured, pair, track, mode):
    deltas = (3.5, -7.0, 0.0, 1.25)
    report = rf.perturb(measured, pair, deltas, track=track, mode=mode)
    base = measured.value(*pair)
    for row, delta in zip(report.rows, (0.0, *deltas)):
        matrix = measured.with_value(*pair, base + delta) if delta else measured
        tree = bl.build(ch.matrix_to_distances(matrix, mode), mode=mode)
        jn = tree.meeting_junction(*(track or pair))
        assert (row.depth, row.lateral, row.status, row.flags) == (
            jn.depth, jn.lateral, jn.status, jn.flags)
        assert same_bits([row.depth, row.lateral], [jn.depth, jn.lateral])


@pytest.mark.parametrize("mode", ["paper", "precise"])
@pytest.mark.parametrize("pair, track", [
    (("Czech", "Slovak"), None),
    (("Russian", "Polish"), ("Czech", "Slovak")),
    (("Latvian", "Prussian"), None),
])
def test_perturb_equals_rebuilding_from_the_changed_matrix(mode, pair, track):
    measured = coincidence(BALTOSLAVIC_LABELS, BALTOSLAVIC)
    assert_perturb_equals_rebuilding(measured, pair, track, mode)


@pytest.mark.parametrize("mode", ["paper", "precise"])
def test_perturb_equals_rebuilding_on_the_salish_matrix(mode):
    measured = coincidence(SALISH_A_LABELS, SALISH_A)
    assert_perturb_equals_rebuilding(measured, ("1", "4"), ("1", "2"), mode)


def test_perturb_of_a_diagonal_pair_is_rejected():
    measured = coincidence(BALTOSLAVIC_LABELS, BALTOSLAVIC)
    with pytest.raises(DomainError, match="diagonal"):
        rf.perturb(measured, ("Czech", "Czech"), [-1.0])


@pytest.mark.parametrize("mode", ["paper", "precise"])
def test_column_formatting_matches_format_number(mode):
    rng = np.random.default_rng(8)
    values = np.concatenate([TestRounding.EDGES, rng.normal(0, 300, 2000),
                             rng.integers(-500, 500, 200) + 0.5, [0.125, 2.675, -1e-3]])
    want = [cli.format_number(x, mode) for x in values.tolist()]
    assert list(cli.format_column(values, mode)) == want


@pytest.mark.parametrize("mode", ["paper", "precise"])
def test_matrix_conversions_match_the_scalar_ones(mode):
    rng = np.random.default_rng(3)
    upper = rng.uniform(0.1, 100.0, size=(30, 30))
    upper[upper < 10] = 0.2  # back from distance, paper rounding would give 0
    upper = np.triu(upper, 1)
    cm = CoincidenceMatrix(LanguageSet(tuple(f"c{i}" for i in range(30))),
                           upper + upper.T + 100 * np.eye(30))
    cells = cm.values.tolist()
    dm = ch.matrix_to_distances(cm, mode)
    want = [[0.0 if i == j else ch.coincidence_to_svodesh(c, mode)
             for j, c in enumerate(row)] for i, row in enumerate(cells)]
    assert same_bits(dm.values, want)
    lengths = dm.values.tolist()
    want = [[100.0 if i == j else ch.svodesh_to_coincidence(d, mode) or
             100.0 * math.exp(-d / 100.0)
             for j, d in enumerate(row)] for i, row in enumerate(lengths)]
    assert same_bits(ch.matrix_to_coincidences(dm, mode).values, want)


def synthetic_graph(seed: int) -> mg.SegmentGraph:
    """A random segment tree whose lateral edges crowd onto three depths,
    with short integer lengths, so runs merge, branch and tie."""
    rng = np.random.default_rng(seed)
    nodes = [mg.SegmentNode("n0", 10.0)]
    edges = []
    for i in range(1, 40):
        attach = nodes[int(rng.integers(i))]
        if rng.random() < 0.7:
            node, kind = mg.SegmentNode(f"n{i}", attach.depth), mg.LATERAL
        else:
            node = mg.SegmentNode(f"n{i}", float(rng.choice([10.0, 20.0, 30.0])))
            kind = mg.VERTICAL
        ends = (attach.id, node.id) if rng.random() < 0.5 else (node.id, attach.id)
        edges.append(mg.SegmentEdge(*ends, float(rng.integers(1, 4)), kind))
        nodes.append(node)
    return mg.SegmentGraph(tuple(nodes), tuple(edges), (), ())


def _graphs():
    graphs = [(f"synthetic-{seed}", synthetic_graph(seed)) for seed in range(20)]
    bs = coincidence(BALTOSLAVIC_LABELS, BALTOSLAVIC)
    for mode in ("paper", "precise"):
        graphs.append((f"baltoslavic-{mode}",
                       mg.segment_graph(bl.build(ch.matrix_to_distances(bs, mode), mode=mode))))
        for seed in range(8):
            dm = ch.matrix_to_distances(random_percents(seed, 24), mode)
            graphs.append((f"random-{mode}-{seed}", mg.segment_graph(bl.build(dm, mode=mode))))
    return graphs


GRAPHS = _graphs()


@pytest.mark.parametrize("case", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_chain_widths_match_networkx_components(case):
    _, graph = case
    assert mg.chain_widths(graph) == oracles.chain_widths_nx(graph)


def _lateral_graph(edges):
    """A segment tree of the lateral edges ``(depth, length, a, b)``, both
    ends at the edge's depth, and one vertical edge from a root at depth 10
    to each run."""
    nodes = {"r": mg.SegmentNode("r", 10.0)}
    segments = []
    for depth, length, a, b in edges:
        if b not in nodes:
            segments.append(mg.SegmentEdge("r", a, 10.0 - depth, mg.VERTICAL))
        for name in (a, b):
            nodes.setdefault(name, mg.SegmentNode(name, depth))
        segments.append(mg.SegmentEdge(a, b, length, mg.LATERAL))
    return mg.SegmentGraph(tuple(nodes.values()), tuple(segments), (), ())


def test_chain_widths_group_by_the_first_made_depth_within_1e6():
    # Groups open at 5 + 1.5e-6 and then at 5.  An edge within 1e-6 of both
    # joins the earlier-made group, not the nearer one; one 3e-6 up opens a
    # third group.
    graph = _lateral_graph([
        (5 + 1.5e-6, 1.0, "a1", "b1"),
        (5.0, 2.0, "a2", "b2"),
        (5 + 0.7e-6, 4.0, "a3", "b1"),
        (5 - 0.9e-6, 8.0, "a4", "b4"),
        (5 + 2.4e-6, 16.0, "a5", "b5"),
        (5 + 3e-6, 32.0, "a6", "b6"),
    ])
    assert mg.chain_widths(graph) == (
        (5 + 3e-6, 32.0, 1),
        (5 + 1.5e-6, 16.0, 1),
        (5 + 1.5e-6, 5.0, 2),
        (5.0, 8.0, 1),
        (5.0, 2.0, 1),
    )
    assert mg.chain_widths(graph) == oracles.chain_widths_nx(graph)


@pytest.mark.parametrize("seed", range(5))
def test_chain_widths_on_depths_1e6_apart_in_random_order(seed):
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(80):
        depth = 5 + 0.4e-6 * float(rng.integers(0, 12))
        # Half the edges extend an earlier edge's run, when the depth allows.
        ends = [e for e in edges if abs(e[0] - depth) <= 1e-6]
        b = ends[int(rng.integers(len(ends)))][2] if ends and rng.random() < 0.5 else f"b{i}"
        edges.append((depth, float(rng.integers(1, 5)), f"a{i}", b))
    graph = _lateral_graph(edges)
    assert mg.chain_widths(graph) == oracles.chain_widths_nx(graph)


def _scale_graph(case: str) -> mg.SegmentGraph:
    kind, seed = case.rsplit("-", 1)
    if kind == "caterpillar":
        k = 512
        m = oracles.sample_caterpillar(np.random.default_rng(int(seed)), k).distance_matrix()
        dm = DistanceMatrix(LanguageSet(tuple(f"L{i:03d}" for i in range(k))), m)
        return mg.segment_graph(bl.build(dm, mode="precise"))
    return mg.segment_graph(bl.build(
        ch.matrix_to_distances(random_percents(int(seed), 128), "paper"), mode="paper"))


@pytest.mark.parametrize("case", ["caterpillar-0", "caterpillar-1", "paper-0", "paper-1",
                                  "paper-2"])
def test_chain_widths_match_networkx_at_scale(case):
    # A k = 512 caterpillar opens an epoch at nearly every join; a paper-mode
    # build's integer depths put many laterals in each of few epochs.
    graph = _scale_graph(case)
    runs = mg.chain_widths(graph)
    assert len(runs) >= (400 if case.startswith("caterpillar") else 10)
    assert runs == oracles.chain_widths_nx(graph)


def _bits(runs):
    """Runs with each float as its repr, so -0.0 and 0.0 differ."""
    return [tuple(map(repr, run)) for run in runs]


def _negative_zero_lateral() -> mg.SegmentGraph:
    """A built graph read back from its document with one lone lateral's
    length written as -0.0, which the reader takes (-0.0 >= 0)."""
    graph = dict(GRAPHS)["random-precise-0"]
    doc = json.loads(mg.serialize_graph(graph))
    node_depth = {n.id: n.depth for n in graph.nodes}
    laterals = [edge for edge in doc["edges"] if edge["kind"] == mg.LATERAL]
    epochs = collections.Counter(node_depth[edge["a"]] for edge in laterals)
    next(edge for edge in laterals if epochs[node_depth[edge["a"]]] == 1)["length"] = -0.0
    read = mg.deserialize_graph(json.dumps(doc))
    assert any(math.copysign(1, e.length) < 0 for e in read.edges)
    return read


def test_lone_lateral_runs_equal_union_find_bit_for_bit():
    """An epoch with one lateral edge is its own run, with no union-find:
    the width is that edge's length summed from 0, as ``_components``'s run
    gives it, so a -0.0 length reads 0.0 in both."""
    cases = [graph for _, graph in GRAPHS] + [_scale_graph("caterpillar-0")]
    cases.append(_lateral_graph([(5 + 1.5e-6, 1.0, "a1", "b1"), (5.0, 2.0, "a2", "b2"),
                                 (5 + 0.7e-6, 4.0, "a3", "b1"), (5 - 0.9e-6, 8.0, "a4", "b4"),
                                 (5 + 2.4e-6, 0.0, "a5", "b5"), (5 + 3e-6, -0.0, "a6", "b6")]))
    cases.append(_negative_zero_lateral())
    lone = 0
    for graph in cases:
        runs = mg.chain_widths(graph)
        assert _bits(runs) == _bits(oracles.chain_widths_union_find(graph))
        lone += sum(count == 1 for _, _, count in runs)
    assert lone > 500
    assert (5 + 3e-6, 0.0, 1) in mg.chain_widths(cases[-2])
    zero = [run for run in mg.chain_widths(cases[-1]) if run[1] == 0]
    assert _bits(zero) == _bits([(zero[0][0], 0.0, 1)])


def test_chain_width_cases_include_multi_segment_and_tied_runs():
    synthetic = [mg.chain_widths(g) for name, g in GRAPHS if name.startswith("synthetic")]
    built = [mg.chain_widths(g) for name, g in GRAPHS if not name.startswith("synthetic")]
    assert any(count >= 3 for runs in built for _, _, count in runs)
    # Runs with one depth and width but other segment counts: only their
    # order tells two groupings apart.
    assert any(len({r[:2] for r in runs}) < len(set(runs)) for runs in synthetic)
