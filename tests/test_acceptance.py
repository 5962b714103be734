"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from isolect import builder as bl
from isolect import chronometry as ch
from isolect import merger as mg
from isolect import model
from isolect import refinement as rf
from isolect.model import (
    Dendrogram,
    DistanceMatrix,
    Junction,
    LanguageSet,
    WeightVector,
    leaf_distance,
    restore_coincidence_matrix,
    restore_distance_matrix,
)

from conftest import (
    BALTOSLAVIC_REFERENCE_WEIGHTS,
    SALISH_A_DISTANCES,
    SALISH_A_RESTORED,
    SALISH_A_RESTORED_C,
    SALISH_B_DISTANCES,
    coincidence,
)
from oracles import (
    cluster_key,
    sample_balanced_ambiguous,
    sample_caterpillar,
    state_dist,
    state_distance,
)


def verdict(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


@pytest.fixture(scope="module")
def baltoslavic_trace():
    from conftest import BALTOSLAVIC, BALTOSLAVIC_LABELS

    cm = coincidence(BALTOSLAVIC_LABELS, BALTOSLAVIC)
    start = time.perf_counter()
    trace = rf.iterate_build(ch.matrix_to_distances(cm, "paper"), mode="paper")
    elapsed = time.perf_counter() - start
    return trace, elapsed


def test_criterion_01_conversion_fidelity(salish_a, salish_b):
    start = time.perf_counter()
    out_a = ch.matrix_to_distances(salish_a, "paper")
    elapsed = time.perf_counter() - start
    assert np.array_equal(out_a.values, np.array(SALISH_A_DISTANCES, float))
    out_b = ch.matrix_to_distances(salish_b, "paper")
    assert np.array_equal(out_b.values, np.array(SALISH_B_DISTANCES, float))
    assert elapsed < 0.010
    verdict(1, f"both coincidence tables convert exactly ({elapsed * 1e6:.0f} us)")


def test_criterion_02_reduction_steps(salish_a, salish_b):
    dist_a = ch.matrix_to_distances(salish_a, "paper")
    state = bl.initial_state(dist_a, None, "paper")
    pair = bl.min_link(state)
    offset, near, far = bl.lateral_offset(state, pair)
    link = state_distance(state, near, far)
    d, h, flags, offset = bl.join_geometry(link, offset, 0, 0, "paper")
    state, _ = bl.reduce(
        state, bl.JoinGeometry(near, far, link, offset, d, h, flags), 4
    )
    merged = state.clusters[-1]
    assert state_dist(state)[frozenset((merged.node, 0))] == 94
    assert state_dist(state)[frozenset((merged.node, 1))] == 58
    pair = bl.min_link(state)
    offset, near, far = bl.lateral_offset(state, pair)
    link = state_distance(state, near, far)
    d, h, flags, offset = bl.join_geometry(
        link, offset, near.anchor_depth, far.anchor_depth, "paper"
    )
    state, _ = bl.reduce(
        state, bl.JoinGeometry(near, far, link, offset, d, h, flags), 5
    )
    merged = state.clusters[-1]
    assert state_dist(state)[frozenset((merged.node, 0))] == 55

    dist_b = ch.matrix_to_distances(salish_b, "paper")
    state = bl.initial_state(dist_b, None, "paper")
    for node in (4, 5):
        pair = bl.min_link(state)
        offset, near, far = bl.lateral_offset(state, pair)
        link = state_distance(state, near, far)
        d, h, flags, offset = bl.join_geometry(
            link, offset, near.anchor_depth, far.anchor_depth, "paper"
        )
        state, _ = bl.reduce(
            state, bl.JoinGeometry(near, far, link, offset, d, h, flags), node
        )
    values = sorted(state_dist(state).values())
    assert 85 in values
    cluster_entries = {
        frozenset(k): v for k, v in state_dist(state).items()
    }
    assert set(values) >= {85.0}
    verdict(2, "reduced entries 94, 58, 55 and 139, 104, 85 reproduced exactly")


def test_criterion_02b_second_group_cluster_rows(salish_b):
    # The intermediate rows behind the final 85: first reduction gives the
    # 139/104 column, checked explicitly.
    dist_b = ch.matrix_to_distances(salish_b, "paper")
    state = bl.initial_state(dist_b, None, "paper")
    pair = bl.min_link(state)
    offset, near, far = bl.lateral_offset(state, pair)
    link = state_distance(state, near, far)
    d, h, flags, offset = bl.join_geometry(link, offset, 0, 0, "paper")
    state, _ = bl.reduce(
        state, bl.JoinGeometry(near, far, link, offset, d, h, flags), 4
    )
    merged = state.clusters[-1]
    assert cluster_key(merged, state) == ("5", "6")
    assert state_dist(state)[frozenset((merged.node, 1))] == 139
    assert state_dist(state)[frozenset((merged.node, 0))] == 104


def test_criterion_03_four_language_geometry(salish_a):
    tree = bl.build(ch.matrix_to_distances(salish_a, "paper"), mode="paper")
    depths = sorted(j.depth for j in tree.junctions)
    laterals = sorted(j.lateral for j in tree.junctions)
    for got, want in zip(depths, sorted((14, 19, 19))):
        assert abs(got - want) <= 1
    for got, want in zip(laterals, sorted((34, 34, 36))):
        assert abs(got - want) <= 1
    restored = restore_distance_matrix(tree)
    assert np.max(np.abs(restored.values - np.array(SALISH_A_RESTORED, float))) <= 1
    percents = restore_coincidence_matrix(tree)
    assert np.max(np.abs(percents.values - np.array(SALISH_A_RESTORED_C, float))) <= 1
    verdict(3, "depths {14,19,19}, laterals {34,34,36}, restored tables within 1")


def test_criterion_04_final_link_handling(salish_a, salish_b):
    ambiguous = bl.build(ch.matrix_to_distances(salish_b, "paper"), mode="paper")
    root = ambiguous.junctions[-1]
    assert root.status == model.UNRESOLVED
    assert abs(root.total_length - 85) <= 1
    resolved = bl.build(ch.matrix_to_distances(salish_a, "paper"), mode="paper")
    root_a = resolved.junctions[-1]
    assert root_a.status == model.RESOLVED
    assert model.FLAG_CROSS_CHECKED in root_a.flags
    verdict(4, "one system's root resolves by cross-check, the other stays "
               "unresolved at total 85")


def test_criterion_05_merge_predictions(salish_a, salish_b):
    tree_a = bl.build(ch.matrix_to_distances(salish_a, "paper"), mode="paper")
    tree_b = bl.build(ch.matrix_to_distances(salish_b, "paper"), mode="paper")
    graph = mg.merge(tree_a, tree_b)
    preds = {p.pair: p for p in mg.predict_missing(graph, mg.cross_pairs(graph))}
    expected = {
        ("3", "5"): (199, 14), ("3", "6"): (203, 13),
        ("4", "5"): (233, 10), ("4", "6"): (237, 9),
    }
    for pair, (dist, coin) in expected.items():
        assert abs(preds[pair].distance - dist) <= 2
        assert abs(preds[pair].coincidence - coin) <= 1
    assert preds[("4", "6")].coincidence == 9
    assert preds[("4", "6")].below_threshold
    verdict(5, "cross distances {199,203,233,237} and coincidences "
               "{14,13,10,9}; the 9% prediction is flagged")


GROUPS = {
    "east-slavic": {"Russian", "Ukrainian", "Belarusian"},
    "west-slavic": {"Polish", "Czech", "Slovak", "Lower-Sorbian",
                    "Upper-Sorbian"},
    "east-south-slavic": {"Macedonian", "Bulgarian"},
    "east-baltic": {"Lithuanian", "Latvian"},
}


def _cluster_sets(tree):
    k = len(tree.languages)
    labels = tree.languages.labels
    return [
        (idx, {labels[m] for m in tree.members(k + idx)})
        for idx in range(len(tree.junctions))
    ]


def test_criterion_06_fifteen_language_structure(baltoslavic_trace):
    trace, elapsed = baltoslavic_trace
    assert elapsed < 1.0
    tree = trace.final
    clusters = _cluster_sets(tree)
    cluster_sets = [c for _, c in clusters]
    for name, group in GROUPS.items():
        assert group in cluster_sets, f"{name} does not form a cluster"
    # A cluster that partially touches a group must be an internal stage of
    # that group's formation: no outsider joins before the group completes.
    for _, members in clusters:
        for group in GROUPS.values():
            if members & group and not group <= members:
                assert members <= group, (
                    f"cluster {sorted(members)} mixes outsiders into a group"
                )
    labels = tree.languages.labels
    k = len(labels)
    baltic_idx = cluster_sets.index(GROUPS["east-baltic"])
    assert abs(tree.junctions[baltic_idx].depth - 15) <= 3
    east_idx = cluster_sets.index(GROUPS["east-slavic"])
    east_node = k + east_idx
    parent = next(
        j for j in tree.junctions if east_node in (j.near, j.far)
    )
    assert abs(parent.depth - 11) <= 3
    deepest = max(j.depth for j in tree.junctions)
    assert abs(deepest - 30) <= 5
    widths = mg.chain_widths(mg.segment_graph(tree))
    root_width = widths[0]
    assert root_width[0] == deepest
    assert abs(root_width[1] - 25) <= 8
    verdict(6, f"groups form as clusters; baltic split {tree.junctions[baltic_idx].depth}, "
               f"east-slavic branch {parent.depth}, root {deepest} with chain "
               f"{root_width[1]} ({elapsed * 1e3:.0f} ms)")


def test_criterion_07_dispersion_weight_diagnostics(baltoslavic_trace):
    trace, _ = baltoslavic_trace
    final = trace.passes[-1]
    labels = final.report.languages.labels
    ranked = sorted(zip(labels, final.report.dispersions), key=lambda t: (t[1], t[0]))
    lowest4 = {name for name, _ in ranked[:4]}
    highest3 = {name for name, _ in ranked[-3:]}
    assert len(lowest4 & {"Slovak", "Bulgarian", "Lower-Sorbian", "Belarusian"}) >= 3
    assert len(highest3 & {"Latvian", "Slovenian", "Serbian"}) >= 2
    weights = [final.weights.value(lab) for lab in labels]
    reference = [BALTOSLAVIC_REFERENCE_WEIGHTS[lab] for lab in labels]
    rho = spearmanr(weights, reference).statistic
    assert rho >= 0.5
    verdict(7, f"dispersion extremes match the published ranking; weight "
               f"rank correlation {rho:.2f}")


def test_criterion_08_sensitivity(salish_a):
    report = rf.perturb(salish_a, ("1", "4"), (4.0, -4.0), track=("1", "2"),
                        mode="paper")
    geoms = [(r.depth, r.lateral) for r in report.rows]
    assert len(set(geoms)) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert (abs(geoms[i][0] - geoms[j][0]) > 2
                    or abs(geoms[i][1] - geoms[j][1]) > 2)
    verdict(8, f"perturbing one cell by +/-4 moves the tracked link: {geoms}")


def test_criterion_09a_round_trip_grid():
    grid = np.linspace(0.1, 100.0, 1000)
    worst = 0.0
    for c in grid:
        back = ch.svodesh_to_coincidence(ch.coincidence_to_svodesh(float(c)))
        worst = max(worst, abs(back - c))
    assert worst < 1e-9
    verdict(9, f"(a) conversion round trip on a 1000-point grid, max error "
               f"{worst:.1e}")


def test_criterion_09b_planted_tree_oracle():
    rng = np.random.default_rng(9021)
    worst = 0.0
    corpus = []
    for _ in range(200):
        k = int(rng.integers(4, 7))
        planted = sample_caterpillar(rng, k)
        langs = LanguageSet(tuple(f"L{i}" for i in range(k)))
        matrix = DistanceMatrix(langs, planted.distance_matrix())
        corpus.append((planted, matrix))
        tree = bl.build(matrix, mode="precise")
        geoms = [(j.depth, j.lateral) for j in tree.junctions]
        expected = list(zip(planted.depths, planted.laterals))
        expected.append((planted.root_depth, planted.root_lateral))
        for got, want in zip(geoms, expected):
            worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
        assert tree.junctions[-1].status == model.RESOLVED
    assert worst < 1e-6
    test_criterion_09b_planted_tree_oracle.corpus = corpus
    verdict(9, f"(b) 200 planted chain geometries recovered, max error {worst:.1e}")


def test_criterion_09c_equivariance_on_corpus():
    corpus = getattr(test_criterion_09b_planted_tree_oracle, "corpus", None)
    if corpus is None:  # direct invocation; rebuild the corpus
        test_criterion_09b_planted_tree_oracle()
        corpus = test_criterion_09b_planted_tree_oracle.corpus
    for planted, matrix in corpus:
        base = bl.build(matrix, mode="precise")
        scaled_matrix = DistanceMatrix(matrix.languages, 2.5 * matrix.values)
        scaled = bl.build(scaled_matrix, mode="precise")
        for jb, js in zip(base.junctions, scaled.junctions):
            assert js.depth == pytest.approx(2.5 * jb.depth, abs=1e-6)
            assert js.lateral == pytest.approx(2.5 * jb.lateral, abs=1e-6)
        constant = bl.build(
            matrix, WeightVector(matrix.languages, (3.0,) * len(matrix.languages)),
            mode="precise",
        )
        assert [(j.near, j.far) for j in constant.junctions] == [
            (j.near, j.far) for j in base.junctions
        ]
        for jb, jc in zip(base.junctions, constant.junctions):
            assert jc.depth == pytest.approx(jb.depth, abs=1e-9)
            assert jc.lateral == pytest.approx(jb.lateral, abs=1e-9)
    verdict(9, "(c) scale equivariance and unit-weight equivalence on the corpus")


def test_criterion_09d_unresolved_decomposition_invariance():
    rng = np.random.default_rng(414)
    for _ in range(50):
        planted = sample_balanced_ambiguous(rng)
        langs = LanguageSet(("a", "b", "c", "d"))
        matrix = DistanceMatrix(langs, planted.distance_matrix())
        tree = bl.build(matrix, mode="precise")
        root = tree.junctions[-1]
        assert root.status == model.UNRESOLVED
        reference = restore_distance_matrix(tree).values
        lo, hi = root.depth_range
        for depth in np.linspace(max(lo, 0.0), hi, 5):
            variant_root = Junction(
                near=root.near, far=root.far, depth=float(depth),
                lateral=root.lateral, status=model.UNRESOLVED,
                total_length=root.total_length, depth_range=root.depth_range,
                flags=root.flags,
            )
            variant = Dendrogram(
                tree.languages, tree.junctions[:-1] + (variant_root,),
                mode=tree.mode, weights=tree.weights,
            )
            assert np.allclose(
                restore_distance_matrix(variant).values, reference, atol=1e-9
            )
    verdict(9, "(d) leaf distances invariant under unresolved-root decompositions")


def test_criterion_10_reduced_set_rebuild(baltoslavic_trace, baltoslavic):
    trace, _ = baltoslavic_trace
    full = trace.final
    full_restored = restore_distance_matrix(full)
    subset = ("Ukrainian", "Slovak", "Lower-Sorbian", "Bulgarian")
    idx = [baltoslavic.languages.index(n) for n in subset]
    sub_matrix = coincidence(subset, baltoslavic.values[np.ix_(idx, idx)])
    sub_trace = rf.iterate_build(
        ch.matrix_to_distances(sub_matrix, "paper"), mode="paper"
    )
    sub_restored = restore_distance_matrix(sub_trace.final)
    worst = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = subset[i], subset[j]
            worst = max(
                worst, abs(full_restored.value(a, b) - sub_restored.value(a, b))
            )
    assert worst <= 6
    verdict(10, f"four-language rebuild preserves the full tree's distances "
                f"(max deviation {worst})")
