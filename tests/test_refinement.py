import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from isolect import builder as bl
from isolect import chronometry as ch
from isolect import refinement as rf
from isolect.errors import DomainError
from isolect.model import CoincidenceMatrix, DistanceMatrix, LanguageSet, restore_distance_matrix

from oracles import sample_caterpillar


@pytest.fixture
def salish_a_dist(salish_a):
    return ch.matrix_to_distances(salish_a, "paper")


@pytest.fixture
def salish_a_tree(salish_a_dist):
    return bl.build(salish_a_dist, mode="paper")


def planted_matrix(seed=11, k=5):
    rng = np.random.default_rng(seed)
    planted = sample_caterpillar(rng, k)
    langs = LanguageSet(tuple(f"L{i}" for i in range(k)))
    return DistanceMatrix(langs, planted.distance_matrix())


class TestEvaluate:
    def test_four_language_residuals(self, salish_a_tree, salish_a_dist):
        report = rf.evaluate(salish_a_tree, salish_a_dist)
        # Frozen residuals: restored minus measured, pair by pair.
        expected = {
            ("1", "2"): 1, ("1", "3"): -3, ("1", "4"): 3,
            ("2", "3"): 3, ("2", "4"): -2, ("3", "4"): 0,
        }
        labels = salish_a_tree.languages.labels
        for (a, b), want in expected.items():
            i, j = labels.index(a), labels.index(b)
            assert report.residuals[i, j] == want
        assert report.max_abs_residual() == 3
        assert tuple(report.dispersion(label) for label in labels) == report.dispersions
        with pytest.raises(DomainError, match=re.escape("unknown language 'x'")):
            report.dispersion("x")

    def test_perfect_tree_has_zero_dispersions(self):
        dm = planted_matrix()
        tree = bl.build(dm, mode="precise")
        report = rf.evaluate(tree, dm)
        assert report.max_abs_residual() == pytest.approx(0.0, abs=1e-9)
        assert all(d == pytest.approx(0.0, abs=1e-12) for d in report.dispersions)

    def test_mismatched_languages_rejected(self, salish_a_tree):
        other = DistanceMatrix(
            LanguageSet(("x", "y")), np.array([[0, 5], [5, 0]], float)
        )
        with pytest.raises(DomainError):
            rf.evaluate(salish_a_tree, other)

    def test_language_order_alignment(self, salish_a_tree, salish_a_dist):
        perm = [3, 1, 0, 2]
        labels = tuple(salish_a_dist.languages.labels[i] for i in perm)
        arr = salish_a_dist.values[np.ix_(perm, perm)]
        shuffled = DistanceMatrix(LanguageSet(labels), arr)
        a = rf.evaluate(salish_a_tree, salish_a_dist)
        b = rf.evaluate(salish_a_tree, shuffled)
        assert np.array_equal(a.residuals, b.residuals)

    def test_absent_measured_pairs_are_ignored(self, salish_a_tree):
        values = np.array([
            [0, 73, np.nan, 139],
            [73, 0, 69, 108],
            [np.nan, 69, 0, 62],
            [139, 108, 62, 0],
        ])
        measured = DistanceMatrix(LanguageSet(("1", "2", "3", "4")), values)
        report = rf.evaluate(salish_a_tree, measured)
        assert np.isnan(report.residuals[0, 2])
        assert report.max_abs_residual() == 3
        assert all(np.isfinite(d) for d in report.dispersions)
        assert all(("1", "3") != (a, b) for a, b, _ in report.worst_pairs)

    def test_dispersions_of_rows_with_absent_cells_by_value(self, baltoslavic):
        # A row with absent cells takes the sample variance of its observed
        # off-diagonal cells, bit for bit, and 0.0 when fewer than two remain.
        complete = ch.matrix_to_distances(baltoslavic, "precise")
        values = np.array(complete.values)
        holes = [(0, j) for j in range(1, 14)] + [(1, j) for j in range(2, 15)]
        holes += [(2, 5), (2, 9), (6, 11)]  # rows 0 and 1: one and no observed cell
        for i, j in holes:
            values[i, j] = values[j, i] = np.nan
        measured = DistanceMatrix(complete.languages, values)
        report = rf.evaluate(bl.build(complete, mode="precise"), measured)
        rows = sorted({i for pair in holes for i in pair})
        assert rows == list(range(15))
        for i in rows:
            cells = np.delete(report.residuals[i], i)
            cells = cells[~np.isnan(cells)]
            want = np.var(cells, ddof=1) if cells.size >= 2 else 0.0
            assert report.dispersions[i].hex() == float(want).hex(), i
        assert report.dispersions[:2] == (0.0, 0.0)
        assert all(d > 0 for d in report.dispersions[2:])

    def test_mean_residual_near_zero(self, salish_a_tree, salish_a_dist):
        report = rf.evaluate(salish_a_tree, salish_a_dist)
        upper = report.residuals[np.triu_indices(4, 1)]
        assert abs(upper.mean()) <= 1.0
        k = len(report.languages)
        for i in range(k):
            row = np.delete(report.residuals[i], i)
            assert abs(row.mean()) <= report.max_abs_residual()


class TestWeights:
    def test_equal_dispersions_give_equal_weights(self):
        langs = LanguageSet(("a", "b", "c"))
        w = rf.weights_from_dispersions(langs, (4.0, 4.0, 4.0))
        assert w.values == (10.0, 10.0, 10.0)

    def test_inverse_proportionality(self):
        langs = LanguageSet(("a", "b", "c"))
        w = rf.weights_from_dispersions(langs, (2.0, 4.0, 8.0))
        ratios = (w.values[0] / w.values[2], w.values[1] / w.values[2])
        assert ratios == (pytest.approx(4.0), pytest.approx(2.0))

    def test_paper_mode_rounds_to_positive_integers(self):
        langs = LanguageSet(("a", "b", "c"))
        w = rf.weights_from_dispersions(langs, (0.6, 0.6, 600.0), mode="paper")
        assert all(v == int(v) and v >= 1 for v in w.values)

    @pytest.mark.parametrize("dispersions", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0), ()])
    def test_one_dispersion_per_language(self, dispersions):
        langs = LanguageSet(("a", "b", "c"))
        with pytest.raises(DomainError) as exc:
            rf.weights_from_dispersions(langs, dispersions)
        assert str(exc.value) == "one dispersion per language required"

    def test_floor_avoids_infinite_weight(self):
        langs = LanguageSet(("a", "b"))
        w = rf.weights_from_dispersions(langs, (0.0, 1.0))
        assert all(np.isfinite(v) for v in w.values)

    @given(st.floats(min_value=0.6, max_value=50), st.floats(min_value=1.1, max_value=20))
    def test_scale_free_above_floor(self, base, s):
        # Scaling all dispersions leaves the normalized weights unchanged,
        # provided the floor does not bite.
        langs = LanguageSet(("a", "b", "c"))
        disp = (base, 2 * base, 5 * base)
        assume(min(disp) >= rf.DISPERSION_FLOOR)
        w1 = rf.weights_from_dispersions(langs, disp)
        w2 = rf.weights_from_dispersions(langs, tuple(s * d for d in disp))
        assert w1.values == pytest.approx(w2.values)


class TestIterateBuild:
    def test_additive_input_converges_after_second_pass(self):
        dm = planted_matrix(seed=31, k=5)
        trace = rf.iterate_build(dm, mode="precise")
        assert len(trace.passes) == 2
        w1 = trace.passes[0].weights.values
        w2 = trace.passes[1].weights.values
        assert set(w1) == {1.0}
        # Zero residuals hit the dispersion floor uniformly.
        assert set(w2) == {rf.WEIGHT_MEAN}
        # The tree itself is unchanged between passes.
        a = restore_distance_matrix(trace.passes[0].dendrogram)
        b = restore_distance_matrix(trace.passes[1].dendrogram)
        assert np.allclose(a.values, b.values, atol=1e-9)

    def test_two_language_input_single_pass(self):
        dm = DistanceMatrix(
            LanguageSet(("a", "b")), np.array([[0, 30], [30, 0]], float)
        )
        trace = rf.iterate_build(dm)
        assert len(trace.passes) == 1

    def test_fifteen_language_iteration(self, baltoslavic):
        dist = ch.matrix_to_distances(baltoslavic, "paper")
        trace = rf.iterate_build(dist, mode="paper")
        assert len(trace.passes) == 3
        second = restore_distance_matrix(trace.passes[1].dendrogram)
        third = restore_distance_matrix(trace.passes[2].dendrogram)
        # Differences between the reweighted passes are practically absent:
        # three quarters of the entries identical, none beyond a few svodesh.
        diffs = np.abs(second.values - third.values)[np.triu_indices(15, 1)]
        assert diffs.max() <= 3.0
        assert np.mean(diffs == 0) >= 0.7
        assert diffs.mean() <= 0.5
        # Reconstruction is unbiased on average.
        residuals = trace.passes[-1].report.residuals[np.triu_indices(15, 1)]
        assert abs(residuals.mean()) <= 1.0

    def test_tree_metric_input_stable_thereafter(self):
        dm = planted_matrix(seed=77, k=6)
        trace = rf.iterate_build(dm, mode="precise")
        first = restore_distance_matrix(trace.passes[0].dendrogram)
        for rec in trace.passes[1:]:
            again = restore_distance_matrix(rec.dendrogram)
            assert np.allclose(first.values, again.values, atol=1e-9)


    def test_tree_metric_input_stops_early_after_two_passes(self):
        # Pass 2's dispersions all sit under the floor, so the weights they
        # give are pass 2's own: no change, and no third build.
        dm = planted_matrix(seed=77, k=6)
        trace = rf.iterate_build(dm, mode="precise")
        assert len(trace.passes) == 2 < rf.MAX_PASSES
        second = trace.passes[1]
        assert second.weight_change > rf.WEIGHT_CHANGE_TOL
        again = rf.weights_from_dispersions(dm.languages, second.report.dispersions, "precise")
        assert again == second.weights


class TestPerturb:
    def test_zero_delta_matches_baseline(self, salish_a):
        report = rf.perturb(salish_a, ("1", "4"), (0.0,), track=("1", "2"),
                            mode="paper")
        base, zero = report.rows
        assert (base.depth, base.lateral) == (zero.depth, zero.lateral)

    def test_sensitivity_of_partial_link(self, salish_a):
        report = rf.perturb(salish_a, ("1", "4"), (4.0, -4.0),
                            track=("1", "2"), mode="paper")
        geoms = [(row.depth, row.lateral) for row in report.rows]
        assert geoms == [(19, 36), (22, 29), (14, 45)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert (abs(geoms[i][0] - geoms[j][0]) > 2
                        or abs(geoms[i][1] - geoms[j][1]) > 2)

    def test_perturbation_is_reversible(self, salish_a):
        nudged = salish_a.with_value("1", "4", salish_a.value("1", "4") + 4)
        restored = nudged.with_value("1", "4", nudged.value("1", "4") - 4)
        assert np.array_equal(restored.values, salish_a.values)

    def test_out_of_range_delta_rejected(self, salish_a):
        with pytest.raises(DomainError):
            rf.perturb(salish_a, ("3", "4"), (50.0,), mode="paper")
        with pytest.raises(DomainError):
            rf.perturb(salish_a, ("1", "4"), (-25.0,), mode="paper")

    def test_absent_pair_is_named(self):
        langs = LanguageSet(("a", "b", "c"))
        measured = CoincidenceMatrix(langs, np.array(
            [[100.0, 48.0, np.nan], [48.0, 100.0, 50.0], [np.nan, 50.0, 100.0]]))
        for pair in (("a", "c"), ("c", "a")):
            with pytest.raises(DomainError, match=re.escape(
                    f"pair {pair} is absent from the matrix: nothing to perturb")):
                rf.perturb(measured, pair, (5.0,), mode="paper")

    def test_unknown_external_means_rejected_at_two_languages(self):
        # Two languages leave no external cluster, so no offset is ever
        # computed: the build itself refuses the policy.
        pair = CoincidenceMatrix(LanguageSet(("a", "b")),
                                 np.array([[100.0, 40.0], [40.0, 100.0]]))
        with pytest.raises(DomainError,
                           match=r"external_means must be one of \('weighted', 'simple'\)"):
            rf.perturb(pair, ("a", "b"), (1.0,), mode="paper", external_means="bogus")
