import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isolect import chronometry as ch
from isolect.errors import DomainError
from isolect.model import CoincidenceMatrix, DistanceMatrix, LanguageSet

from conftest import (
    SALISH_A_DISTANCES,
    SALISH_A_RESTORED,
    SALISH_A_RESTORED_C,
    SALISH_B_DISTANCES,
    coincidence,
)


class TestScalarConversions:
    @pytest.mark.parametrize(
        "c,expected",
        [(48, 73), (54, 62), (25, 139), (19, 166), (100, 0), (50, 69), (34, 108)],
    )
    def test_paper_values(self, c, expected):
        assert ch.coincidence_to_svodesh(c, "paper") == expected

    def test_precise_value(self):
        assert ch.coincidence_to_svodesh(48, "precise") == pytest.approx(
            73.3969, abs=1e-3
        )

    @pytest.mark.parametrize(
        "l,expected", [(62, 54), (142, 24), (0, 100), (199, 14), (237, 9), (74, 48)]
    )
    def test_inverse_paper_values(self, l, expected):
        assert ch.svodesh_to_coincidence(l, "paper") == expected

    @pytest.mark.parametrize("c", [0, -3, 100.5, float("nan")])
    def test_domain_errors(self, c):
        with pytest.raises(DomainError):
            ch.coincidence_to_svodesh(c)

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            ch.svodesh_to_coincidence(-1)

    @given(st.floats(min_value=0.01, max_value=100))
    def test_round_trip(self, c):
        back = ch.svodesh_to_coincidence(ch.coincidence_to_svodesh(c))
        assert abs(back - c) < 1e-9

    @given(
        st.floats(min_value=0.01, max_value=99.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_strictly_decreasing(self, c, frac):
        smaller = c * frac
        assert ch.coincidence_to_svodesh(smaller) > ch.coincidence_to_svodesh(c)

    @given(st.floats(min_value=0.01, max_value=5.0))
    def test_small_replacement_counts_match_distance(self, x):
        # For nearly identical lists the distance approximates the number of
        # replaced items out of 100.
        length = ch.coincidence_to_svodesh(100 - x)
        assert abs(length - x) <= 0.15 * x


class TestDivergenceTime:
    def test_identical_lists(self):
        assert ch.divergence_time(100, 0, 0) == 0

    @given(st.floats(min_value=1, max_value=100))
    def test_synchronous_pair_is_half_distance(self, c):
        assert ch.divergence_time(c, 0, 0) == pytest.approx(
            ch.coincidence_to_svodesh(c) / 2
        )

    def test_attested_language(self):
        expected = (-100 * math.log(0.74) + 20 + 0) / 2
        got = ch.divergence_time(74, 20, 0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert round(got, 2) == 25.06

    def test_negative_depth_rejected(self):
        with pytest.raises(DomainError):
            ch.divergence_time(50, -1, 0)


class TestPairCount:
    @pytest.mark.parametrize("k", [2, 4, 15])
    def test_matches_enumeration(self, k):
        expected = sum(1 for i in range(k) for j in range(i + 1, k))
        assert ch.pair_count(k) == expected

    def test_too_few(self):
        with pytest.raises(DomainError):
            ch.pair_count(1)


class TestMatrixConversion:
    def test_four_language_table(self, salish_a):
        out = ch.matrix_to_distances(salish_a, "paper")
        assert np.array_equal(out.values, np.array(SALISH_A_DISTANCES, float))

    def test_second_group_table(self, salish_b):
        out = ch.matrix_to_distances(salish_b, "paper")
        assert np.array_equal(out.values, np.array(SALISH_B_DISTANCES, float))

    def test_restored_table_to_percent(self):
        dm = DistanceMatrix(
            LanguageSet(("1", "2", "3", "4")), np.array(SALISH_A_RESTORED, float)
        )
        out = ch.matrix_to_coincidences(dm, "paper")
        assert np.array_equal(out.values, np.array(SALISH_A_RESTORED_C, float))

    def test_precise_round_trip_is_fixed_point(self, salish_a):
        distances = ch.matrix_to_distances(salish_a, "precise")
        back = ch.matrix_to_distances(
            ch.matrix_to_coincidences(distances, "precise"), "precise"
        )
        assert np.allclose(back.values, distances.values, atol=1e-9)

    def test_absent_entries_preserved(self):
        cm = coincidence(("a", "b", "c"), [
            [100, 50, float("nan")],
            [50, 100, 40],
            [float("nan"), 40, 100],
        ])
        out = ch.matrix_to_distances(cm, "paper")
        assert np.isnan(out.values[0, 2]) and np.isnan(out.values[2, 0])
        assert out.values[0, 1] == 69
        back = ch.matrix_to_coincidences(out, "paper")
        assert np.isnan(back.values[0, 2])


class TestMatrixConversionAgainstScalar:
    @pytest.mark.parametrize("mode", ["paper", "precise"])
    def test_matches_per_cell_conversion(self, mode):
        rng = np.random.default_rng(41)
        k = 12
        c = np.triu(rng.uniform(0.2, 100.0, size=(k, k)), 1)
        c[2, 7] = c[0, 11] = np.nan
        c = c + c.T
        np.fill_diagonal(c, 100.0)
        langs = LanguageSet(tuple(f"l{i}" for i in range(k)))
        out = ch.matrix_to_distances(CoincidenceMatrix(langs, c), mode)
        back = ch.matrix_to_coincidences(out, mode)
        for i in range(k):
            for j in range(k):
                if i == j or np.isnan(c[i, j]):
                    assert np.isnan(out.values[i, j]) == (i != j)
                    continue
                expected = ch.coincidence_to_svodesh(c[i, j], mode)
                assert out.values[i, j] == expected
                percent = ch.svodesh_to_coincidence(expected, mode)
                if percent == 0.0:
                    percent = ch.svodesh_to_coincidence(expected, "precise")
                assert back.values[i, j] == percent

    @pytest.mark.parametrize("whole", [True, False])
    def test_whole_tables_convert_each_distinct_value_once(self, monkeypatch, whole):
        # Every table, of whole numbers (paper mode's) or not, calls the
        # scalar conversion once per distinct value; the cells equal the
        # scalar conversion's.
        rng = np.random.default_rng(7)
        k = 30
        c = np.triu(rng.integers(1, 101, size=(k, k)).astype(float), 1)
        if not whole:
            c[0, 1] += 0.25
        c[3, 9] = np.nan
        c = c + c.T
        np.fill_diagonal(c, 100.0)
        observed = c[np.triu_indices(k, 1)]
        observed = observed[~np.isnan(observed)]
        calls = []
        for name in ("_svodesh", "_coincidence"):
            scalar = getattr(ch, name)
            monkeypatch.setattr(ch, name, lambda x, scalar=scalar: calls.append(x) or scalar(x))
        langs = LanguageSet(tuple(f"l{i}" for i in range(k)))
        out = ch.matrix_to_distances(CoincidenceMatrix(langs, c), "paper")
        assert len(calls) == len(np.unique(observed))
        lengths = out.values[np.triu_indices(k, 1)]
        lengths = lengths[~np.isnan(lengths)]
        assert lengths.tolist() == [ch.coincidence_to_svodesh(x, "paper") for x in observed]
        calls.clear()
        back = ch.matrix_to_coincidences(out, "paper")
        assert len(calls) == len(np.unique(lengths))
        assert np.array_equal(back.values, np.vectorize(
            lambda x: ch.svodesh_to_coincidence(x, "paper") if x == x else x)(out.values),
            equal_nan=True)

    def test_first_bad_pair_reported(self):
        # Matrix classes reject such cells themselves; a bare stand-in
        # reaches the conversion's own check.
        langs = LanguageSet(("a", "b", "c"))
        values = np.array([[100, 50, 0], [50, 100, 150], [0, 150, 100]], float)
        with pytest.raises(DomainError) as exc:
            ch.matrix_to_distances(SimpleNamespace(languages=langs, values=values))
        assert str(exc.value) == (
            "pair (a, c): coincidence must be > 0 (got 0.0); distance is infinite at 0"
        )
        lengths = np.array([[0, 5, 1], [5, 0, -2], [1, -2, 0]], float)
        with pytest.raises(DomainError) as exc:
            ch.matrix_to_coincidences(SimpleNamespace(languages=langs, values=lengths))
        assert str(exc.value) == (
            "pair (b, c): svodesh distance must be finite and >= 0 (got -2.0)"
        )
