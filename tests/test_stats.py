"""Rank test, summary indicators, and the relevance matrix."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fixscope.stats
from fixscope.context import CATEGORIES
from fixscope.pipeline import _relevant_cells
from fixscope.stats import QUANTILE_LEVELS, dunn_test, relevance_matrix

import oracles


class TestDunnTest:
    def test_identical_constant_groups(self):
        result = dunn_test([5.0, 5.0], [5.0, 5.0, 5.0])
        assert result.z == 0.0
        assert result.p == 1.0
        assert not result.relevant

    def test_separated_groups_hand_case(self):
        result = dunn_test([10.0, 11.0, 12.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        z_oracle, p_oracle = oracles.bruteforce_dunn(
            [10.0, 11.0, 12.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert result.z == pytest.approx(z_oracle, abs=1e-9)
        assert result.p == pytest.approx(p_oracle, abs=1e-9)
        assert result.relevant

    def test_matches_oracle_on_uneven_tied_groups(self):
        rng = random.Random(3)
        for _ in range(50):
            n1 = rng.randint(1, 8)
            n2 = rng.randint(1, 40)
            # integer draws produce plenty of ties
            g1 = [float(rng.randint(0, 6)) for _ in range(n1)]
            g2 = [float(rng.randint(0, 6)) for _ in range(n2)]
            if all(v == g1[0] for v in g1 + g2):
                continue
            mine = dunn_test(g1, g2)
            z_oracle, p_oracle = oracles.bruteforce_dunn(g1, g2)
            assert mine.z == pytest.approx(z_oracle, abs=1e-9)
            assert mine.p == pytest.approx(p_oracle, abs=1e-9)

    def test_symmetry_negates_z(self):
        g1 = [1.0, 3.0, 5.0]
        g2 = [2.0, 4.0, 6.0, 8.0]
        fwd = dunn_test(g1, g2)
        rev = dunn_test(g2, g1)
        assert fwd.z == pytest.approx(-rev.z, abs=1e-12)
        assert fwd.p == pytest.approx(rev.p, abs=1e-12)

    def test_rank_invariance_under_monotone_transform(self):
        g1 = [0.5, 1.5, 2.5]
        g2 = [1.0, 2.0, 3.0, 4.0]
        base = dunn_test(g1, g2)
        warped = dunn_test([math.exp(v) for v in g1], [math.exp(v) for v in g2])
        assert base.z == pytest.approx(warped.z, abs=1e-12)

    def test_no_ties_tie_term_vanishes(self):
        g1 = [1.0, 2.0]
        g2 = [3.0, 4.0, 5.0]
        result = dunn_test(g1, g2)
        n = 5
        variance = n * (n + 1) / 12.0 * (1 / 2 + 1 / 3)
        ranks1 = [1, 2]
        expected_z = (sum(ranks1) / 2 - (3 + 4 + 5) / 3) / math.sqrt(variance)
        assert result.z == pytest.approx(expected_z, abs=1e-12)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            dunn_test([], [1.0])

    def test_null_calibration_small(self):
        rng = random.Random(101)
        hits = 0
        sims = 300
        for _ in range(sims):
            g1 = [rng.random() for _ in range(20)]
            g2 = [rng.random() for _ in range(60)]
            if dunn_test(g1, g2).relevant:
                hits += 1
        rate = hits / sims
        se = math.sqrt(0.05 * 0.95 / sims)
        assert abs(rate - 0.05) <= 3 * se + 1e-9


# few distinct values, so ties are heavy; -0.0 ties with 0.0
TIE_VALUES = (-1.0, -0.0, 0.0, 1.0, 2.5)


@st.composite
def rank_matrices(draw):
    """Small matrices of tied values, some columns constant, at most one NaN."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 5))
    matrix = np.array(draw(st.lists(
        st.lists(st.sampled_from(TIE_VALUES), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)))
    for col in draw(st.sets(st.integers(0, cols - 1))):
        matrix[:, col] = matrix[0, col]
    if draw(st.booleans()):
        matrix[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = math.nan
    return matrix


class TestMidranks:
    @given(rank_matrices())
    @example(np.array([[3.0, -0.0, 7.0]]))                    # a single row
    @example(np.array([[2.0, 0.0], [2.0, 1.0], [2.0, 0.0]]))  # a constant column
    @example(np.array([[0.0], [-0.0], [0.0], [-1.0]]))        # -0.0 beside 0.0
    @example(np.array([[1.0, 1.0], [math.nan, 0.0], [0.0, 1.0]]))  # a NaN
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_ranking(self, matrix):
        given_matrix = matrix.copy()
        ranks = fixscope.stats._midranks(matrix)
        assert np.array_equal(matrix, given_matrix, equal_nan=True)  # input untouched
        assert ranks.shape == matrix.shape
        assert np.array_equal(ranks, oracles.reference_midranks(matrix), equal_nan=True)


def summarize(values):
    """(mean, cv, cv_defined, quantiles) of ``_summaries`` on one row."""
    (mean,), (cv,), (cv_defined,), (quantiles,) = fixscope.stats._summaries(
        np.array([values], dtype=np.float64))
    return mean, cv, cv_defined, quantiles


class TestSummaryStats:
    def test_constant_sequence(self):
        mean, cv, cv_defined, _ = summarize([5.0, 5.0, 5.0])
        assert mean == 5.0
        assert cv == 0.0
        assert cv_defined

    def test_zero_mean_flags_cv_undefined(self):
        mean, cv, cv_defined, _ = summarize([0.0, 0.0])
        assert mean == 0.0
        assert not cv_defined
        assert math.isnan(cv)

    def test_linear_interpolation_median(self):
        quantiles = summarize([1.0, 2.0, 3.0, 4.0])[3]
        assert quantiles[QUANTILE_LEVELS.index(0.50)] == pytest.approx(2.5)

    def test_quantile_keys(self):
        assert QUANTILE_LEVELS == (0.05, 0.25, 0.50, 0.75, 0.95)
        assert summarize([1.0, 2.0])[3] == pytest.approx(
            [1.0 + level for level in QUANTILE_LEVELS])


def make_context(n, feature_value):
    """n hunks whose `ctx_FunctionDef_body_size` follows feature_value(i)."""
    return {
        f"h{i}": {
            "ctx_FunctionDef_body_size": feature_value(i),
            "ctx_including_If": 1.0 if i % 2 else 0.0,
        }
        for i in range(n)
    }


class TestRelevanceMatrix:
    def test_cluster_equal_to_dataset_is_never_relevant(self):
        context = make_context(30, lambda i: float(i % 7))
        matrix = relevance_matrix({1: tuple(context)}, context, control_mode="inclusive")
        assert [col.cluster_id for col in matrix.columns] == [1]
        assert not any(matrix.columns[0].relevant)

    def test_planted_deviation_marks_function_size(self):
        # cluster members sit in huge function bodies vs a small-body control
        values = {f"h{i}": 8.0 for i in range(40)}
        values.update({f"big{i}": 50.0 for i in range(12)})
        context = {h: {"ctx_FunctionDef_body_size": v} for h, v in values.items()}
        matrix = relevance_matrix({9: tuple(f"big{i}" for i in range(12))}, context)
        assert ("Function Size", 9) in _relevant_cells(matrix)

    def test_seventeen_rows_available(self):
        # every feature's category is one of the 17 rows of the matrix
        context = make_context(20, lambda i: float(i))
        matrix = relevance_matrix({1: ("h0", "h1")}, context)
        assert len(CATEGORIES) == 17
        assert matrix.feature_categories and set(matrix.feature_categories) <= set(CATEGORIES)


ORACLE_FEATURES = ("ctx_Module_size", "ctx_FunctionDef_body_size",
                   "ctx_FunctionDef_args_size", "ctx_including_If",
                   "ctx_inner_add_Call_count", "ctx_inner_rem_Assign_count")


def sparse_context(rng, n_hunks, continuous):
    """Seeded sparse context dicts: each varying feature is present in about
    40% of the hunks, drawn from five integers (ties) or from [0, 10); plus a
    constant column, an all-zero column, and a feature present in one hunk."""
    context = {}
    for i in range(n_hunks):
        features = {"ctx_including_For": 2.0}
        if rng.random() < 0.3:
            features["ctx_including_Call"] = 0.0
        for name in ORACLE_FEATURES:
            if rng.random() < 0.4:
                features[name] = (rng.random() * 10.0 if continuous
                                  else float(rng.randint(0, 4)))
        context[f"h{i:03d}"] = features
    context[f"h{rng.randrange(n_hunks):03d}"]["ctx_inner_add_Return_count"] = 5.0
    return context


def sparse_groups(rng, context):
    """Groups of assorted sizes in shuffled member order, keyed in no
    sorted order: one covering every hunk and one planted deviation."""
    hunks = sorted(context)
    groups = {size: tuple(rng.sample(hunks, size))
              for size in (5, 1, len(hunks) // 2, 2)}
    groups[8] = tuple(rng.sample(hunks, len(hunks)))
    planted = rng.sample(hunks, 6)
    for hunk in planted:
        context[hunk]["ctx_FunctionDef_body_size"] = 40.0 + rng.randint(0, 3)
    groups[10] = tuple(planted)
    groups[7] = tuple(rng.sample(hunks, 4))
    return groups


def assert_matches_per_feature(matrix, reference):
    """The tested ids are the oracle's, every column entry equals the
    oracle's record by ``repr``, and the marks derived from the columns
    are the oracle's cells."""
    tested, records, cells = reference
    assert [col.cluster_id for col in matrix.columns] == tested
    got = [(col.cluster_id, feature, category, z, p, hit,
            (mean, cv, defined, dict(zip(QUANTILE_LEVELS, quantiles))))
           for col in matrix.columns
           for feature, category, z, p, hit, mean, cv, defined, quantiles in zip(
               matrix.features, matrix.feature_categories, col.z, col.p, col.relevant,
               col.mean, col.cv, col.cv_defined, col.quantiles)]
    assert len(got) == len(records)
    assert all(len(column) == len(matrix.features)
               for col in matrix.columns for column in col[1:])
    for mine, expected in zip(got, records):
        for field_got, field_expected in zip(mine, expected):
            assert repr(field_got) == repr(field_expected), (mine, expected)
    assert _relevant_cells(matrix) == set(cells)


class TestColumnwiseRelevance:
    def test_matches_per_feature_oracle(self):
        relevant = degenerate = 0
        for seed in range(4):
            for n_hunks, continuous in ((25, False), (60, True), (300, True)):
                rng = random.Random(seed * 1000 + n_hunks)
                context = sparse_context(rng, n_hunks, continuous)
                groups = sparse_groups(rng, context)
                for control_mode in ("exclusive", "inclusive"):
                    for bonferroni in (False, True):
                        matrix = relevance_matrix(
                            groups, context, control_mode=control_mode,
                            bonferroni=bonferroni)
                        assert_matches_per_feature(matrix, oracles.per_feature_relevance(
                            groups, context, control_mode=control_mode,
                            bonferroni=bonferroni))
                        tested = {col.cluster_id for col in matrix.columns}
                        # all but the all-hunk group, which has no exclusive control
                        assert tested == set(groups) - ({8} if control_mode == "exclusive"
                                                        else set())
                        relevant += sum(sum(col.relevant) for col in matrix.columns)
                        degenerate += sum(col.p.count(1.0) for col in matrix.columns)
        assert relevant and degenerate

    def test_ranks_once_per_run(self, monkeypatch):
        # exclusive: one joint ranking per call; inclusive: one per tested cluster
        calls = []
        real_midranks = fixscope.stats._midranks

        def counting_midranks(*args, **kwargs):
            calls.append(1)
            return real_midranks(*args, **kwargs)

        monkeypatch.setattr(fixscope.stats, "_midranks", counting_midranks)
        rng = random.Random(11)
        context = sparse_context(rng, 40, False)
        groups = sparse_groups(rng, context)
        n_features = len({f for values in context.values() for f in values})
        assert n_features > 1
        for control_mode, n_tested, n_rankings in (("exclusive", 6, 1), ("inclusive", 7, 7)):
            calls.clear()
            matrix = relevance_matrix(groups, context, control_mode=control_mode)
            assert len({col.cluster_id for col in matrix.columns}) == n_tested
            assert len(matrix.features) == n_features
            assert all(len(col.z) == n_features for col in matrix.columns)
            assert len(calls) == n_rankings


class TestRejectedInputs:
    def test_nan_in_dunn_test_names_the_feature(self):
        with pytest.raises(ValueError, match="'ctx_Module_size'.*NaN"):
            dunn_test([math.nan, 1.0, 2.0], [2.0, 3.0, 4.0], feature="ctx_Module_size")

    @pytest.mark.parametrize("control_mode", ["exclusive", "inclusive"])
    def test_nan_in_context_names_the_feature(self, control_mode):
        context = make_context(10, lambda i: float(i))
        context["h3"]["ctx_including_If"] = math.nan
        with pytest.raises(ValueError, match="'ctx_including_If'.*NaN"):
            relevance_matrix({1: ("h0", "h1")}, context, control_mode=control_mode)

    @pytest.mark.parametrize("control_mode", ["exclusive", "inclusive"])
    def test_cluster_listing_a_hunk_twice_rejected(self, control_mode):
        context = make_context(10, lambda i: float(i))
        with pytest.raises(ValueError, match="more than once"):
            relevance_matrix({1: ("h0", "h1", "h0")}, context, control_mode=control_mode)

    @pytest.mark.parametrize("control_mode", ["exclusive", "inclusive"])
    def test_group_naming_a_hunk_without_context_rejected(self, control_mode):
        context = make_context(10, lambda i: float(i))
        with pytest.raises(ValueError, match="group 7 names hunk 'gone'"):
            relevance_matrix({1: ("h0",), 7: ("h1", "gone", "h2")}, context,
                             control_mode=control_mode)

    @pytest.mark.parametrize("control_mode", ["exclusive", "inclusive"])
    def test_empty_group_rejected(self, control_mode):
        context = make_context(10, lambda i: float(i))
        with pytest.raises(ValueError, match="group 3 is empty"):
            relevance_matrix({1: ("h0",), 3: ()}, context, control_mode=control_mode)
