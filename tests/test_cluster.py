"""Clustering: linkage, cophenetic validation, inconsistency, cutoff."""

from __future__ import annotations

import json
import math
import random
import struct

import numpy as np
import pytest

import fixscope.cluster as fc
from fixscope.cluster import (
    AllZeroError,
    DistanceTable,
    UnknownClusterError,
    cophenetic_coefficient,
    cophenetic_coefficient_rows,
    cut_clusters,
    inconsistency_coefficients,
    linear_quantiles,
    pairwise_distances,
    sample_cluster,
    select_cutoff,
    single_linkage,
    single_linkage_rows,
)
from fixscope.pipeline import Pipeline, PipelineConfig, _json_dumps
from fixscope.stats import QUANTILE_LEVELS

import oracles


def points_to_table(points):
    return pairwise_distances(np.asarray(points, dtype=float))


def table_at(d, i, j):
    return float(d.table[d.row_of[i], d.row_of[j]])


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def both_cophenetic(points):
    """Dendrogram and coefficient through the table and the row entry
    points, after checking that both give the row reference's dendrogram
    and the bits of its coefficient."""
    rows = np.asarray(points, dtype=float)
    d = pairwise_distances(rows)
    dend = single_linkage(d)
    assert single_linkage_rows(rows) == dend == oracles.reference_single_linkage_rows(rows)
    coefficients = [cophenetic_coefficient(dend, d), cophenetic_coefficient_rows(dend, rows)]
    reference = oracles.reference_cophenetic_rows(dend, rows)
    assert [bits(c) for c in coefficients] == [bits(reference)] * 2
    return dend, coefficients


def random_points(rng, n, dim=3, sparse=False):
    pts = []
    for _ in range(n):
        if sparse:
            row = [0.0] * dim
            row[rng.randrange(dim)] = rng.uniform(0, 10)
        else:
            row = [rng.uniform(0, 10) for _ in range(dim)]
        pts.append(row)
    return pts


class TestPairwiseDistances:
    def test_identical_rows(self):
        d = points_to_table([[1.0, 2.0], [1.0, 2.0]])
        assert table_at(d, 0, 1) == 0.0

    def test_three_four_five(self):
        d = points_to_table([[0.0, 0.0], [3.0, 4.0]])
        assert table_at(d, 0, 1) == 5.0

    def test_against_double_loop_oracle(self):
        rng = random.Random(13)
        pts = random_points(rng, 4, dim=6, sparse=True)
        d = points_to_table(pts)
        full = oracles.bruteforce_pairwise(pts)
        for i in range(4):
            for j in range(4):
                assert abs(table_at(d, i, j) - full[i][j]) < 1e-12


def duplicate_heavy_rows(seed, n=300, distinct=40, dim=8):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, size=(distinct, dim)) * rng.uniform(0.1, 3.0, size=dim)
    return base[rng.integers(0, distinct, size=n)]


def large_column_rows(seed, n=200):
    # feature-weight scale: columns at 1e13..1e15, whose squares are inexact
    rng = np.random.default_rng(seed)
    scale = np.array([1e13, 7e13, 3e14, 1e15, 2.5e14])
    base = rng.integers(0, 5, size=(50, scale.size)) * scale
    return base[rng.integers(0, 50, size=n)] + rng.integers(0, 2, size=(n, 1))


ROW_PATH_CASES = {
    "duplicate-heavy": duplicate_heavy_rows(1),
    "duplicate-heavy-2": duplicate_heavy_rows(2, n=120, distinct=15, dim=30),
    "columns-1e13-1e15": large_column_rows(3),
    "all-equal": np.full((25, 4), 2.5),
    "n=1": np.array([[1.0, 2.0, 3.0]]),
    "n=2": np.array([[1.0, 2.0, 3.0], [4.0, 6.0, 3.0]]),
}


class TestDistanceTable:
    def test_rows_deduplicated_in_first_occurrence_order(self):
        rows = np.array([[2.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        d = pairwise_distances(rows)
        assert d.row_of.tolist() == [0, 1, 0, 2, 1]
        assert d.table.shape == (3, 3)
        assert table_at(d, 3, 0) == 2.0 and table_at(d, 2, 4) == math.sqrt(2.0)

    def test_negative_zero_is_its_own_row_at_distance_zero(self):
        d = pairwise_distances(np.array([[0.0], [-0.0]]))
        assert d.table.shape == (2, 2) and table_at(d, 0, 1) == 0.0

    def test_kernel_runs_once_per_distinct_pair(self, monkeypatch):
        rng = np.random.default_rng(4)
        distinct = rng.uniform(0, 10, size=(30, 5))
        rows = distinct[np.r_[np.arange(30), rng.integers(0, 30, size=2970)]]
        kernel = fc._euclidean
        pairs = []

        def counted(diff):
            pairs.append(diff.shape[0])
            return kernel(diff)

        monkeypatch.setattr(fc, "_euclidean", counted)
        d = pairwise_distances(rows)
        assert d.n == 3000 and d.table.shape == (30, 30)
        assert sum(pairs) == 30 * 29 // 2

    @pytest.mark.parametrize("case", ROW_PATH_CASES)
    def test_same_distances_dendrogram_and_bits_as_row_reference(self, case):
        rows = ROW_PATH_CASES[case]
        d = pairwise_distances(rows)
        n = rows.shape[0]
        for i in range(n):
            reference = oracles.reference_row_distances(rows, i, np.arange(n))
            assert d.table[d.row_of[i], d.row_of].tobytes() == reference.tobytes()
        dend = single_linkage(d)
        assert dend == oracles.reference_single_linkage_rows(rows)
        assert bits(cophenetic_coefficient(dend, d)) == \
            bits(oracles.reference_cophenetic_rows(dend, rows))

    def test_all_equal_rows_give_one_row_and_nan(self):
        d = pairwise_distances(ROW_PATH_CASES["all-equal"])
        assert d.table.tolist() == [[0.0]]
        dend = single_linkage(d)
        assert {m.height for m in dend.merges} == {0.0}
        assert math.isnan(cophenetic_coefficient(dend, d))

    def test_single_row(self):
        d = pairwise_distances(ROW_PATH_CASES["n=1"])
        dend = single_linkage(d)
        assert dend == fc.Dendrogram(1, ())
        assert math.isnan(cophenetic_coefficient(dend, d))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((0, 3)))


class TestSingleLinkage:
    def test_two_points(self):
        dend = single_linkage(points_to_table([[0.0], [2.5]]))
        assert len(dend.merges) == 1
        assert dend.merges[0].height == 2.5
        assert dend.merges[0].size == 2

    def test_three_collinear_points(self):
        dend = single_linkage(points_to_table([[0.0], [1.0], [10.0]]))
        assert [m.height for m in dend.merges] == [1.0, 9.0]

    def test_heights_match_bruteforce_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            pts = random_points(rng, rng.randint(2, 8))
            dend = single_linkage(points_to_table(pts))
            mine = [m.height for m in dend.merges]
            theirs = sorted(h for h, _, _ in oracles.bruteforce_single_linkage(pts))
            assert len(mine) == len(theirs)
            for a, b in zip(mine, theirs):
                assert abs(a - b) < 1e-9

    def test_monotone_heights(self):
        rng = random.Random(6)
        pts = random_points(rng, 10)
        dend = single_linkage(points_to_table(pts))
        heights = [m.height for m in dend.merges]
        assert heights == sorted(heights)

    def test_streaming_variant_agrees(self):
        # the O(n*d) row reference recomputes each distance when Prim needs it
        rng = random.Random(9)
        pts = np.asarray(random_points(rng, 12), dtype=float)
        dend = single_linkage(pairwise_distances(pts))
        assert dend == single_linkage_rows(pts) == oracles.reference_single_linkage_rows(pts)


PRIM_CASES = {
    **{name: ROW_PATH_CASES[name] for name in ("duplicate-heavy", "duplicate-heavy-2",
                                              "all-equal")},
    "all-tied": np.eye(40),  # every distance is sqrt(2)
    "lattice-ties": np.array([[i % 5, i // 5 % 4] for i in range(60)], dtype=float),
    # squares overflow: every distance between distinct rows is inf
    "overflow": np.array([[3e200], [0.0], [1e200], [0.0], [-1e200]]),
}


class TestPrimScan:
    @pytest.mark.parametrize("case", PRIM_CASES)
    def test_edges_equal_reference_scan(self, case):
        d = pairwise_distances(PRIM_CASES[case])
        assert fc._prim_mst(d) == oracles.reference_prim_mst(d)


def caterpillar(n):
    """Gaps that widen away from the first point: every merge adds one
    leaf to the cluster built so far."""
    return np.cumsum(np.arange(n, dtype=float))[:, None]


def balanced(levels):
    """2**levels points whose merges join equal-size halves at every level."""
    return np.array([[sum(((i >> b) & 1) * 10.0 ** b for b in range(levels))]
                     for i in range(2 ** levels)])


TREE_SHAPES = {
    "caterpillar": caterpillar(60),
    "caterpillar-reversed": caterpillar(60)[::-1],
    "balanced": balanced(6),
    "balanced-duplicates": np.repeat(balanced(4), 3, axis=0),
}


class TestCophenetic:
    def test_perfectly_ultrametric_data(self):
        # two tight pairs far apart: correlating the dendrogram with its own
        # cophenetic distances (exactly ultrametric data) gives 1
        pts = [[0.0], [1.0], [100.0], [101.0]]
        dend = single_linkage(points_to_table(pts))
        coph = oracles.bruteforce_cophenetic_matrix(pts)
        n = len(pts)
        ultrametric = DistanceTable(table=np.array(coph), row_of=np.arange(n))
        assert cophenetic_coefficient(dend, ultrametric) == pytest.approx(1.0)

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            pts = random_points(rng, rng.randint(3, 8))
            _, coefficients = both_cophenetic(pts)
            theirs = oracles.bruteforce_cophenetic_coefficient(pts)
            for mine in coefficients:
                assert abs(mine - theirs) < 1e-9

    def test_degenerate_input_flagged_as_nan(self):
        # the direct-sum oracle's mean of three 0.1 heights is not 0.1, so
        # it reads -7e-16, not NaN, on the second case
        cases = [
            [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]],  # equilateral
            [[0.0, 0.1], [0.1, 0.0], [0.0, 0.0]],  # equal merge heights
            [[0.0], [1.0]],  # a single pair
        ]
        for pts in cases:
            _, coefficients = both_cophenetic(pts)
            assert all(math.isnan(c) for c in coefficients), (pts, coefficients)

    def test_matches_scipy_with_zero_height_ties(self):
        from scipy.cluster.hierarchy import cophenet, linkage
        from scipy.spatial.distance import pdist
        # feature-weight scale, many equal nonzero distances, and 100
        # duplicate rows that merge at height zero
        rng = np.random.default_rng(3)
        base = rng.integers(0, 3, size=(200, 6)) * 1e15
        rows = np.vstack([base, base[rng.integers(0, 200, size=100)]])
        dend, coefficients = both_cophenetic(rows)
        reference = linkage(rows, "single")
        assert np.allclose([m.height for m in dend.merges], np.sort(reference[:, 2]),
                           rtol=1e-12, atol=0.0)
        assert sum(m.height == 0.0 for m in dend.merges) >= 100
        expected, _ = cophenet(reference, pdist(rows))
        for mine in coefficients:
            assert abs(mine - expected) < 1e-9


    @pytest.mark.parametrize("shape", TREE_SHAPES)
    def test_keeps_reference_bits_on_tree_shapes(self, shape):
        rows = TREE_SHAPES[shape]
        d = pairwise_distances(rows)
        dend = single_linkage(d)
        assert bits(cophenetic_coefficient(dend, d)) == \
            bits(oracles.reference_cophenetic_rows(dend, rows))
        # a prefix of the merges is a forest: every root gets its own slice
        forest = fc.Dendrogram(dend.n_leaves, dend.merges[:len(dend.merges) * 2 // 3])
        assert bits(cophenetic_coefficient(forest, d)) == \
            bits(oracles.reference_cophenetic_rows(forest, rows))

    def test_tree_shapes_cover_equal_size_merges(self):
        for shape, expected in (("caterpillar", False), ("balanced", True)):
            dend = single_linkage(pairwise_distances(TREE_SHAPES[shape]))
            sizes = [1] * dend.n_leaves + [m.size for m in dend.merges]
            ties = any(sizes[m.left] == sizes[m.right] > 1 for m in dend.merges)
            assert ties == expected, shape


class TestInconsistency:
    def test_isolated_link_is_zero(self):
        dend = single_linkage(points_to_table([[0.0], [1.0]]))
        assert inconsistency_coefficients(dend).tolist() == [0.0]

    def test_two_link_chain_hand_value(self):
        dend = single_linkage(points_to_table([[0.0], [1.0], [3.0]]))
        coefs = inconsistency_coefficients(dend, depth=2)
        assert [m.height for m in dend.merges] == [1.0, 2.0]
        assert coefs[0] == 0.0
        assert coefs[1] == pytest.approx((2.0 - 1.5) / math.sqrt(0.5), abs=1e-12)

    def test_matches_independent_oracle(self):
        rng = random.Random(17)
        for _ in range(25):
            pts = random_points(rng, rng.randint(2, 10))
            dend = single_linkage(points_to_table(pts))
            mine = inconsistency_coefficients(dend, depth=2)
            merge_triples = [(m.left, m.right, m.height) for m in dend.merges]
            theirs = oracles.bruteforce_inconsistency(dend.n_leaves, merge_triples, depth=2)
            for a, b in zip(mine, theirs):
                assert abs(a - b) < 1e-9


class TestSelectCutoff:
    def test_lone_outlier(self):
        coefs = np.array([0.0] * 30 + [1.2])
        c = select_cutoff(coefs)
        assert 0.0 < c <= 1.2
        assert sum(1 for v in coefs if v >= c) == 1

    def test_matches_scripted_binning_oracle(self):
        rng = random.Random(23)
        for _ in range(20):
            low = [rng.gauss(0.2, 0.05) for _ in range(40)]
            high = [rng.gauss(1.1, 0.05) for _ in range(8)]
            coefs = np.array(low + high)
            assert select_cutoff(coefs) == pytest.approx(
                oracles.bruteforce_cutoff(coefs.tolist()), abs=1e-12)

    def test_bimodal_separates_upper_mode(self):
        rng = random.Random(29)
        low = [rng.uniform(0.0, 0.3) for _ in range(60)]
        high = [rng.uniform(1.0, 1.15) for _ in range(6)]
        c = select_cutoff(np.array(low + high))
        assert 0.3 < c <= 1.15

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroError):
            select_cutoff(np.zeros(5))


def quantile_cases(seed):
    """Seeded 2-D float arrays, rows of n = 1-59 values each: small-integer
    ties, ties of 0.0 and -0.0, 1e15-scaled counts, infinities, and
    normals with one row holding a NaN."""
    rng = np.random.default_rng(seed)
    cases = [np.array([[-0.0], [0.0], [3.5], [math.inf], [math.nan]]),
             np.array([[0.8, 7.6], [-0.0, -0.0], [0.0, -0.0], [-math.inf, math.inf],
                       [2.0, math.nan]])]
    for k in range(300):
        n, kind = int(rng.integers(1, 60)), k % 5
        if kind == 0:
            rows = rng.integers(0, 4, size=(4, n)).astype(float)
        elif kind == 1:
            rows = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(4, n))
        elif kind == 2:
            rows = rng.integers(0, 1000, size=(4, n)) * 1e15
        elif kind == 3:
            rows = rng.choice([-math.inf, math.inf, -0.0, 0.0, 2.5], size=(4, n))
        else:
            rows = rng.normal(size=(4, n))
            rows[0, rng.integers(0, n)] = math.nan
        cases.append(rows)
    return cases


class TestLinearQuantiles:
    # numpy is the oracle; inf - inf in a lerp reads NaN on both sides
    @pytest.mark.parametrize("levels", [QUANTILE_LEVELS, (0.75, 0.25), (0.0, 0.5, 1.0)])
    def test_bits_equal_numpy_quantile(self, levels):
        with np.errstate(invalid="ignore"):
            for rows in quantile_cases(5):
                mine = linear_quantiles(rows, levels)
                theirs = np.quantile(rows, levels, axis=1).T
                assert np.array_equal(mine.view(np.int64), theirs.view(np.int64)), rows

    def test_bits_equal_numpy_percentile_pair(self):
        with np.errstate(invalid="ignore"):
            for rows in quantile_cases(6):
                for percent in (75, 25):
                    mine = linear_quantiles(rows, (percent / 100,))[:, 0]
                    theirs = np.percentile(rows, percent, axis=1)
                    assert np.array_equal(mine.view(np.int64), theirs.view(np.int64)), rows

    def test_the_lerp_is_two_sided(self):
        # g = 0.5 takes b - (b - a) (1 - g); a + (b - a) g reads 4.2
        assert linear_quantiles(np.array([[0.8, 7.6]]), (0.5,)).tolist() == \
            [[4.199999999999999]]

    def test_cut_keeps_the_bits_of_numpy_quartiles(self):
        # one partition for both quartiles may put a tie's 0.0 and -0.0
        # elsewhere than two calls do; only a zero's sign can move, and the
        # width test reads 0.0 and -0.0 alike
        rng = random.Random(31)
        cases = [[rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0]) for _ in range(rng.randint(2, 60))]
                 for _ in range(300)]
        for _ in range(30):
            dend = single_linkage(points_to_table(random_points(rng, rng.randint(3, 40))))
            cases.append(inconsistency_coefficients(dend).tolist())
        for values in cases:
            if any(values):
                assert bits(select_cutoff(np.array(values))) == \
                    bits(oracles.reference_select_cutoff(values)), values


class TestCutClusters:
    def build(self, pts):
        d = points_to_table(pts)
        dend = single_linkage(d)
        coefs = inconsistency_coefficients(dend)
        return dend, coefs

    def test_cutoff_above_all_gives_one_cluster(self):
        dend, coefs = self.build([[0.0], [1.0], [5.0], [6.0]])
        assignment = cut_clusters(dend, coefs, cutoff=coefs.max() + 1.0, min_size=1)
        assert len(assignment.clusters) == 1
        (members,) = assignment.clusters.values()
        assert sorted(members) == [0, 1, 2, 3]

    def test_cutoff_below_all_unclusters_everything(self):
        dend, coefs = self.build([[0.0], [1.0], [5.0], [6.0]])
        assignment = cut_clusters(dend, coefs, cutoff=-1.0, min_size=2)
        assert assignment.clusters == {}
        assert all(v is None for v in assignment.assignment.values())

    def test_min_size_filter(self):
        # two tight triples and one outlier
        pts = [[0.0], [0.1], [0.2], [10.0], [10.1], [10.2], [50.0]]
        dend, coefs = self.build(pts)
        cutoff = select_cutoff(coefs)
        assignment = cut_clusters(dend, coefs, cutoff, min_size=2)
        for members in assignment.clusters.values():
            assert len(members) >= 2
        assert assignment.assignment[6] is None

    def test_memberships_stable_under_permutation(self):
        rng = random.Random(31)
        pts = [[0.0], [0.1], [0.2], [9.0], [9.1], [9.2], [20.0], [20.2]]
        labels = [f"p{i}" for i in range(len(pts))]
        order = list(range(len(pts)))
        rng.shuffle(order)
        shuffled = [pts[i] for i in order]
        shuffled_labels = [labels[i] for i in order]

        def memberships(points, names):
            dend = single_linkage(points_to_table(points))
            coefs = inconsistency_coefficients(dend)
            cutoff = select_cutoff(coefs)
            assignment = cut_clusters(dend, coefs, cutoff, min_size=2, labels=names)
            return sorted(frozenset(m) for m in assignment.clusters.values())

        assert memberships(pts, labels) == memberships(shuffled, shuffled_labels)

    def test_deep_chain_cuts_without_recursion(self):
        # gaps 2, 3, 4, ...: each merge adds one leaf, 2999 levels deep
        dend = single_linkage_rows(np.cumsum(np.arange(1, 3001.0))[:, None])
        coefs = inconsistency_coefficients(dend)
        assert cut_clusters(dend, coefs, cutoff=-1.0, min_size=2).clusters == {}
        whole = cut_clusters(dend, coefs, cutoff=coefs.max() + 1.0, min_size=2)
        assert list(whole.clusters.values()) == [tuple(range(3000))]


class TestSampleCluster:
    def make_clusters(self, size):
        # the cluster id -> members mapping that Pipeline.load_clusters returns
        return {7: tuple(f"h{i}" for i in range(size))}

    def test_small_cluster_returned_whole(self):
        clusters = self.make_clusters(3)
        assert sample_cluster(clusters, 7, n=5, seed=1) == ["h0", "h1", "h2"]

    def test_same_seed_same_sample(self):
        clusters = self.make_clusters(100)
        assert sample_cluster(clusters, 7, seed=42) == sample_cluster(clusters, 7, seed=42)

    def test_different_seeds_differ(self):
        clusters = self.make_clusters(100)
        assert sample_cluster(clusters, 7, seed=1) != sample_cluster(clusters, 7, seed=2)

    def test_unknown_cluster(self):
        with pytest.raises(UnknownClusterError):
            sample_cluster(self.make_clusters(3), 99)


def dendrogram_doc(dendrogram) -> dict:
    return {"n_leaves": dendrogram.n_leaves,
            "merges": [{"left": m.left, "right": m.right, "height": m.height, "size": m.size}
                       for m in dendrogram.merges]}


def reference_dendrogram_json(dendrogram) -> str:
    return json.dumps(dendrogram_doc(dendrogram), indent=2, sort_keys=True) + "\n"


def stage_dendrogram_json(tmp_path, rows) -> str:
    """The cluster stage's ``dendrogram.json`` for one feature vector per row."""
    with open(tmp_path / "feature_vectors.jsonl", "w") as handle:
        for i, row in enumerate(rows):
            features = {f"f{j}": float(v) for j, v in enumerate(row) if v}
            handle.write(json.dumps({"hunk_id": f"h{i}", "features": features}) + "\n")
    pipeline = Pipeline(PipelineConfig(output_dir=str(tmp_path), min_cluster_size=1))
    return pipeline._stage_cluster()["dendrogram.json"]


class TestDendrogramJson:
    """``dendrogram.json`` holds the bytes ``json.dumps(indent=2, sort_keys=True)``
    gives the merge history."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_json_dumps_on_seeded_dendrograms(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 4, size=(int(rng.integers(2, 80)), 3)) * rng.uniform(0.1, 3.0, 3)
        dend = single_linkage(pairwise_distances(rows))
        assert stage_dendrogram_json(tmp_path, rows) == reference_dendrogram_json(dend)

    @pytest.mark.parametrize("n", [0, 1])
    def test_matches_json_dumps_without_merges(self, n, tmp_path):
        text = stage_dendrogram_json(tmp_path, [[1.0, 2.0]] * n)
        assert text == reference_dendrogram_json(fc.Dendrogram(n, ()))

    def test_matches_json_dumps_on_edge_heights(self):
        heights = [0.0, -0.0, 5e-324, 1e15, 0.1 + 0.2, math.inf, math.nan]
        merges = [fc.Merge(left=0, right=1, height=heights[0], size=2)]
        for k, height in enumerate(heights[1:]):
            merges.append(fc.Merge(left=k + 2, right=len(heights) + 1 + k,
                                   height=height, size=k + 3))
        dend = fc.Dendrogram(len(heights) + 1, tuple(merges))
        assert _json_dumps(dendrogram_doc(dend)) == reference_dendrogram_json(dend)
