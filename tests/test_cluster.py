"""Clustering: linkage, cophenetic validation, inconsistency, cutoff."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from fixscope.cluster import (
    AllZeroError,
    CondensedDistances,
    UnknownClusterError,
    cophenetic_coefficient,
    cophenetic_coefficient_rows,
    cut_clusters,
    inconsistency_coefficients,
    pairwise_distances,
    sample_cluster,
    select_cutoff,
    single_linkage,
    single_linkage_rows,
)

import oracles


def points_to_condensed(points):
    return pairwise_distances(np.asarray(points, dtype=float))


def condensed_at(d, i, j):
    return 0.0 if i == j else float(d.values[d.index(i, j)])


def both_cophenetic(points):
    """Dendrogram and coefficient through the condensed and the row entry
    points, after checking that both give the same dendrogram."""
    rows = np.asarray(points, dtype=float)
    d = pairwise_distances(rows)
    dend = single_linkage(d)
    assert single_linkage_rows(rows) == dend
    return dend, [cophenetic_coefficient(dend, d), cophenetic_coefficient_rows(dend, rows)]


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
        d = points_to_condensed([[1.0, 2.0], [1.0, 2.0]])
        assert condensed_at(d, 0, 1) == 0.0

    def test_three_four_five(self):
        d = points_to_condensed([[0.0, 0.0], [3.0, 4.0]])
        assert condensed_at(d, 0, 1) == 5.0

    def test_against_double_loop_oracle(self):
        rng = random.Random(13)
        pts = random_points(rng, 4, dim=6, sparse=True)
        d = points_to_condensed(pts)
        full = oracles.bruteforce_pairwise(pts)
        for i in range(4):
            for j in range(4):
                assert abs(condensed_at(d, i, j) - full[i][j]) < 1e-12


class TestSingleLinkage:
    def test_two_points(self):
        dend = single_linkage(points_to_condensed([[0.0], [2.5]]))
        assert len(dend.merges) == 1
        assert dend.merges[0].height == 2.5
        assert dend.merges[0].size == 2

    def test_three_collinear_points(self):
        dend = single_linkage(points_to_condensed([[0.0], [1.0], [10.0]]))
        assert [m.height for m in dend.merges] == [1.0, 9.0]

    def test_heights_match_bruteforce_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            pts = random_points(rng, rng.randint(2, 8))
            dend = single_linkage(points_to_condensed(pts))
            mine = [m.height for m in dend.merges]
            theirs = sorted(h for h, _, _ in oracles.bruteforce_single_linkage(pts))
            assert len(mine) == len(theirs)
            for a, b in zip(mine, theirs):
                assert abs(a - b) < 1e-9

    def test_monotone_heights(self):
        rng = random.Random(6)
        pts = random_points(rng, 10)
        dend = single_linkage(points_to_condensed(pts))
        heights = [m.height for m in dend.merges]
        assert heights == sorted(heights)

    def test_streaming_variant_agrees(self):
        rng = random.Random(9)
        pts = np.asarray(random_points(rng, 12), dtype=float)
        a = single_linkage(pairwise_distances(pts))
        b = single_linkage_rows(pts)
        assert [m.height for m in a.merges] == pytest.approx(
            [m.height for m in b.merges], abs=1e-12)
        assert [(m.left, m.right) for m in a.merges] == \
            [(m.left, m.right) for m in b.merges]


class TestCophenetic:
    def test_perfectly_ultrametric_data(self):
        # two tight pairs far apart: correlating the dendrogram with its own
        # cophenetic distances (exactly ultrametric data) gives 1
        pts = [[0.0], [1.0], [100.0], [101.0]]
        dend = single_linkage(points_to_condensed(pts))
        coph = oracles.bruteforce_cophenetic_matrix(pts)
        n = len(pts)
        ultrametric = CondensedDistances(
            values=np.array([coph[i][j] for i in range(n) for j in range(i + 1, n)]), n=n)
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


class TestInconsistency:
    def test_isolated_link_is_zero(self):
        dend = single_linkage(points_to_condensed([[0.0], [1.0]]))
        assert inconsistency_coefficients(dend).tolist() == [0.0]

    def test_two_link_chain_hand_value(self):
        dend = single_linkage(points_to_condensed([[0.0], [1.0], [3.0]]))
        coefs = inconsistency_coefficients(dend, depth=2)
        assert [m.height for m in dend.merges] == [1.0, 2.0]
        assert coefs[0] == 0.0
        assert coefs[1] == pytest.approx((2.0 - 1.5) / math.sqrt(0.5), abs=1e-12)

    def test_matches_independent_oracle(self):
        rng = random.Random(17)
        for _ in range(25):
            pts = random_points(rng, rng.randint(2, 10))
            dend = single_linkage(points_to_condensed(pts))
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


class TestCutClusters:
    def build(self, pts):
        d = points_to_condensed(pts)
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
            dend = single_linkage(points_to_condensed(points))
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
    def make_assignment(self, size):
        from fixscope.cluster import ClusterAssignment
        members = tuple(f"h{i}" for i in range(size))
        return ClusterAssignment(clusters={7: members},
                                 assignment={m: 7 for m in members})

    def test_small_cluster_returned_whole(self):
        assignment = self.make_assignment(3)
        assert sample_cluster(assignment, 7, n=5, seed=1) == ["h0", "h1", "h2"]

    def test_same_seed_same_sample(self):
        assignment = self.make_assignment(100)
        assert sample_cluster(assignment, 7, seed=42) == sample_cluster(assignment, 7, seed=42)

    def test_different_seeds_differ(self):
        assignment = self.make_assignment(100)
        assert sample_cluster(assignment, 7, seed=1) != sample_cluster(assignment, 7, seed=2)

    def test_unknown_cluster(self):
        with pytest.raises(UnknownClusterError):
            sample_cluster(self.make_assignment(3), 99)
