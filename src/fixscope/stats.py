"""Rank-based relevance testing of context features per cluster.

Each cluster's feature values are compared against a control group by a
two-group rank test with midranks and tie correction; a feature is
relevant when its two-sided p-value falls under the significance level.
The control group defaults to the whole dataset excluding the tested
cluster's members (disjoint groups are required for a joint ranking); a
flag restores the literal whole-dataset control for comparison.

The tests are computed column-wise: ``fixscope.context.context_matrix``
builds the hunk x feature context matrix once, and each tested cluster's
pooled rows are ranked in one call that yields every feature's midranks,
tie correction and z at once.  The midranks come from ``_midranks``, a
numpy kernel in this module that sorts each column once and gives every
tie group the mean of the ranks it spans.
``dunn_test`` and ``summary_stats`` are the one-column case of the same
kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fixscope.context import CATEGORIES, categorize, context_matrix

__all__ = [
    "DunnResult",
    "SummaryStats",
    "FeatureRecord",
    "ContextRelevanceMatrix",
    "dunn_test",
    "summary_stats",
    "relevance_matrix",
]

QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)


@dataclass(frozen=True)
class DunnResult:
    feature: str
    z: float
    p: float
    relevant: bool


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    cv: float
    cv_defined: bool
    quantiles: dict[float, float]


@dataclass(frozen=True)
class FeatureRecord:
    cluster_id: object
    feature: str
    category: str
    z: float
    p: float
    relevant: bool
    summary: SummaryStats


@dataclass
class ContextRelevanceMatrix:
    """17 category rows x cluster columns, with per-feature detail."""

    cluster_ids: list
    cells: dict[tuple[str, object], bool] = field(default_factory=dict)
    records: list[FeatureRecord] = field(default_factory=list)

    @property
    def categories(self) -> tuple[str, ...]:
        return CATEGORIES

    def relevant(self, category: str, cluster_id) -> bool:
        return self.cells.get((category, cluster_id), False)


def _midranks(pooled: np.ndarray) -> np.ndarray:
    """Average ranks (1-based, ties share the mean of their ranks) of each
    column of a 2-D array, in the array's shape.

    A column holding a NaN ranks as all NaN.  Every rank is a whole number
    or a half, so sums of ranks are exact in float64.
    """
    # one contiguous row per column, a copy that the ranks then overwrite
    ranks = np.array(pooled.T, dtype=np.float64, order="C")
    n = ranks.shape[1]
    order = np.argsort(ranks, axis=1, kind="stable")
    y = np.take_along_axis(ranks, order, axis=1)
    # every row's first element starts a group, so no group spans two rows
    is_start = np.ones(y.shape, dtype=bool)
    is_start[:, 1:] = y[:, 1:] != y[:, :-1]
    starts = np.flatnonzero(is_start)
    sizes = np.diff(starts, append=y.size)
    group_ranks = starts % n + 1 + (sizes - 1) / 2
    np.put_along_axis(ranks, order, np.repeat(group_ranks, sizes).reshape(y.shape),
                      axis=1)
    # sorting puts NaN last: a row ending in NaN holds one
    ranks[np.isnan(y[:, -1:]).any(axis=1)] = np.nan
    return ranks.T


def _rank_tests(pooled: np.ndarray, n1: int, alpha: float):
    """Two-group rank test with midranks and tie correction, per column.

    The first ``n1`` rows of ``pooled`` are the cluster, the rest the
    control group.  Returns lists of z, p and relevance, one per column.
    A degenerate column (every value identical, or zero rank variance)
    gives z = 0, p = 1 and is never relevant.
    """
    total = pooled.shape[0]
    ranks = _midranks(pooled)
    mean1 = ranks[:n1].mean(axis=0)
    mean2 = ranks[n1:].mean(axis=0)
    # Tie groups of sizes t with midranks r satisfy
    #   sum(t^3 - t) = 2 N (N + 1) (2 N + 1) - 3 sum((2 r)^2),
    # and 2 r is an integer, so the tie sum is exact in int64 (N < 1.3e6).
    doubled = (2.0 * ranks).astype(np.int64)
    tie_sum = (2 * total * (total + 1) * (2 * total + 1)
               - 3 * (doubled * doubled).sum(axis=0))
    tie_term = tie_sum.astype(np.float64) / (12.0 * (total - 1))
    variance = (total * (total + 1) / 12.0 - tie_term) * (
        1.0 / n1 + 1.0 / (total - n1))
    degenerate = (pooled == pooled[0]).all(axis=0) | (variance <= 0.0)
    z = np.where(degenerate, 0.0,
                 (mean1 - mean2) / np.sqrt(np.where(degenerate, 1.0, variance)))
    zs, ps, relevant = z.tolist(), [], []
    for zj, flat in zip(zs, degenerate.tolist()):
        pj = 1.0 if flat else math.erfc(abs(zj) / math.sqrt(2.0))  # 2 (1 - Phi(|z|))
        ps.append(pj)
        relevant.append(not flat and pj < alpha)
    return zs, ps, relevant


def _summaries(rows: np.ndarray) -> list[SummaryStats]:
    """Summary statistics of every row of a C-contiguous 2-D array.

    Contiguous rows are summed pairwise, as a 1-D array is, so each row's
    statistics carry the same bits as a call on that row alone.
    """
    means = rows.mean(axis=1).tolist()
    stds = rows.std(axis=1, ddof=0).tolist()
    quantiles = np.quantile(rows, QUANTILE_LEVELS, axis=1).T.tolist()
    out = []
    for mean, std, qs in zip(means, stds, quantiles):
        if mean == 0.0:
            cv, cv_defined = float("nan"), False
        else:
            cv, cv_defined = std / mean, True
        out.append(SummaryStats(mean=mean, cv=cv, cv_defined=cv_defined,
                                quantiles=dict(zip(QUANTILE_LEVELS, qs))))
    return out


def dunn_test(cluster_values, control_values, alpha: float = 0.05,
              feature: str = "") -> DunnResult:
    """Two-group rank test with midranks and tie correction.

    Degenerate pools (every value identical, or zero rank variance) give
    z = 0 and p = 1.
    """
    group1 = np.asarray(cluster_values, dtype=np.float64)
    group2 = np.asarray(control_values, dtype=np.float64)
    if group1.size == 0 or group2.size == 0:
        raise ValueError("both groups must be nonempty")
    pooled = np.concatenate([group1, group2])[:, None]
    (z,), (p,), (relevant,) = _rank_tests(pooled, group1.size, alpha)
    return DunnResult(feature, z, p, relevant)


def summary_stats(values) -> SummaryStats:
    """Mean, coefficient of variation, and linear-interpolation quantiles."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty sequence")
    return _summaries(arr.reshape(1, -1))[0]


def relevance_matrix(
    clusters: dict,
    triage: dict,
    context_data: dict,
    alpha: float = 0.05,
    control_mode: str = "exclusive",
    bonferroni: bool = False,
) -> ContextRelevanceMatrix:
    """Per-cluster, per-feature relevance against the control group.

    ``clusters`` maps cluster id to member hunk ids, ``triage`` maps
    cluster id to a triage label string, and ``context_data`` maps hunk id
    to its flattened context features.  Only clusters triaged BUG-FIX are
    tested; a category cell is true when any of its member features is
    relevant.
    """
    if control_mode not in ("exclusive", "inclusive"):
        raise ValueError(f"unknown control mode {control_mode!r}")
    bugfix_ids = [cid for cid in sorted(clusters, key=str)
                  if triage.get(cid) == "BUG-FIX"]
    context = context_matrix({hunk: context_data[hunk] for hunk in sorted(context_data)})
    feature_names = context.feature_names
    result = ContextRelevanceMatrix(cluster_ids=bugfix_ids)
    effective_alpha = alpha / len(feature_names) if (bonferroni and feature_names) else alpha
    categories = [categorize(feature) for feature in feature_names]
    row_of = {hunk: i for i, hunk in enumerate(context.hunk_ids)}
    for cid in bugfix_ids:
        members = [row_of[h] for h in clusters[cid] if h in row_of]
        if not members:
            continue
        if control_mode == "exclusive":
            member_set = set(members)
            control = [i for i in range(len(row_of)) if i not in member_set]
        else:
            control = list(range(len(row_of)))
        if not control:
            continue
        pooled = context.values[members + control]
        zs, ps, relevant = _rank_tests(pooled, len(members), effective_alpha)
        summaries = _summaries(np.ascontiguousarray(pooled[:len(members)].T))
        for feature, category, z, p, hit, summary in zip(
                feature_names, categories, zs, ps, relevant, summaries):
            result.records.append(FeatureRecord(
                cluster_id=cid, feature=feature, category=category,
                z=z, p=p, relevant=hit, summary=summary))
            if hit:
                result.cells[(category, cid)] = True
    return result
