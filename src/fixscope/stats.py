"""Rank-based relevance testing of context features per group of hunks.

``relevance_matrix`` tests exactly the groups it is given; which clusters
to test is the caller's choice, and no label is read here.  Each group's
feature values are compared against a control group by a two-group rank
test with midranks and tie correction; a feature is relevant when its
two-sided p-value falls under the significance level.  The control group
defaults to the whole dataset excluding the group's members (disjoint
groups are required for a joint ranking), so a group holding every hunk
gets no column; a flag restores the literal whole-dataset control.

The tests are computed column-wise on the hunk x feature context matrix
that ``fixscope.context.context_matrix`` builds.  With the exclusive
control, every tested group and its control group together hold each
hunk once, so one joint ranking of the whole matrix serves every group,
as in Dunn's procedure (Dunn, "Multiple comparisons using rank sums",
Technometrics 1964): the ranks and the tie correction are computed once
per call, and a group's test needs only the sum of its members' ranks.
The inclusive control pools the members with every hunk, so each tested
group ranks its own pooled rows.  The midranks come from ``_midranks``,
a numpy kernel in this module that sorts each column once and gives every
tie group the mean of the ranks it spans; the members' quantiles come
from ``fixscope.cluster.linear_quantiles``, the kernel that also gives the
cut its quartiles.  The result is held as columns
only, one ``ClusterColumns`` per tested group; a caller that needs a
category's mark derives it from a column's ``relevant`` list and the
matrix's ``feature_categories``.  ``dunn_test`` is the one-column entry
point to the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from fixscope.cluster import linear_quantiles
from fixscope.context import categorize, context_matrix

__all__ = [
    "DunnResult",
    "ClusterColumns",
    "ContextRelevanceMatrix",
    "dunn_test",
    "relevance_matrix",
]

QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)


@dataclass(frozen=True)
class DunnResult:
    feature: str
    z: float
    p: float
    relevant: bool


class ClusterColumns(NamedTuple):
    """One tested cluster's results, one entry per feature in the order of
    ``ContextRelevanceMatrix.features``: the rank test's z, p and
    relevance, and the summary statistics of the members' values."""

    cluster_id: object
    z: list[float]
    p: list[float]
    relevant: list[bool]
    mean: list[float]
    cv: list[float]
    cv_defined: list[bool]
    quantiles: list[list[float]]  # one value per QUANTILE_LEVELS entry


@dataclass
class ContextRelevanceMatrix:
    """The context features with their categories, and one
    ``ClusterColumns`` per tested group, in the order of the groups."""

    features: list[str]
    feature_categories: list[str]
    columns: list[ClusterColumns] = field(default_factory=list)


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


def _reject_nan(values: np.ndarray, features):
    """Raise ``ValueError`` naming the first feature (column) holding a NaN:
    a NaN has no rank."""
    nan_columns = np.flatnonzero(np.isnan(values).any(axis=0))
    if nan_columns.size:
        raise ValueError(f"feature {features[nan_columns[0]]!r} has a NaN value")


def _ties(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tie term and constant-column mask of each column of a midrank matrix
    of N >= 2 rows."""
    total = ranks.shape[0]
    # Tie groups of sizes t with midranks r satisfy
    #   sum(t^3 - t) = 2 N (N + 1) (2 N + 1) - 3 sum((2 r)^2),
    # and 2 r is an integer, so the tie sum is exact in int64 (N < 1.3e6).
    doubled = (2.0 * ranks).astype(np.int64)
    tie_sum = (2 * total * (total + 1) * (2 * total + 1)
               - 3 * (doubled * doubled).sum(axis=0))
    # one tie group of all N values is the only way to reach N^3 - N
    return tie_sum.astype(np.float64) / (12.0 * (total - 1)), tie_sum == total ** 3 - total


def _rank_tests(rank_sums: np.ndarray, n1: int, total: int, tie_term: np.ndarray,
                constant: np.ndarray, alpha: float):
    """Two-group rank test with tie correction, per column.

    ``rank_sums`` holds the cluster's n1 midranks summed per column, out of
    a pooled ranking of ``total`` values whose ``_ties`` are given; the
    control group holds the other ``total - n1``.  Every midrank is a
    whole number or a half, so the sums, and the control's sums derived
    from them, are exact.  Returns lists of z, p and relevance, one per
    column.  A degenerate column (every value identical, or zero rank
    variance) gives z = 0, p = 1 and is never relevant.
    """
    n2 = total - n1
    mean1 = rank_sums / n1
    mean2 = (total * (total + 1) / 2 - rank_sums) / n2
    variance = (total * (total + 1) / 12.0 - tie_term) * (1.0 / n1 + 1.0 / n2)
    degenerate = constant | (variance <= 0.0)
    z = np.where(degenerate, 0.0,
                 (mean1 - mean2) / np.sqrt(np.where(degenerate, 1.0, variance)))
    zs, ps, relevant = z.tolist(), [], []
    for zj, flat in zip(zs, degenerate.tolist()):
        pj = 1.0 if flat else math.erfc(abs(zj) / math.sqrt(2.0))  # 2 (1 - Phi(|z|))
        ps.append(pj)
        relevant.append(not flat and pj < alpha)
    return zs, ps, relevant


def _summaries(rows: np.ndarray):
    """Mean, cv, cv_defined and quantile lists of every row of a
    C-contiguous 2-D array.

    Contiguous rows are summed pairwise, as a 1-D array is, so each row's
    statistics carry the same bits as a call on that row alone.  A zero
    mean leaves the cv undefined (NaN).
    """
    means = rows.mean(axis=1)
    stds = rows.std(axis=1, ddof=0)
    defined = means != 0.0
    cvs = np.divide(stds, means, out=np.full_like(means, np.nan), where=defined)
    quantiles = linear_quantiles(rows, QUANTILE_LEVELS)
    return means.tolist(), cvs.tolist(), defined.tolist(), quantiles.tolist()


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
    _reject_nan(pooled, [feature])
    ranks = _midranks(pooled)
    (z,), (p,), (relevant,) = _rank_tests(ranks[:group1.size].sum(axis=0), group1.size,
                                          pooled.shape[0], *_ties(ranks), alpha)
    return DunnResult(feature, z, p, relevant)


def relevance_matrix(
    groups: dict,
    context_data: dict,
    alpha: float = 0.05,
    control_mode: str = "exclusive",
    bonferroni: bool = False,
) -> ContextRelevanceMatrix:
    """Per-group, per-feature relevance against the control group.

    ``groups`` maps a group id to its member hunk ids and ``context_data``
    maps hunk id to its flattened context features.  Each group is tested,
    in order, except one left with no control hunk, which gets no column.
    An empty group, or a member without context or listed twice, raises
    ``ValueError``."""
    if control_mode not in ("exclusive", "inclusive"):
        raise ValueError(f"unknown control mode {control_mode!r}")
    exclusive = control_mode == "exclusive"
    context = context_matrix({hunk: context_data[hunk] for hunk in sorted(context_data)})
    values, features = context.values, context.feature_names
    _reject_nan(values, features)
    n_rows = len(context.hunk_ids)
    row_of = {hunk: i for i, hunk in enumerate(context.hunk_ids)}
    tested = []
    for gid, hunks in groups.items():
        unknown = [h for h in hunks if h not in row_of]
        if not hunks or unknown:
            raise ValueError(f"group {gid!r} names hunk {unknown[0]!r}, which has no context"
                             if unknown else f"group {gid!r} is empty")
        members = [row_of[h] for h in hunks]
        if len(set(members)) < len(members):
            raise ValueError(f"group {gid!r} lists a hunk more than once")
        if not exclusive or len(members) < n_rows:  # else no control hunk is left
            tested.append((gid, members))
    result = ContextRelevanceMatrix(features=features,
                                    feature_categories=[categorize(f) for f in features])
    effective_alpha = alpha / len(features) if (bonferroni and features) else alpha
    if exclusive and tested:
        # members and control partition the rows: one ranking serves all
        ranks = _midranks(values)
        ties = _ties(ranks)
    for gid, members in tested:
        n1 = len(members)
        if exclusive:
            total, rank_sums = n_rows, ranks[members].sum(axis=0)
        else:
            ranks = _midranks(values[members + list(range(n_rows))])
            total, rank_sums, ties = n1 + n_rows, ranks[:n1].sum(axis=0), _ties(ranks)
        zs, ps, relevant = _rank_tests(rank_sums, n1, total, *ties, effective_alpha)
        result.columns.append(ClusterColumns(
            gid, zs, ps, relevant, *_summaries(np.ascontiguousarray(values[members].T))))
    return result
