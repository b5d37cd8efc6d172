"""Single-linkage clustering with cophenetic validation and an
inconsistency-based automatic cutoff.

Single linkage is computed from the minimum spanning tree of the point
set (Gower & Ross, 1969): sorting MST edges by (weight, smaller index,
larger index) and replaying them through a union-find gives the merge
history with a fully documented tie-break, and cut memberships that are
invariant to input row permutations.  Prim's scan and the cophenetic walk
both read one table of distances between the distinct feature rows
(``pairwise_distances``), so each distinct pair is computed once per
stage.  The table takes 8*u*u bytes for u distinct rows: 0.6 MB at
u=277, 72 MB at u=3000.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field

import numpy as np
# np.percentile imports numpy.ma on its first call: load it with numpy instead
import numpy.ma  # noqa: F401

__all__ = [
    "DistanceTable",
    "Dendrogram",
    "Merge",
    "ClusterAssignment",
    "TriageLabel",
    "AllZeroError",
    "UnknownClusterError",
    "pairwise_distances",
    "single_linkage",
    "single_linkage_rows",
    "cophenetic_coefficient",
    "cophenetic_coefficient_rows",
    "inconsistency_coefficients",
    "select_cutoff",
    "cut_clusters",
    "sample_cluster",
]


class AllZeroError(ValueError):
    """Every inconsistency coefficient is zero; no cutoff exists."""


class UnknownClusterError(ValueError):
    """Requested cluster id is not in the assignment."""


class TriageLabel(enum.Enum):
    BUG_FIX = "BUG-FIX"
    FIX_INDUCED = "FIX-INDUCED"
    REFACTORING = "REFACTORING"
    UNREVIEWED = "UNREVIEWED"


@dataclass(frozen=True)
class DistanceTable:
    """Pairwise Euclidean distances, stored once per distinct row.

    ``table`` is the symmetric u*u matrix over the u distinct rows, and
    ``row_of[i]`` is row i's index into it, so the distance between rows
    i and j is ``table[row_of[i], row_of[j]]``.  Memory is 8*u*u bytes.
    """

    table: np.ndarray
    row_of: np.ndarray

    @property
    def n(self) -> int:
        return self.row_of.size


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """Merge history; leaf ids are row indices, merge k creates id n+k."""

    n_leaves: int
    merges: tuple[Merge, ...]

    def link_children(self, k: int) -> tuple[int, int]:
        merge = self.merges[k]
        return merge.left, merge.right

    def leaves(self, node_id: int) -> list[int]:
        """Leaf ids under a node, in no particular order."""
        out: list[int] = []
        stack = [node_id]
        while stack:
            node = stack.pop()
            if node < self.n_leaves:
                out.append(node)
            else:
                stack.extend(self.link_children(node - self.n_leaves))
        return out


@dataclass
class ClusterAssignment:
    """Retained clusters plus the per-item assignment (None = unclustered)."""

    clusters: dict[int, tuple] = field(default_factory=dict)
    assignment: dict = field(default_factory=dict)


def _euclidean(diff: np.ndarray) -> np.ndarray:
    """The distance kernel: Euclidean norms of the rows of a difference
    block.  Every distance the module uses comes from here."""
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def pairwise_distances(matrix) -> DistanceTable:
    """Euclidean distances between the distinct rows of the matrix.

    Rows are deduplicated by their exact bytes in first-occurrence order,
    and the kernel runs once on each pair of distinct rows (rows j > i,
    ``rows[j] - rows[i]``).  Recurring fixes share a feature vector, so
    the table is usually much smaller than the n*n pair count.
    """
    rows = np.ascontiguousarray(getattr(matrix, "values", matrix), dtype=np.float64)
    n = rows.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    slot: dict[bytes, int] = {}
    row_of = np.array([slot.setdefault(row.tobytes(), len(slot)) for row in rows],
                      dtype=np.intp)
    u = len(slot)
    # the keys are the distinct rows' bytes, in slot order
    distinct = np.frombuffer(b"".join(slot), dtype=np.float64).reshape(u, rows.shape[1])
    table = np.zeros((u, u))
    for i in range(u - 1):
        table[i, i + 1:] = table[i + 1:, i] = _euclidean(distinct[i + 1:] - distinct[i])
    return DistanceTable(table=table, row_of=row_of)


def _prim_mst(distances: DistanceTable) -> list[tuple[float, int, int]]:
    """MST edges via Prim's scan; deterministic under equal weights.

    Each step reads the table row of the vertex just added and relaxes
    the vertices still outside the tree; ties go to the smallest index.
    """
    table, row_of, n = distances.table, distances.row_of, distances.n
    key = np.full(n, np.inf)  # distance to the tree; inf once in it, never updated
    key_from = np.zeros(n, dtype=np.int64)
    outside = np.ones(n, dtype=bool)
    current = 0
    edges: list[tuple[float, int, int]] = []
    for _ in range(n - 1):
        outside[current] = False
        dists = table[row_of[current], row_of]
        better = (dists < key) & outside
        np.copyto(key, dists, where=better)
        key_from[better] = current
        k = int(np.argmin(key))  # the first minimum: ties go to the smallest index
        if not outside[k]:  # every key left is inf (distances overflowed)
            k = int(np.argmax(outside))
        i, current = int(key_from[k]), k
        edges.append((float(key[k]), min(i, k), max(i, k)))
        key[k] = np.inf
    return edges


def _dendrogram_from_mst(n: int, edges: list[tuple[float, int, int]]) -> Dendrogram:
    edges = sorted(edges)  # (weight, smaller index, larger index)
    cluster_id = list(range(n))
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    sizes = {i: 1 for i in range(n)}
    merges: list[Merge] = []
    for k, (weight, i, j) in enumerate(edges):
        ri, rj = find(i), find(j)
        left, right = sorted((cluster_id[ri], cluster_id[rj]))
        size = sizes[cluster_id[ri]] + sizes[cluster_id[rj]]
        merges.append(Merge(left=left, right=right, height=weight, size=size))
        parent[rj] = ri
        cluster_id[ri] = n + k
        sizes[n + k] = size
    return Dendrogram(n_leaves=n, merges=tuple(merges))


def single_linkage(distances: DistanceTable) -> Dendrogram:
    """Merge history under single linkage with documented tie-breaking."""
    return _dendrogram_from_mst(distances.n, _prim_mst(distances))


def single_linkage_rows(rows: np.ndarray) -> Dendrogram:
    """``single_linkage(pairwise_distances(rows))``."""
    return single_linkage(pairwise_distances(rows))


def cophenetic_coefficient(dendrogram: Dendrogram, distances: DistanceTable) -> float:
    """Pearson correlation between original and cophenetic distances.

    Each pair is visited once, under the merge that first joins it, by
    looping over the smaller side of the merge.  The distances from one
    member of the smaller side to the larger side form one chunk; chunk
    counts, means, second moments (M2) and co-moments are combined
    pairwise (Chan, Golub & LeVeque), which stays accurate where raw
    power sums cancel.  Returns NaN when either M2 is not positive
    (constant distances or heights, fewer than two pairs), which callers
    report as a degenerate-input flag.
    """
    table, row_of = distances.table, distances.row_of
    n, merges = dendrogram.n_leaves, dendrogram.merges
    sizes = [1] * n
    for merge in merges:
        sizes.append(sizes[merge.left] + sizes[merge.right])
    # One leaf order in which every node's leaves form a contiguous slice:
    # the larger side's leaves first, then the smaller side's (on equal
    # sizes the left side counts as the smaller).  Parents have higher ids
    # than their children, so one descending pass places every node.
    start = [-1] * len(sizes)
    large_size = [0] * len(merges)
    free = 0
    for node in range(len(sizes) - 1, -1, -1):
        if start[node] < 0:  # a root
            start[node], free = free, free + sizes[node]
        if node >= n:
            merge = merges[node - n]
            small, large = merge.left, merge.right
            if sizes[small] > sizes[large]:
                small, large = large, small
            start[large], start[small] = start[node], start[node] + sizes[large]
            large_size[node - n] = sizes[large]
    leaf_rows = np.empty(n, dtype=row_of.dtype)
    leaf_rows[start[:n]] = row_of
    count = 0
    mean_x = mean_y = m2_x = m2_y = co = 0.0
    for k, merge in enumerate(merges):
        lo = start[n + k]
        mid, hi = lo + large_size[k], lo + sizes[n + k]
        targets = leaf_rows[lo:mid]
        for a in leaf_rows[mid:hi].tolist():
            dists = table[a, targets]
            chunk_mean = float(dists.sum()) / dists.size  # the bits of dists.mean()
            dev = dists - chunk_mean
            total = count + dists.size
            dx, dy = chunk_mean - mean_x, merge.height - mean_y
            weight = count * dists.size / total
            m2_x += float(dev @ dev) + dx * dx * weight
            m2_y += dy * dy * weight
            co += dx * dy * weight
            frac = dists.size / total  # 1.0 on the first chunk: exact means
            mean_x += dx * frac
            mean_y += dy * frac
            count = total
    if m2_x <= 0.0 or m2_y <= 0.0:
        return float("nan")
    return co / math.sqrt(m2_x * m2_y)


def cophenetic_coefficient_rows(dendrogram: Dendrogram, rows: np.ndarray) -> float:
    """``cophenetic_coefficient(dendrogram, pairwise_distances(rows))``."""
    return cophenetic_coefficient(dendrogram, pairwise_distances(rows))


def inconsistency_coefficients(dendrogram: Dendrogram, depth: int = 2) -> np.ndarray:
    """Per-link standardized height relative to the links up to ``depth``
    levels below (sample standard deviation; zero spread gives zero)."""
    n = dendrogram.n_leaves
    heights = [m.height for m in dendrogram.merges]
    coefs = np.zeros(len(dendrogram.merges))
    for k in range(len(dendrogram.merges)):
        stack = [(k, depth)]
        window: list[float] = []
        while stack:
            link, levels = stack.pop()
            window.append(heights[link])
            if levels > 1:
                for child in dendrogram.link_children(link):
                    if child >= n:
                        stack.append((child - n, levels - 1))
        if len(window) < 2:
            continue
        mean = sum(window) / len(window)
        var = sum((h - mean) ** 2 for h in window) / (len(window) - 1)
        std = math.sqrt(var)
        if std > 0:
            coefs[k] = (heights[k] - mean) / std
    return coefs


def select_cutoff(coefficients: np.ndarray) -> float:
    """Left edge of the highest-valued nonempty histogram bin.

    Bin width follows the Freedman-Diaconis rule, falling back to Scott's
    rule when the interquartile range is zero.
    """
    vals = np.asarray(coefficients, dtype=np.float64)
    if vals.size == 0 or np.all(vals == 0.0):
        raise AllZeroError("all inconsistency coefficients are zero")
    vmin, vmax = float(vals.min()), float(vals.max())
    if vmin == vmax:
        return vmax
    n = vals.size
    iqr = float(np.percentile(vals, 75) - np.percentile(vals, 25))
    width = 2.0 * iqr / n ** (1.0 / 3.0)
    if width <= 0.0:
        width = 3.49 * float(np.std(vals, ddof=1)) / n ** (1.0 / 3.0)
    if width <= 0.0:
        return vmax
    nbins = max(1, math.ceil((vmax - vmin) / width))
    idx = min(int((vmax - vmin) / width), nbins - 1)
    return vmin + idx * width


def cut_clusters(
    dendrogram: Dendrogram,
    coefficients: np.ndarray,
    cutoff: float,
    min_size: int,
    labels: list | None = None,
) -> ClusterAssignment:
    """Maximal subtrees whose links all fall below the cutoff.

    Subtrees smaller than ``min_size`` are left unclustered.  Cluster ids
    are the dendrogram node ids of the subtree roots.
    """
    n = dendrogram.n_leaves
    labels = labels if labels is not None else list(range(n))
    subtree_max = list(coefficients)
    for k in range(len(dendrogram.merges)):
        for child in dendrogram.link_children(k):
            if child >= n:
                subtree_max[k] = max(subtree_max[k], subtree_max[child - n])

    roots: list[int] = []
    stack = [n + len(dendrogram.merges) - 1] if n else []
    while stack:
        node_id = stack.pop()
        if node_id < n or subtree_max[node_id - n] < cutoff:
            size = dendrogram.merges[node_id - n].size if node_id >= n else 1
            if size >= min_size:
                roots.append(node_id)
        else:
            stack.extend(dendrogram.link_children(node_id - n))

    result = ClusterAssignment()
    result.assignment = {labels[i]: None for i in range(n)}
    for cluster_id in sorted(roots):
        tagged = tuple(labels[i] for i in sorted(dendrogram.leaves(cluster_id)))
        result.clusters[cluster_id] = tagged
        for item in tagged:
            result.assignment[item] = cluster_id
    return result


def sample_cluster(clusters: dict, cluster_id: int, n: int = 5, seed: int = 0) -> list:
    """Uniform sample without replacement of a cluster's members, as
    ``clusters`` (cluster id -> member ids) lists them; deterministic under
    the seed."""
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    try:
        members = clusters[cluster_id]
    except KeyError:
        raise UnknownClusterError(
            f"cluster {cluster_id} is not in cluster_assignment.csv") from None
    ordered = sorted(members)
    if len(ordered) <= n:
        return ordered
    return random.Random(seed).sample(ordered, n)

