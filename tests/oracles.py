"""Independent brute-force oracles used by unit and acceptance tests.

Everything here is deliberately naive and kept free of the package's own
numerics: O(n^3) agglomeration, direct-sum Pearson correlation, a
single linkage and cophenetic walk that recompute every distance from
the feature rows in O(n*d) memory, an explicitly coded midrank
computation, a re-derivation of the
histogram bin rule, a relevance matrix that ranks one (cluster, feature)
pair at a time, a git source that asks git once per commit and once
per blob side, and a character loop that splits a message into words.
"""

from __future__ import annotations

import math
import subprocess
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from fixscope.cluster import Dendrogram, Merge


def euclidean(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def bruteforce_pairwise(points) -> list[list[float]]:
    n = len(points)
    full = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            full[i][j] = euclidean(points[i], points[j])
    return full


def bruteforce_single_linkage(points) -> list[tuple[float, frozenset, frozenset]]:
    """Naive nearest-pair agglomeration; returns (height, left, right) merges."""
    full = bruteforce_pairwise(points)
    clusters: list[frozenset] = [frozenset([i]) for i in range(len(points))]
    merges = []
    while len(clusters) > 1:
        best = None
        for x in range(len(clusters)):
            for y in range(x + 1, len(clusters)):
                d = min(full[a][b] for a in clusters[x] for b in clusters[y])
                key = (d, min(clusters[x]), min(clusters[y]))
                if best is None or key < best[0]:
                    best = (key, x, y)
        (d, _, _), x, y = best
        merges.append((d, clusters[x], clusters[y]))
        merged = clusters[x] | clusters[y]
        clusters = [c for k, c in enumerate(clusters) if k not in (x, y)]
        clusters.append(merged)
    return merges


def bruteforce_cophenetic_matrix(points) -> list[list[float]]:
    """Height at which each pair first shares a cluster."""
    n = len(points)
    coph = [[0.0] * n for _ in range(n)]
    for height, left, right in bruteforce_single_linkage(points):
        for a in left:
            for b in right:
                coph[a][b] = coph[b][a] = height
    return coph


def pearson(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return float("nan")
    return sxy / math.sqrt(sxx * syy)


def bruteforce_cophenetic_coefficient(points) -> float:
    full = bruteforce_pairwise(points)
    coph = bruteforce_cophenetic_matrix(points)
    n = len(points)
    orig_flat, coph_flat = [], []
    for i in range(n):
        for j in range(i + 1, n):
            orig_flat.append(full[i][j])
            coph_flat.append(coph[i][j])
    return pearson(orig_flat, coph_flat)


def reference_row_distances(rows: np.ndarray, i: int, targets: np.ndarray) -> np.ndarray:
    """Euclidean distances from row ``i`` to the rows ``targets``, computed
    on demand with the package's kernel arithmetic."""
    diff = rows[targets]  # a fresh copy, so subtract in place
    diff -= rows[i]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def reference_single_linkage_rows(rows) -> Dendrogram:
    """Prim's scan over feature rows, computing each distance when it is
    needed, then the union-find replay of the sorted MST edges (weight,
    smaller index, larger index); ties go to the smallest index."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    outside = np.arange(1, n)
    best = np.full(outside.size, np.inf)
    best_from = np.zeros(outside.size, dtype=np.int64)
    current = 0
    edges = []
    while outside.size:
        dists = reference_row_distances(rows, current, outside)
        better = dists < best
        best[better] = dists[better]
        best_from[better] = current
        k = int(np.argmin(best))
        i, current = int(best_from[k]), int(outside[k])
        edges.append((float(best[k]), min(i, current), max(i, current)))
        outside, best, best_from = (np.delete(a, k) for a in (outside, best, best_from))

    root = list(range(n))
    cluster_id = list(range(n))
    sizes = [1] * n
    merges = []
    for k, (weight, i, j) in enumerate(sorted(edges)):
        while root[i] != i:
            i = root[i]
        while root[j] != j:
            j = root[j]
        left, right = sorted((cluster_id[i], cluster_id[j]))
        sizes.append(sizes[left] + sizes[right])
        merges.append(Merge(left=left, right=right, height=weight, size=sizes[-1]))
        root[j] = i
        cluster_id[i] = n + k
    return Dendrogram(n_leaves=n, merges=tuple(merges))


def reference_cophenetic_rows(dendrogram: Dendrogram, rows) -> float:
    """The cophenetic walk with distances recomputed from the rows: one
    chunk per member of a merge's smaller side, combined pairwise (Chan,
    Golub & LeVeque); NaN when either second moment is not positive."""
    rows = np.asarray(rows, dtype=np.float64)
    n = dendrogram.n_leaves
    members = {i: [i] for i in range(n)}
    count = 0
    mean_x = mean_y = m2_x = m2_y = co = 0.0
    for k, merge in enumerate(dendrogram.merges):
        small, large = sorted((members.pop(merge.left), members.pop(merge.right)), key=len)
        targets = np.asarray(large)
        for a in small:
            dists = reference_row_distances(rows, a, targets)
            chunk_mean = float(dists.mean())
            dev = dists - chunk_mean
            total = count + dists.size
            dx, dy = chunk_mean - mean_x, merge.height - mean_y
            weight = count * dists.size / total
            m2_x += float(dev @ dev) + dx * dx * weight
            m2_y += dy * dy * weight
            co += dx * dy * weight
            frac = dists.size / total
            mean_x += dx * frac
            mean_y += dy * frac
            count = total
        large.extend(small)
        members[n + k] = large
    if m2_x <= 0.0 or m2_y <= 0.0:
        return float("nan")
    return co / math.sqrt(m2_x * m2_y)


def bruteforce_inconsistency(n_leaves, merges, depth=2) -> list[float]:
    """Independently coded window statistic over an existing merge list.

    ``merges`` is a sequence of (left, right, height) node-id triples with
    merge k producing node id ``n_leaves + k``.
    """
    coefs = []
    for k, (_, _, height) in enumerate(merges):
        window = []

        def collect(link, levels):
            window.append(merges[link][2])
            if levels > 1:
                for child in merges[link][:2]:
                    if child >= n_leaves:
                        collect(child - n_leaves, levels - 1)

        collect(k, depth)
        if len(window) < 2:
            coefs.append(0.0)
            continue
        mean = sum(window) / len(window)
        var = sum((h - mean) ** 2 for h in window) / (len(window) - 1)
        if var == 0:
            coefs.append(0.0)
        else:
            coefs.append((height - mean) / math.sqrt(var))
    return coefs


def bruteforce_cutoff(values) -> float:
    """Same bin rule, written independently: FD width with Scott fallback,
    cutoff at the left edge of the bin holding the maximum."""
    vals = sorted(values)
    n = len(vals)
    vmin, vmax = vals[0], vals[-1]
    if vmin == vmax:
        return vmax

    def quantile(q):
        pos = q * (n - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)

    width = 2.0 * (quantile(0.75) - quantile(0.25)) / n ** (1 / 3)
    if width <= 0:
        mean = sum(vals) / n
        sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1))
        width = 3.49 * sd / n ** (1 / 3)
    if width <= 0:
        return vmax
    nbins = max(1, math.ceil((vmax - vmin) / width))
    idx = min(int((vmax - vmin) / width), nbins - 1)
    return vmin + idx * width


def bruteforce_midranks(values) -> list[float]:
    """Average ranks computed by explicit tie-group scanning."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and values[order[end + 1]] == values[order[pos]]:
            end += 1
        avg = (pos + end) / 2 + 1
        for k in range(pos, end + 1):
            ranks[order[k]] = avg
        pos = end + 1
    return ranks


def bruteforce_dunn(cluster, control):
    """Rank-sum z statistic with tie correction, written from the formula."""
    pooled = list(cluster) + list(control)
    n1, n2 = len(cluster), len(control)
    total = n1 + n2
    if all(v == pooled[0] for v in pooled):
        return 0.0, 1.0
    ranks = bruteforce_midranks(pooled)
    r1 = sum(ranks[:n1]) / n1
    r2 = sum(ranks[n1:]) / n2
    tie_counts = {}
    for v in pooled:
        tie_counts[v] = tie_counts.get(v, 0) + 1
    tie_term = sum(t ** 3 - t for t in tie_counts.values()) / (12.0 * (total - 1))
    variance = (total * (total + 1) / 12.0 - tie_term) * (1.0 / n1 + 1.0 / n2)
    if variance <= 0:
        return 0.0, 1.0
    z = (r1 - r2) / math.sqrt(variance)
    phi = 0.5 * (1.0 + math.erf(abs(z) / math.sqrt(2.0)))
    return z, 2.0 * (1.0 - phi)



def per_feature_dunn(cluster_values, control_values, alpha):
    """(z, p, relevant) of one rank test, ranking and counting ties for this
    pair alone."""
    group1 = np.asarray(cluster_values, dtype=np.float64)
    group2 = np.asarray(control_values, dtype=np.float64)
    pooled = np.concatenate([group1, group2])
    total = pooled.size
    if np.all(pooled == pooled[0]):
        return 0.0, 1.0, False
    ranks = rankdata(pooled, method="average")
    mean1 = float(ranks[:group1.size].mean())
    mean2 = float(ranks[group1.size:].mean())
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts)) / (
        12.0 * (total - 1))
    variance = (total * (total + 1) / 12.0 - tie_term) * (
        1.0 / group1.size + 1.0 / group2.size)
    if variance <= 0.0:
        return 0.0, 1.0, False
    z = (mean1 - mean2) / math.sqrt(variance)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return z, p, p < alpha


def per_feature_summary(values):
    """(mean, cv, cv_defined, quantiles) of one feature's cluster values."""
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=0))
    cv, cv_defined = (float("nan"), False) if mean == 0.0 else (std / mean, True)
    quantiles = {q: float(np.quantile(arr, q))
                 for q in (0.05, 0.25, 0.50, 0.75, 0.95)}
    return mean, cv, cv_defined, quantiles


def per_feature_relevance(clusters, triage, context_data, alpha=0.05,
                          control_mode="exclusive", bonferroni=False):
    """Reference relevance matrix: one rank test per (cluster, feature) pair,
    values gathered from the hunk dicts.  Returns the tested cluster ids,
    one (cluster_id, feature, category, z, p, relevant, summary) tuple per
    record, and the relevant (category, cluster_id) cells."""
    from fixscope.context import categorize

    bugfix_ids = [cid for cid in sorted(clusters, key=str)
                  if triage.get(cid) == "BUG-FIX"]
    all_hunks = sorted(context_data)
    feature_names = sorted({name for values in context_data.values()
                            for name in values})
    effective_alpha = alpha / len(feature_names) if (bonferroni and feature_names) else alpha
    records, cells = [], {}
    for cid in bugfix_ids:
        members = [h for h in clusters[cid] if h in context_data]
        if not members:
            continue
        member_set = set(members)
        if control_mode == "exclusive":
            control_hunks = [h for h in all_hunks if h not in member_set]
        else:
            control_hunks = all_hunks
        if not control_hunks:
            continue
        for feature in feature_names:
            cluster_vals = [context_data[h].get(feature, 0.0) for h in members]
            control_vals = [context_data[h].get(feature, 0.0) for h in control_hunks]
            z, p, relevant = per_feature_dunn(cluster_vals, control_vals,
                                              effective_alpha)
            category = categorize(feature)
            records.append((cid, feature, category, z, p, relevant,
                            per_feature_summary(cluster_vals)))
            if relevant:
                cells[(category, cid)] = True
    return bugfix_ids, records, cells

def reference_word_tokens(text: str) -> set[str]:
    """Maximal runs of characters that are ``str.isalnum()`` or ``_``:
    the words ``keyword_filter(word_bounded=True)`` matches against."""
    tokens = set()
    word = []
    for ch in text + " ":
        if ch.isalnum() or ch == "_":
            word.append(ch)
        elif word:
            tokens.add("".join(word))
            word = []
    return tokens


class PerCommitGitSource:
    """Reference git source: ``git log`` for the commits, one ``git
    diff-tree`` per commit for its files and one ``git show`` per blob
    side.  Slow but direct; ``fixscope.ingest.GitSource`` must return the
    same records and file pairs."""

    def __init__(self, repo_path):
        self.repo = Path(repo_path)

    def _git(self, *args) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(self.repo), *args],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def fetch_merged_changes(self, projects=(), branches=(), after=None,
                             before=None, merges_only=False):
        from fixscope.ingest import ChangeRecord

        if self._git("rev-parse", "--verify", "HEAD").returncode != 0:
            return []
        args = ["log", "-z", "--pretty=format:%H%x1f%P%x1f%aI%x1f%B"]
        if merges_only:
            args.append("--merges")
        if after:
            args.append(f"--since={after}")
        if before:
            args.append(f"--until={before}")
        args.extend(branches)
        raw = self._git(*args)
        assert raw.returncode == 0, raw.stderr
        records = []
        for entry in raw.stdout.decode("utf-8", errors="replace").split("\x00"):
            if not entry:
                continue
            commit, parents, date, message = entry.split("\x1f", 3)
            if not merges_only and len(parents.split()) > 1:
                continue
            # "--": a worktree file may be named after the commit's hash
            names = self._git("diff-tree", "-r", "--root", "--no-commit-id",
                              "--name-only", "-z", commit, "--")
            assert names.returncode == 0, names.stderr
            files = {n for n in names.stdout.decode("utf-8", "replace").split("\x00")
                     if n}
            records.append(ChangeRecord(
                change_id=commit, project=self.repo.name, branch="",
                revision=commit, message=message, files=tuple(sorted(files)),
                created=date))
        records.reverse()
        return records

    def _show(self, ref: str) -> bytes:
        proc = self._git("show", ref)
        return proc.stdout if proc.returncode == 0 else b""

    def fetch_file_pair(self, record, path):
        from fixscope.ingest import FilePair, MissingBlobError

        before = self._show(f"{record.revision}^:{path}")
        after = self._show(f"{record.revision}:{path}")
        if not before and not after:
            raise MissingBlobError(f"{record.change_id}:{path}")
        return FilePair(path=path,
                        before_text=before.decode("utf-8", errors="replace"),
                        after_text=after.decode("utf-8", errors="replace"),
                        change_id=record.change_id)
