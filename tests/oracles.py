"""Independent brute-force oracles used by unit and acceptance tests.

Everything here is deliberately naive and kept free of the package's own
numerics: O(n^3) agglomeration, direct-sum Pearson correlation, a
single linkage and cophenetic walk that recompute every distance from
the feature rows in O(n*d) memory, a Prim scan that picks among the
vertices outside the tree by index lists, an explicitly coded midrank
computation and scipy's ranking of whole columns, a re-derivation of the
histogram bin rule, a relevance matrix that ranks one (cluster, feature)
pair at a time, a git source that asks git once per commit and once
per blob side, a character loop that splits a message into words, a
line map and join regions that scan every edit block instead of
bisecting, a Myers line diff that traces a copy of its whole frontier
dictionary per step, and the recursive forms of every tree walk
(normalizer, diff join, labeled-root walk, diff-node serialization).
"""

from __future__ import annotations

import ast as _ast
import json
import math
import subprocess
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from fixscope import diffing as _diffing
from fixscope import grammar as _grammar
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


def reference_prim_mst(distances) -> list[tuple[float, int, int]]:
    """Prim's scan over a ``DistanceTable``, choosing each step among the
    vertices still outside the tree by ``flatnonzero`` and fancy indexing;
    ties go to the smallest index."""
    table, row_of, n = distances.table, distances.row_of, distances.n
    best = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=np.int64)
    outside = np.ones(n, dtype=bool)
    current = 0
    edges = []
    for _ in range(n - 1):
        outside[current] = False
        dists = table[row_of[current], row_of]
        better = dists < best
        best[better] = dists[better]
        best_from[better] = current
        candidates = np.flatnonzero(outside)
        k = int(candidates[np.argmin(best[candidates])])
        i, current = int(best_from[k]), k
        edges.append((float(best[k]), min(i, k), max(i, k)))
    return edges


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


def reference_select_cutoff(coefficients) -> float:
    """``select_cutoff`` with numpy's quartiles: one ``np.percentile`` call
    per quartile, as the cut computed them before it had its own kernel."""
    vals = np.asarray(coefficients, dtype=np.float64)
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


def reference_midranks(matrix) -> np.ndarray:
    """Average ranks of each column, with NaN propagated to its column, as
    scipy ranks them."""
    return rankdata(matrix, method="average", axis=0)


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


def per_feature_relevance(groups, context_data, alpha=0.05,
                          control_mode="exclusive", bonferroni=False):
    """Reference relevance matrix: one rank test per (group, feature) pair,
    values gathered from the hunk dicts.  Every member must be in
    ``context_data``.  Returns the tested group ids (each group with a
    nonempty control group, in ``groups`` order), one (group_id, feature,
    category, z, p, relevant, summary) tuple per record, and the relevant
    (category, group_id) cells."""
    from fixscope.context import categorize

    all_hunks = sorted(context_data)
    feature_names = sorted({name for values in context_data.values()
                            for name in values})
    effective_alpha = alpha / len(feature_names) if (bonferroni and feature_names) else alpha
    tested, records, cells = [], [], {}
    for gid, members in groups.items():
        member_set = set(members)
        if control_mode == "exclusive":
            control_hunks = [h for h in all_hunks if h not in member_set]
        else:
            control_hunks = all_hunks
        if not control_hunks:
            continue
        tested.append(gid)
        for feature in feature_names:
            cluster_vals = [context_data[h].get(feature, 0.0) for h in members]
            control_vals = [context_data[h].get(feature, 0.0) for h in control_hunks]
            z, p, relevant = per_feature_dunn(cluster_vals, control_vals,
                                              effective_alpha)
            category = categorize(feature)
            records.append((gid, feature, category, z, p, relevant,
                            per_feature_summary(cluster_vals)))
            if relevant:
                cells[(category, gid)] = True
    return tested, records, cells

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
                             before=None):
        from fixscope.ingest import ChangeRecord

        if self._git("rev-parse", "--verify", "HEAD").returncode != 0:
            return []
        args = ["log", "-z", "--pretty=format:%H%x1f%P%x1f%aI%x1f%B"]
        if after:
            args.append(f"--since={after}")
        if before:
            args.append(f"--until={before}")
        args += ["--end-of-options", *branches, "--"]
        raw = self._git(*args)
        assert raw.returncode == 0, raw.stderr
        records = []
        for entry in raw.stdout.decode("utf-8", errors="replace").split("\x00"):
            if not entry:
                continue
            commit, parents, date, message = entry.split("\x1f", 3)
            if len(parents.split()) > 1:
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


# --- recursive references for the tree walks ---------------------------------
#
# The package walks every tree with an explicit stack.  These are the plain
# recursive forms, one Python frame per tree level, kept as the reference
# the loops must reproduce exactly: the same trees, the same conflict
# messages in the same order, the same serialized documents.


def _position(node):
    """A host node's plain position, decorators aside; None for a
    positionless node.  With the union over every child in ``_make``
    below, this is the span rule that ``grammar._own_span`` replaced."""
    lineno = getattr(node, "lineno", None)
    if lineno is None:
        return None
    return _grammar.SourceSpan(lineno, node.col_offset, node.end_lineno, node.end_col_offset)


def _union(a, b):
    return _grammar.SourceSpan(*min(a[:2], b[:2]), *max(a[2:], b[2:]))


class RecursiveNormalizer(_grammar._Normalizer):
    """The normalizer with each handler calling ``convert`` directly.  The
    production handlers it inherits read ``grammar._own_span`` only for
    nodes that never have decorators."""

    def module(self, node):
        return self._make("Module", None, None, "", self._slot("Module", "body", node.body))

    def _make(self, kind, role, span, text, children):
        # the span grown by one union per child, the children always sorted
        for child in children:
            span = child.span if span is None else _union(span, child.span)
        if span is None:
            span = _grammar._point(1, 0)
        ordered = sorted(children, key=lambda c: (c.span.start_line, c.span.start_col,
                                                  c.span.end_line, c.span.end_col))
        return _grammar.AstNode(kind, role, span, text, tuple(ordered))

    def convert(self, node, role):
        name = type(node).__name__
        if name in _grammar._UNSUPPORTED:
            err = _grammar.UnsupportedConstructError(
                f"{name} has no counterpart in the py27 dialect")
            err.lineno = getattr(node, "lineno", None)
            raise err
        handler = getattr(self, "_h_" + name, None)
        if handler is not None:
            return handler(node, role)
        rule = _grammar._GENERIC.get(name)
        if rule is None:
            raise _grammar.UnsupportedConstructError(f"unhandled host node {name}")
        return self._generic(node, role, rule)

    def _slot(self, parent_kind, slot, value):
        role = self.taxonomy.role_for(parent_kind, slot)
        items = value if isinstance(value, list) else [value]
        return [self.convert(item, role) for item in items if item is not None]

    def _generic(self, node, role, rule):
        # reads each slot from the host field of its name: every host class
        # whose fields are named otherwise has its own handler below
        kind, _fields, text_of = rule
        children = []
        for slot in self.taxonomy.slots.get(kind, ()):
            children += self._slot(kind, slot, getattr(node, slot))
        text = (text_of(node) or "") if text_of else ""
        span = None if kind in _grammar._CHILD_SPANNED else _position(node)
        return self._make(kind, role, span, text, children)

    def _anchored(self, node, anchor):
        # a bare `arguments` sits at its owner's start
        if node.children:
            return node
        return _grammar.AstNode(node.kind, node.role,
                                _grammar._point(anchor.start_line, anchor.start_col), node.text)

    def _h_FunctionDef(self, node, role):
        own = _position(node)
        args = self.convert(node.args, _grammar.node_role("FunctionDef", "args"))
        children = [self._anchored(args, own)]
        children += self._slot("FunctionDef", "body", node.body)
        children += self._slot("FunctionDef", "decorator_list", node.decorator_list)
        return self._make("FunctionDef", role, own, node.name, children)

    _h_AsyncFunctionDef = _h_FunctionDef

    def _h_ClassDef(self, node, role):
        children = self._slot("ClassDef", "bases", node.bases)
        children += self._slot("ClassDef", "bases", node.keywords)
        children += self._slot("ClassDef", "body", node.body)
        children += self._slot("ClassDef", "decorator_list", node.decorator_list)
        return self._make("ClassDef", role, _position(node), node.name, children)

    def _h_AnnAssign(self, node, role):
        children = self._slot("Assign", "targets", node.target)
        children += self._slot("Assign", "value", node.value)
        return self._make("Assign", role, _position(node), "", children)

    _h_NamedExpr = _h_AnnAssign

    def _h_AugAssign(self, node, role):
        target = self.convert(node.target, _grammar.node_role("AugAssign", "target"))
        value = self.convert(node.value, _grammar.node_role("AugAssign", "value"))
        op = self._op(node.op, _grammar.node_role("AugAssign", "op"),
                      self._between(target, value))
        return self._make("AugAssign", role, _position(node), "", [target, op, value])

    def _h_With(self, node, role):
        return self._with_chain(node, node.items, role, _position(node))

    _h_AsyncWith = _h_With

    def _with_chain(self, node, items, role, span):
        first = items[0]
        children = self._slot("With", "context_expr", first.context_expr)
        children += self._slot("With", "optional_vars", first.optional_vars)
        if len(items) > 1:
            children.append(self._with_chain(node, items[1:],
                                             _grammar.node_role("With", "body"), span))
        else:
            children += self._slot("With", "body", node.body)
        return self._make("With", role, span, "", children)

    def _h_Raise(self, node, role):
        children = self._slot("Raise", "type", node.exc)
        children += self._slot("Raise", "inst", node.cause)
        return self._make("Raise", role, _position(node), "", children)

    def _h_Try(self, node, role):
        span = _position(node)
        if node.handlers:
            children = self._slot("TryExcept", "body", node.body)
            children += self._slot("TryExcept", "handlers", node.handlers)
            children += self._slot("TryExcept", "orelse", node.orelse)
            inner = self._make("TryExcept", role, span, "", children)
            if not node.finalbody:
                return inner
            inner_as_body = _grammar.AstNode(
                kind=inner.kind, role=_grammar.node_role("TryFinally", "body"),
                span=inner.span, text=inner.text, children=inner.children)
            final = self._slot("TryFinally", "finalbody", node.finalbody)
            return self._make("TryFinally", role, span, "", [inner_as_body] + final)
        children = self._slot("TryFinally", "body", node.body)
        children += self._slot("TryFinally", "finalbody", node.finalbody)
        return self._make("TryFinally", role, span, "", children)

    def _h_ExceptHandler(self, node, role):
        span = _position(node)
        children = self._slot("ExceptHandler", "type", node.type)
        if node.name:
            anchor = children[0].span if children else span
            children.append(_grammar.AstNode(
                "Name", _grammar.node_role("ExceptHandler", "name"),
                _grammar._point(anchor.end_line, anchor.end_col), node.name))
        children += self._slot("ExceptHandler", "body", node.body)
        return self._make("ExceptHandler", role, span, "", children)

    def _h_ImportFrom(self, node, role):
        text = "." * (node.level or 0) + (node.module or "")
        return self._make("ImportFrom", role, _position(node), text,
                          self._slot("ImportFrom", "names", node.names))

    def _h_alias(self, node, role):
        text = node.name if not node.asname else f"{node.name} as {node.asname}"
        return self._make("alias", role, _position(node), text, [])

    def _h_Global(self, node, role):
        return self._make("Global", role, _position(node), ",".join(node.names), [])

    _h_Nonlocal = _h_Global

    def _h_BoolOp(self, node, role):
        values = self._slot("BoolOp", "values", node.values)
        op = self._op(node.op, _grammar.node_role("BoolOp", "op"),
                      self._between(values[0], values[1]))
        return self._make("BoolOp", role, _position(node), "", values + [op])

    def _h_BinOp(self, node, role):
        left = self.convert(node.left, _grammar.node_role("BinOp", "left"))
        right = self.convert(node.right, _grammar.node_role("BinOp", "right"))
        op = self._op(node.op, _grammar.node_role("BinOp", "op"), self._between(left, right))
        return self._make("BinOp", role, _position(node), "", [left, op, right])

    def _h_UnaryOp(self, node, role):
        operand = self.convert(node.operand, _grammar.node_role("UnaryOp", "operand"))
        span = _position(node)
        op_span = _grammar.SourceSpan(span.start_line, span.start_col,
                                      operand.span.start_line, operand.span.start_col)
        op = self._op(node.op, _grammar.node_role("UnaryOp", "op"), op_span)
        return self._make("UnaryOp", role, span, "", [op, operand])

    def _h_Lambda(self, node, role):
        own = _position(node)
        args = self.convert(node.args, _grammar.node_role("Lambda", "args"))
        children = [self._anchored(args, own)]
        children += self._slot("Lambda", "body", node.body)
        return self._make("Lambda", role, own, "", children)

    def _h_Dict(self, node, role):
        children = self._slot("Dict", "keys", [k for k in node.keys if k is not None])
        children += self._slot("Dict", "values", node.values)
        return self._make("Dict", role, _position(node), "", children)

    def _h_Await(self, node, role):
        return self.convert(node.value, role)

    _h_Starred = _h_Await

    def _h_Compare(self, node, role):
        left = self.convert(node.left, _grammar.node_role("Compare", "left"))
        comparators = [self.convert(c, _grammar.node_role("Compare", "comparators"))
                       for c in node.comparators]
        children = [left] + comparators
        prev = left
        for op_node, comp in zip(node.ops, comparators):
            children.append(self._op(op_node, _grammar.node_role("Compare", "ops"),
                                     self._between(prev, comp)))
            prev = comp
        return self._make("Compare", role, _position(node), "", children)

    def _h_Call(self, node, role):
        children = self._slot("Call", "func", node.func)
        for arg in node.args:
            if isinstance(arg, _ast.Starred):
                children.append(self.convert(arg.value, _grammar.node_role("Call", "starargs")))
            else:
                children.append(self.convert(arg, _grammar.node_role("Call", "args")))
        for kw in node.keywords:
            if kw.arg is None:
                children.append(self.convert(kw.value, _grammar.node_role("Call", "kwargs")))
            else:
                children.append(self.convert(kw, _grammar.node_role("Call", "keywords")))
        return self._make("Call", role, _position(node), "", children)

    def _h_Subscript(self, node, role):
        children = self._slot("Subscript", "value", node.value)
        children.append(self._subscript_slice(node.slice))
        return self._make("Subscript", role, _position(node), "", children)

    def _subscript_slice(self, sl):
        slice_role = _grammar.node_role("Subscript", "slice")
        if isinstance(sl, _ast.Slice):
            return self.convert(sl, slice_role)
        if isinstance(sl, _ast.Tuple) and any(isinstance(e, _ast.Slice) for e in sl.elts):
            dims = []
            dim_role = _grammar.node_role("ExtSlice", "dims")
            for elt in sl.elts:
                if isinstance(elt, _ast.Slice):
                    dims.append(self.convert(elt, dim_role))
                else:
                    inner = self.convert(elt, _grammar.node_role("Index", "value"))
                    dims.append(self._make("Index", dim_role, None, "", [inner]))
            return self._make("ExtSlice", slice_role, None, "", dims)
        inner = self.convert(sl, _grammar.node_role("Index", "value"))
        return self._make("Index", slice_role, None, "", [inner])

    def _h_arguments(self, node, role):
        args_role = _grammar.node_role("arguments", "args")
        children = [self.convert(a, args_role)
                    for a in getattr(node, "posonlyargs", []) + node.args + node.kwonlyargs]
        defaults = list(node.defaults) + [d for d in node.kw_defaults if d is not None]
        children += self._slot("arguments", "defaults", defaults)
        stars = []
        if node.vararg is not None:
            stars.append("*" + node.vararg.arg)
        if node.kwarg is not None:
            stars.append("**" + node.kwarg.arg)
        return self._make("arguments", role, None, ",".join(stars), children)


def reference_parse_source(text: str):
    """``parse_source`` through the recursive normalizer."""
    return RecursiveNormalizer(text).module(_ast.parse(text))


def reference_myers_matches(a, b) -> list[tuple[int, int]]:
    """Myers' kept lines (i, j), tracing a copy of the whole ``v`` per step."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return []
    v = {1: 0}
    trace = []
    for d in range(n + m + 1):
        trace.append(dict(v))
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v[k - 1] < v[k + 1]):
                x = v[k + 1]
            else:
                x = v[k - 1] + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                return _reference_backtrack(trace, d, k, a, b)
    return []


def _reference_backtrack(trace, d, k, a, b) -> list[tuple[int, int]]:
    matches = []
    x, y = len(a), len(b)
    for depth in range(d, 0, -1):
        v = trace[depth]
        if k == -depth or (k != depth and v.get(k - 1, -1) < v.get(k + 1, -1)):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = v[prev_k]
        prev_y = prev_x - prev_k
        if prev_k == k + 1:
            mid_x, mid_y = prev_x, prev_y + 1
        else:
            mid_x, mid_y = prev_x + 1, prev_y
        while x > mid_x and y > mid_y:
            x -= 1
            y -= 1
            matches.append((x, y))
        x, y = prev_x, prev_y
        k = prev_k
    while x > 0 and y > 0:
        x -= 1
        y -= 1
        matches.append((x, y))
    matches.reverse()
    return matches


def reference_graft(node, label, line_of):
    return _diffing.DiffNode(node.kind, node.role, node.text, label, node.span,
                             line_of(node.span.start_line), line_of(node.span.end_line),
                             [reference_graft(child, label, line_of)
                              for child in node.children])


def reference_after_line(script, line: int) -> int:
    """A before line on the after-file axis, scanning every block."""
    delta = 0
    for blk in sorted(script, key=lambda blk: blk.b_start):
        if line < blk.b_start:
            break
        if line < blk.b_end:
            return blk.a_start + (line - blk.b_start)
        delta += (blk.a_end - blk.a_start) - (blk.b_end - blk.b_start)
    return line + delta


def reference_region(script, span, before: bool):
    """``("in", k)`` for a node wholly inside block k on its side, else the
    after line of its first kept line, scanning every block."""
    for k, blk in enumerate(sorted(script, key=lambda blk: blk.b_start)):
        start, end = (blk.b_start, blk.b_end) if before else (blk.a_start, blk.a_end)
        if start <= span.start_line < end:
            return ("in", k) if span.end_line < end else blk.a_end
    return reference_after_line(script, span.start_line) if before else span.start_line


class RecursiveMatcher:
    """The one-rule join calling itself once per level: a before child
    joins the first not-yet-joined after sibling with the same key and
    region, and every other child is grafted Minus or Plus."""

    def __init__(self, script):
        self.script = script
        self.conflicts = []

    def anchor(self, node, before: bool):
        return (_diffing._key(node), reference_region(self.script, node.span, before))

    def join(self, b_node, a_node):
        a_anchors = [self.anchor(a_child, False) for a_child in a_node.children]
        joined = {}  # index among a_node.children -> joined node
        minus_built = []
        for b_child in b_node.children:
            anchor = self.anchor(b_child, True)
            same = [i for i, a_anchor in enumerate(a_anchors) if a_anchor == anchor]
            free = [i for i in same if i not in joined]
            if not free:
                minus_built.append(reference_graft(
                    b_child, _diffing.ChangeLabel.MINUS,
                    lambda line: reference_after_line(self.script, line)))
                continue
            if len(same) > 1 and isinstance(anchor[1], tuple):
                self.conflicts.append(
                    f"ambiguous anchor for {anchor[0]!r}; resolved in source order")
            joined[free[0]] = self.join(b_child, a_node.children[free[0]])
        built = [joined[i] if i in joined
                 else reference_graft(a_child, _diffing.ChangeLabel.PLUS, lambda line: line)
                 for i, a_child in enumerate(a_node.children)]
        merged = sorted(
            built + minus_built,
            key=lambda n: (n.eff_start, n.span.start_col,
                           n.label is not _diffing.ChangeLabel.MINUS, n.span.start_line),
        )
        return _diffing.DiffNode(a_node.kind, a_node.role, a_node.text,
                                 _diffing.ChangeLabel.UNCHANGED, a_node.span,
                                 a_node.span.start_line, a_node.span.end_line, merged)


def reference_chained_roots(node, path, out):
    if node.label is not _diffing.ChangeLabel.UNCHANGED:
        out.append((node, tuple(reversed(path))))
        return out
    path.append(node)
    for child in node.children:
        reference_chained_roots(child, path, out)
    path.pop()
    return out


class RecursiveEnhancedAst(_diffing.EnhancedAst):
    """An enhanced AST whose labeled roots come from the recursive walk,
    so ``extract_hunks`` groups what the reference found."""

    def chained_roots(self):
        return reference_chained_roots(self.root, [], [])


def reference_build_diff_ast(before, after, script, change_id="", path=""):
    """``build_diff_ast`` through the recursive one-rule join."""
    matcher = RecursiveMatcher(script)
    root = matcher.join(before, after)
    return RecursiveEnhancedAst(root=root, change_id=change_id, path=path,
                                conflicts=matcher.conflicts)


def reference_diff_node_to_dict(node) -> dict:
    return {
        "kind": node.kind,
        "role": node.role,
        "label": node.label.value,
        "text": node.text,
        "span": [node.span.start_line, node.span.start_col,
                 node.span.end_line, node.span.end_col],
        "eff": [node.eff_start, node.eff_end],
        "children": [reference_diff_node_to_dict(c) for c in node.children],
    }


def reference_diff_node_from_dict(doc: dict):
    return _diffing.DiffNode(
        kind=doc["kind"],
        role=doc["role"],
        text=doc["text"],
        label=_diffing.ChangeLabel(doc["label"]),
        span=_grammar.SourceSpan(*doc["span"]),
        eff_start=doc["eff"][0],
        eff_end=doc["eff"][1],
        children=[reference_diff_node_from_dict(c) for c in doc["children"]],
    )


def reference_dump_enhanced_ast(enhanced) -> str:
    doc = {
        "change_id": enhanced.change_id,
        "path": enhanced.path,
        "conflicts": enhanced.conflicts,
        "tree": reference_diff_node_to_dict(enhanced.root),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def reference_hunk_to_dict(hunk) -> dict:
    window = hunk.line_window
    return {
        "id": hunk.id,
        "window": [window.start_line, window.start_col, window.end_line, window.end_col],
        "roots": [reference_diff_node_to_dict(r) for r in hunk.labeled_roots],
    }
