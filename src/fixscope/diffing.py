"""Joining before/after ASTs into a labeled diff tree and grouping hunks.

The matcher is line-anchored: a minimal line-level edit script is computed
first, then the two trees are joined from the root down by one rule.  At
every joined pair, a before child joins the first not-yet-joined after
sibling with the same key (kind, role, text) and the same
region: ``("in", k)`` for a node wholly inside edit block k, else the
after-file line of the node's first kept line.  Every other before child
becomes a ``Minus`` subtree root, every other after child a ``Plus``
subtree root, and labels inherit downward.  There is no positional
fallback: a modified node, its own text included, always yields a
Minus+Plus pair, never an in-place update, and a child the line diff
moved to another parent is removed under one and added under the other.

The trees may hold stubs, statements the parser left unconverted because
their side's ``_LineMap`` found no edit block meeting their lines.  Two stubs
that cover the same lines and columns hold the same source but for line
terminators, which no node depends on, so they join as one unchanged
leaf: nothing inside them could carry a label or an in-block anchor.  Any
other stub is converted where the join reaches it, and a Plus or Minus
subtree converts every stub it grafts, so the labeled subtrees, and what
``hunks.jsonl`` holds, are those of the full trees.

The tree points one way: a node holds its children and nothing else.  The
chain of unchanged ancestors around each labeled root comes from the walk
that finds the root, so no back-pointer, and no self-referencing closure
in the join, ties a tree into a reference cycle; reference counting alone
frees it.  Every walk uses an explicit stack (the matcher's run on
``fixscope.grammar.drive``), so tree depth costs no Python frames; only a
hunk's labeled subtree is bounded, by ``MAX_HUNK_DEPTH``.

The line diff runs in a canonical orientation so that swapping the two
inputs swaps Plus and Minus labels exactly, even when duplicated lines
make the minimal script ambiguous.
"""

from __future__ import annotations

import enum
import logging
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from types import GeneratorType

from fixscope.grammar import (
    AstNode,
    SourceSpan,
    StubNode,
    UnsupportedConstructError,
    drive,
    split_lines,
    tree_height,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ChangeLabel",
    "EditBlock",
    "DiffNode",
    "EnhancedAst",
    "Hunk",
    "align_versions",
    "line_maps",
    "build_diff_ast",
    "extract_hunks",
    "diff_node_to_dict",
    "diff_node_from_dict",
    "hunk_to_dict",
    "hunk_from_dict",
    "MAX_HUNK_DEPTH",
]

HUNK_LINE_GAP = 3

# the most levels a hunk's labeled subtree may span below its root: its
# ``hunks.jsonl`` line goes through ``json``, which recurses in C twice
# per level, and at this height a round trip still fits the default
# recursion limit of 1000 with about 190 frames of caller stack to spare
MAX_HUNK_DEPTH = 400


class ChangeLabel(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"
    UNCHANGED = "unchanged"


@dataclass(frozen=True)
class EditBlock:
    """One contiguous change: before lines [b_start, b_end) were replaced
    by after lines [a_start, a_end); either side may be empty."""

    b_start: int
    b_end: int
    a_start: int
    a_end: int

    def mirrored(self) -> "EditBlock":
        return EditBlock(self.a_start, self.a_end, self.b_start, self.b_end)


class DiffNode:
    """Node of the joined diff tree.

    ``span`` is in the node's native coordinates (after-file for unchanged
    and plus nodes, before-file for minus nodes); ``eff_start``/``eff_end``
    are line numbers normalized to after-file coordinates so that plus and
    minus nodes can be compared on one axis.  Nodes compare by identity.
    """

    __slots__ = ("kind", "role", "text", "label", "span", "eff_start", "eff_end",
                 "children", "__weakref__")

    def __init__(self, kind: str, role: str | None, text: str, label: ChangeLabel,
                 span: SourceSpan, eff_start: int, eff_end: int,
                 children: list["DiffNode"] | None = None):
        self.kind = kind
        self.role = role
        self.text = text
        self.label = label
        self.span = span
        self.eff_start = eff_start
        self.eff_end = eff_end
        self.children = [] if children is None else children

    def __repr__(self) -> str:
        return (f"DiffNode({self.kind!r}, {self.role!r}, {self.text!r}, {self.label}, "
                f"{self.span!r}, {self.eff_start}, {self.eff_end}, "
                f"<{len(self.children)} children>)")

    walk = AstNode.walk


@dataclass
class EnhancedAst:
    """After-tree skeleton with Minus subtrees grafted in."""

    root: DiffNode
    change_id: str
    path: str
    conflicts: list[str] = field(default_factory=list)

    def chained_roots(self) -> list[tuple[DiffNode, tuple[DiffNode, ...]]]:
        """Maximal Plus/Minus subtree roots in document order, each with
        its chain of unchanged ancestors, nearest first."""
        return _chained_roots(self.root)


def _chained_roots(root: DiffNode) -> list[tuple[DiffNode, tuple[DiffNode, ...]]]:
    out = []
    # stack[-1] iterates the children of path[-1]; path holds the unchanged
    # ancestors of the nodes it yields, tree root first
    path: list[DiffNode] = []
    stack = [iter((root,))]
    while stack:
        for node in stack[-1]:
            if node.label is ChangeLabel.UNCHANGED:
                path.append(node)
                stack.append(iter(node.children))
                break
            out.append((node, tuple(reversed(path))))
        else:
            stack.pop()
            del path[-1:]
    return out


@dataclass(frozen=True)
class Hunk:
    """A group of labeled subtree roots within the 3-line relation, plus
    the chain of unchanged ancestors shared by all of them."""

    id: str
    labeled_roots: tuple[DiffNode, ...]
    context_chain: tuple[DiffNode, ...]
    line_window: SourceSpan


# --- line-level alignment --------------------------------------------------


def align_versions(before_text: str, after_text: str) -> list[EditBlock]:
    r"""Minimal line-level edit script between the two texts.

    LCS-based (Myers), deterministic, and orientation-canonical: the script
    for (a, b) is exactly the mirrored script for (b, a).  Lines split at
    ``\r\n``, ``\r`` and ``\n`` alone, as the parser splits them, so the
    blocks agree with the AST spans even after a form feed or ``\u2028``.
    Lines compare without their trailing spaces and tabs, which are not
    syntax: ``line_maps`` still sees where a kept line's bytes differ.
    """
    before = [line.rstrip(" \t") for line in split_lines(before_text)]
    after = [line.rstrip(" \t") for line in split_lines(after_text)]
    if before == after:
        return []
    if (before, after) <= (after, before):
        return _myers_blocks(before, after)
    return [blk.mirrored() for blk in _myers_blocks(after, before)]


def _myers_blocks(a: list[str], b: list[str]) -> list[EditBlock]:
    # trim common prefix/suffix to keep the middle small
    lo = 0
    while lo < len(a) and lo < len(b) and a[lo] == b[lo]:
        lo += 1
    hi_a, hi_b = len(a), len(b)
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    mid_a, mid_b = a[lo:hi_a], b[lo:hi_b]
    matches = _myers_matches(mid_a, mid_b)
    blocks: list[EditBlock] = []
    prev_i = prev_j = 0
    for i, j in matches + [(len(mid_a), len(mid_b))]:
        if i > prev_i or j > prev_j:
            blocks.append(EditBlock(
                lo + prev_i + 1, lo + i + 1, lo + prev_j + 1, lo + j + 1))
        prev_i, prev_j = i + 1, j + 1
    return blocks


def _myers_matches(a: list[str], b: list[str]) -> list[tuple[int, int]]:
    """Indices (i, j) of kept lines under a minimal edit script."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return []
    v = {1: 0}
    # trace[d]: v[k] for k = 1 - d, 3 - d, ..., d - 1, all _backtrack reads
    trace = []
    for d in range(n + m + 1):
        trace.append([v[k] for k in range(1 - d, d, 2)])
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
                return _backtrack(trace, d, k, a, b)
    return []


def _backtrack(trace, d, k, a, b) -> list[tuple[int, int]]:
    matches: list[tuple[int, int]] = []
    x, y = len(a), len(b)
    for depth in range(d, 0, -1):
        frontier = trace[depth]
        # frontier[up] is diagonal k + 1, frontier[up - 1] diagonal k - 1
        up = (k + depth) // 2
        if k == -depth or (k != depth and frontier[up - 1] < frontier[up]):
            prev_k, prev_x = k + 1, frontier[up]
        else:
            prev_k, prev_x = k - 1, frontier[up - 1]
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


def _key(node: AstNode) -> tuple[str, str | None, str]:
    return (node.kind, node.role, node.text)


# --- one bisect table of edit blocks per side -------------------------------


class _LineMap:
    """One side's edit blocks as a bisect table, in script order: block k
    holds this side's lines [start, end) and after lines [a_start, a_end).

    ``map`` carries this side's line numbers onto the after-file axis (on
    the after side, the identity), ``region`` anchors a node for the join
    and ``untouched`` tests a line span for the parser; each finds a
    line's block by one bisect.  ``changed`` lists, sorted, the kept lines
    whose raw text differs from their counterpart's in trailing blanks;
    ``untouched`` bisects it too.  It is None against an empty version,
    and then ``stub_test`` is None: the parser tries no stub.
    """

    def __init__(self, script: list[EditBlock], before: bool, changed):
        self.blocks = [((blk.b_start, blk.b_end) if before else (blk.a_start, blk.a_end))
                       + (blk.a_start, blk.a_end) for blk in script]
        self.starts = [blk[0] for blk in self.blocks]
        side = 0 if before else 1
        self.changed = None if changed is None else [pair[side] for pair in changed]

    def map(self, line: int) -> int:
        k = bisect_right(self.starts, line) - 1
        if k < 0:
            return line
        start, end, a_start, a_end = self.blocks[k]
        if line < end:
            return a_start + (line - start)
        return line + (a_end - end)

    def region(self, span: SourceSpan) -> int | tuple[str, int]:
        """``("in", k)`` for a node wholly inside block k, else the after
        line of the node's first kept line: its start line mapped, or the
        ``a_end`` of the block it starts in."""
        line = span.start_line
        k = bisect_right(self.starts, line) - 1
        if k < 0:
            return line
        start, end, _a_start, a_end = self.blocks[k]
        if line >= end:
            return line + (a_end - end)
        return ("in", k) if span.end_line < end else a_end

    def untouched(self, first: int, last: int) -> bool:
        """Whether no edit block meets lines ``first`` to ``last``: blocks
        lie apart, so only the last one starting by ``last`` could, and it
        does unless it ends by ``first``.  So a block empty on this side,
        the insertion point before its start line, meets only a span it
        falls strictly inside.  A kept line in ``changed`` touches a span
        that holds it: inside a string literal its trailing blanks are text."""
        k = bisect_right(self.starts, last) - 1
        return ((k < 0 or self.blocks[k][1] <= first)
                and bisect_left(self.changed, first) == bisect_right(self.changed, last))

    @property
    def stub_test(self):
        """``untouched`` for ``parse_source``, or None against an empty
        version, where every line of the other is inserted or deleted."""
        return None if self.changed is None else self.untouched


def line_maps(script: list[EditBlock], before_text: str,
              after_text: str) -> tuple[_LineMap, _LineMap]:
    """The before and after tables of ``script``, the edit script between
    the two texts, sorted into file order once.  Both tables list the kept
    line pairs whose raw text differs, found in one walk over them; against
    an empty version no text is split, and neither table tests stubs."""
    script = sorted(script, key=operator.attrgetter("b_start"))
    changed = None  # (before line, after line) of each kept pair whose raw text differs
    if before_text and after_text:
        before_lines, after_lines = split_lines(before_text), split_lines(after_text)
        changed = []
        # each run of kept lines ends at a block's start; a block past the
        # last lines ends the final run
        b = a = 1
        for blk in script + [EditBlock(len(before_lines) + 1, 0, len(after_lines) + 1, 0)]:
            kept = zip(before_lines[b - 1:blk.b_start - 1], after_lines[a - 1:blk.a_start - 1])
            changed += [(b + k, a + k) for k, (old, new) in enumerate(kept) if old != new]
            b, a = blk.b_end, blk.a_end
    return _LineMap(script, True, changed), _LineMap(script, False, changed)


_CHILDREN = operator.attrgetter("children")


def _expanded_children(node: AstNode) -> tuple[AstNode, ...]:
    return node.expand().children


def _copy_tree(root, shallow, source_children, target_children):
    """The tree under ``root`` rebuilt with an explicit stack: ``shallow``
    copies one node without its children, which are copied in order into
    ``target_children(copy)``; ``source_children`` reads a node's own."""
    top = shallow(root)
    stack = [(root, top)]
    while stack:
        source, target = stack.pop()
        into = target_children(target)
        for child in source_children(source):
            copy = shallow(child)
            into.append(copy)
            stack.append((child, copy))
    return top


def _graft(node: AstNode, label: ChangeLabel, line_of) -> DiffNode:
    """Copy the subtree under ``node`` with every node labeled ``label``,
    converting the stubs in it; ``line_of`` maps its native line numbers
    onto the after-file axis."""
    def copy(source: AstNode) -> DiffNode:
        return DiffNode(source.kind, source.role, source.text, label, source.span,
                        line_of(source.span.start_line), line_of(source.span.end_line))

    return _copy_tree(node, copy, _expanded_children, _CHILDREN)


# --- the join ---------------------------------------------------------------


class _Matcher:
    """Joins the two trees by one rule, applied at every joined pair.

    A before child joins the first not-yet-joined after sibling with the
    same ``_key`` and the same region (``_LineMap.region``); every other
    child is grafted Minus or Plus, subtree and all.  The one conflict is
    an ambiguous anchor: more than one same-key after sibling in the same
    in-block region, resolved in source order.
    """

    def __init__(self, tables: tuple[_LineMap, _LineMap]):
        self.before, self.after = tables
        self.conflicts: list[str] = []

    def join(self, b_node: AstNode, a_node: AstNode) -> DiffNode:
        """The unchanged node pairing ``b_node`` with ``a_node``, its
        children joined, grafted Plus, or grafted Minus."""
        return drive(self._join(b_node, a_node))

    def _join(self, b_node, a_node):
        """A finished node for two leaves or two counterpart stubs, else a
        generator for ``drive``; any other stub is converted first."""
        if isinstance(b_node, StubNode) or isinstance(a_node, StubNode):
            if self._counterparts(b_node, a_node):
                return _unchanged(a_node, [])
            b_node, a_node = b_node.expand(), a_node.expand()
        if not (b_node.children or a_node.children):
            return _unchanged(a_node, [])
        return self._join_children(b_node, a_node)

    def _counterparts(self, b_node, a_node) -> bool:
        """Whether two stubs cover the same untouched lines and columns,
        so hold the same source and convert to the same tree: joined, it
        would be unchanged throughout, with no in-block anchor to conflict
        on.  Their shared key and region already align their first lines;
        a stub can meet another that starts later on the same line, after
        a continuation line moved the statement boundaries."""
        b_span, a_span = b_node.span, a_node.span
        return (isinstance(b_node, StubNode) and isinstance(a_node, StubNode)
                and b_span.start_col == a_span.start_col
                and b_span.end_col == a_span.end_col
                and self.before.map(b_span.end_line) == a_span.end_line)

    def _join_children(self, b_node, a_node):
        a_children = a_node.children
        pools: dict[tuple, list[int]] = {}
        for index, a_child in enumerate(a_children):
            anchor = (_key(a_child), self.after.region(a_child.span))
            pools.setdefault(anchor, []).append(index)
        taken: dict[tuple, int] = {}
        built: list[DiffNode | None] = [None] * len(a_children)
        minus_built = []
        for b_child in b_node.children:
            anchor = (_key(b_child), self.before.region(b_child.span))
            pool = pools.get(anchor, ())
            rank = taken.get(anchor, 0)
            if rank == len(pool):
                minus_built.append(_graft(b_child, ChangeLabel.MINUS, self.before.map))
                continue
            taken[anchor] = rank + 1
            if len(pool) > 1 and isinstance(anchor[1], tuple):
                self.conflicts.append(
                    f"ambiguous anchor for {anchor[0]!r}; resolved in source order")
            index = pool[rank]
            joined = self._join(b_child, a_children[index])
            if type(joined) is GeneratorType:  # a leaf needs no trip through drive
                joined = yield joined
            built[index] = joined
        for index, a_child in enumerate(a_children):
            if built[index] is None:
                built[index] = _graft(a_child, ChangeLabel.PLUS, self.after.map)
        if not minus_built:  # the after children are in position order already
            return _unchanged(a_node, built)
        merged = sorted(
            built + minus_built,
            key=lambda n: (n.eff_start, n.span.start_col,
                           n.label is not ChangeLabel.MINUS, n.span.start_line),
        )
        return _unchanged(a_node, merged)


def _unchanged(a_node: AstNode, children: list[DiffNode]) -> DiffNode:
    return DiffNode(a_node.kind, a_node.role, a_node.text, ChangeLabel.UNCHANGED,
                    a_node.span, a_node.span.start_line, a_node.span.end_line, children)


def build_diff_ast(
    before: AstNode,
    after: AstNode,
    tables: tuple[_LineMap, _LineMap],
    change_id: str = "",
    path: str = "",
) -> EnhancedAst:
    """Join the two canonical trees into a single labeled diff tree;
    ``tables`` are the ``line_maps`` of the two texts' edit script."""
    matcher = _Matcher(tables)
    root = matcher.join(before, after)
    for message in matcher.conflicts:
        logger.debug("alignment conflict in %s %s: %s", change_id, path, message)
    return EnhancedAst(root=root, change_id=change_id, path=path,
                       conflicts=matcher.conflicts)


# --- hunk extraction ---------------------------------------------------------


def extract_hunks(enhanced: EnhancedAst) -> list[Hunk]:
    """Partition labeled subtree roots by transitive 3-line grouping.

    Raises :class:`UnsupportedConstructError` when a labeled subtree is
    more than ``MAX_HUNK_DEPTH`` levels high, so the pipeline skips the
    file the way it skips an unparseable one.
    """
    chained = sorted(enhanced.chained_roots(),
                     key=lambda rc: (rc[0].eff_start, rc[0].eff_end))
    for root, _chain in chained:
        if tree_height(root) > MAX_HUNK_DEPTH:
            err = UnsupportedConstructError(
                f"labeled {root.kind} subtree is more than {MAX_HUNK_DEPTH} levels high")
            err.lineno = root.span.start_line
            raise err
    if not chained:
        return []
    groups: list[list[tuple[DiffNode, tuple]]] = [[chained[0]]]
    group_end = chained[0][0].eff_end
    for root, chain in chained[1:]:
        if root.eff_start - group_end <= HUNK_LINE_GAP:
            groups[-1].append((root, chain))
        else:
            groups.append([(root, chain)])
        group_end = max(group_end, root.eff_end)
    hunks = []
    for ordinal, members in enumerate(groups):
        group = [root for root, _chain in members]
        window = SourceSpan(
            start_line=min(r.eff_start for r in group),
            start_col=min(r.span.start_col for r in group),
            end_line=max(r.eff_end for r in group),
            end_col=max(r.span.end_col for r in group))
        hunk_id = f"{enhanced.change_id}:{enhanced.path}:{ordinal}"
        hunks.append(Hunk(
            id=hunk_id,
            labeled_roots=tuple(group),
            context_chain=_common_chain([chain for _root, chain in members]),
            line_window=window,
        ))
    return hunks


def _common_chain(chains: list[tuple[DiffNode, ...]]) -> tuple[DiffNode, ...]:
    """The ancestors every chain shares; chains run nearest first, so
    what they share is their far end."""
    shortest = min(chains, key=len)
    shared = 0
    for depth in range(1, len(shortest) + 1):
        candidate = shortest[-depth]
        if all(len(c) >= depth and c[-depth] is candidate for c in chains):
            shared = depth
        else:
            break
    return shortest[-shared:] if shared else ()


# --- serialization -----------------------------------------------------------


def diff_node_to_dict(node: DiffNode) -> dict:
    def shallow(source: DiffNode) -> dict:
        return {
            "kind": source.kind,
            "role": source.role,
            "label": source.label.value,
            "text": source.text,
            "span": list(source.span),
            "eff": [source.eff_start, source.eff_end],
            "children": [],
        }

    return _copy_tree(node, shallow, _CHILDREN, operator.itemgetter("children"))


def diff_node_from_dict(doc: dict) -> DiffNode:
    def shallow(source: dict) -> DiffNode:
        return DiffNode(
            kind=source["kind"],
            role=source["role"],
            text=source["text"],
            label=ChangeLabel(source["label"]),
            span=SourceSpan(*source["span"]),
            eff_start=source["eff"][0],
            eff_end=source["eff"][1],
        )

    return _copy_tree(doc, shallow, operator.itemgetter("children"), _CHILDREN)


def hunk_to_dict(hunk: Hunk) -> dict:
    """Serialized form carrying the full labeled subtrees and a context
    synopsis; enough to recompute feature vectors under any weights."""
    return {
        "id": hunk.id,
        "window": list(hunk.line_window),
        "roots": [diff_node_to_dict(r) for r in hunk.labeled_roots],
    }


def hunk_from_dict(doc: dict) -> Hunk:
    roots = tuple(diff_node_from_dict(r) for r in doc["roots"])
    return Hunk(id=doc["id"], labeled_roots=roots, context_chain=(),
                line_window=SourceSpan(*doc["window"]))
