"""Canonical AST model for the analyzed Python corpora.

The taxonomy (node kinds and parent/slot roles) is pinned to a versioned
table shipped with the package: ``data/taxonomy_py27_v1.txt``, the classic
Python 2.7 abstract grammar restricted to ``Module``-rooted trees (89 kinds,
98 roles). Pinning the table keeps feature names stable across runs and
host-interpreter upgrades.

Concrete parsing delegates to the host interpreter's ``ast`` module; a
normalization layer folds the host tree onto the canonical taxonomy:

* ``Constant`` splits back into ``Num`` / ``Str`` / ``Name`` leaves,
* ``Try`` splits into ``TryExcept`` / ``TryFinally`` (nested when both),
* multi-item ``with`` statements become nested ``With`` chains,
* ``arg`` objects become ``Name`` leaves under the ``arguments`` node,
* plain subscript indices are re-wrapped in ``Index`` / ``ExtSlice``,
* modern sugar with no classic counterpart is folded to the nearest kind
  (``Await``/``YieldFrom`` -> ``Yield``, f-strings -> ``Str``,
  ``NamedExpr``/``AnnAssign`` -> ``Assign``, ``Nonlocal`` -> ``Global``,
  ``async`` definitions -> their plain forms).

Files using constructs with no reasonable counterpart (``match`` blocks),
and files nested too deeply for the normalizer, raise
:class:`UnsupportedConstructError`, a ``SyntaxError`` subclass, so the
pipeline records and skips them like any unparseable file.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from importlib import resources

__all__ = [
    "SourceSpan",
    "AstNode",
    "Taxonomy",
    "UnknownSlotError",
    "UnsupportedConstructError",
    "load_taxonomy",
    "taxonomy_checksum",
    "parse_source",
    "node_role",
    "tree_height",
]

TAXONOMY_RESOURCE = "taxonomy_py27_v1.txt"
DEFAULT_DIALECT = "py27"

SCOPE_KINDS = ("FunctionDef", "ClassDef", "Module")

_OP_SYMBOLS = {
    "Add": "+", "Sub": "-", "Mult": "*", "Div": "/", "Mod": "%",
    "Pow": "**", "LShift": "<<", "RShift": ">>", "BitOr": "|",
    "BitXor": "^", "BitAnd": "&", "FloorDiv": "//",
    "Invert": "~", "Not": "not", "UAdd": "+", "USub": "-",
    "And": "and", "Or": "or",
    "Eq": "==", "NotEq": "!=", "Lt": "<", "LtE": "<=", "Gt": ">",
    "GtE": ">=", "Is": "is", "IsNot": "is not", "In": "in",
    "NotIn": "not in",
}


class UnknownSlotError(KeyError):
    """A (parent kind, slot) pair outside the canonical grammar."""


class UnsupportedConstructError(SyntaxError):
    """Source uses syntax the canonical taxonomy cannot express."""


@dataclass(frozen=True)
class SourceSpan:
    """Line/column extent of a node (1-based lines, 0-based columns)."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def union(self, other: "SourceSpan") -> "SourceSpan":
        start = min((self.start_line, self.start_col), (other.start_line, other.start_col))
        end = max((self.end_line, self.end_col), (other.end_line, other.end_col))
        return SourceSpan(start[0], start[1], end[0], end[1])


@dataclass(frozen=True)
class AstNode:
    """Immutable canonical tree node.

    ``text`` carries the lexeme for identifier/literal-bearing nodes
    (names, numbers, strings, attribute names, definition names) and is
    empty elsewhere.  ``role`` is ``None`` only for the ``Module`` root.
    """

    kind: str
    role: str | None
    span: SourceSpan
    text: str = ""
    children: tuple["AstNode", ...] = ()

    def walk(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass(frozen=True)
class Taxonomy:
    """The closed kind/role enumerations loaded from the shipped table."""

    version: str
    kinds: frozenset[str]
    roles: dict[tuple[str, str], str]
    role_names: frozenset[str]
    checksum: str

    def role_for(self, parent_kind: str, slot: str) -> str:
        try:
            return self.roles[(parent_kind, slot)]
        except KeyError:
            raise UnknownSlotError(f"{parent_kind}.{slot} is not a grammar slot") from None


def _read_taxonomy_bytes() -> bytes:
    return resources.files("fixscope.data").joinpath(TAXONOMY_RESOURCE).read_bytes()


def load_taxonomy() -> Taxonomy:
    """Parse the shipped taxonomy table (cached)."""
    global _TAXONOMY
    if _TAXONOMY is None:
        raw = _read_taxonomy_bytes()
        kinds: list[str] = []
        roles: dict[tuple[str, str], str] = {}
        version = "unversioned"
        for line in raw.decode("utf-8").splitlines():
            line = line.strip()
            if line.startswith("#"):
                if "version=" in line:
                    version = line.split("version=")[1].split()[0]
                continue
            if line.startswith("kind "):
                kinds.append(line[5:].strip())
            elif line.startswith("role "):
                key, name = line[5:].split("=", 1)
                parent, slot = key.strip().split(".")
                roles[(parent, slot)] = name.strip()
        _TAXONOMY = Taxonomy(
            version=version,
            kinds=frozenset(kinds),
            roles=roles,
            role_names=frozenset(roles.values()),
            checksum=hashlib.sha256(raw).hexdigest(),
        )
    return _TAXONOMY


_TAXONOMY: Taxonomy | None = None


def taxonomy_checksum() -> str:
    return load_taxonomy().checksum


def node_role(parent: "AstNode | str", child_slot: str) -> str:
    """Canonical role for a child slot of ``parent`` (kind or node)."""
    kind = parent.kind if isinstance(parent, AstNode) else parent
    return load_taxonomy().role_for(kind, child_slot)


def tree_height(node: AstNode) -> int:
    """0 for a leaf, else one more than the tallest child."""
    if not node.children:
        return 0
    return 1 + max(tree_height(child) for child in node.children)


def parse_source(text: str, dialect: str = DEFAULT_DIALECT) -> AstNode:
    """Parse ``text`` and normalize it onto the canonical taxonomy.

    Raises ``SyntaxError`` (including :class:`UnsupportedConstructError`)
    for files the dialect cannot represent; the pipeline records and skips
    those.  Pure function of ``(text, dialect)``.

    The normalizer recurses once per nesting level, so until it walks an
    explicit stack the cut-off follows the interpreter's recursion limit:
    a file nested deeper than it allows (``1 + 1 + ...`` with 600 terms,
    at the default limit of 1000) raises
    :class:`UnsupportedConstructError` too.
    """
    if dialect != DEFAULT_DIALECT:
        raise ValueError(f"unknown dialect {dialect!r}")
    try:
        return _Normalizer(text).module(ast.parse(text))
    except RecursionError as exc:
        raise UnsupportedConstructError(
            "nesting too deep for the normalizer's recursion") from exc


# --- host-parser normalization -------------------------------------------

_UNSUPPORTED = (
    "Match", "MatchValue", "MatchSingleton", "MatchSequence", "MatchMapping",
    "MatchClass", "MatchStar", "MatchAs", "MatchOr", "TryStar", "TypeAlias",
)


def _own_span(node: ast.AST) -> SourceSpan | None:
    lineno = getattr(node, "lineno", None)
    end_lineno = getattr(node, "end_lineno", None)
    if lineno is None:
        return None
    if end_lineno is None:
        return SourceSpan(lineno, node.col_offset, lineno, node.col_offset)
    return SourceSpan(lineno, node.col_offset, end_lineno, node.end_col_offset)


def _point(line: int, col: int) -> SourceSpan:
    return SourceSpan(line, col, line, col)


class _Normalizer:
    """Folds a host ``ast`` tree onto the canonical taxonomy."""

    def __init__(self, source: str):
        self.source = source
        self.taxonomy = load_taxonomy()

    def module(self, node: ast.Module) -> AstNode:
        children = self._slot("Module", "body", node.body)
        return self._make("Module", None, _own_span(node) or _point(1, 0), "", children)

    # -- helpers

    def _make(
        self,
        kind: str,
        role: str | None,
        fallback_span: SourceSpan | None,
        text: str,
        children: list[AstNode],
        own: SourceSpan | None = None,
    ) -> AstNode:
        span = own
        for child in children:
            span = child.span if span is None else span.union(child.span)
        if span is None:
            span = fallback_span if fallback_span is not None else _point(1, 0)
        ordered = sorted(
            children,
            key=lambda c: (c.span.start_line, c.span.start_col, c.span.end_line, c.span.end_col),
        )
        return AstNode(kind=kind, role=role, span=span, text=text, children=tuple(ordered))

    def _slot(self, parent_kind: str, slot: str, value) -> list[AstNode]:
        role = self.taxonomy.role_for(parent_kind, slot)
        items = value if isinstance(value, list) else [value]
        out = []
        for item in items:
            if item is None:
                continue
            out.append(self.convert(item, role))
        return out

    def _op(self, op_node: ast.AST, role: str, span: SourceSpan) -> AstNode:
        kind = type(op_node).__name__
        return AstNode(kind=kind, role=role, span=span, text=_OP_SYMBOLS.get(kind, ""))

    def _between(self, left: AstNode, right: AstNode) -> SourceSpan:
        return SourceSpan(left.span.end_line, left.span.end_col,
                          right.span.start_line, right.span.start_col)

    def _segment(self, node: ast.AST) -> str:
        seg = ast.get_source_segment(self.source, node)
        return seg if seg is not None else ""

    def _anchored(self, node: AstNode, anchor: SourceSpan) -> AstNode:
        # position-less empty nodes (e.g. bare `arguments`) sit at the
        # owner's start so child ordering and enclosure stay valid
        if node.children:
            return node
        point = _point(anchor.start_line, anchor.start_col)
        return AstNode(node.kind, node.role, point, node.text, ())

    # -- dispatch

    def convert(self, node: ast.AST, role: str | None) -> AstNode:
        name = type(node).__name__
        if name in _UNSUPPORTED:
            err = UnsupportedConstructError(
                f"{name} has no counterpart in the {DEFAULT_DIALECT} dialect")
            err.lineno = getattr(node, "lineno", None)
            raise err
        handler = getattr(self, "_h_" + name, None)
        if handler is None:
            raise UnsupportedConstructError(f"unhandled host node {name}")
        return handler(node, role)

    # -- statements

    def _h_FunctionDef(self, node, role):
        own = _own_span(node)
        children = [self._anchored(self.convert(node.args, node_role("FunctionDef", "args")), own)]
        children += self._slot("FunctionDef", "body", node.body)
        children += self._slot("FunctionDef", "decorator_list", node.decorator_list)
        return self._make("FunctionDef", role, own, node.name, children, own=own)

    _h_AsyncFunctionDef = _h_FunctionDef

    def _h_ClassDef(self, node, role):
        children = self._slot("ClassDef", "bases", node.bases)
        children += self._slot("ClassDef", "bases", node.keywords)
        children += self._slot("ClassDef", "body", node.body)
        children += self._slot("ClassDef", "decorator_list", node.decorator_list)
        return self._make("ClassDef", role, _own_span(node), node.name, children,
                          own=_own_span(node))

    def _h_Return(self, node, role):
        return self._make("Return", role, _own_span(node), "",
                          self._slot("Return", "value", node.value), own=_own_span(node))

    def _h_Delete(self, node, role):
        return self._make("Delete", role, _own_span(node), "",
                          self._slot("Delete", "targets", node.targets), own=_own_span(node))

    def _h_Assign(self, node, role):
        children = self._slot("Assign", "targets", node.targets)
        children += self._slot("Assign", "value", node.value)
        return self._make("Assign", role, _own_span(node), "", children, own=_own_span(node))

    def _h_AnnAssign(self, node, role):
        # x: T = v  folds to a plain assignment; bare declarations keep
        # only the target.
        children = self._slot("Assign", "targets", node.target)
        if node.value is not None:
            children += self._slot("Assign", "value", node.value)
        return self._make("Assign", role, _own_span(node), "", children, own=_own_span(node))

    def _h_NamedExpr(self, node, role):
        children = self._slot("Assign", "targets", node.target)
        children += self._slot("Assign", "value", node.value)
        return self._make("Assign", role, _own_span(node), "", children, own=_own_span(node))

    def _h_AugAssign(self, node, role):
        target = self.convert(node.target, node_role("AugAssign", "target"))
        value = self.convert(node.value, node_role("AugAssign", "value"))
        op = self._op(node.op, node_role("AugAssign", "op"), self._between(target, value))
        return self._make("AugAssign", role, _own_span(node), "", [target, op, value],
                          own=_own_span(node))

    def _h_For(self, node, role):
        children = self._slot("For", "target", node.target)
        children += self._slot("For", "iter", node.iter)
        children += self._slot("For", "body", node.body)
        children += self._slot("For", "orelse", node.orelse)
        return self._make("For", role, _own_span(node), "", children, own=_own_span(node))

    _h_AsyncFor = _h_For

    def _h_While(self, node, role):
        children = self._slot("While", "test", node.test)
        children += self._slot("While", "body", node.body)
        children += self._slot("While", "orelse", node.orelse)
        return self._make("While", role, _own_span(node), "", children, own=_own_span(node))

    def _h_If(self, node, role):
        children = self._slot("If", "test", node.test)
        children += self._slot("If", "body", node.body)
        children += self._slot("If", "orelse", node.orelse)
        return self._make("If", role, _own_span(node), "", children, own=_own_span(node))

    def _h_With(self, node, role):
        return self._with_chain(node, node.items, role)

    _h_AsyncWith = _h_With

    def _with_chain(self, node, items, role):
        # multi-item `with a, b:` nests exactly like the classic parser did
        first = items[0]
        children = self._slot("With", "context_expr", first.context_expr)
        if first.optional_vars is not None:
            children += self._slot("With", "optional_vars", first.optional_vars)
        body_role = node_role("With", "body")
        if len(items) > 1:
            children.append(self._with_chain(node, items[1:], body_role))
        else:
            children += self._slot("With", "body", node.body)
        return self._make("With", role, _own_span(node), "", children, own=_own_span(node))

    def _h_Raise(self, node, role):
        children = self._slot("Raise", "type", node.exc)
        if node.cause is not None:
            children += self._slot("Raise", "inst", node.cause)
        return self._make("Raise", role, _own_span(node), "", children, own=_own_span(node))

    def _h_Try(self, node, role):
        span = _own_span(node)
        if node.handlers:
            children = self._slot("TryExcept", "body", node.body)
            children += self._slot("TryExcept", "handlers", node.handlers)
            children += self._slot("TryExcept", "orelse", node.orelse)
            inner = self._make("TryExcept", role, span, "", children, own=span)
            if not node.finalbody:
                return inner
            inner_as_body = AstNode(
                kind=inner.kind, role=node_role("TryFinally", "body"),
                span=inner.span, text=inner.text, children=inner.children)
            final = self._slot("TryFinally", "finalbody", node.finalbody)
            return self._make("TryFinally", role, span, "", [inner_as_body] + final, own=span)
        children = self._slot("TryFinally", "body", node.body)
        children += self._slot("TryFinally", "finalbody", node.finalbody)
        return self._make("TryFinally", role, span, "", children, own=span)

    def _h_ExceptHandler(self, node, role):
        children = self._slot("ExceptHandler", "type", node.type)
        if node.name:
            name_role = node_role("ExceptHandler", "name")
            anchor = children[0].span if children else _own_span(node)
            children.append(AstNode("Name", name_role,
                                    _point(anchor.end_line, anchor.end_col), node.name))
        children += self._slot("ExceptHandler", "body", node.body)
        return self._make("ExceptHandler", role, _own_span(node), "", children,
                          own=_own_span(node))

    def _h_Assert(self, node, role):
        children = self._slot("Assert", "test", node.test)
        children += self._slot("Assert", "msg", node.msg)
        return self._make("Assert", role, _own_span(node), "", children, own=_own_span(node))

    def _h_Import(self, node, role):
        return self._make("Import", role, _own_span(node), "",
                          self._slot("Import", "names", node.names), own=_own_span(node))

    def _h_ImportFrom(self, node, role):
        text = "." * (node.level or 0) + (node.module or "")
        return self._make("ImportFrom", role, _own_span(node), text,
                          self._slot("ImportFrom", "names", node.names), own=_own_span(node))

    def _h_alias(self, node, role):
        text = node.name if not node.asname else f"{node.name} as {node.asname}"
        return self._make("alias", role, _own_span(node), text, [])

    def _h_Global(self, node, role):
        return self._make("Global", role, _own_span(node), ",".join(node.names), [])

    def _h_Nonlocal(self, node, role):
        return self._make("Global", role, _own_span(node), ",".join(node.names), [])

    def _h_Expr(self, node, role):
        return self._make("Expr", role, _own_span(node), "",
                          self._slot("Expr", "value", node.value), own=_own_span(node))

    def _h_Pass(self, node, role):
        return self._make("Pass", role, _own_span(node), "", [])

    def _h_Break(self, node, role):
        return self._make("Break", role, _own_span(node), "", [])

    def _h_Continue(self, node, role):
        return self._make("Continue", role, _own_span(node), "", [])

    # -- expressions

    def _h_BoolOp(self, node, role):
        values = self._slot("BoolOp", "values", node.values)
        op = self._op(node.op, node_role("BoolOp", "op"), self._between(values[0], values[1]))
        return self._make("BoolOp", role, _own_span(node), "", values + [op],
                          own=_own_span(node))

    def _h_BinOp(self, node, role):
        left = self.convert(node.left, node_role("BinOp", "left"))
        right = self.convert(node.right, node_role("BinOp", "right"))
        op = self._op(node.op, node_role("BinOp", "op"), self._between(left, right))
        return self._make("BinOp", role, _own_span(node), "", [left, op, right],
                          own=_own_span(node))

    def _h_UnaryOp(self, node, role):
        operand = self.convert(node.operand, node_role("UnaryOp", "operand"))
        span = _own_span(node)
        op_span = SourceSpan(span.start_line, span.start_col,
                             operand.span.start_line, operand.span.start_col)
        op = self._op(node.op, node_role("UnaryOp", "op"), op_span)
        return self._make("UnaryOp", role, span, "", [op, operand], own=span)

    def _h_Lambda(self, node, role):
        own = _own_span(node)
        children = [self._anchored(self.convert(node.args, node_role("Lambda", "args")), own)]
        children += self._slot("Lambda", "body", node.body)
        return self._make("Lambda", role, own, "", children, own=own)

    def _h_IfExp(self, node, role):
        children = self._slot("IfExp", "test", node.test)
        children += self._slot("IfExp", "body", node.body)
        children += self._slot("IfExp", "orelse", node.orelse)
        return self._make("IfExp", role, _own_span(node), "", children, own=_own_span(node))

    def _h_Dict(self, node, role):
        children = []
        children += self._slot("Dict", "keys", [k for k in node.keys if k is not None])
        children += self._slot("Dict", "values", node.values)
        return self._make("Dict", role, _own_span(node), "", children, own=_own_span(node))

    def _h_Set(self, node, role):
        return self._make("Set", role, _own_span(node), "",
                          self._slot("Set", "elts", node.elts), own=_own_span(node))

    def _comp(self, kind, node, role, parts):
        children = []
        for slot, value in parts:
            children += self._slot(kind, slot, value)
        children += self._slot(kind, "generators", node.generators)
        return self._make(kind, role, _own_span(node), "", children, own=_own_span(node))

    def _h_ListComp(self, node, role):
        return self._comp("ListComp", node, role, [("elt", node.elt)])

    def _h_SetComp(self, node, role):
        return self._comp("SetComp", node, role, [("elt", node.elt)])

    def _h_DictComp(self, node, role):
        return self._comp("DictComp", node, role, [("key", node.key), ("value", node.value)])

    def _h_GeneratorExp(self, node, role):
        return self._comp("GeneratorExp", node, role, [("elt", node.elt)])

    def _h_comprehension(self, node, role):
        children = self._slot("comprehension", "target", node.target)
        children += self._slot("comprehension", "iter", node.iter)
        children += self._slot("comprehension", "ifs", node.ifs)
        return self._make("comprehension", role, None, "", children)

    def _h_Yield(self, node, role):
        return self._make("Yield", role, _own_span(node), "",
                          self._slot("Yield", "value", node.value), own=_own_span(node))

    def _h_YieldFrom(self, node, role):
        return self._make("Yield", role, _own_span(node), "",
                          self._slot("Yield", "value", node.value), own=_own_span(node))

    def _h_Await(self, node, role):
        return self.convert(node.value, role)

    def _h_Compare(self, node, role):
        left = self.convert(node.left, node_role("Compare", "left"))
        comparators = [self.convert(c, node_role("Compare", "comparators"))
                       for c in node.comparators]
        children = [left] + comparators
        prev = left
        for op_node, comp in zip(node.ops, comparators):
            children.append(self._op(op_node, node_role("Compare", "ops"),
                                     self._between(prev, comp)))
            prev = comp
        return self._make("Compare", role, _own_span(node), "", children, own=_own_span(node))

    def _h_Call(self, node, role):
        children = self._slot("Call", "func", node.func)
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                children.append(self.convert(arg.value, node_role("Call", "starargs")))
            else:
                children.append(self.convert(arg, node_role("Call", "args")))
        for kw in node.keywords:
            if kw.arg is None:
                children.append(self.convert(kw.value, node_role("Call", "kwargs")))
            else:
                children.append(self.convert(kw, node_role("Call", "keywords")))
        return self._make("Call", role, _own_span(node), "", children, own=_own_span(node))

    def _h_keyword(self, node, role):
        children = self._slot("keyword", "value", node.value)
        return self._make("keyword", role, None, node.arg or "", children)

    def _h_Constant(self, node, role):
        span = _own_span(node)
        value = node.value
        if value is True or value is False or value is None:
            return self._make("Name", role, span, str(value), [])
        if isinstance(value, (int, float, complex)):
            return self._make("Num", role, span, repr(value), [])
        if isinstance(value, str):
            return self._make("Str", role, span, value, [])
        if isinstance(value, bytes):
            return self._make("Str", role, span, repr(value), [])
        if value is Ellipsis:
            return self._make("Ellipsis", role, span, "", [])
        return self._make("Str", role, span, repr(value), [])

    def _h_JoinedStr(self, node, role):
        # f-strings have no classic counterpart; fold to a string leaf
        return self._make("Str", role, _own_span(node), self._segment(node), [])

    def _h_FormattedValue(self, node, role):
        return self._make("Str", role, _own_span(node), self._segment(node), [])

    def _h_Attribute(self, node, role):
        return self._make("Attribute", role, _own_span(node), node.attr,
                          self._slot("Attribute", "value", node.value), own=_own_span(node))

    def _h_Subscript(self, node, role):
        children = self._slot("Subscript", "value", node.value)
        children.append(self._subscript_slice(node.slice))
        return self._make("Subscript", role, _own_span(node), "", children,
                          own=_own_span(node))

    def _subscript_slice(self, sl) -> AstNode:
        slice_role = node_role("Subscript", "slice")
        if isinstance(sl, ast.Slice):
            return self.convert(sl, slice_role)
        if isinstance(sl, ast.Tuple) and any(isinstance(e, ast.Slice) for e in sl.elts):
            dims = []
            dim_role = node_role("ExtSlice", "dims")
            for elt in sl.elts:
                if isinstance(elt, ast.Slice):
                    dims.append(self.convert(elt, dim_role))
                else:
                    inner = self.convert(elt, node_role("Index", "value"))
                    dims.append(self._make("Index", dim_role, None, "", [inner]))
            return self._make("ExtSlice", slice_role, None, "", dims)
        inner = self.convert(sl, node_role("Index", "value"))
        return self._make("Index", slice_role, None, "", [inner])

    def _h_Slice(self, node, role):
        children = self._slot("Slice", "lower", node.lower)
        children += self._slot("Slice", "upper", node.upper)
        children += self._slot("Slice", "step", node.step)
        return self._make("Slice", role, _own_span(node), "", children, own=_own_span(node))

    def _h_Name(self, node, role):
        return self._make("Name", role, _own_span(node), node.id, [])

    def _h_Starred(self, node, role):
        # classic grammar has no starred targets; unwrap in place
        return self.convert(node.value, role)

    def _h_List(self, node, role):
        return self._make("List", role, _own_span(node), "",
                          self._slot("List", "elts", node.elts), own=_own_span(node))

    def _h_Tuple(self, node, role):
        return self._make("Tuple", role, _own_span(node), "",
                          self._slot("Tuple", "elts", node.elts), own=_own_span(node))

    def _h_arg(self, node, role):
        return self._make("Name", role, _own_span(node), node.arg, [])

    def _h_arguments(self, node, role):
        args_role = node_role("arguments", "args")
        children = []
        for a in getattr(node, "posonlyargs", []) + node.args + node.kwonlyargs:
            children.append(self.convert(a, args_role))
        defaults = list(node.defaults) + [d for d in node.kw_defaults if d is not None]
        children += self._slot("arguments", "defaults", defaults)
        stars = []
        if node.vararg is not None:
            stars.append("*" + node.vararg.arg)
        if node.kwarg is not None:
            stars.append("**" + node.kwarg.arg)
        return self._make("arguments", role, None, ",".join(stars), children)
