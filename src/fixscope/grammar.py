"""Canonical AST model for the analyzed Python corpora.

The taxonomy (node kinds and parent/slot roles) is pinned to a versioned
table shipped with the package: ``data/taxonomy_py27_v1.txt``, the classic
Python 2.7 abstract grammar restricted to ``Module``-rooted trees (89 kinds,
98 roles). Pinning the table keeps feature names stable across runs and
host-interpreter upgrades.  The table is also the one place that declares
each kind's child slots and their order.

Concrete parsing delegates to the host interpreter's ``ast`` module; a
normalization layer folds the host tree onto the canonical taxonomy.  A
generic walker converts each host class in ``_GENERIC``, whose entry
gives its canonical kind (``AsyncFor`` -> ``For``, ``arg`` -> ``Name``,
``AnnAssign`` -> ``Assign``, ...), the host fields of any slot named
otherwise (``Raise`` reads ``exc`` and ``cause``) and its text rule (a
name, ``ImportFrom``'s dots and module, ``name as asname``, ...).
Per-kind handlers remain only where the tree changes shape:

* ``Constant`` splits back into ``Num`` / ``Str`` / ``Name`` leaves,
* ``Try`` splits into ``TryExcept`` / ``TryFinally`` (nested when both),
* multi-item ``with`` statements become nested ``With`` chains,
* an empty ``arguments`` node sits at its definition's start, and an
  ``except`` clause's name becomes a ``Name`` leaf,
* operators become leaves between their operands, and starred call
  arguments take the star roles,
* plain subscript indices are re-wrapped in ``Index`` / ``ExtSlice``,
* ``Await``/``Starred`` unwrap to their value, f-strings fold to ``Str``
  (their line endings to LF, as the tokenizer folds any other literal's)
  and ``async`` definitions to their plain forms.

Files using constructs with no reasonable counterpart (``match`` blocks)
raise :class:`UnsupportedConstructError`, a ``SyntaxError`` subclass, so
the pipeline records and skips them like any unparseable file.

A node's span is its host node's own position, from the first decorator
of a decorated definition (``_own_span``); only a node positionless in the
classic grammar (``arguments``, ``keyword``, ``comprehension``, ``Index``,
``ExtSlice``, ``Module``) spans its children.  This relies on a host
invariant: a node's own position covers its children, except a
definition's decorators.  It holds under Python 3.10 to 3.13 on the
bundled file pairs, where ``tests/interp_digest.py`` gives each
interpreter the same hunks.

Given a test for untouched line spans, ``parse_source`` leaves each
statement on untouched lines unconverted, as a :class:`StubNode`: the
kind, role, text and span its conversion has, read off the host node by
``_STUB_RULES``, and no children until ``expand`` converts it.  The join
pairs two counterpart stubs whole, so a small edit to a large module
converts little more than the statements around it.  Stubs are allowed
per file: one that holds a statement no stub can stand for (``match``,
``try``/``except*``) ignores the test, and every node is converted, as
without it.

No walk here recurses once per tree level: the normalizer's handlers are
generators that ``drive`` runs on an explicit stack, so how deep a file
may nest does not depend on how deep the caller's stack is.  Two limits
remain:

* the host parser builds its tree recursively and gives up near 2,990
  levels at the top of the stack (3x the default recursion limit of
  1000), three levels fewer per frame of caller stack; ``parse_source``
  turns that ``RecursionError`` into :class:`UnsupportedConstructError`;
* a hunk's labeled subtree may be at most
  ``fixscope.diffing.MAX_HUNK_DEPTH`` (400) levels high, a bound fixed by
  the file alone, so that its ``hunks.jsonl`` line round-trips through
  ``json``, which recurses in C twice per level.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import operator
import re
from dataclasses import dataclass
from importlib import resources
from types import GeneratorType
from typing import NamedTuple

__all__ = [
    "SourceSpan",
    "AstNode",
    "StubNode",
    "Taxonomy",
    "UnknownSlotError",
    "UnsupportedConstructError",
    "load_taxonomy",
    "taxonomy_checksum",
    "parse_source",
    "split_lines",
    "node_role",
    "tree_height",
    "drive",
]

TAXONOMY_RESOURCE = "taxonomy_py27_v1.txt"

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


class SourceSpan(NamedTuple):
    """Line/column extent of a node (1-based lines, 0-based columns).  A
    tuple, so spans order by start, then end."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int


class AstNode:
    """Canonical tree node.

    ``text`` carries the lexeme for identifier/literal-bearing nodes
    (names, numbers, strings, attribute names, definition names) and is
    empty elsewhere.  ``role`` is ``None`` only for the ``Module`` root.
    Nodes compare and hash by identity: a field-wise ``==`` would recurse
    once per tree level.  Nothing changes a node once it is built; the
    class is slotted rather than frozen, because a frozen class pays for
    every field it sets at construction.
    """

    __slots__ = ("kind", "role", "span", "text", "children", "__weakref__")

    def __init__(self, kind: str, role: str | None, span: SourceSpan, text: str = "",
                 children: tuple["AstNode", ...] = ()):
        self.kind = kind
        self.role = role
        self.span = span
        self.text = text
        self.children = children

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.kind!r}, {self.role!r}, {self.span!r}, "
                f"{self.text!r}, <{len(self.children)} children>)")

    def expand(self) -> "AstNode":
        """This node with its children: the node itself; a stub converts."""
        return self

    def walk(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class StubNode(AstNode):
    """A host statement on untouched lines, left unconverted.

    Its kind, role, span and text are those its conversion has; it has no
    children until ``expand`` converts it, one level at a time: statements
    nested in it come back as stubs again.
    """

    __slots__ = ("_host", "_normalizer")

    def __init__(self, kind, role, span, text, host: ast.stmt, normalizer: "_Normalizer"):
        super().__init__(kind, role, span, text)
        self._host = host
        self._normalizer = normalizer

    def expand(self) -> AstNode:
        return drive(self._normalizer.convert(self._host, self.role))


@dataclass(frozen=True)
class Taxonomy:
    """The closed kind/role enumerations loaded from the shipped table."""

    kinds: frozenset[str]
    roles: dict[tuple[str, str], str]
    role_names: frozenset[str]
    checksum: str
    # kind -> its slot names, in table order
    slots: dict[str, tuple[str, ...]]

    def role_for(self, parent_kind: str, slot: str) -> str:
        try:
            return self.roles[(parent_kind, slot)]
        except KeyError:
            raise UnknownSlotError(f"{parent_kind}.{slot} is not a grammar slot") from None


@functools.cache
def _packaged_table(resource: str, parse):
    """``parse(text, checksum)`` of the table ``resource`` shipped in
    ``fixscope.data``: its text and the sha256 of its bytes.  Each table
    is read and parsed once per process."""
    raw = resources.files("fixscope.data").joinpath(resource).read_bytes()
    return parse(raw.decode("utf-8"), hashlib.sha256(raw).hexdigest())


def _parse_taxonomy(text: str, checksum: str) -> Taxonomy:
    kinds: list[str] = []
    roles: dict[tuple[str, str], str] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("kind "):
            kinds.append(line[5:].strip())
        elif line.startswith("role "):
            key, name = line[5:].split("=", 1)
            parent, slot = key.strip().split(".")
            roles[(parent, slot)] = name.strip()
    slots: dict[str, tuple[str, ...]] = {}
    for parent, slot in roles:
        slots[parent] = slots.get(parent, ()) + (slot,)
    return Taxonomy(kinds=frozenset(kinds), roles=roles,
                    role_names=frozenset(roles.values()), checksum=checksum, slots=slots)


def load_taxonomy() -> Taxonomy:
    """The shipped taxonomy table, parsed once."""
    return _packaged_table(TAXONOMY_RESOURCE, _parse_taxonomy)


def taxonomy_checksum() -> str:
    return load_taxonomy().checksum


def node_role(parent: "AstNode | str", child_slot: str) -> str:
    """Canonical role for a child slot of ``parent`` (kind or node)."""
    kind = parent.kind if isinstance(parent, AstNode) else parent
    return load_taxonomy().role_for(kind, child_slot)


def tree_height(node) -> int:
    """0 for a leaf, else one more than the tallest child: the depth of
    the deepest node below ``node`` (an ``AstNode``, or any node with
    ``children``), found one level at a time."""
    height = 0
    level = list(node.children)
    while level:
        height += 1
        level = [child for parent in level for child in parent.children]
    return height


def drive(call):
    """Run a recursion written as generators, on an explicit stack.

    A call is either its finished result or a generator standing for it.
    The generator yields one call per sub-call it would make, receives
    that call's result back, and returns its own result.  Tree depth
    costs stack entries here, not Python frames.
    """
    stack = []
    while True:
        if isinstance(call, GeneratorType):
            stack.append(call)
            result = None
        elif not stack:
            return call
        else:
            result = call
        try:
            call = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            call = done.value


def parse_source(text: str, untouched=None) -> AstNode:
    """Parse ``text`` and normalize it onto the canonical taxonomy.

    Raises ``SyntaxError`` (including :class:`UnsupportedConstructError`)
    for files the taxonomy cannot represent; the pipeline records and skips
    those.  Pure function of its arguments.

    ``untouched``, when given, tests a line span ``(first, last)`` of
    ``text``: a statement whose lines, decorators included, it passes
    comes back as a :class:`StubNode` instead of converted.  A file that
    holds a statement no stub can stand for (``match``, ``try``/``except*``)
    ignores the test and converts whole, so it fails with the error and
    line it would fail with unstubbed.  Without the test every node is
    converted.

    The normalizer walks an explicit stack, so nesting depth is bounded
    only by the host parser: a left-deep sum ``1 + 1 + ...`` of 2,990
    terms, called at the top of the stack at the default recursion limit
    of 1000 (or of 2,690 terms 100 frames down), is past what
    ``ast.parse`` builds, and raises :class:`UnsupportedConstructError`.
    """
    try:
        tree = ast.parse(text)
    except RecursionError as exc:
        raise UnsupportedConstructError("nesting too deep for the host parser") from exc
    if untouched is not None and not all(map(_stubbable, tree.body)):
        untouched = None
    return _Normalizer(text, untouched).module(tree)


# --- host-parser normalization -------------------------------------------

_UNSUPPORTED = (
    "Match", "MatchValue", "MatchSingleton", "MatchSequence", "MatchMapping",
    "MatchClass", "MatchStar", "MatchAs", "MatchOr", "TryStar", "TypeAlias",
)


def _rule(kind: str, text=None, **fields: tuple[str, ...]):
    """A ``_GENERIC`` entry: the canonical kind, the host fields of each
    slot named otherwise, and the text rule (None for no text)."""
    return kind, fields, text


_GENERIC = {name: _rule(name) for name in (
    "Return", "Delete", "Assign", "For", "While", "If", "Assert", "Import",
    "Expr", "Pass", "Break", "Continue", "IfExp", "Dict", "Set", "ListComp",
    "SetComp", "DictComp", "GeneratorExp", "comprehension", "Yield", "Slice",
    "List", "Tuple")}
_GENERIC.update(
    AsyncFor=_rule("For"),
    YieldFrom=_rule("Yield"),
    Name=_rule("Name", operator.attrgetter("id")),
    arg=_rule("Name", operator.attrgetter("arg")),
    Attribute=_rule("Attribute", operator.attrgetter("attr")),
    # `class A(**kw)` has a keyword whose arg is None
    keyword=_rule("keyword", operator.attrgetter("arg")),
    ClassDef=_rule("ClassDef", operator.attrgetter("name"), bases=("bases", "keywords")),
    # `x: T = v` and `(x := v)` fold to assignments; a bare `x: T` keeps x
    AnnAssign=_rule("Assign", targets=("target",)),
    Raise=_rule("Raise", type=("exc",), inst=("cause",), tback=()),
    ImportFrom=_rule("ImportFrom", lambda node: "." * (node.level or 0) + (node.module or "")),
    alias=_rule("alias", lambda node: (
        f"{node.name} as {node.asname}" if node.asname else node.name)),
    Global=_rule("Global", lambda node: ",".join(node.names)),
)
_GENERIC.update(NamedExpr=_GENERIC["AnnAssign"], Nonlocal=_GENERIC["Global"])

# the kind and text rule of every statement class a stub can stand for;
# ``Try``'s kind depends on its clauses (``_Normalizer._stub``)
_STUB_RULES = {name: rule for name, rule in _GENERIC.items()
               if issubclass(getattr(ast, name), ast.stmt)}
_STUB_RULES.update(
    FunctionDef=_rule("FunctionDef", operator.attrgetter("name")),
    With=_rule("With"),
    AugAssign=_rule("AugAssign"),
    Try=_rule("Try"),
)
_STUB_RULES.update(AsyncFunctionDef=_STUB_RULES["FunctionDef"], AsyncWith=_rule("With"))


def _stubbable(statement: ast.stmt) -> bool:
    """Whether a stub can stand for ``statement`` and for every statement
    nested in it, found by a walk over statement bodies alone: expressions
    hold no statements."""
    stack = [statement]
    while stack:
        node = stack.pop()
        if type(node).__name__ not in _STUB_RULES:
            return False
        for field in ("body", "orelse", "finalbody"):
            stack.extend(getattr(node, field, ()))
        for handler in getattr(node, "handlers", ()):
            stack.extend(handler.body)
    return True


# positionless in the classic grammar: spanned by their children alone
_CHILD_SPANNED = frozenset({"comprehension", "keyword"})
_DECORATED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_span(node: ast.AST) -> SourceSpan | None:
    """The span of ``node``'s conversion: its own position, from the first
    decorator of a decorated definition (unwrapped through ``await`` and
    starred, as it converts), or None for a positionless node.  It covers
    the children while the host's own position covers all but decorators."""
    if getattr(node, "lineno", None) is None:
        return None
    first = node
    if isinstance(node, _DECORATED) and node.decorator_list:
        first = node.decorator_list[0]
        while isinstance(first, (ast.Await, ast.Starred)):
            first = first.value
    return SourceSpan(first.lineno, first.col_offset, node.end_lineno, node.end_col_offset)


# a source line as the parser splits them: at \r\n, \r or \n only, so \f,
# \v, \x1c-\x1e, \x85, \u2028 and \u2029 stay inside (str.splitlines splits)
_SOURCE_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z")


def split_lines(text: str, keepends: bool = False) -> list[str]:
    """``text.splitlines(keepends)``, but split only where the parser splits."""
    if "\r" in text:
        lines = _SOURCE_LINE.findall(text)
        return lines if keepends else [line.rstrip("\r\n") for line in lines]
    lines = text.split("\n")
    last = lines.pop()  # empty after a final newline
    if keepends:
        lines = [line + "\n" for line in lines]
    if last:
        lines.append(last)
    return lines


def _point(line: int, col: int) -> SourceSpan:
    return SourceSpan(line, col, line, col)


_FILE_START = _point(1, 0)
_END = operator.itemgetter(2, 3)


class _Normalizer:
    """Folds a host ``ast`` tree onto the canonical taxonomy.

    ``convert`` returns a finished leaf, or a generator for a node with
    children: it yields ``self.convert(child, role)`` for each child,
    receives the converted child back from ``drive``, and returns the
    node.  Conversion order, and so the first error raised, is slot
    order.
    """

    def __init__(self, source: str, untouched=None):
        self.source = source
        self.untouched = untouched
        self.taxonomy = load_taxonomy()

    def module(self, node: ast.Module) -> AstNode:
        return drive(self._module(node))

    def _module(self, node):
        body = yield from self._slot("Module", "body", node.body)
        return self._make("Module", None, None, "", body)

    # -- helpers

    def _make(
        self,
        kind: str,
        role: str | None,
        span: SourceSpan | None,
        text: str,
        children: list[AstNode],
    ) -> AstNode:
        """A node spanning ``span``, or its children when ``span`` is None,
        with the children ordered by position; a node with neither sits at
        the file's start."""
        if children:
            spans = [child.span for child in children]
            if span is None:
                span = SourceSpan(*min(spans)[:2], *_END(max(spans, key=_END)))
            # sorted is stable, so children already in order keep it unsorted
            if any(map(operator.gt, spans, spans[1:])):
                order = sorted(range(len(spans)), key=spans.__getitem__)
                children = [children[i] for i in order]
        return AstNode(kind, role, span or _FILE_START, text, tuple(children))

    def _slot(self, parent_kind: str, slot: str, value):
        role = self.taxonomy.role_for(parent_kind, slot)
        items = value if isinstance(value, list) else [value]
        out = []
        for item in items:
            if item is None:
                continue
            node = None
            if self.untouched is not None and isinstance(item, ast.stmt):
                node = self._stub(item, role)
            if node is None:
                node = self.convert(item, role)
                if type(node) is GeneratorType:  # a leaf needs no trip through drive
                    node = yield node
            out.append(node)
        return out

    def _stub(self, node: ast.stmt, role: str) -> StubNode | None:
        """A stub for the statement ``node``, if its lines are untouched."""
        span = _own_span(node)
        if not self.untouched(span.start_line, span.end_line):
            return None
        kind, _fields, text_of = _STUB_RULES[type(node).__name__]
        if kind == "Try":
            kind = "TryExcept" if node.handlers and not node.finalbody else "TryFinally"
        return StubNode(kind, role, span, (text_of(node) or "") if text_of else "", node, self)

    def _op(self, op_node: ast.AST, role: str, span: SourceSpan) -> AstNode:
        kind = type(op_node).__name__
        return AstNode(kind=kind, role=role, span=span, text=_OP_SYMBOLS.get(kind, ""))

    def _between(self, left: AstNode, right: AstNode) -> SourceSpan:
        return SourceSpan(left.span.end_line, left.span.end_col,
                          right.span.start_line, right.span.start_col)

    @functools.cached_property
    def _lines(self) -> list[str]:
        return split_lines(self.source, keepends=True)

    def _segment(self, node: ast.AST) -> str:
        """``ast.get_source_segment(self.source, node) or ""``, over lines
        split once per file instead of once per call."""
        if getattr(node, "end_lineno", None) is None or node.end_col_offset is None:
            return ""
        first, last = self._lines[node.lineno - 1], self._lines[node.end_lineno - 1]
        if node.lineno == node.end_lineno:
            return first.encode()[node.col_offset:node.end_col_offset].decode()
        return "".join([first.encode()[node.col_offset:].decode(),
                        *self._lines[node.lineno:node.end_lineno - 1],
                        last.encode()[:node.end_col_offset].decode()])

    # -- dispatch

    def convert(self, node: ast.AST, role: str | None):
        name = type(node).__name__
        handler = _HANDLERS.get(name)
        if handler is None:
            raise UnsupportedConstructError(f"unhandled host node {name}")
        return handler(self, node, role)

    def _unsupported(self, node, role):
        err = UnsupportedConstructError(
            f"{type(node).__name__} has no counterpart in the py27 dialect")
        err.lineno = getattr(node, "lineno", None)
        raise err

    def _generic(self, node, role, rule):
        """Converts the children of each of the rule's kind's slots, in
        table order; a kind without slots is a finished leaf."""
        kind, fields, text_of = rule
        text = (text_of(node) or "") if text_of else ""
        span = None if kind in _CHILD_SPANNED else _own_span(node)
        slots = self.taxonomy.slots.get(kind)
        if slots is None:
            return AstNode(kind, role, span or _FILE_START, text, ())
        return self._generic_children(node, kind, fields, role, span, text, slots)

    def _generic_children(self, node, kind, fields, role, span, text, slots):
        children = []
        for slot in slots:
            for field in fields.get(slot, (slot,)):
                children += yield from self._slot(kind, slot, getattr(node, field))
        return self._make(kind, role, span, text, children)

    # -- statements

    def _h_FunctionDef(self, node, role):
        # `def` and `lambda`: the arguments, then the kind's other slots
        kind = "Lambda" if type(node) is ast.Lambda else "FunctionDef"
        args_slot, *slots = self.taxonomy.slots[kind]
        args = yield self.convert(node.args, node_role(kind, args_slot))
        if not args.children:
            # a bare `arguments` has no position: it sits at the keyword
            args = AstNode(args.kind, args.role, _point(node.lineno, node.col_offset), args.text)
        children = [args]
        for slot in slots:
            children += yield from self._slot(kind, slot, getattr(node, slot))
        return self._make(kind, role, _own_span(node), getattr(node, "name", ""), children)

    _h_AsyncFunctionDef = _h_FunctionDef

    def _h_With(self, node, role):
        # multi-item `with a, b:` nests exactly like the classic parser
        # did: one With per item, the last holding the body
        items = []
        for item in node.items:
            children = yield from self._slot("With", "context_expr", item.context_expr)
            children += yield from self._slot("With", "optional_vars", item.optional_vars)
            items.append(children)
        items[-1] += yield from self._slot("With", "body", node.body)
        span = _own_span(node)
        inner = None
        for depth in range(len(items) - 1, -1, -1):
            children = items[depth] if inner is None else items[depth] + [inner]
            inner = self._make("With", node_role("With", "body") if depth else role,
                               span, "", children)
        return inner

    _h_AsyncWith = _h_With

    def _h_Try(self, node, role):
        span = _own_span(node)
        if node.handlers:
            children = yield from self._slot("TryExcept", "body", node.body)
            children += yield from self._slot("TryExcept", "handlers", node.handlers)
            children += yield from self._slot("TryExcept", "orelse", node.orelse)
            inner = self._make("TryExcept", role, span, "", children)
            if not node.finalbody:
                return inner
            inner_as_body = AstNode(
                kind=inner.kind, role=node_role("TryFinally", "body"),
                span=inner.span, text=inner.text, children=inner.children)
            final = yield from self._slot("TryFinally", "finalbody", node.finalbody)
            return self._make("TryFinally", role, span, "", [inner_as_body] + final)
        children = yield from self._slot("TryFinally", "body", node.body)
        children += yield from self._slot("TryFinally", "finalbody", node.finalbody)
        return self._make("TryFinally", role, span, "", children)

    def _h_ExceptHandler(self, node, role):
        span = _own_span(node)
        children = yield from self._slot("ExceptHandler", "type", node.type)
        if node.name:
            name_role = node_role("ExceptHandler", "name")
            anchor = children[0].span if children else span
            children.append(AstNode("Name", name_role,
                                    _point(anchor.end_line, anchor.end_col), node.name))
        children += yield from self._slot("ExceptHandler", "body", node.body)
        return self._make("ExceptHandler", role, span, "", children)

    # -- expressions

    def _h_BoolOp(self, node, role):
        values = yield from self._slot("BoolOp", "values", node.values)
        op = self._op(node.op, node_role("BoolOp", "op"), self._between(values[0], values[1]))
        return self._make("BoolOp", role, _own_span(node), "", values + [op])

    def _h_BinOp(self, node, role):
        # `a + b` and `a += b`: two operands and the operator between them
        kind = type(node).__name__
        first, op_slot, last = self.taxonomy.slots[kind]
        left = yield self.convert(getattr(node, first), node_role(kind, first))
        right = yield self.convert(getattr(node, last), node_role(kind, last))
        op = self._op(node.op, node_role(kind, op_slot), self._between(left, right))
        return self._make(kind, role, _own_span(node), "", [left, op, right])

    _h_AugAssign = _h_BinOp

    def _h_UnaryOp(self, node, role):
        operand = yield self.convert(node.operand, node_role("UnaryOp", "operand"))
        span = _own_span(node)
        op_span = SourceSpan(span.start_line, span.start_col,
                             operand.span.start_line, operand.span.start_col)
        op = self._op(node.op, node_role("UnaryOp", "op"), op_span)
        return self._make("UnaryOp", role, span, "", [op, operand])

    def _h_Await(self, node, role):
        # classic grammar has no await or starred targets; unwrap in place
        return (yield self.convert(node.value, role))

    _h_Starred = _h_Await

    def _h_Compare(self, node, role):
        left = yield self.convert(node.left, node_role("Compare", "left"))
        comparators = []
        for comp in node.comparators:
            comparators.append((yield self.convert(comp, node_role("Compare", "comparators"))))
        children = [left] + comparators
        prev = left
        for op_node, comp in zip(node.ops, comparators):
            children.append(self._op(op_node, node_role("Compare", "ops"),
                                     self._between(prev, comp)))
            prev = comp
        return self._make("Compare", role, _own_span(node), "", children)

    def _h_Call(self, node, role):
        children = yield from self._slot("Call", "func", node.func)
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                children.append((yield self.convert(arg.value, node_role("Call", "starargs"))))
            else:
                children.append((yield self.convert(arg, node_role("Call", "args"))))
        for kw in node.keywords:
            if kw.arg is None:
                children.append((yield self.convert(kw.value, node_role("Call", "kwargs"))))
            else:
                children.append((yield self.convert(kw, node_role("Call", "keywords"))))
        return self._make("Call", role, _own_span(node), "", children)

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
        # f-strings have no classic counterpart; fold to a string leaf whose
        # line endings fold as the tokenizer folds a plain string's
        text = self._segment(node).replace("\r\n", "\n").replace("\r", "\n")
        return self._make("Str", role, _own_span(node), text, [])

    _h_FormattedValue = _h_JoinedStr

    def _h_Subscript(self, node, role):
        children = yield from self._slot("Subscript", "value", node.value)
        children.append((yield from self._subscript_slice(node.slice)))
        return self._make("Subscript", role, _own_span(node), "", children)

    def _subscript_slice(self, sl):
        slice_role = node_role("Subscript", "slice")
        if isinstance(sl, ast.Slice):
            return (yield self.convert(sl, slice_role))
        if isinstance(sl, ast.Tuple) and any(isinstance(e, ast.Slice) for e in sl.elts):
            dims = []
            dim_role = node_role("ExtSlice", "dims")
            for elt in sl.elts:
                if isinstance(elt, ast.Slice):
                    dims.append((yield self.convert(elt, dim_role)))
                else:
                    inner = yield self.convert(elt, node_role("Index", "value"))
                    dims.append(self._make("Index", dim_role, None, "", [inner]))
            return self._make("ExtSlice", slice_role, None, "", dims)
        inner = yield self.convert(sl, node_role("Index", "value"))
        return self._make("Index", slice_role, None, "", [inner])

    def _h_arguments(self, node, role):
        args_role = node_role("arguments", "args")
        children = []
        for a in getattr(node, "posonlyargs", []) + node.args + node.kwonlyargs:
            children.append((yield self.convert(a, args_role)))
        defaults = list(node.defaults) + [d for d in node.kw_defaults if d is not None]
        children += yield from self._slot("arguments", "defaults", defaults)
        stars = []
        if node.vararg is not None:
            stars.append("*" + node.vararg.arg)
        if node.kwarg is not None:
            stars.append("**" + node.kwarg.arg)
        return self._make("arguments", role, None, ",".join(stars), children)


def _handlers() -> dict:
    """Host class name -> ``convert``'s function for it, built once: a
    handler of its own, the generic walker with its rule, or the refusal
    of a construct the dialect cannot express."""
    table = {name: functools.partial(_Normalizer._generic, rule=rule)
             for name, rule in _GENERIC.items()}
    table.update((name[3:], getattr(_Normalizer, name))
                 for name in dir(_Normalizer) if name.startswith("_h_"))
    table["Lambda"] = _Normalizer._h_FunctionDef
    table.update((name, _Normalizer._unsupported) for name in _UNSUPPORTED)
    return table


_HANDLERS = _handlers()
