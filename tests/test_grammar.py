"""Canonical grammar model: taxonomy table, parsing, roles, heights."""

from __future__ import annotations

import ast
import functools
import importlib.util
import textwrap
from pathlib import Path

import pytest

from fixscope import grammar
from fixscope.grammar import (
    AstNode,
    StubNode,
    UnknownSlotError,
    UnsupportedConstructError,
    load_taxonomy,
    node_role,
    parse_source,
    split_lines,
    taxonomy_checksum,
    tree_height,
)


def find(node: AstNode, kind: str) -> AstNode:
    for n in node.walk():
        if n.kind == kind:
            return n
    raise AssertionError(f"no {kind} node found")


def structure(node: AstNode):
    """Span-free shape used for tree comparisons."""
    return (node.kind, node.role, node.text, tuple(structure(c) for c in node.children))


class TestTaxonomyTable:
    def test_pinned_counts(self):
        tax = load_taxonomy()
        assert len(tax.kinds) == 89
        assert len(tax.role_names) == 98

    def test_role_table_is_functional(self):
        tax = load_taxonomy()
        # every (parent, slot) maps to exactly one role
        assert len(tax.roles) == len(set(tax.roles))
        for (parent, _slot), role in tax.roles.items():
            assert parent in tax.kinds
            assert role.startswith(parent + "-")

    def test_slots_list_each_kinds_roles_in_table_order(self):
        tax = load_taxonomy()
        assert tax.slots["For"] == ("target", "iter", "body", "orelse")
        assert sorted((kind, slot) for kind, slots in tax.slots.items()
                      for slot in slots) == sorted(tax.roles)

    def test_checksum_stable(self):
        assert taxonomy_checksum() == taxonomy_checksum()
        assert len(taxonomy_checksum()) == 64


class TestNodeRole:
    def test_if_body(self):
        assert node_role("If", "body") == "If-Body"

    def test_call_args(self):
        assert node_role("Call", "args") == "Call-Args"

    def test_module_body(self):
        assert node_role("Module", "body") == "Module-Body"

    def test_unknown_slot(self):
        with pytest.raises(UnknownSlotError):
            node_role("If", "handlers")


class TestParseSource:
    def test_empty_program(self):
        root = parse_source("")
        assert root.kind == "Module"
        assert root.role is None
        assert root.children == ()

    def test_simple_assignment_matches_reference_dump(self):
        # cross-checked against the host parser's dump of `x = 0`:
        # Module(body=[Assign(targets=[Name(id='x')], value=Constant(0))])
        root = parse_source("x = 0")
        assert structure(root) == (
            "Module", None, "",
            (("Assign", "Module-Body", "",
              (("Name", "Assign-Targets", "x", ()),
               ("Num", "Assign-Value", "0", ()))),),
        )

    def test_syntax_error_reported_with_line(self):
        with pytest.raises(SyntaxError) as err:
            parse_source("if (")
        assert err.value.lineno == 1

    def test_unsupported_construct_is_syntax_error(self):
        src = "match x:\n    case 1:\n        pass\n"
        with pytest.raises(SyntaxError):
            parse_source(src)
        with pytest.raises(UnsupportedConstructError):
            parse_source(src)

    def test_nesting_is_bounded_by_the_host_parser_alone(self):
        # past the interpreter's recursion limit, and still normalized
        tree = parse_source("x = " + " + ".join(["1"] * 600) + "\n")
        assert tree_height(tree) == 601
        # past what ast.parse builds: unsupported, not a RecursionError
        with pytest.raises(UnsupportedConstructError):
            parse_source("x = " + " + ".join(["1"] * 4000) + "\n")

    def test_determinism(self):
        src = "def f(a, b=1):\n    return a + b\n"
        assert structure(parse_source(src)) == structure(parse_source(src))

    def test_children_ordered_by_source_position(self):
        src = "@dec\ndef f(a):\n    pass\n"
        fn = find(parse_source(src), "FunctionDef")
        spans = [(c.span.start_line, c.span.start_col) for c in fn.children]
        assert spans == sorted(spans)
        assert fn.children[0].kind == "Name" and fn.children[0].text == "dec"

    def test_parent_span_encloses_children(self):
        src = textwrap.dedent(
            """
            class Foo(object):
                def foo_fun(self):
                    if cond:
                        x = self.helper(1, k=2)[0].attr
                    for i in range(10):
                        x += i
                    return {1: [x], 'a': (1, 2)}
            """
        )
        for node in parse_source(src).walk():
            for child in node.children:
                start = (node.span.start_line, node.span.start_col)
                end = (node.span.end_line, node.span.end_col)
                assert start <= (child.span.start_line, child.span.start_col)
                assert end >= (child.span.end_line, child.span.end_col)

    def test_taxonomy_closure_on_varied_source(self):
        src = textwrap.dedent(
            """
            import os
            from os import path as p

            GLOBAL = {'a': 1}

            def outer(a, b=2, *args, **kwargs):
                global GLOBAL
                with open('f') as fh, open('g') as gh:
                    data = fh.read()
                try:
                    x = [i ** 2 for i in range(3) if i]
                    y = {k: v for k, v in items}
                    z = (lambda q: -q)(5)
                except ValueError as exc:
                    raise RuntimeError(str(exc))
                finally:
                    del data
                while not done:
                    if a > 1 and b < 2 or a == b:
                        break
                    else:
                        continue
                assert a is not None, 'message'
                print('x' if a in GLOBAL else 'y')
                yield a[1:2, ...]
                return {1, 2} | set()
            """
        )
        tax = load_taxonomy()
        for node in parse_source(src).walk():
            assert node.kind in tax.kinds, node.kind
            if node.role is not None:
                assert node.role in tax.role_names, node.role
            else:
                assert node.kind == "Module"

    def test_classic_foldings(self):
        root = parse_source("try:\n    f()\nexcept E:\n    pass\nfinally:\n    g()\n")
        tf = find(root, "TryFinally")
        assert [c.kind for c in tf.children] == ["TryExcept", "Expr"]

        root = parse_source("with a() as x, b():\n    pass\n")
        outer = find(root, "With")
        inner = [c for c in outer.children if c.kind == "With"]
        assert len(inner) == 1 and inner[0].role == "With-Body"

        root = parse_source("x[1]")
        sub = find(root, "Subscript")
        assert [c.kind for c in sub.children] == ["Name", "Index"]

        root = parse_source("f(*a, **b)")
        call = find(root, "Call")
        roles = [c.role for c in call.children]
        assert roles == ["Call-Func", "Call-Starargs", "Call-Kwargs"]

    def test_named_constants_are_name_leaves(self):
        root = parse_source("x = True\ny = None\n")
        names = [n.text for n in root.walk() if n.kind == "Name" and n.role == "Assign-Value"]
        assert names == ["True", "None"]

    def test_operator_nodes_materialize(self):
        root = parse_source("y = a + b * 2")
        binop = find(root, "BinOp")
        assert any(c.kind == "Add" and c.role == "BinOp-Op" for c in binop.children)
        cmp_root = parse_source("ok = a <= b < c")
        compare = find(cmp_root, "Compare")
        ops = [c.kind for c in compare.children if c.role == "Compare-Ops"]
        assert ops == ["LtE", "Lt"]


def dump(node: AstNode, depth: int = 0) -> list[str]:
    """One line per node, preorder: kind, role, text and span."""
    s = node.span
    lines = [f"{'  ' * depth}{node.kind} {node.role} {node.text!r} "
             f"{s.start_line}:{s.start_col}-{s.end_line}:{s.end_col}"]
    for child in node.children:
        lines += dump(child, depth + 1)
    return lines


class TestNormalizerGolden:
    DATA = Path(__file__).parent / "data"

    def test_fixture_tree_matches_recorded_dump(self):
        # the fixture uses every host kind the normalizer converts; the dump
        # was recorded when each kind still had a hand-written handler
        root = parse_source((self.DATA / "normalizer_fixture.py").read_text())
        expected = (self.DATA / "normalizer_golden.txt").read_text().splitlines()
        assert dump(root) == expected

    def test_fixture_reaches_every_generic_kind(self):
        source = (self.DATA / "normalizer_fixture.py").read_text()
        seen = {type(n).__name__ for n in ast.walk(ast.parse(source))}
        assert set(grammar._GENERIC) <= seen

    @pytest.mark.parametrize("name", sorted(grammar._GENERIC))
    def test_generic_host_fields_cover_the_kind_slots(self, name):
        # every slot of the entry's kind reads host fields the class has,
        # and the entry renames no field into a slot the kind lacks
        kind, fields, _text = grammar._GENERIC[name]
        slots = load_taxonomy().slots.get(kind, ())
        assert kind in load_taxonomy().kinds
        assert set(fields) <= set(slots)
        read = {field for slot in slots for field in fields.get(slot, (slot,))}
        assert read <= set(getattr(ast, name)._fields)

    def test_each_host_class_has_one_converter(self):
        # the dispatch table's own handlers: neither the generic walker nor
        # the refusal of an unsupported construct
        handlers = {name for name, handler in grammar._HANDLERS.items()
                    if not isinstance(handler, functools.partial)
                    and handler is not grammar._Normalizer._unsupported}
        # a misspelled handler would never be dispatched
        for name in handlers | set(grammar._GENERIC):
            host = getattr(ast, name, None)
            assert isinstance(host, type) and issubclass(host, ast.AST), name
        # operators, contexts and `with` items are read by their parent's
        # handler, the module by `_Normalizer.module`
        read_by_parent = (ast.operator, ast.unaryop, ast.boolop, ast.cmpop,
                          ast.expr_context, ast.withitem, ast.Module)
        source = (self.DATA / "normalizer_fixture.py").read_text()
        converted = {type(n).__name__ for n in ast.walk(ast.parse(source))
                     if not isinstance(n, read_by_parent)}
        for name in converted | handlers | set(grammar._GENERIC):
            assert (name in handlers) != (name in grammar._GENERIC), name


# stdlib modules whose statements, between them, take most forms a stub
# derives its fields for; _STUB_FORMS_SOURCE holds every form for certain
STUB_MODULES = ("contextlib", "asyncio.tasks", "asyncio.timeouts", "zipfile",
                "importlib.metadata", "typing", "dataclasses", "enum", "subprocess",
                "shutil")

_STUB_FORMS_SOURCE = """\
@deco
@other.attr(1)
class A(B, metaclass=M):
    x: int = 1
    y: str

    @property
    async def f(self):
        async with a, b as c:
            async for i in c:
                total += i
        with d:
            pass
        try:
            g()
        except E as e:
            pass
        else:
            pass
        finally:
            h()
        try:
            g()
        finally:
            h()

        @(await make())
        def inner():
            pass
"""


def _stub_forms(node: ast.stmt) -> set[str]:
    name = type(node).__name__
    forms = {name}
    if getattr(node, "decorator_list", None):
        forms.add(f"decorated {name}")
    if isinstance(node, (ast.With, ast.AsyncWith)) and len(node.items) > 1:
        forms.add(f"multi-item {name}")
    if isinstance(node, ast.Try):
        forms.add(" ".join(["Try"] + ["except"] * bool(node.handlers)
                           + ["finally"] * bool(node.finalbody)))
    return forms


class TestStubIdentity:
    """A stub carries the kind, role, text and span of its conversion, and
    expands to it: the stub's rules keep in step with the handlers."""

    FORMS = {"decorated FunctionDef", "decorated AsyncFunctionDef", "decorated ClassDef",
             "multi-item With", "multi-item AsyncWith", "AsyncWith", "AsyncFor",
             "Try except", "Try finally", "Try except finally", "AnnAssign", "AugAssign"}

    def test_every_statement_of_stdlib_modules_and_the_fixture(self):
        sources = [Path(importlib.util.find_spec(name).origin).read_text(encoding="utf-8")
                   for name in STUB_MODULES]
        sources += [(TestNormalizerGolden.DATA / "normalizer_fixture.py").read_text(),
                    _STUB_FORMS_SOURCE]
        seen: set[str] = set()
        for source in sources:
            try:
                full = parse_source(source)
            except UnsupportedConstructError as err:  # a `match` statement, say
                with pytest.raises(UnsupportedConstructError) as stubbed:
                    parse_source(source, lambda first, last: True)
                assert stubbed.value.lineno == err.lineno
                continue
            stubs = 0
            stack = [(full, parse_source(source, lambda first, last: True))]
            while stack:
                node, stub = stack.pop()
                assert (stub.kind, stub.role, stub.text, stub.span) == \
                    (node.kind, node.role, node.text, node.span)
                if isinstance(stub, StubNode):
                    stubs += 1
                    seen |= _stub_forms(stub._host)
                    stub = stub.expand()
                assert len(stub.children) == len(node.children)
                stack.extend(zip(node.children, stub.children))
            assert stubs == sum(isinstance(n, ast.stmt) for n in ast.walk(ast.parse(source)))
        assert seen >= self.FORMS

    def test_a_statement_holding_a_match_is_never_stubbed(self):
        source = "def f(x):\n    if x:\n        match x:\n            case 1:\n                pass\n"
        with pytest.raises(UnsupportedConstructError) as full:
            parse_source(source)
        with pytest.raises(UnsupportedConstructError) as stubbed:
            parse_source(source, lambda first, last: True)
        assert stubbed.value.lineno == full.value.lineno == 3


class TestRoundTrip:
    @pytest.mark.parametrize(
        "stmt",
        [
            "x = 0",
            "def f(a, b):\n    return a - b",
            "if x:\n    y = f(x, k=1)",
            "for i in range(3):\n    total += i",
            "result = {'a': 1, 'b': [2, 3]}",
        ],
    )
    def test_statement_reparses_to_equal_subtree(self, stmt):
        module = parse_source(stmt)
        original = module.children[0]
        lines = stmt.splitlines()
        snippet = "\n".join(lines[original.span.start_line - 1:original.span.end_line])
        reparsed = parse_source(snippet).children[0]
        assert structure(original) == structure(reparsed)


class TestTreeHeight:
    def test_leaf(self):
        leaf = find(parse_source("x"), "Name")
        assert tree_height(leaf) == 0

    def test_one_level(self):
        assign = find(parse_source("x = 0"), "Assign")
        assert tree_height(assign) == 1

    def test_toy_if_subtree(self):
        # If -> (Compare, Assign) -> leaves: height 2
        src = "if x > 0:\n    y = 1\n"
        node = find(parse_source(src), "If")
        assert tree_height(node) == 2

    def test_deep_chain_without_recursion(self):
        node = AstNode("Name", "load", grammar.SourceSpan(1, 0, 1, 1), "x")
        for _ in range(5000):
            node = AstNode("If", "body", node.span, "", (node,))
        assert tree_height(node) == 5000


# f-strings become string leaves holding their source segment
SEGMENT_SOURCES = {
    "multi-line": 'x = f"""a\n{y}\nb"""\nz = (f"{a}"\n     f"{b!r:>{w}}")\n'
                  'q = f"""\n{ {1: 2}[1] }\n  {f(\n  3)} """\n',
    "non-ascii": 's = f"héllo {név} 中文 {x!r:>{w}}"\nt = "ü"; u = f"{t}😀{t}"\n'
                 'v = [f"ß{é}", f"""\n😀 {ü}\nλ"""]\n',
    "crlf": 'a = 1\r\nb = f"{a}"\r\nc = f"""x\r\n{b}\r\n"""\r\nd = f"é{c}"\r\n',
    "lone-cr": 'a = 1\rb = f"{a}"\rc = f"""x\r{b}"""\r',
    "form-feed": '\x0cx = 1\ny = f"\x0c{x}"\n\x0cz = f"""\x0c\n{y}\x0c"""\nw = f"{z}"',
}


class TestSourceSegment:
    @pytest.mark.parametrize("case", SEGMENT_SOURCES)
    def test_matches_get_source_segment(self, case):
        source = SEGMENT_SOURCES[case]
        normalizer = grammar._Normalizer(source)
        nodes = list(ast.walk(ast.parse(source)))
        assert any(isinstance(node, ast.JoinedStr) for node in nodes)
        for node in nodes:
            expected = ast.get_source_segment(source, node)
            assert normalizer._segment(node) == ("" if expected is None else expected)

    @pytest.mark.parametrize("case", SEGMENT_SOURCES)
    def test_string_leaves_hold_the_segments(self, case):
        source = SEGMENT_SOURCES[case]
        fstrings = [node for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.JoinedStr)]
        nested = {id(inner) for node in fstrings for value in node.values
                  for inner in ast.walk(value)}  # format specs fold into their f-string
        segments = [ast.get_source_segment(source, node)
                    for node in fstrings if id(node) not in nested]
        # with line endings folded, as the tokenizer folds a plain string's
        expected = [seg.replace("\r\n", "\n").replace("\r", "\n") for seg in segments]
        leaves = [n.text for n in parse_source(source).walk()
                  if n.kind == "Str" and n.text.startswith("f")]
        assert sorted(leaves) == sorted(expected)


# str.splitlines breaks at these, the parser does not
NOT_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestSplitLines:
    @pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=ascii)
    def test_lines_are_where_the_parser_puts_them(self, char):
        source = f"a = 1  # x{char}y\r\nb = 2\rc = [\n]\nd = '{char}'"
        # a text without \r splits another way, which must agree
        for text in (source, source.replace("\r\n", "\n").replace("\r", "\n")):
            lines = split_lines(text)
            assert len(lines) == 5
            assert "".join(split_lines(text, keepends=True)) == text
            names = [n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Name)]
            assert len(names) == 4
            for name in names:
                assert lines[name.lineno - 1].startswith(name.id)

    @pytest.mark.parametrize("source", [
        "", "\n", "a", "a\n", "a\n\n", "a\r\n\r\nb\r",
        *(text for text in SEGMENT_SOURCES.values() if "\x0c" not in text)])
    def test_splitlines_where_no_other_break_occurs(self, source):
        assert split_lines(source) == source.splitlines()
        assert split_lines(source, keepends=True) == source.splitlines(keepends=True)


class TestReferenceParserAgreement:
    def test_statement_kind_sequence_matches_host_parser(self):
        src = textwrap.dedent(
            """
            import os
            x = 1
            def f():
                pass
            class C:
                pass
            for i in y:
                pass
            """
        )
        host = [type(n).__name__ for n in ast.parse(src).body]
        ours = [n.kind for n in parse_source(src).children]
        assert ours == host
