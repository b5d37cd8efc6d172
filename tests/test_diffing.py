"""Diff-tree construction, labeling, and hunk grouping."""

from __future__ import annotations

import gc
import json
import textwrap
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from fixscope.diffing import (
    ChangeLabel,
    EditBlock,
    _myers_matches,
    align_versions,
    build_diff_ast,
    extract_hunks,
    line_maps,
)
from fixscope.grammar import AstNode, StubNode, parse_source
from fixscope.ingest import FilePair
from fixscope.pipeline import extract_file

from conftest import (
    assert_stubs_agree,
    diff_texts,
    dump_enhanced_ast,
    file_hunks,
    labeled_roots,
)
from oracles import reference_myers_matches
from test_properties import shape


def labeled(enhanced, label):
    return [n for n in enhanced.root.walk() if n.label is label]


def fingerprints(nodes):
    """Multiset signature of labeled subtrees, ignoring layout."""
    def shape(n):
        return (n.kind, n.role, n.text, tuple(sorted(shape(c) for c in n.children)))
    return sorted(shape(n) for n in nodes)


# lines that differ only in trailing blanks, or in leading ones
BLANKED_LINES = ["p", "p ", "p\t ", "q", " q", "q\t", "", " "]


class TestAlignVersions:
    def test_identical_texts(self):
        text = "a = 1\nb = 2\n"
        assert align_versions(text, text) == []

    def test_single_line_replacement(self):
        before = "a = 1\nb = 2\nc = 3\n"
        after = "a = 1\nb = 99\nc = 3\n"
        assert align_versions(before, after) == [EditBlock(2, 3, 2, 3)]

    def test_one_line_call_replacement(self):
        # a single-line rewrite of a call site maps line N to line N
        pad = "\n".join(f"x{i} = {i}" for i in range(6))
        before = pad + "\ninstance_domains = self._host.list_instance_domains()\n"
        after = pad + "\ninstance_domains = self._host.list_instance_domains(only_running=False)\n"
        assert align_versions(before, after) == [EditBlock(7, 8, 7, 8)]

    def test_pure_insertion_and_deletion(self):
        before = "a = 1\nc = 3\n"
        after = "a = 1\nb = 2\nc = 3\n"
        assert align_versions(before, after) == [EditBlock(2, 2, 2, 3)]
        assert align_versions(after, before) == [EditBlock(2, 3, 2, 2)]

    def test_minimality_against_lcs_oracle(self):
        import itertools
        import random

        def lcs_len(a, b):
            table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
            for i, j in itertools.product(range(len(a)), range(len(b))):
                table[i + 1][j + 1] = (
                    table[i][j] + 1 if a[i] == b[j]
                    else max(table[i][j + 1], table[i + 1][j]))
            return table[-1][-1]

        rng = random.Random(7)
        for _ in range(60):
            alphabet = ["p", "q", "r", "s"]
            a = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
            b = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
            blocks = align_versions("\n".join(a), "\n".join(b))
            removed = sum(blk.b_end - blk.b_start for blk in blocks)
            kept = len(a) - removed
            assert kept == lcs_len(a, b), (a, b, blocks)

    def test_form_feed_keeps_the_parsers_line_numbers(self):
        # a form feed is whitespace to the parser, a line break to
        # str.splitlines: only the deleted call may change
        before = "def h():\x0c\n    f(y)\n    f(x)\n"
        after = "def h():\x0c\n    f(x)\n"
        assert align_versions(before, after) == [EditBlock(2, 3, 2, 2)]
        (hunk,) = make_hunks(before, after)
        assert [(n.kind, n.label) for n in hunk.labeled_roots] == [
            ("Expr", ChangeLabel.MINUS)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(BLANKED_LINES), max_size=10),
           st.lists(st.sampled_from(BLANKED_LINES), max_size=10),
           st.sampled_from(["\n", "\r\n", "\r"]))
    @example(["p", "p "], ["p ", "p"], "\n")
    def test_trailing_blanks_are_not_seen(self, a, b, newline):
        def text(lines, strip=False):
            return "".join((line.rstrip(" \t") if strip else line) + newline for line in lines)

        assert align_versions(text(a), text(b)) == align_versions(text(a, True), text(b, True))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from("pqrs"), max_size=12),
           st.lists(st.sampled_from("pqrs"), max_size=12))
    def test_myers_matches_reference(self, a, b):
        assert _myers_matches(a, b) == reference_myers_matches(a, b)

    def test_full_rewrite_trace_fits_a_memory_budget(self):
        # the trace keeps one frontier list per step, not a copy of the
        # whole diagonal dict: 1.6 MB here against 13.2 MB with the copies
        before = "".join(f"a{i} = {i}\n" for i in range(300))
        after = "".join(f"b{i} = {i}\n" for i in range(300))
        tracemalloc.start()
        try:
            script = align_versions(before, after)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert script == [EditBlock(1, 301, 1, 301)]
        assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MB"


class TestBuildDiffAst:
    def test_no_edits_all_unchanged(self):
        text = "def f():\n    return 1\n"
        enhanced = diff_texts(text, text)
        assert labeled(enhanced, ChangeLabel.PLUS) == []
        assert labeled(enhanced, ChangeLabel.MINUS) == []

    def test_wrap_assignment_in_if(self):
        # a statement replaced by a guard around a copy of itself: the new
        # `if` subtree is added wholesale and the old assignment removed,
        # while the enclosing function, class, and module stay unchanged
        before = textwrap.dedent(
            """
            class Foo(object):
                def foo_fun(self):
                    x = 0
            """
        )
        after = textwrap.dedent(
            """
            class Foo(object):
                def foo_fun(self):
                    if cond:
                        x = 0
            """
        )
        enhanced = diff_texts(before, after)
        plus_roots = [r for r in labeled_roots(enhanced) if r.label is ChangeLabel.PLUS]
        minus_roots = [r for r in labeled_roots(enhanced) if r.label is ChangeLabel.MINUS]
        assert [r.kind for r in plus_roots] == ["If"]
        assert [r.kind for r in minus_roots] == ["Assign"]
        # descendants inherit the insertion label, including the x = 0 copy
        assert all(n.label is ChangeLabel.PLUS for n in plus_roots[0].walk())
        unchanged_kinds = {n.kind for n in enhanced.root.walk()
                           if n.label is ChangeLabel.UNCHANGED}
        assert {"Module", "ClassDef", "FunctionDef"} <= unchanged_kinds

    def test_class_constant_addition(self):
        before = 'class DiskFilter(BaseHostFilter):\n    """doc."""\n'
        after = ('class DiskFilter(BaseHostFilter):\n    """doc."""\n'
                 '    RUN_ON_REBUILD = False\n')
        enhanced = diff_texts(before, after)
        roots = labeled_roots(enhanced)
        assert len(roots) == 1
        root = roots[0]
        assert (root.kind, root.label) == ("Assign", ChangeLabel.PLUS)
        ((chained_root, chain),) = enhanced.chained_roots()
        assert chained_root is root
        assert [(n.kind, n.label) for n in chain] == [
            ("ClassDef", ChangeLabel.UNCHANGED), ("Module", ChangeLabel.UNCHANGED)]

    def test_added_keyword_argument(self):
        before = "r = self.post(url, payload)\n"
        after = "r = self.post(url, payload, global_request_id=context.global_id)\n"
        enhanced = diff_texts(before, after)
        roots = labeled_roots(enhanced)
        assert [(r.kind, r.label) for r in roots] == [("keyword", ChangeLabel.PLUS)]
        ((_root, chain),) = enhanced.chained_roots()
        assert chain[0].kind == "Call"

    def test_modified_node_becomes_minus_plus_pair(self):
        enhanced = diff_texts("x = compute(a)\n", "x = compute(b)\n")
        roots = labeled_roots(enhanced)
        kinds = sorted((r.kind, r.text, r.label.value) for r in roots)
        assert kinds == [("Name", "a", "minus"), ("Name", "b", "plus")]

    def test_symmetry_on_swap(self):
        before = "def f(a):\n    y = a + 1\n    return y\n"
        after = "def f(a):\n    if a:\n        y = a + 2\n    return y\n"
        forward = diff_texts(before, after)
        backward = diff_texts(after, before)
        assert fingerprints(labeled(forward, ChangeLabel.PLUS)) == \
            fingerprints(labeled(backward, ChangeLabel.MINUS))
        assert fingerprints(labeled(forward, ChangeLabel.MINUS)) == \
            fingerprints(labeled(backward, ChangeLabel.PLUS))

    def test_whitespace_only_edit_yields_no_labels(self):
        enhanced = diff_texts("x = 1\ny = 2\n", "x = 1\n\ny = 2\n")
        assert labeled_roots(enhanced) == []

    def test_golden_dump(self):
        enhanced = diff_texts("x = 1\n", "x = 2\n", change_id="123", path="m.py")
        doc = json.loads(dump_enhanced_ast(enhanced))
        assert doc["change_id"] == "123"
        assign = doc["tree"]["children"][0]
        assert assign["kind"] == "Assign"
        assert [(c["kind"], c["label"], c["text"]) for c in assign["children"]] == [
            ("Name", "unchanged", "x"),
            ("Num", "minus", "1"),
            ("Num", "plus", "2"),
        ]


def make_hunks(before, after):
    return extract_hunks(diff_texts(before, after))


# edits to a node's own text, or its kind, on one line of a node that
# spans several: (before, after, the spanning node's kind before and after)
OWN_TEXT_EDITS = [
    ("def f(x):\n    a = 1\n    return a\n",
     "def g(x):\n    a = 1\n    return a\n", "FunctionDef", "FunctionDef"),
    ("class A:\n    a = 1\n    b = 2\n",
     "class B:\n    a = 1\n    b = 2\n", "ClassDef", "ClassDef"),
    ("from a import (x,\n    y)\n",
     "from b import (x,\n    y)\n", "ImportFrom", "ImportFrom"),
    ("foo(\n1,\n2).bar\n", "foo(\n1,\n2).baz\n", "Attribute", "Attribute"),
    ("f(a=(\n1,\n2))\n", "f(b=(\n1,\n2))\n", "keyword", "keyword"),
    ("if c:\n    a = 1\n    b = 2\n",
     "while c:\n    a = 1\n    b = 2\n", "If", "While"),
]


@pytest.mark.parametrize("before, after, minus_kind, plus_kind", OWN_TEXT_EDITS,
                         ids=["def-name", "class-name", "import-module",
                              "attribute-name", "keyword-name", "if-to-while"])
def test_own_text_edit_yields_one_minus_plus_hunk(before, after, minus_kind, plus_kind):
    (hunk,) = make_hunks(before, after)
    minus, plus = hunk.labeled_roots
    assert (minus.kind, minus.label) == (minus_kind, ChangeLabel.MINUS)
    assert (plus.kind, plus.label) == (plus_kind, ChangeLabel.PLUS)
    # whole copies of the spanning node on each side
    for root, text in ((minus, before), (plus, after)):
        (node,) = [n for n in parse_source(text).walk()
                   if (n.kind, n.span) == (root.kind, root.span)]
        assert node.span.end_line > node.span.start_line
        assert shape(root) == shape(node)


class TestExtractHunks:
    def test_no_labels_no_hunks(self):
        text = "a = 1\n"
        assert make_hunks(text, text) == []

    def test_close_additions_group(self):
        base = [f"v{i} = {i}" for i in range(1, 15)]
        after = list(base)
        after.insert(9, "added_one = 1")   # lands on line 10
        after.insert(11, "added_two = 2")  # lands on line 12
        hunks = make_hunks("\n".join(base) + "\n", "\n".join(after) + "\n")
        assert len(hunks) == 1

    def test_distant_additions_split(self):
        base = [f"v{i} = {i}" for i in range(1, 25)]
        after = list(base)
        after.insert(9, "added_one = 1")
        after.insert(20, "added_two = 2")
        hunks = make_hunks("\n".join(base) + "\n", "\n".join(after) + "\n")
        assert len(hunks) == 2

    def test_chained_grouping_matches_bruteforce_closure(self):
        # additions at lines 10, 13, 16: pairwise gaps of 3 chain into one
        base = [f"v{i} = {i}" for i in range(1, 30)]
        after = list(base)
        for offset, line in enumerate((10, 13, 16)):
            after.insert(line - 1 + 0, f"added_{offset} = {offset}")
        hunks = make_hunks("\n".join(base) + "\n", "\n".join(after) + "\n")

        # independent oracle: transitive closure of the <=3-line relation
        lines = [10, 13, 16]
        groups = []
        for line in lines:
            merged = [g for g in groups if any(abs(line - other) <= 3 for other in g)]
            rest = [g for g in groups if g not in merged]
            groups = rest + [sum(merged, [line])]
        assert len(hunks) == len(groups) == 1

    def test_hunk_ids_are_stable_strings(self):
        base = [f"v{i} = {i}" for i in range(1, 25)]
        after = list(base)
        after.insert(9, "added_one = 1")
        after.insert(20, "added_two = 2")
        enhanced = diff_texts("\n".join(base) + "\n", "\n".join(after) + "\n",
                              change_id="42", path="pkg/mod.py")
        hunks = extract_hunks(enhanced)
        assert [h.id for h in hunks] == ["42:pkg/mod.py:0", "42:pkg/mod.py:1"]


class TestAncestors:
    def test_wrap_in_if_hunk_scoped_to_function(self):
        before = textwrap.dedent(
            """
            class Foo(object):
                def foo_fun(self):
                    x = 0
            """
        )
        after = textwrap.dedent(
            """
            class Foo(object):
                def foo_fun(self):
                    if cond:
                        x = 0
            """
        )
        (hunk,) = make_hunks(before, after)
        assert [(n.kind, n.text) for n in hunk.context_chain] == [
            ("FunctionDef", "foo_fun"), ("ClassDef", "Foo"), ("Module", "")]

    def test_top_level_change_scoped_to_module(self):
        (hunk,) = make_hunks("x = 1\n", "x = 1\ny = 2\n")
        assert [n.kind for n in hunk.context_chain] == ["Module"]

    def test_class_constant_scoped_to_class(self):
        before = 'class DiskFilter(BaseHostFilter):\n    """doc."""\n'
        after = ('class DiskFilter(BaseHostFilter):\n    """doc."""\n'
                 '    RUN_ON_REBUILD = False\n')
        (hunk,) = make_hunks(before, after)
        assert [n.kind for n in hunk.context_chain] == ["ClassDef", "Module"]

    def test_statement_wrapped_by_existing_if(self):
        before = "if flag:\n    do_work(a)\n"
        after = "if flag:\n    do_work(a)\n    do_more(b)\n"
        (hunk,) = make_hunks(before, after)
        assert [n.kind for n in hunk.context_chain] == ["If", "Module"]

    def test_keyword_addition_closest_is_call(self):
        before = "r = post(url, payload)\n"
        after = "r = post(url, payload, timeout=30)\n"
        (hunk,) = make_hunks(before, after)
        assert [n.kind for n in hunk.context_chain] == ["Call", "Assign", "Module"]

    def test_dict_entry_addition_chain_order(self):
        before = textwrap.dedent(
            """
            def build(ip, mac):
                arp_table = {'ip_address': ip,
                             'mac_address': mac}
                return arp_table
            """
        )
        after = textwrap.dedent(
            """
            def build(ip, mac):
                arp_table = {'ip_address': ip,
                             'mac_address': mac,
                             'nud_state': state}
                return arp_table
            """
        )
        (hunk,) = make_hunks(before, after)
        chain_kinds = [n.kind for n in hunk.context_chain]
        assert chain_kinds[0] == "Dict"
        assert "Assign" in chain_kinds and "FunctionDef" in chain_kinds
        assert chain_kinds[-1] == "Module"

    def test_context_chain_purity(self):
        before = "def f():\n    x = 1\n"
        after = "def f():\n    x = 1\n    y = 2\n"
        (hunk,) = make_hunks(before, after)
        for node in hunk.context_chain:
            assert node.label is ChangeLabel.UNCHANGED
        assert hunk.context_chain[-1].kind == "Module"


class TestReferenceCounting:
    def test_diff_tree_is_freed_without_the_cycle_collector(self):
        # nodes point only to their children, so a diff tree and its hunks
        # hold no reference cycle
        before = "def f(a):\n    y = a + 1\n    return y\n"
        after = "def f(a):\n    if a:\n        y = a + 2\n    return y\n"
        gc.collect()
        gc.disable()
        try:
            enhanced = diff_texts(before, after)
            hunks = extract_hunks(enhanced)
            assert hunks and hunks[0].context_chain
            root = weakref.ref(enhanced.root)
            labeled_root = weakref.ref(hunks[0].labeled_roots[0])
            del enhanced, hunks
            assert root() is None
            assert labeled_root() is None
        finally:
            gc.enable()


class TestUntouchedTests:
    def test_an_insertion_point_touches_a_span_only_strictly_inside(self):
        before, after = "a\nb\nc\n", "a\nb\nX\nc\n"
        script = align_versions(before, after)
        assert script == [EditBlock(3, 3, 3, 4)]
        before_test, after_test = [table.stub_test for table in line_maps(script, before, after)]
        assert before_test(1, 2) and before_test(3, 3)
        assert not before_test(2, 3)
        assert after_test(1, 2) and after_test(4, 4)
        assert not after_test(3, 3) and not after_test(2, 4)

    def test_a_kept_line_with_another_terminator_is_untouched(self):
        # no node depends on a line's terminator, so only edit blocks touch
        for before, after in (("a\nb\nc\n", "a\nb\r\nc\n"), ("a\nb\rc\n", "a\nb\nc\r\n"),
                              ("a\nb\n", "a\nb")):
            assert align_versions(before, after) == []
            for table in line_maps([], before, after):
                assert table.stub_test(1, 2) and table.stub_test(2, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from("pqr"), min_size=1, max_size=10),
           st.lists(st.sampled_from("pqr"), min_size=1, max_size=10))
    @example(list("pq"), list("xpq"))  # an insertion at line 1
    @example(list("pq"), list("pqx"))  # an insertion past the last line
    def test_untouched_is_the_brute_force_rule(self, a, b):
        script = align_versions("\n".join(a), "\n".join(b))
        tables = line_maps(script, "\n".join(a), "\n".join(b))
        sides = ([(blk.b_start, blk.b_end) for blk in script],
                 [(blk.a_start, blk.a_end) for blk in script])
        for table, blocks, n in zip(tables, sides, (len(a), len(b))):
            for first in range(1, n + 1):
                for last in range(first, n + 1):
                    # no block's lines meet the span, and no insertion
                    # point falls strictly inside it
                    expected = not any(
                        (first < start <= last) if start == end
                        else (start <= last and end > first)
                        for start, end in blocks)
                    assert table.untouched(first, last) == expected, (script, first, last)

    def test_against_an_empty_version_there_is_no_test(self):
        for script, before, after in (([EditBlock(1, 1, 1, 2)], "", "x = 1\n"),
                                      ([EditBlock(1, 2, 1, 1)], "x = 1\n", "")):
            assert [table.stub_test for table in line_maps(script, before, after)] == \
                [None, None]


class TestStubHazards:
    """Paths where a stub must not stand in for its statement, or must be
    converted after all."""

    def test_a_line_ending_change_in_a_multiline_fstring_yields_no_hunk(self):
        # the f-string's Str leaf folds its line endings, as a plain
        # triple-quoted string's value does, so the stub stands for it
        for quote in ('f"""', '"""'):
            before = f'x = {quote}a\n{{b}}\n"""\ny = 1\n'
            for after in (before.replace("\n", "\r\n", 3), before.replace("\n", "\r", 2)):
                assert align_versions(before, after) == []
                assert file_hunks(before, after, stubs=False) == ([], [], [])
                assert_stubs_agree(before, after)

    def test_a_trailing_blank_change_inside_a_string_keeps_its_hunk(self):
        # the line diff keeps the line, but the literal's text changed
        before = 'x = """a\nb  \nc"""\ny = 1\n'
        after = before.replace("b  \n", "b\n")
        assert align_versions(before, after) == []
        assert_stubs_agree(before, after)
        docs, _contexts, _conflicts = file_hunks(before, after, stubs=True)
        assert [[(root["kind"], root["text"]) for root in doc["roots"]] for doc in docs] == \
            [[("Str", "a\nb  \nc"), ("Str", "a\nb\nc")]]

    @pytest.mark.parametrize("before, after", [
        ('x = "  a"\n', 'x = "a"\n'),
        ('x = """a\n  b\n"""\n', 'x = """a\n  b \n"""\n')])
    def test_a_blank_edit_at_either_end_of_a_string_keeps_its_hunk(self, before, after):
        # the join key holds the literal's text as it is, blanks included
        for old, new in ((before, after), (after, before)):
            for stubs in (True, False):
                docs, _contexts, _conflicts = file_hunks(old, new, stubs=stubs)
                assert [[(root["kind"], root["label"]) for root in doc["roots"]]
                        for doc in docs] == [[("Str", "minus"), ("Str", "plus")]]

    def test_a_match_inside_an_untouched_function_still_skips_the_file(self):
        before = ("def f(x):\n"
                  "    match x:\n"
                  "        case 1:\n"
                  "            pass\n"
                  "y = 1\n")
        after = before.replace("y = 1", "y = 2")
        with pytest.raises(SyntaxError) as full:
            parse_source(before)
        skipped = extract_file(FilePair("a.py", before, after, "chg")).skipped
        assert skipped == {"change_id": "chg", "path": "a.py", "line": full.value.lineno}
        assert skipped["line"] == 2

    def test_a_decorator_only_edit(self):
        before = "@a\ndef f():\n    return 1\n\n\ndef g():\n    pass\n"
        after = before.replace("@a", "@b")
        assert_stubs_agree(before, after)
        docs, _contexts, _conflicts = file_hunks(before, after, stubs=True)
        assert [[(root["kind"], root["text"]) for root in doc["roots"]] for doc in docs] == \
            [[("Name", "a"), ("Name", "b")]]

    def test_a_renamed_class_grafts_its_untouched_methods_whole(self):
        before = ("class A:\n"
                  "    def m(self):\n"
                  "        return 1\n"
                  "\n"
                  "    def n(self):\n"
                  "        if self:\n"
                  "            return 2\n")
        after = before.replace("class A", "class B")
        parsed = parse_source(after, line_maps(align_versions(before, after),
                                               before, after)[1].stub_test)
        assert [type(node) for node in parsed.children[0].children] == [StubNode, StubNode]
        assert_stubs_agree(before, after)
        [doc], _contexts, _conflicts = file_hunks(before, after, stubs=True)

        def kinds(root):
            stack, seen = [root], []
            while stack:
                node = stack.pop()
                seen.append(node["kind"])
                stack.extend(node["children"])
            return sorted(seen)

        assert [kinds(root).count("Return") for root in doc["roots"]] == [2, 2]
        assert [kinds(root).count("If") for root in doc["roots"]] == [1, 1]

    def test_a_stub_paired_with_a_converted_node(self):
        # the continuation line folds `x = 1` into `y = x = 1` after the
        # edit: the untouched `x = 1` pairs with it, so it is converted
        before = "y = 0\nx = 1; z = 2\n"
        after = "y = \\\nx = 1; z = 2\n"
        before_test, after_test = [
            table.stub_test for table in line_maps(align_versions(before, after), before, after)]
        assert [type(n) for n in parse_source(before, before_test).children] == \
            [AstNode, StubNode, StubNode]
        assert [type(n) for n in parse_source(after, after_test).children] == \
            [AstNode, StubNode]
        assert_stubs_agree(before, after)

    def test_stubs_on_one_line_that_are_not_counterparts(self):
        # `f()` and the after-side `g()` share kind, role and first line,
        # but not their source: joined, they differ inside
        before = "y = 0\nf(); g()\n"
        after = "y = \\\nf(); g()\n"
        assert_stubs_agree(before, after)
        [doc], _contexts, _conflicts = file_hunks(before, after, stubs=True)
        # the labels inside the joined pair, which an unchanged leaf would hide
        assert [(root["kind"], root["label"], root["text"]) for root in doc["roots"]][-2:] == \
            [("Name", "minus", "f"), ("Name", "plus", "g")]
