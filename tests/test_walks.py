"""Every tree walk is a loop: it matches its recursive reference in
``oracles`` exactly, and needs no more Python stack for a deep tree than
for a shallow one."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import fixscope
from fixscope.context import extract_context
from fixscope.diffing import (
    MAX_HUNK_DEPTH,
    align_versions,
    build_diff_ast,
    diff_node_from_dict,
    diff_node_to_dict,
    extract_hunks,
    hunk_from_dict,
    hunk_to_dict,
    line_maps,
)
from fixscope.grammar import UnsupportedConstructError, parse_source, tree_height
from fixscope.ingest import GitSource

from conftest import assert_stubs_agree, diff_texts, dump_enhanced_ast
from oracles import (
    reference_build_diff_ast,
    reference_diff_node_from_dict,
    reference_diff_node_to_dict,
    reference_dump_enhanced_ast,
    reference_hunk_to_dict,
    reference_parse_source,
)
from test_grammar import _STUB_FORMS_SOURCE, STUB_MODULES
from test_properties import (
    assert_accounts_for_both_versions,
    edit_case,
    moved_and_renamed_case,
)

DATA = Path(__file__).parent / "data"


def shape(tree) -> list:
    """Every node's fields and child count, in preorder: equal for two
    trees exactly when they agree node for node."""
    return [(n.kind, n.role, n.span, n.text, len(n.children)) for n in tree.walk()]


def assert_walks_agree(before_text: str, after_text: str) -> int:
    """The loops and the recursive references give the same trees, the
    same conflicts in the same order, and the same hunk documents, and
    the diff tree accounts for both versions; the stub path keeps what
    the full path keeps, in both directions.  Returns the number of
    conflicts."""
    try:
        before, after = parse_source(before_text), parse_source(after_text)
    except SyntaxError as err:
        with pytest.raises(type(err)):
            reference_parse_source(before_text)
            reference_parse_source(after_text)
        with pytest.raises(type(err)) as stubbed:
            diff_texts(before_text, after_text, stubs=True)
        assert stubbed.value.lineno == err.lineno
        return 0
    ref_before = reference_parse_source(before_text)
    ref_after = reference_parse_source(after_text)
    assert shape(before) == shape(ref_before)
    assert shape(after) == shape(ref_after)
    script = align_versions(before_text, after_text)
    enhanced = build_diff_ast(before, after, line_maps(script, before_text, after_text),
                              change_id="chg", path="a.py")
    reference = reference_build_diff_ast(ref_before, ref_after, script,
                                         change_id="chg", path="a.py")
    assert dump_enhanced_ast(enhanced) == reference_dump_enhanced_ast(reference)
    assert_accounts_for_both_versions(enhanced, before_text, after_text)
    hunks, ref_hunks = extract_hunks(enhanced), extract_hunks(reference)
    docs = [hunk_to_dict(hunk) for hunk in hunks]
    assert docs == [reference_hunk_to_dict(hunk) for hunk in ref_hunks]
    assert [extract_context(h) for h in hunks] == [extract_context(h) for h in ref_hunks]
    for doc in docs:
        assert hunk_to_dict(hunk_from_dict(doc)) == doc
        for root in doc["roots"]:
            assert reference_diff_node_to_dict(diff_node_from_dict(root)) == root
            assert diff_node_to_dict(reference_diff_node_from_dict(root)) == root
    assert_stubs_agree(before_text, after_text)
    return len(enhanced.conflicts)


class TestParityWithRecursiveReferences:
    @given(edit_case())
    @settings(max_examples=80, deadline=None)
    def test_generated_edits(self, case):
        assert_walks_agree(*case)

    def test_every_file_pair_of_the_demo_corpus(self, demo_corpus):
        source = GitSource(demo_corpus["repo"])
        items = [(record, path) for record in source.fetch_merged_changes()
                 for path in record.files if path.endswith(".py")]
        pairs = [pair for pair in source.file_pairs(items) if pair is not None]
        assert len(pairs) > 400
        for pair in pairs:
            assert_walks_agree(pair.before_text, pair.after_text)

    def test_files_without_statements(self):
        assert_walks_agree("# before\n", "# after\n")
        assert_walks_agree("", "x = 1\n")

    def test_every_converted_host_kind(self):
        source = (DATA / "normalizer_fixture.py").read_text()
        assert shape(parse_source(source)) == shape(reference_parse_source(source))
        assert_walks_agree(source, source.replace("pass", "x = 1"))
        # real modules, with decorated and `@(await ...)` definitions, async
        # forms and multi-item `with`: the span rule against the union rule
        sources = [Path(importlib.util.find_spec(name).origin).read_text(encoding="utf-8")
                   for name in STUB_MODULES]
        for source in sources + [_STUB_FORMS_SOURCE]:
            try:
                tree = parse_source(source)
            except UnsupportedConstructError as err:  # a `match` statement, say
                with pytest.raises(UnsupportedConstructError) as reference:
                    reference_parse_source(source)
                assert reference.value.lineno == err.lineno
                continue
            assert shape(tree) == shape(reference_parse_source(source))

    def test_conflicts_at_several_depths_keep_their_order(self):
        # in-block ambiguous anchors at module level, in an if body and in
        # expressions: each pair's children are joined before its next
        # sibling, so their conflicts come first
        before = ("x = [a, a]\n"
                  "x = [a, a]\n"
                  "def f():\n"
                  "    if c:\n"
                  "        g(b, b)\n"
                  "        g(b, b)\n")
        after = before.replace(", ", ",  ")
        assert assert_walks_agree(before, after) == 12
        assert assert_walks_agree(after, before) == 12
        kinds = [message.split("'")[1]
                 for message in diff_texts(before, after).conflicts]
        assert kinds == ["Assign", "Name", "Name"] * 2 + ["Expr", "Name", "Name"] * 2
        before = "x = [a, a]\nx = [a, a]\n"
        after = "x = [a,  a]\nx = [a,  a]\n"
        assert assert_walks_agree(before, after) == 6


class TestStubParity:
    @given(edit_case())
    @settings(max_examples=200, deadline=None)
    def test_generated_edits(self, case):
        assert_stubs_agree(*case)

    @given(moved_and_renamed_case())
    @settings(max_examples=100, deadline=None)
    def test_moved_and_renamed_nodes(self, case):
        assert_stubs_agree(*case)


def test_hunk_depth_bound_keeps_its_limit_and_skips_past_it():
    def inserted_sum(terms):
        return diff_texts("", "x = " + " + ".join(["1"] * terms) + "\n")

    [hunk] = extract_hunks(inserted_sum(MAX_HUNK_DEPTH))
    assert tree_height(hunk.labeled_roots[0]) == MAX_HUNK_DEPTH
    # the hunks.jsonl round trip of the highest subtree allowed
    doc = json.loads(json.dumps(hunk_to_dict(hunk), sort_keys=True))
    assert hunk_to_dict(hunk_from_dict(doc)) == doc
    with pytest.raises(UnsupportedConstructError) as err:
        extract_hunks(inserted_sum(MAX_HUNK_DEPTH + 1))
    assert err.value.lineno == 1


def test_a_diff_tree_600_levels_deep_dumps():
    # a one-term edit in a 600-term sum; json.dumps(indent=2) recurses in
    # Python once per level and raised RecursionError on this tree
    terms = ["1"] * 600
    before = "x = " + " + ".join(terms) + "\n"
    terms[300] = "2"
    enhanced = diff_texts(before, "x = " + " + ".join(terms) + "\n")
    assert tree_height(enhanced.root) > 600
    text = dump_enhanced_ast(enhanced)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        assert text == reference_dump_enhanced_ast(enhanced)
    finally:
        sys.setrecursionlimit(limit)


# the per-file chain of the extract and features stages, run on a one-term
# edit in a 400-term sum with the recursion limit cut to 200 frames
_LOW_LIMIT_CHAIN = """
import json, sys
from fixscope.context import extract_context
from fixscope.diffing import (
    align_versions, build_diff_ast, extract_hunks, hunk_from_dict, hunk_to_dict, line_maps)
from fixscope.features import hunk_feature_vector
from fixscope.grammar import parse_source

terms = ["1"] * 400
before = "x = " + " + ".join(terms) + "\\n"
terms[200] = "2"
after = "x = " + " + ".join(terms) + "\\n"
sys.setrecursionlimit(200)
enhanced = build_diff_ast(parse_source(before), parse_source(after),
                          line_maps(align_versions(before, after), before, after))
hunks = extract_hunks(enhanced)
vectors = [hunk_feature_vector(hunk_from_dict(hunk_to_dict(hunk))).entries
           for hunk in hunks]
contexts = [extract_context(hunk) for hunk in hunks]
print(json.dumps({"vectors": vectors, "closest": [
    [name for name, value in context.items()
     if name.startswith("ctx_including_") and name != "ctx_including_node_size"
     and value] for context in contexts]}))
"""


def test_the_per_file_chain_runs_under_a_200_frame_recursion_limit():
    env = dict(os.environ, PYTHONPATH=str(Path(fixscope.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _LOW_LIMIT_CHAIN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert [sorted(vector) for vector in result["vectors"]] == [
        ["add_BinOp-Right_Num", "add_Num", "rem_BinOp-Right_Num", "rem_Num"]]
    assert result["closest"] == [["ctx_including_BinOp"]]
