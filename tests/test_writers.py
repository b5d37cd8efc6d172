"""One writer per artifact format: ``indented_json`` writes every ``.json``
artifact and manifest, and ``pipeline._csv`` every CSV table.  The same
``ast`` scan of ``src/fixscope/`` holds two more jobs to one function
each: building a file pair's line tables, and reading a stage manifest."""

from __future__ import annotations

import ast
import json
import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from fixscope.diffing import indented_json

SRC = Path(__file__).resolve().parent.parent / "src" / "fixscope"

SCALARS = (0, -1, 2**70, True, False, None, 0.0, -0.0, 5e-324, 1e15, 0.1 + 0.2, -1e300,
           math.nan, math.inf, -math.inf, "", "plain", "é中\U0001f600", "\x00\x1f\x7f\"\\/\n\t",
           " ", {}, [], ())
KEYS = ("a", "B", "", "é", "\x01", "a b", "10", "2")


def random_doc(rng: random.Random, depth: int = 0):
    """A seeded document of dicts, lists and tuples over ``SCALARS``."""
    kind = rng.random()
    if depth >= 5 or kind < 0.4:
        return rng.choice(SCALARS)
    items = [random_doc(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind < 0.7:
        return {rng.choice(KEYS): item for item in items}
    return items if kind < 0.85 else tuple(items)


class TestIndentedJson:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_json_dumps(self, seed):
        doc = random_doc(random.Random(seed))
        assert indented_json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", SCALARS)
    def test_matches_json_dumps_on_each_scalar(self, doc):
        for wrapped in (doc, [doc], {"k": doc}, [[doc], {"k": (doc,)}]):
            assert indented_json(wrapped) == json.dumps(wrapped, indent=2, sort_keys=True)

    def test_depth_costs_no_frames_and_no_quadratic_memory(self):
        doc = 1
        for _ in range(600):
            doc = [doc]
        tracemalloc.start()
        try:
            text = indented_json(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)
        try:
            assert text == json.dumps(doc, indent=2, sort_keys=True)
        finally:
            sys.setrecursionlimit(limit)
        # the text itself is 0.7 MB; carrying each opener's line into its
        # first child's would take about 70 MB
        assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
    def test_a_key_that_is_no_string_raises(self, key):
        # json.dumps would write 1, 1.5, null and true as strings
        with pytest.raises(TypeError):
            indented_json({"a": [{key: 1}]})


def calls_by_function(tree: ast.Module, classify) -> list[tuple[str, str]]:
    """(function, what) for each call that ``classify`` names ``what`` (None
    skips it), by the innermost function around the call."""
    found = []
    functions = [(node.name, node) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in ast.walk(tree):
        what = classify(node) if isinstance(node, ast.Call) else None
        if what is not None:
            inside = [(fn.lineno, name) for name, fn in functions
                      if fn.lineno <= node.lineno <= fn.end_lineno]
            found.append((max(inside)[1] if inside else "<module>", what))
    return found


def source_calls(classify, skip=()) -> dict[str, list[tuple[str, str]]]:
    """``calls_by_function`` for each module of ``src/fixscope/`` but
    ``skip``, keeping the modules where it found a call."""
    calls = {path.stem: calls_by_function(ast.parse(path.read_text(encoding="utf-8")), classify)
             for path in sorted(SRC.glob("*.py")) if path.stem not in skip}
    return {module: found for module, found in calls.items() if found}


def writer_call(call: ast.Call) -> str | None:
    """A call that passes ``indent=`` or calls ``csv.writer``."""
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == "writer"
            and isinstance(func.value, ast.Name) and func.value.id == "csv"):
        return "csv.writer"
    return "indent=" if any(kw.arg == "indent" for kw in call.keywords) else None


def callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def line_map_construction(call: ast.Call) -> str | None:
    return "_LineMap" if callee(call) == "_LineMap" else None


def manifest_read(call: ast.Call) -> str | None:
    """A call that reads (``read*``, ``_read*``, ``open``, ``load*``) a
    path made by ``_manifest`` or spelled with ``.manifest.json``."""
    name = callee(call)
    if not (name.lstrip("_").startswith(("read", "load")) or name == "open"):
        return None
    for node in ast.walk(call):
        if ((isinstance(node, ast.Call) and callee(node) == "_manifest")
                or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.endswith(".manifest.json"))):
            return "manifest read"
    return None


def test_one_json_writer_and_one_csv_writer():
    # democorpus.py writes a corpus, not an artifact, with json.dumps
    assert source_calls(writer_call, skip=("democorpus",)) == {
        "pipeline": [("_csv", "csv.writer")]}


def test_one_function_builds_the_line_tables():
    # both tables of a file pair come from one sort of its edit script
    found = source_calls(line_map_construction)
    assert {(module, function) for module, calls in found.items()
            for function, _what in calls} == {("diffing", "line_maps")}


def test_one_function_reads_stage_manifests():
    # the currency check and export read a manifest through the same method
    found = source_calls(manifest_read)
    assert {(module, function) for module, calls in found.items()
            for function, _what in calls} == {("pipeline", "_sealed")}
