"""Metamorphic relations of the extract path: edits of a real module that
must leave what extraction finds unchanged.

The inputs are small modules of the running interpreter's standard
library, so the relations need no corpus on disk.
"""

from __future__ import annotations

import ast
import csv
import io
import json.decoder
import random
import string
import textwrap
import time
import tokenize
import warnings
from pathlib import Path

from fixscope.diffing import extract_hunks
from fixscope.grammar import split_lines

from conftest import diff_texts, file_hunks, make_hunks
from test_grammar import SEGMENT_SOURCES

LAYOUT_MODULES = (json.decoder, csv, textwrap, string)
CASES_PER_MODULE = 6
EDITS_PER_CASE = 4
LAYOUT_BUDGET_S = 3.0
FORM_FEED_CASES_PER_MODULE = 8
FORM_FEED_BUDGET_S = 3.0
TERMINATOR_CASES_PER_MODULE = 3
FSTRING_TERMINATOR_CASES = 8
TERMINATOR_BUDGET_S = 3.0
LITERAL_CASES_PER_MODULE = 3
FSTRING_LITERAL_CASES = 8
LITERAL_BUDGET_S = 3.0


def logical_line_ends(source: str) -> list[int]:
    """Line numbers (1-based) of the physical lines that end a logical line:
    a line may be inserted after each of them, and trailing spaces added to
    it, without touching a string or a bracketed expression."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sorted({tok.end[0] for tok in tokens if tok.type == tokenize.NEWLINE})


def layout_edit(source: str, rng: random.Random) -> str:
    """``source`` with a comment-only line, a blank line or trailing spaces
    at each of ``EDITS_PER_CASE`` seeded logical-line boundaries."""
    lines = source.splitlines(keepends=True)
    # bottom up, so an insertion leaves the line numbers above it valid
    for end in sorted(rng.sample(logical_line_ends(source), EDITS_PER_CASE), reverse=True):
        line = lines[end - 1]
        kind = rng.choice(("comment", "blank", "trailing"))
        if kind == "trailing":
            body = line.rstrip("\r\n")
            lines[end - 1] = body + " " * rng.randint(1, 3) + line[len(body):]
        else:
            indent = line[:len(line) - len(line.lstrip(" \t"))]
            lines.insert(end, f"{indent}# layout only\n" if kind == "comment" else "\n")
    return "".join(lines)


def test_layout_edits_yield_no_hunks():
    # nor an alignment conflict, in either direction: a trailing space on
    # a line holding two same-key siblings once made them ambiguous anchors
    started = time.perf_counter()
    cases = []
    for module in LAYOUT_MODULES:
        source = Path(module.__file__).read_text(encoding="utf-8")
        for seed in range(CASES_PER_MODULE):
            edited = layout_edit(source, random.Random(f"{module.__name__}:{seed}"))
            assert edited != source
            for before, after, direction in ((source, edited, "+"), (edited, source, "-")):
                enhanced = diff_texts(before, after, path=module.__name__)
                cases.append((module.__name__, seed, direction,
                              [hunk.id for hunk in extract_hunks(enhanced)],
                              len(enhanced.conflicts)))
    elapsed = time.perf_counter() - started
    assert [case for case in cases if case[3] or case[4]] == []
    assert elapsed <= LAYOUT_BUDGET_S, f"{elapsed:.2f} s for {len(cases)} cases"


def line_edit(source: str, rng: random.Random) -> str:
    """``source`` with one seeded line deleted, or copied to a seeded place."""
    lines = source.splitlines(keepends=True)
    line = rng.randrange(len(lines))
    if rng.random() < 0.5:
        del lines[line]
    else:
        lines.insert(rng.randrange(len(lines) + 1), lines[line])
    return "".join(lines)


def with_form_feed_after_line_1(text: str) -> str:
    first, newline, rest = text.partition("\n")
    return first + "\x0c" + newline + rest


def hunk_places(before: str, after: str, path: str) -> list:
    return [(hunk.id, [(root.kind, root.role, root.label, root.span, root.eff_start,
                        root.eff_end) for root in hunk.labeled_roots])
            for hunk in make_hunks(before, after, path=path)]


def test_form_feed_after_line_1_changes_no_hunk():
    # the parser reads a form feed as whitespace, so the line diff must not
    # break a line there either
    started = time.perf_counter()
    cases = []
    for module in LAYOUT_MODULES:
        source = Path(module.__file__).read_text(encoding="utf-8")
        for seed in range(FORM_FEED_CASES_PER_MODULE):
            edited = line_edit(source, random.Random(f"{module.__name__}:{seed}"))
            try:
                with warnings.catch_warnings():
                    # an escape a copied line brings into a plain string
                    warnings.simplefilter("error")
                    ast.parse(edited)
            except SyntaxError:
                continue
            plain = hunk_places(source, edited, module.__name__)
            fed = hunk_places(with_form_feed_after_line_1(source),
                              with_form_feed_after_line_1(edited), module.__name__)
            cases.append((module.__name__, seed, bool(plain), plain == fed))
    elapsed = time.perf_counter() - started
    assert sum(case[2] for case in cases) >= 8
    assert [case for case in cases if not case[3]] == []
    assert elapsed <= FORM_FEED_BUDGET_S, f"{elapsed:.2f} s for {len(cases)} cases"


def terminator_edit(source: str, rng: random.Random, lines_at: list[int]) -> str:
    """``source`` with the LF ending each of ``EDITS_PER_CASE`` seeded lines
    of ``lines_at`` (1-based) turned into CRLF or a lone CR."""
    lines = split_lines(source, keepends=True)
    for line in rng.sample(lines_at, EDITS_PER_CASE):
        assert lines[line - 1].endswith("\n")
        lines[line - 1] = lines[line - 1][:-1] + rng.choice(("\r\n", "\r"))
    return "".join(lines)


def test_line_terminator_edits_yield_no_hunks():
    # no node depends on a line's terminator, an f-string's text included,
    # so stubbed and fully converted trees both find nothing
    started = time.perf_counter()
    cases = []
    for module in LAYOUT_MODULES:
        source = Path(module.__file__).read_text(encoding="utf-8")
        lines = split_lines(source, keepends=True)
        ends = [end for end in logical_line_ends(source) if lines[end - 1].endswith("\n")]
        for seed in range(TERMINATOR_CASES_PER_MODULE):
            rng = random.Random(f"{module.__name__}:{seed}")
            cases.append((module.__name__, seed, source, terminator_edit(source, rng, ends)))
    fstrings = SEGMENT_SOURCES["multi-line"]
    every_line = list(range(1, len(split_lines(fstrings)) + 1))
    for seed in range(FSTRING_TERMINATOR_CASES):
        rng = random.Random(f"multi-line:{seed}")
        cases.append(("multi-line", seed, fstrings, terminator_edit(fstrings, rng, every_line)))
    failed = []
    for name, seed, source, edited in cases:
        assert edited != source
        for old, new in ((source, edited), (edited, source)):
            found = [file_hunks(old, new, stubs=stubs) for stubs in (True, False)]
            if found != [([], [], [])] * 2:
                failed.append((name, seed))
    elapsed = time.perf_counter() - started
    assert failed == []
    assert elapsed <= TERMINATOR_BUDGET_S, f"{elapsed:.2f} s for {len(cases)} cases"


def literal_lines(source: str) -> list[int]:
    """Line numbers (1-based) of the lines that end inside a string literal
    and not after a backslash: blanks added at their end are text of the
    literal, though the line diff keeps the line."""
    lines = split_lines(source)
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sorted({line for tok in tokens if tok.type == tokenize.STRING
                   for line in range(tok.start[0], tok.end[0])
                   if not lines[line - 1].endswith("\\")})


def trailing_blank_edit(source: str, rng: random.Random, lines_at: list[int]) -> str:
    """``source`` with spaces or a tab added at the end of ``EDITS_PER_CASE``
    seeded lines of ``lines_at`` (1-based)."""
    lines = split_lines(source, keepends=True)
    for line in rng.sample(lines_at, EDITS_PER_CASE):
        text = lines[line - 1]
        body = text.rstrip("\r\n")
        lines[line - 1] = body + rng.choice((" ", "  ", "\t", " \t")) + text[len(body):]
    return "".join(lines)


def test_trailing_blanks_inside_literals_keep_their_str_hunks():
    # a kept line whose trailing blanks changed inside a literal touches the
    # statement that holds it: stubbed and fully converted trees agree, and
    # every labeled root is the literal's Str
    started = time.perf_counter()
    cases = []
    for module in LAYOUT_MODULES:
        source = Path(module.__file__).read_text(encoding="utf-8")
        inside = literal_lines(source)
        for seed in range(LITERAL_CASES_PER_MODULE):
            rng = random.Random(f"{module.__name__}:{seed}")
            cases.append((module.__name__, seed, source, trailing_blank_edit(source, rng, inside)))
    fstrings = SEGMENT_SOURCES["multi-line"]
    inside = literal_lines(fstrings)
    for seed in range(FSTRING_LITERAL_CASES):
        rng = random.Random(f"multi-line:{seed}")
        cases.append(("multi-line", seed, fstrings, trailing_blank_edit(fstrings, rng, inside)))
    failed = []
    for name, seed, source, edited in cases:
        assert edited != source
        for old, new in ((source, edited), (edited, source)):
            stubbed, full = (file_hunks(old, new, stubs=stubs) for stubs in (True, False))
            kinds = [root["kind"] for doc in full[0] for root in doc["roots"]]
            if stubbed != full or not kinds or set(kinds) != {"Str"}:
                failed.append((name, seed, kinds))
    elapsed = time.perf_counter() - started
    assert failed == []
    assert elapsed <= LITERAL_BUDGET_S, f"{elapsed:.2f} s for {len(cases)} cases"
