"""Shared helpers for building hunks from source pairs, plus the
acceptance-criterion summary printed at the end of a run."""

from __future__ import annotations

import pytest

from fixscope.context import extract_context
from fixscope.democorpus import build_demo_corpus
from fixscope.diffing import (
    align_versions,
    build_diff_ast,
    extract_hunks,
    hunk_to_dict,
    line_maps,
)
from fixscope.grammar import parse_source

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def demo_corpus(tmp_path_factory):
    """The default demo corpus, built once; tests only read it."""
    return build_demo_corpus(tmp_path_factory.mktemp("demo-corpus"))


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def diff_texts(before: str, after: str, change_id="chg", path="a.py", stubs=False):
    """The diff tree of two texts; with ``stubs``, statements on lines the
    script leaves untouched parse as stubs, as the extract stage does."""
    tables = line_maps(align_versions(before, after), before, after)
    tests = [table.stub_test if stubs else None for table in tables]
    return build_diff_ast(parse_source(before, tests[0]), parse_source(after, tests[1]),
                          tables, change_id=change_id, path=path)


def file_hunks(before: str, after: str, stubs: bool):
    """What the extract stage keeps of one file pair: its hunk documents,
    their contexts, and the conflicts in order."""
    enhanced = diff_texts(before, after, stubs=stubs)
    hunks = extract_hunks(enhanced)
    return ([hunk_to_dict(hunk) for hunk in hunks], [extract_context(hunk) for hunk in hunks],
            enhanced.conflicts)


def assert_stubs_agree(before: str, after: str):
    """The stub path keeps exactly what the full path keeps, in both
    directions."""
    for old, new in ((before, after), (after, before)):
        assert file_hunks(old, new, stubs=True) == file_hunks(old, new, stubs=False)


def make_hunks(before: str, after: str, **kwargs):
    return extract_hunks(diff_texts(before, after, **kwargs))


def single_hunk(before: str, after: str, **kwargs):
    hunks = make_hunks(before, after, **kwargs)
    assert len(hunks) == 1, [h.id for h in hunks]
    return hunks[0]
