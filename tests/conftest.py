"""Shared helpers for building hunks from source pairs, plus the
acceptance-criterion summary printed at the end of a run."""

from __future__ import annotations

import pytest

from fixscope.democorpus import build_demo_corpus
from fixscope.diffing import align_versions, build_diff_ast, extract_hunks
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


def diff_texts(before: str, after: str, change_id="chg", path="a.py"):
    script = align_versions(before, after)
    return build_diff_ast(parse_source(before), parse_source(after), script,
                          change_id=change_id, path=path)


def make_hunks(before: str, after: str, **kwargs):
    return extract_hunks(diff_texts(before, after, **kwargs))


def single_hunk(before: str, after: str, **kwargs):
    hunks = make_hunks(before, after, **kwargs)
    assert len(hunks) == 1, [h.id for h in hunks]
    return hunks[0]
