"""Shared helpers for building hunks from source pairs, plus the
acceptance-criterion summary printed at the end of a run.  A session
stops at its start when ``PYTHONPATH`` names a source tree other than the
one the tests import."""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import NamedTuple

import pytest

import fixscope
from fixscope.context import extract_context
from fixscope.democorpus import build_demo_corpus
from fixscope.diffing import diff_node_to_dict, extract_hunks, hunk_to_dict, indented_json
from fixscope.ingest import ChangeRecord, GitSource
from fixscope.pipeline import Pipeline, PipelineConfig

from interp_digest import diff_texts
from self_bundle import SELF_BRANCH, clone_self_history

ACCEPTANCE_LINES: list[str] = []


def pytest_sessionstart(session):
    # pyproject.toml's pythonpath puts the checkout's src ahead of
    # PYTHONPATH, so a tree named there would go untested
    imported = Path(fixscope.__file__).resolve()
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        named = Path(entry, "fixscope", "__init__.py")
        if named.is_file() and named.resolve() != imported:
            pytest.exit(f"PYTHONPATH names {named.resolve()}, but the tests import "
                        f"{imported}; run with -o pythonpath= to test the tree PYTHONPATH "
                        f"names", returncode=pytest.ExitCode.USAGE_ERROR)


@pytest.fixture(scope="session")
def demo_corpus(tmp_path_factory):
    """The default demo corpus, built once; tests only read it."""
    return build_demo_corpus(tmp_path_factory.mktemp("demo-corpus"))


class SelfHistory(NamedTuple):
    config: PipelineConfig  # ingest and extract have run into its output_dir
    pairs: list  # the FilePair of each file the matched changes retained
    warnings: list[str]  # what the two stages logged at WARNING


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.fixture(scope="session")
def self_history(tmp_path_factory):
    """This repository's history cloned once, with ingest and extract run
    on its pinned branch; tests only read it."""
    root = tmp_path_factory.mktemp("self-history")
    config = PipelineConfig(source_path=str(clone_self_history(root / "repo")),
                            branches=(SELF_BRANCH,), output_dir=str(root / "out"))
    warnings = _Warnings()
    logger = logging.getLogger("fixscope")
    logger.addHandler(warnings)
    try:
        pipeline = Pipeline(config)
        for stage in ("ingest", "extract"):
            pipeline.run_stage(stage)
    finally:
        logger.removeHandler(warnings)
    changes = (root / "out" / "changes.jsonl").read_text().splitlines()
    items = []
    for change in map(json.loads, changes):
        record = ChangeRecord(**{**change, "files": tuple(change["files"])})
        items.extend((record, path) for path in record.files)
    return SelfHistory(config, list(GitSource(config.source_path).file_pairs(items)),
                       warnings.messages)


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def labeled_roots(enhanced):
    """Maximal Plus/Minus subtree roots in document order."""
    return [root for root, _chain in enhanced.chained_roots()]


def dump_enhanced_ast(enhanced) -> str:
    """One JSON document with the labeled tree, for golden tests; any
    depth of tree dumps, since no step recurses."""
    doc = {
        "change_id": enhanced.change_id,
        "path": enhanced.path,
        "conflicts": enhanced.conflicts,
        "tree": diff_node_to_dict(enhanced.root),
    }
    return indented_json(doc)


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
