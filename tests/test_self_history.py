"""This repository's own history as a corpus: a real history reaches
alignment conflicts and an inverted Minus node, which no generated corpus
does, and its file pairs check that every interpreter the package claims
gives the same hunks."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fixscope

INTERP_DIGEST = Path(__file__).parent / "interp_digest.py"
CLAIMED = ("3.10", "3.12", "3.13")  # beside the running one; requires-python >=3.10


def read_json(config, name):
    return json.loads((Path(config.output_dir) / name).read_text())


class TestExtractGate:
    def test_ingest_and_extract_counts(self, self_history):
        assert read_json(self_history.config, "ingest_counts.json") == {
            "changes_total": 39, "changes_matched": 13, "files_total": 152,
            "files_retained": 51}
        assert read_json(self_history.config, "extract_counts.json") == {
            "files_considered": 51, "files_parsed": 51, "files_skipped_syntax": 0,
            "files_missing": 0, "alignment_conflicts": 60, "hunks": 248,
            "skipped_files": [], "update_label_policy": "minus-plus-pair"}
        assert self_history.warnings == [
            "60 alignment conflicts in 17 files, each resolved in source order"]
        assert len(self_history.pairs) == 51 and None not in self_history.pairs

    def test_one_minus_node_ends_before_it_starts(self, self_history):
        # a Minus node that starts inside a shrinking edit block and ends
        # past it maps its end before its start; this pins the one such
        # node, so a fix of the mapping shows here
        inverted = []
        hunks = Path(self_history.config.output_dir) / "hunks.jsonl"
        for doc in map(json.loads, hunks.read_text().splitlines()):
            stack = list(doc["roots"])
            while stack:
                node = stack.pop()
                if node["eff"][0] > node["eff"][1]:
                    inverted.append((doc["change_id"][:7], doc["path"], node["kind"],
                                     node["label"], node["eff"]))
                stack.extend(node["children"])
        assert inverted == [("3c859d1", "src/fixscope/grammar.py", "FunctionDef",
                             "minus", [363, 360])]


def interp_digest(python: str, pairs: Path) -> str:
    # the package under test, not whatever src the script sits beside
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(fixscope.__file__).parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([python, "-B", str(INTERP_DIGEST), str(pairs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.fixture(scope="module")
def dumped_pairs(self_history, tmp_path_factory):
    """The self-history file pairs as ``interp_digest.py`` reads them, and
    their digest under the running interpreter."""
    path = tmp_path_factory.mktemp("interp") / "pairs.json"
    path.write_text(json.dumps([
        {"change_id": pair.change_id, "path": pair.path,
         "before": pair.before_text, "after": pair.after_text}
        for pair in self_history.pairs]), encoding="utf-8")
    return path, interp_digest(sys.executable, path)


class TestInterpreters:
    @pytest.mark.parametrize("version", CLAIMED)
    def test_each_interpreter_gives_the_same_hunks(self, dumped_pairs, version):
        # pyenv's shims exit 127 for a version that is installed but not
        # selected; PYENV_VERSION=3.11.7:3.10.13:3.12.1:3.13.0 selects all
        python = shutil.which(f"python{version}")
        if python is None:
            pytest.skip(f"python{version} is not on PATH")
        probe = subprocess.run([python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                               capture_output=True, text=True, timeout=60)
        if probe.returncode != 0 or probe.stdout.strip() != version:
            pytest.skip(f"python{version} ({python}) does not run as {version}: "
                        f"exit {probe.returncode}")
        pairs, expected = dumped_pairs
        assert interp_digest(python, pairs) == expected
