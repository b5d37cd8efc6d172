"""Replayable mutation checks: each row breaks the program on purpose, and
the tests it names must catch that.

Usage, from anywhere::

    python tests/mutants.py

The runner copies this checkout's ``src/`` to a temporary directory.  For
each row, it replaces the row's exact old text in its
file with the new text, runs ``python -m pytest -x -q`` on the row's test
ids with ``PYTHONPATH`` on the copy, and puts the file back.  A row is

- ``killed`` when a named test fails, or the run outlasts ``TIMEOUT``;
- ``survived`` when every named test passes;
- ``stale`` when its old text no longer occurs exactly once in its file.

Before any row, every named test runs once on the unmutated copy: a test
that fails there would kill every mutant.  The exit status is 1 when that
run fails or a row survived, is stale or could not run.  A change that
checks a test by breaking the program adds a row here rather than a note.
Reference: DeMillo, Lipton & Sayward, "Hints on test data selection"
(IEEE Computer, 1978).  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds a row's tests may take; a longer run counts as killed


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # node ids, from the checkout root


MUTANTS = [
    Mutant("unreached-public-function", "fixscope/report.py",
           '    return "\\n".join(lines)\n',
           '    return "\\n".join(lines)\n\n\ndef render_summary(report) -> str:\n'
           '    return ""\n',
           ("tests/test_pipeline.py::TestEveryFunctionIsReached"
            "::test_the_verbs_call_every_function",)),
    Mutant("join-key-strips-text", "fixscope/diffing.py",
           "    return (node.kind, node.role, node.text)\n",
           "    return (node.kind, node.role, node.text.strip())\n",
           ("tests/test_diffing.py::TestStubHazards"
            "::test_a_blank_edit_at_either_end_of_a_string_keeps_its_hunk",)),
    Mutant("old-seal-kept-while-a-stage-runs", "fixscope/pipeline.py",
           "        (self.out / _manifest(stage)).unlink(missing_ok=True)\n", "",
           ("tests/test_pipeline.py::TestCheckpointing"
            "::test_failed_write_leaves_no_partial_file",)),
    Mutant("scan-follows-renames", "fixscope/ingest.py",
           '"--root", "--no-renames", ', '"--root", ',
           ("tests/test_ingest.py::TestGitSourceParity::test_cases_the_fixture_must_hold",)),
    Mutant("every-statement-stubbable", "fixscope/grammar.py",
           "        if type(node).__name__ not in _STUB_RULES:\n            return False\n", "",
           ("tests/test_grammar.py::TestStubIdentity"
            "::test_a_statement_holding_a_match_is_never_stubbed",)),
    Mutant("export-skips-the-digest-check", "fixscope/pipeline.py",
           "        if data is None or digest != outputs.get(name):\n",
           "        if data is None:\n",
           ("tests/test_pipeline.py::TestCli"
            "::test_export_refuses_artifacts_their_seal_no_longer_covers",)),
    Mutant("decorator-span-keeps-await", "fixscope/grammar.py",
           "        while isinstance(first, (ast.Await, ast.Starred)):\n"
           "            first = first.value\n", "",
           ("tests/test_walks.py::TestParityWithRecursiveReferences"
            "::test_every_converted_host_kind",)),
    Mutant("tree-modules-load-numpy", "fixscope/grammar.py",
           "import operator\n", "import operator\n\nimport numpy  # noqa: F401\n",
           ("tests/test_pipeline.py::TestStartUpImports"
            "::test_the_tree_modules_load_no_numpy",)),
    Mutant("narrower-hunk-gap", "fixscope/diffing.py",
           "HUNK_LINE_GAP = 3\n", "HUNK_LINE_GAP = 2\n",
           ("tests/test_self_history.py::TestExtractGate::test_ingest_and_extract_counts",)),
    Mutant("one-sided-quantile-lerp", "fixscope/cluster.py",
           "if g >= 0.5 else", "if g > 0.5 else",
           ("tests/test_cluster.py::TestLinearQuantiles::test_the_lerp_is_two_sided",)),
    Mutant("quantiles-skip-nan-rows", "fixscope/cluster.py",
           "    out[np.isnan(part[:, -1])] = np.nan\n", "",
           ("tests/test_cluster.py::TestLinearQuantiles::test_bits_equal_numpy_quantile",)),
    Mutant("equal-size-side-counts-larger", "fixscope/cluster.py",
           "            if sizes[small] > sizes[large]:\n",
           "            if sizes[small] >= sizes[large]:\n",
           ("tests/test_cluster.py::TestCophenetic::test_matches_bruteforce_oracle",)),
    Mutant("prim-without-inf-fallback", "fixscope/cluster.py",
           "        if not outside[k]:  # every key left is inf (distances overflowed)\n"
           "            k = int(np.argmax(outside))\n", "",
           ("tests/test_cluster.py::TestPrimScan::test_edges_equal_reference_scan",)),
]


def run_tests(src: Path, tests) -> str:
    """``passed``, ``failed`` or ``timeout`` for the tests under ``src``,
    or ``error <exit status>`` when pytest could not run them."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # an empty pythonpath keeps pytest from putting the checkout's src first
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-o", "pythonpath=", *tests]
    # a session of its own, so a timeout also ends the processes the tests start
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        status = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    # 2: a collection error, as when the mutant no longer imports
    return {0: "passed", 1: "failed", 2: "failed"}.get(status, f"error {status}")


def main() -> int:
    start = time.monotonic()
    bad = 0
    with tempfile.TemporaryDirectory(prefix="fixscope-mutants-") as work:
        src = Path(work) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({test for m in MUTANTS for test in m.tests})
        outcome = run_tests(src, tests)
        print(f"unmutated: {outcome}", flush=True)
        if outcome != "passed":
            return 1
        for mutant in MUTANTS:
            path = src / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                verdict = "stale"
            else:
                path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
                try:
                    outcome = run_tests(src, mutant.tests)
                finally:
                    path.write_text(text, encoding="utf-8")
                verdict = {"failed": "killed", "timeout": "killed",
                           "passed": "survived"}.get(outcome, outcome)
            bad += verdict != "killed"
            print(f"{verdict}: {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed in {time.monotonic() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
