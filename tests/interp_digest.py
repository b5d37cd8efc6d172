"""Print one sha256 over the hunks of file pairs, under any interpreter.

Usage, with the ``src`` directory to test on ``PYTHONPATH``::

    PYTHONPATH=src python -B tests/interp_digest.py PAIRS.json

``PAIRS.json`` holds a list of ``{"change_id", "path", "before",
"after"}`` objects.  Each pair is aligned, parsed, joined and cut into
hunks twice, once with statements on untouched lines stubbed (as the
extract stage parses) and once converted whole.  The digest covers, in
order, each run's hunk documents and conflicts, or the type and line of
the error that skipped the pair.  Two interpreters that print the same
digest gave the same hunks.

It needs only the standard library and imports only ``fixscope.grammar``
and ``fixscope.diffing``, from wherever ``PYTHONPATH`` finds them, so it
runs under an interpreter that has no numpy.  ``-B`` keeps that
interpreter's bytecode out of the source tree.  The tests build their
diff trees with its ``diff_texts``.  pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from fixscope.diffing import (
    align_versions,
    build_diff_ast,
    extract_hunks,
    hunk_to_dict,
    line_maps,
)
from fixscope.grammar import parse_source


def diff_texts(before: str, after: str, change_id="chg", path="a.py", stubs=False):
    """The diff tree of two texts; with ``stubs``, statements on lines the
    script leaves untouched parse as stubs, as the extract stage does."""
    tables = line_maps(align_versions(before, after), before, after)
    tests = [table.stub_test if stubs else None for table in tables]
    return build_diff_ast(parse_source(before, tests[0]), parse_source(after, tests[1]),
                          tables, change_id=change_id, path=path)


def outcome(pair: dict, stubs: bool) -> list:
    """One run's hunk documents and conflicts, or its skip's error type
    and line."""
    try:
        enhanced = diff_texts(pair["before"], pair["after"], pair["change_id"],
                              pair["path"], stubs)
        hunks = extract_hunks(enhanced)
    except SyntaxError as err:
        return ["skipped", type(err).__name__, err.lineno]
    return [[hunk_to_dict(hunk) for hunk in hunks], enhanced.conflicts]


def main() -> None:
    pairs = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    digest = hashlib.sha256()
    for pair in pairs:
        for stubs in (True, False):
            digest.update(json.dumps(outcome(pair, stubs), sort_keys=True).encode() + b"\n")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
