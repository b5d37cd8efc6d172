"""Print one digest of how the normalizer reads every stdlib source file.

Parses each ``.py`` file under the interpreter's stdlib directory
(``sysconfig.get_paths()["stdlib"]``, site-packages included) with
``fixscope.grammar.parse_source``, fully converted, and prints the number
of files, how many of them parse, and one sha256.  The digest covers each
file's path under that directory and, in preorder, every node's kind,
role, text, span and child count, or the error type and line for a file
that does not parse.  Two checkouts that print the same line normalize
these files alike.

Run from anywhere; it imports ``fixscope`` from this checkout's ``src``::

    python tests/tree_digest.py

It takes a few minutes.  pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
import sysconfig
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fixscope.grammar import parse_source  # noqa: E402


def file_digest(text: str, digest) -> bool:
    """Feed ``digest`` the normalized tree of ``text``, or its error;
    whether it parsed."""
    try:
        tree = parse_source(text)
    except (SyntaxError, ValueError) as err:  # ValueError: a null byte
        digest.update(f"! {type(err).__name__} {getattr(err, 'lineno', None)}\n".encode())
        return False
    for node in tree.walk():
        # Str text can hold a lone surrogate, from an escape like "\ud800"
        text = node.text.encode("utf-8", "surrogatepass")
        digest.update(f"{node.kind} {node.role} {tuple(node.span)} {len(node.children)} "
                      f"{len(text)}\n".encode())
        digest.update(text)
    return True


def main() -> None:
    root = Path(sysconfig.get_paths()["stdlib"])
    digest = hashlib.sha256()
    files = parsed = 0
    for path in sorted(root.rglob("*.py")):
        if not path.is_file():
            continue
        # decoded as ingest decodes a blob that is not clean UTF-8
        text = path.read_bytes().decode("utf-8", errors="replace")
        digest.update(f"= {path.relative_to(root).as_posix()}\n".encode())
        files += 1
        parsed += file_digest(text, digest)
    print(f"{files} files, {parsed} parse, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
