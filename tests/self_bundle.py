"""This repository's own history up to d1d1ae4, as one branch of a git
bundle; the tests and ``artifact_digest.py`` clone it from here."""

from __future__ import annotations

import subprocess
from pathlib import Path

SELF_BUNDLE = Path(__file__).parent / "data" / "self-d1d1ae4.bundle"
SELF_BRANCH = "self-d1d1ae4"


def clone_self_history(dest: Path) -> Path:
    """Clone the bundled history into ``dest``; returns ``dest``."""
    subprocess.run(["git", "clone", "-q", "--branch", SELF_BRANCH, str(SELF_BUNDLE),
                    str(dest)], check=True, capture_output=True)
    return dest
