"""Host-speed probe: a fixed piece of work timed next to every op.

On a shared host the same op can take 1.5 times as long from one minute
to the next, because other tenants' load slows the work fixscope does.
A small arithmetic loop barely sees that slowdown; this probe does,
because it does the two kinds of work the pipeline's stages spend their
time in:

- memory-bound Python and numpy: it builds a table of per-hunk feature
  dicts (the shape of fixscope's context data), then gathers every
  feature's column through dict lookups into a numpy array and ranks it;
- git processes and small files: it reads blobs with ``git show`` from a
  small fixed repository and writes each one, with its sha256, into a
  directory of its own, as ingest and its content cache do.

The two parts take about equal time, and each is timed on its own.  Over
this host's slow and fast spells the cluster- and stats-bound
``recluster`` op followed the Python part, and the ingest-bound
``demo-cold`` op the two parts together, so each workload names the
parts its times are divided by (``PROBE_PARTS`` in ``workloads.py``).
The probe uses only the stdlib, numpy and git, never fixscope, and its
inputs are fixed, so its cost does not depend on the program, the
workload or the seed.

``worker.py`` runs it in a forked process just before and just after
every timed op; ``run.py`` divides the op's time by the mean of the two.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import shutil
import subprocess
import time
from pathlib import Path

import numpy as np

HUNKS = 480
FEATURES = 400
PER_HUNK = 300
FILES = 8
LINES = 200
GIT_READS = 60


def _git_env(home: Path) -> dict:
    return {**os.environ, "HOME": str(home), "GIT_CONFIG_NOSYSTEM": "1"}


def make_repo(root: Path) -> Path:
    """Create the probe's repository under ``root`` and return it."""
    repo = root / "probe-repo"
    env = _git_env(root)
    subprocess.run(["git", "init", "-q", str(repo)], check=True, env=env)
    for i in range(FILES):
        (repo / f"f{i}.py").write_text(
            "".join(f"value_{j} = compute({i}, {j})\n" for j in range(LINES)))
    subprocess.run(["git", "-C", str(repo), "add", "."], check=True, env=env)
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=probe",
                    "-c", "user.email=probe@example.org", "commit", "-q", "-m", "probe"],
                   check=True, env=env)
    return repo


def _python_part() -> float:
    rng = random.Random(7)
    names = [f"feature.{i}.name" for i in range(FEATURES)]
    data = {f"hunk{h}": {name: rng.random() for name in rng.sample(names, PER_HUNK)}
            for h in range(HUNKS)}
    hunks = sorted(data)
    total = 0.0
    for name in names:
        column = np.asarray([data[h].get(name, 0.0) for h in hunks])
        order = np.argsort(column, kind="stable")
        total += float(column[order][::7].sum()) + float(np.unique(column).size)
    return total


def _git_part(repo: Path, scratch: Path) -> int:
    lines = 0
    try:
        for i in range(GIT_READS):
            blob = subprocess.run(["git", "-C", str(repo), "show", f"HEAD:f{i % FILES}.py"],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  check=True, env=_git_env(repo.parent)).stdout
            folder = scratch / f"{i:02d}"
            folder.mkdir(parents=True)
            (folder / "blob.bin").write_bytes(blob)
            (folder / "blob.sha256").write_text(hashlib.sha256(blob).hexdigest())
            lines += len(blob.decode("utf-8").splitlines())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return lines


def _cpu() -> float:
    """CPU seconds of this process and of the children it waited for."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def run(repo: Path, parts: list[str]) -> dict[str, list[float]]:
    """Do the named parts of the probe once and return each one's
    [wall, cpu] seconds; ``repo`` comes from ``make_repo``."""
    work = {"python": _python_part,
            "git": lambda: _git_part(repo, repo.parent / "probe-scratch")}
    times = {}
    for name in parts:
        wall, cpu = time.perf_counter(), _cpu()
        work[name]()
        times[name] = [time.perf_counter() - wall, _cpu() - cpu]
    return times
