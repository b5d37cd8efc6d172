"""Synthetic demo corpus: a git repository with planted fix families.

Three recurring change families (add a keyword argument, guard a statement
with an ``if``, add a dictionary entry) are injected many times over, mixed
with assorted one-off noise changes, keyword-less commits, and test-only
commits.  The generator writes a ground-truth manifest mapping commit ids
to family tags so recovery tests can score cluster purity.
"""

from __future__ import annotations

import json
import subprocess
from datetime import datetime, timedelta, timezone
from pathlib import Path

FAMILY_KWARG = "add-kwarg"
FAMILY_GUARD = "wrap-if"
FAMILY_DICT = "dict-entry"
NOISE = "noise"

_EPOCH = datetime(2018, 1, 1, tzinfo=timezone.utc)

_GIT_ENV_BASE = {
    "GIT_AUTHOR_NAME": "demo", "GIT_AUTHOR_EMAIL": "demo@example.org",
    "GIT_COMMITTER_NAME": "demo", "GIT_COMMITTER_EMAIL": "demo@example.org",
}

FIX_MESSAGES = (
    "Fix missing {0} handling (bug 17{1:02d})",
    "Patch {0} regression on rebuild",
    "Avoid failure when {0} is empty",
    "Fix fault in {0} path",
    "Bug: {0} ignored during sync",
)

FILLER_MESSAGES = (
    "Refactor {0} module layout",
    "Update docs for {0}",
    "Improve readability of {0}",
    "Add helper around {0}",
)


def _kwarg_pair(i):
    name = f"push_{i:03d}"
    body_pad = "".join(f"        step_{k} = payload.get('k{k}')\n" for k in range(i % 3))
    before = (
        "class Client{0}(object):\n"
        "    def __init__(self, transport):\n"
        "        self.transport = transport\n"
        "\n"
        "    def {1}(self, url, payload):\n"
        "{2}"
        "        payload['kind'] = 'demo'\n"
        "        result = self.transport.post(url, payload)\n"
        "        return result\n"
    ).format(i, name, body_pad)
    after = before.replace(
        "result = self.transport.post(url, payload)",
        "result = self.transport.post(url, payload, timeout=CONF.request_timeout)")
    return before, after


def _guard_pair(i):
    name = f"sync_{i:03d}"
    before = (
        "def {0}(ctx, items):\n"
        "    count = 0\n"
        "    for item in items:\n"
        "        record_entry(ctx, item)\n"
        "        count = count + 1\n"
        "    return count\n"
    ).format(name)
    after = before.replace(
        "        record_entry(ctx, item)\n",
        "        if ctx.enabled:\n            record_entry(ctx, item)\n")
    return before, after


def _dict_pair(i):
    name = f"describe_{i:03d}"
    before = (
        "def {0}(ip, mac):\n"
        "    table = {{'address': ip,\n"
        "             'hardware': mac}}\n"
        "    return table\n"
    ).format(name)
    after = before.replace(
        "             'hardware': mac}",
        "             'hardware': mac,\n             'state': 'active'}")
    return before, after


def _noise_pair(i):
    shape = i % 10
    fn = f"noise_{i:03d}"
    if shape == 0:
        before = f"def {fn}(x):\n    counter = x\n    counter = counter + 1\n    return counter\n"
        after = f"def {fn}(x):\n    counter = x\n    return counter\n"
    elif shape == 1:
        before = f"def {fn}(ctx):\n    ctx.sync()\n    return ctx\n"
        after = f"def {fn}(ctx):\n    ctx.sync()\n    LOG.debug('sync done')\n    return ctx\n"
    elif shape == 2:
        before = f"def {fn}():\n    backend = 'scsi'\n    return backend\n"
        after = f"def {fn}():\n    backend = 'iscsi'\n    return backend\n"
    elif shape == 3:
        before = f"def {fn}(d):\n    return d.copy()\n"
        after = f"import copy\n\n\ndef {fn}(d):\n    return d.copy()\n"
    elif shape == 4:
        before = f"def {fn}(q):\n    q.flush()\n"
        after = f"def {fn}(q):\n    q.flush()\n    return None\n"
    elif shape == 5:
        before = f"def {fn}(total):\n    total += 1\n    return total\n"
        after = f"def {fn}(total, step):\n    total += step\n    return total\n"
    elif shape == 6:
        before = f"def {fn}(a, b):\n    if a == b:\n        return a\n    return b\n"
        after = f"def {fn}(a, b):\n    if a != b:\n        return a\n    return b\n"
    elif shape == 7:
        before = f"def {fn}():\n    return [1, 2]\n"
        after = f"def {fn}():\n    return [1, 2, 3]\n"
    elif shape == 8:
        before = f"def {fn}(svc):\n    svc.start()\n"
        after = f"def {fn}(svc):\n    svc.begin()\n"
    else:
        before = f"def {fn}(v):\n    return v\n"
        after = f"@wrap_errors\ndef {fn}(v):\n    return v\n"
    return before, after


def _commit_stamp(clock: int) -> str:
    """Author and committer date of the commit made at minute ``clock``."""
    return (_EPOCH + timedelta(minutes=clock)).strftime("%Y-%m-%dT%H:%M:%SZ")


class _Repo:
    def __init__(self, path: Path):
        self.path = path
        self.clock = 0
        path.mkdir(parents=True, exist_ok=True)
        self._git("init", "-q", "-b", "master")

    def _git(self, *args):
        env = dict(_GIT_ENV_BASE)
        stamp = _commit_stamp(self.clock)
        env["GIT_AUTHOR_DATE"] = stamp
        env["GIT_COMMITTER_DATE"] = stamp
        env["HOME"] = str(self.path)
        subprocess.run(["git", "-C", str(self.path), *args], check=True, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def commit_all(self, message: str) -> str:
        self.clock += 1
        self._git("add", "-A")
        self._git("commit", "-q", "--allow-empty", "-m", message)
        head = subprocess.run(
            ["git", "-C", str(self.path), "rev-parse", "HEAD"],
            check=True, stdout=subprocess.PIPE)
        return head.stdout.decode().strip()

    def write(self, rel: str, content: str):
        target = self.path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)


def build_demo_corpus(root: str | Path, family_size: int = 40,
                      noise_count: int = 80, filler_plain: int = 60,
                      filler_tests: int = 24, filler_docs: int = 14) -> dict:
    """Create the demo repository under ``root``/repo; returns the manifest
    (also written to ``root``/manifest.json)."""
    root = Path(root)
    repo = _Repo(root / "repo")
    makers = (
        (FAMILY_KWARG, _kwarg_pair, "service/kwarg_{0:03d}.py"),
        (FAMILY_GUARD, _guard_pair, "service/guard_{0:03d}.py"),
        (FAMILY_DICT, _dict_pair, "service/dict_{0:03d}.py"),
    )

    instances = []
    for family, maker, pattern in makers:
        for i in range(family_size):
            before, after = maker(i)
            instances.append((family, pattern.format(i), before, after))
    for i in range(noise_count):
        before, after = _noise_pair(i)
        instances.append((NOISE, f"service/noise_{i:03d}.py", before, after))

    for _, rel, before, _after in instances:
        repo.write(rel, before)
    repo.write("README.md", "demo corpus\n")
    for i in range(filler_tests):
        repo.write(f"tests/test_mod_{i:02d}.py", f"def test_{i}():\n    assert True\n")
    repo.commit_all("initial import")

    truth: dict[str, str] = {}
    counter = 0
    for family, rel, _before, after in instances:
        repo.write(rel, after)
        message = FIX_MESSAGES[counter % len(FIX_MESSAGES)].format(rel, counter % 100)
        commit = repo.commit_all(message)
        truth[commit] = family
        counter += 1

    # keyword-less commits: ignored by the message filter
    for i in range(filler_plain):
        repo.write(f"service/extra_{i:03d}.py", f"VALUE_{i} = {i}\n")
        repo.commit_all(FILLER_MESSAGES[i % len(FILLER_MESSAGES)].format(f"extra_{i:03d}"))

    # fix-worded commits that only touch test files: excluded by path rule
    for i in range(filler_tests):
        repo.write(f"tests/test_mod_{i:02d}.py",
                   f"def test_{i}():\n    assert compute({i}) == {i}\n")
        repo.commit_all(f"Fix flaky test case {i}")

    # fix-worded commits touching no Python files
    for i in range(filler_docs):
        repo.write("README.md", f"demo corpus\nrevision note {i}\n")
        repo.commit_all(f"Fix typo in usage docs ({i})")

    # the documented false-positive class: "patch" inside "dispatch"
    repo.write("service/events.py", "def relay(bus):\n    return bus\n")
    repo.commit_all("dispatch events correctly")

    manifest = {
        "repo": str(repo.path),
        "families": {FAMILY_KWARG: family_size, FAMILY_GUARD: family_size,
                     FAMILY_DICT: family_size, NOISE: noise_count},
        "truth": truth,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


if __name__ == "__main__":
    import sys

    destination = sys.argv[1] if len(sys.argv) > 1 else "demo-corpus"
    result = build_demo_corpus(destination)
    print(f"demo corpus at {result['repo']} "
          f"({len(result['truth'])} planted changes)")
