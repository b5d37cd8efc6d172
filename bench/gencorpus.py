"""Seeded git corpus of statement-level fixes to large stdlib modules.

The generator copies pure-Python modules from the running interpreter's
standard library into a fresh git repository, then adds "Fix ..." commits
that each make a batch of seeded statement-level edits to one module:
wrap a line in an ``if``, insert a call, or insert an assignment.  Every
edited file still parses.  The same seed, module list and interpreter
give the same repository, commit ids included; the interpreter version is
part of the input digest because the modules come from its stdlib.

It uses only the stdlib and git (through ``git fast-import``), never
fixscope, so the program under test receives nothing but the repository.
"""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sysconfig
from pathlib import Path

GENERATOR_VERSION = "2"

# Large modules (2.6-2.9k lines) for the extract-bound workload.
LARGE_MODULES = ("argparse", "tarfile")

# Mid-size modules (1.1-1.7k lines): many hunks for little extract work.
MEDIUM_MODULES = (
    "configparser", "smtplib", "imaplib", "shutil", "optparse", "ssl",
    "threading", "pathlib", "statistics", "codecs", "platform", "nntplib",
)

_OWNERS = ("self", "ctx", "log", "stream", "parser", "state", "result", "conn")
_METHODS = ("flush", "reset", "close", "notify", "check", "sync", "emit", "validate")
_NAMES = ("count", "limit", "offset", "retries", "timeout", "pending", "marker",
          "total", "width", "buffer_size")
_ARGS = ("", "0", "None", "True", "name", "value, key", "'done'", "len(items)",
         "*args", "key=value", "timeout=5.0")
_VALUES = ("0", "None", "[]", "{}", "''", "-1", "1.5", "False", "object()",
           "len(data)", "data[0]", "self.limit + 1", "value or default",
           "getattr(obj, 'name', None)", "(a, b)", "x if x else y",
           "{'key': value}", "[v for v in values]", "not flag", "a * b - c")
_CONDITIONS = ("value is not None", "not flag", "len(items) > 0",
               "isinstance(value, str)", "self.enabled", "a and b", "x != y",
               "key in mapping", "count < limit", "not (a or b)", "debug",
               "hasattr(obj, 'close')")
_SUBJECTS = ("missing value", "empty input", "stale state", "retry loop",
             "closed stream", "bad offset", "race on close", "encoding error")


def stdlib_source(module: str) -> str:
    path = Path(sysconfig.get_paths()["stdlib"]) / f"{module}.py"
    return path.read_text(encoding="utf-8")


def _editable_lines(text: str) -> list[int]:
    """0-based numbers of lines that hold exactly one simple statement
    starting at the line's indentation; edits before or around them keep
    the file parseable."""
    lines = text.split("\n")
    candidates = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.Expr, ast.Assign, ast.AugAssign, ast.Return,
                                 ast.Raise, ast.Pass, ast.Break, ast.Continue)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # docstrings
        if node.lineno != node.end_lineno:
            continue
        line = lines[node.lineno - 1]
        indent = len(line) - len(line.lstrip(" "))
        if indent != node.col_offset or line[:indent].strip(" "):
            continue
        rest = line[node.end_col_offset:].strip()
        if rest and not rest.startswith("#"):
            continue
        candidates.append(node.lineno - 1)
    return sorted(set(candidates))


def _edit(line: str, kind: int, rng: random.Random) -> list[str]:
    indent = line[:len(line) - len(line.lstrip(" "))]
    if kind == 0:
        return [f"{indent}if {rng.choice(_CONDITIONS)}:", "    " + line]
    if kind == 1:
        call = f"{rng.choice(_OWNERS)}.{rng.choice(_METHODS)}({rng.choice(_ARGS)})"
        return [indent + call, line]
    assign = f"{rng.choice(_NAMES)} = {rng.choice(_VALUES)}"
    return [indent + assign, line]


def edit_module(text: str, edits: int, layout: random.Random,
                rng: random.Random) -> str:
    """Apply up to ``edits`` statement edits, keeping the text parseable.

    ``layout`` picks the lines and the kind of each edit, ``rng`` the code
    inserted.  Targets more than four lines apart keep most edits in
    separate hunks.
    """
    lines = text.split("\n")
    chosen: list[int] = []
    candidates = _editable_lines(text)
    layout.shuffle(candidates)
    for index in candidates:
        if len(chosen) == edits:
            break
        if all(abs(index - other) > 4 for other in chosen):
            chosen.append(index)
    for index in sorted(chosen, reverse=True):
        lines[index:index + 1] = _edit(lines[index], layout.randrange(3), rng)
    edited = "\n".join(lines)
    ast.parse(edited)  # raises if an edit broke the module
    return edited


def _data(payload: bytes) -> bytes:
    return b"data %d\n" % len(payload) + payload + b"\n"


def build_corpus(root: str | Path, seed: int, modules: tuple[str, ...],
                 commits: int, edits: int) -> dict:
    """Create ``root``/repo and return a description of it.

    One import commit holds every module; each of ``commits`` later
    commits edits one module, visiting the modules round robin in a seeded
    order.  The seed picks the order, the commit messages and the code
    each edit inserts.  Which lines a module's n-th commit edits, and how
    (``if``, call or assignment), depend on the module and n alone: the
    contexts of the edits, and with them the number of distinct context
    features the statistics test, stay the same from seed to seed.  With
    ``commits`` a multiple of the module count, every seed edits each
    module equally often, so seeds differ in the code inserted and not in
    the amount of work.
    """
    rng = random.Random(seed)
    repo = Path(root) / "repo"
    repo.mkdir(parents=True)
    env = {**os.environ, "HOME": str(repo), "GIT_CONFIG_NOSYSTEM": "1"}
    subprocess.run(["git", "init", "-q", "-b", "master", str(repo)], check=True, env=env)

    texts = {f"lib/{m}.py": stdlib_source(m) for m in modules}
    order = sorted(texts)
    rng.shuffle(order)
    stream = bytearray()
    clock = 1577836800  # 2020-01-01T00:00:00Z, one minute per commit

    def commit(message: str, paths: list[str]):
        nonlocal clock
        clock += 60
        who = b"bench <bench@example.org> %d +0000\n" % clock
        stream.extend(b"commit refs/heads/master\nauthor " + who + b"committer " + who)
        stream.extend(_data(message.encode("utf-8")))
        for path in paths:
            stream.extend(f"M 100644 inline {path}\n".encode("utf-8"))
            stream.extend(_data(texts[path].encode("utf-8")))

    commit("Import library modules", order)
    for k in range(commits):
        path = order[k % len(order)]
        layout = random.Random(f"{path}:{k // len(order)}")
        texts[path] = edit_module(texts[path], edits, layout, rng)
        subject = rng.choice(_SUBJECTS)
        commit(f"Fix {subject} in {Path(path).stem} (bug {1000 + k})", [path])
    subprocess.run(["git", "-C", str(repo), "fast-import", "--quiet"],
                   input=bytes(stream), check=True, env=env)
    return {"repo": str(repo), "generator_version": GENERATOR_VERSION,
            "seed": seed, "modules": list(modules), "commits": commits,
            "edits": edits}
