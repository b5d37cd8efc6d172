"""Collecting candidate bug-fix changes and file pairs.

Two sources share one interface (``fetch_merged_changes``,
``file_pairs``): a Gerrit-style review API (HTTPS JSON with the XSSI
prefix line, offset pagination, base64 file content) and a local git
repository.  Both scan the same window of projects, branches and dates;
the git source is its own one project, and reads each branch name as a
revision only.  A scan reads no file content in either source:
``file_pairs`` is the one reader, and a file neither of whose sides has
content reads as None.  Remote content is fetched when ``file_pairs``
asks for it, through an on-disk content cache keyed by (change id, path,
revision, side) and verified by digest, so full runs replay offline.
The git source needs no cache: its scan runs one ``git log`` and keeps
each file's object ids, and ``file_pairs`` streams every blob a stage
needs through one ``git cat-file --batch``, asking for each side by its
object id.  A source that has not scanned, as in a later process, first
finds the ids with one ``git diff-tree --stdin``, whose output the
scan's parser reads.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import re
import subprocess
import tempfile
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_KEYWORDS",
    "ChangeRecord",
    "FilePair",
    "IngestError",
    "MissingBlobError",
    "keyword_filter",
    "exclude_test_files",
    "ContentCache",
    "GerritSource",
    "GitSource",
]

DEFAULT_KEYWORDS = ("bug", "fix", "fault", "fail", "patch")
XSSI_PREFIX = ")]}'"
# review-API requests: attempts per request, the first retry's delay in
# seconds (doubling after each), and changes asked for per query page
RETRIES = 3
BACKOFF_S = 0.5
PAGE_SIZE = 500


class IngestError(RuntimeError):
    """A fetch failed after exhausting retries; no partial results."""


class MissingBlobError(KeyError):
    """Neither side of a file pair could be resolved."""


@dataclass(frozen=True)
class ChangeRecord:
    change_id: str
    project: str
    branch: str
    revision: str
    message: str
    files: tuple[str, ...]
    created: str = ""


@dataclass(frozen=True)
class FilePair:
    path: str
    before_text: str
    after_text: str
    change_id: str


def keyword_filter(message: str, keywords: tuple[str, ...] = DEFAULT_KEYWORDS) -> bool:
    """True when the lowercased message contains some lowercased keyword.

    Substring matching deliberately catches inflections ("fixes",
    "failure"); it also yields a documented false-positive class
    ("dispatch" contains "patch"), accepted and left to manual triage.
    """
    haystack = message.lower()
    return any(keyword.lower() in haystack for keyword in keywords)


def exclude_test_files(paths) -> list[str]:
    """Drop test-only paths; the rule is documented as aggressive (any
    segment starting with "test" goes, including testing_utils.py)."""
    retained = []
    for path in paths:
        segments = path.replace("\\", "/").split("/")
        if any(segment.lower().startswith("test") for segment in segments):
            continue
        if segments[-1].rsplit(".", 1)[0].lower().endswith("_test"):
            continue
        retained.append(path)
    return retained


class ContentCache:
    """Content-addressed blob cache with digest-verified reads."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _paths(self, key: tuple) -> tuple[Path, Path]:
        digest = hashlib.sha256(json.dumps(list(key)).encode("utf-8")).hexdigest()
        base = self.root / digest[:2]
        return base / f"{digest}.bin", base / f"{digest}.sha256"

    def get(self, key: tuple) -> bytes | None:
        blob_path, digest_path = self._paths(key)
        if not blob_path.exists() or not digest_path.exists():
            return None
        data = blob_path.read_bytes()
        expected = digest_path.read_text().strip()
        if hashlib.sha256(data).hexdigest() != expected:
            logger.warning("cache corruption for %s; refetching", key)
            return None
        return data

    def put(self, key: tuple, data: bytes) -> None:
        blob_path, digest_path = self._paths(key)
        blob_path.parent.mkdir(parents=True, exist_ok=True)
        blob_path.write_bytes(data)
        digest_path.write_text(hashlib.sha256(data).hexdigest())


def _decode(data: bytes, where: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        logger.warning("decode warning: %s is not clean UTF-8; replacing", where)
        return data.decode("utf-8", errors="replace")


def _decoded_pair(record: ChangeRecord, path: str, before: bytes,
                  after: bytes) -> FilePair | None:
    """Both sides as text, or None when neither side has content."""
    if not before and not after:
        return None
    return FilePair(
        path=path,
        before_text=_decode(before, f"{record.change_id}:{path}@parent"),
        after_text=_decode(after, f"{record.change_id}:{path}"),
        change_id=record.change_id,
    )


class GerritSource:
    """Review-API client: merged-change queries and file-content fetches.

    The query reads no file content: ``file_pairs`` fetches both sides
    of each file, through the cache when there is one.  ``transport`` is
    a callable ``(url) -> (status_code, bytes)``; the default speaks
    HTTPS via requests.  A failed request is tried ``RETRIES`` times in
    all, with exponential backoff through ``sleep``; after the last
    attempt the error propagates so partial results are never silently
    returned.
    """

    def __init__(self, endpoint: str, transport=None,
                 cache: ContentCache | None = None, sleep=time.sleep):
        self.endpoint = endpoint.rstrip("/")
        self.transport = transport or self._http_transport
        self.cache = cache
        self.sleep = sleep

    @staticmethod
    def _http_transport(url: str) -> tuple[int, bytes]:
        import requests  # only this transport needs it; importing it slows start-up

        response = requests.get(url, timeout=30)
        return response.status_code, response.content

    def _request(self, url: str) -> tuple[int, bytes]:
        last_error: Exception | None = None
        for attempt in range(RETRIES):
            try:
                status, body = self.transport(url)
            except Exception as exc:
                last_error = exc
                status, body = None, b""
            if status is not None and status < 500:
                return status, body
            if status is not None:
                last_error = IngestError(f"HTTP {status} for {url}")
            if attempt + 1 < RETRIES:
                self.sleep(BACKOFF_S * (2 ** attempt))
        raise IngestError(f"request failed after {RETRIES} attempts: {url}") \
            from last_error

    def _json(self, url: str) -> tuple[int, object]:
        status, body = self._request(url)
        if status != 200:
            return status, None
        text = body.decode("utf-8")
        if text.startswith(XSSI_PREFIX):
            text = text.split("\n", 1)[1] if "\n" in text else ""
        return status, json.loads(text)

    def fetch_merged_changes(
        self,
        projects: tuple[str, ...],
        branches: tuple[str, ...] = (),
        after: str | None = None,
        before: str | None = None,
    ) -> list[ChangeRecord]:
        """All merged changes for the project/branch/window combination,
        paginated to completion and de-duplicated by change id."""
        records: dict[str, ChangeRecord] = {}
        for project in projects:
            for branch in branches or (None,):
                terms = ["status:merged", f"project:{project}"]
                if branch:
                    terms.append(f"branch:{branch}")
                if after:
                    terms.append(f"after:{after}")
                if before:
                    terms.append(f"before:{before}")
                query = urllib.parse.quote(" ".join(terms), safe=":+")
                start = 0
                while True:
                    url = (f"{self.endpoint}/changes/?q={query}"
                           f"&o=CURRENT_REVISION&o=CURRENT_FILES"
                           f"&n={PAGE_SIZE}&start={start}")
                    status, page = self._json(url)
                    if status != 200:
                        raise IngestError(f"query failed with HTTP {status}: {url}")
                    for item in page:
                        record = self._to_record(item, project, branch or "")
                        records[record.change_id] = record
                    if page and page[-1].get("_more_changes"):
                        start += len(page)
                    else:
                        break
        return [records[key] for key in sorted(records)]

    @staticmethod
    def _to_record(item: dict, project: str, branch: str) -> ChangeRecord:
        revision = item.get("current_revision", "")
        files = ()
        rev_info = item.get("revisions", {}).get(revision, {})
        if rev_info:
            files = tuple(sorted(p for p in rev_info.get("files", {})
                                 if not p.startswith("/")))
        message = item.get("subject", "")
        commit = rev_info.get("commit") or {}
        if commit.get("message"):
            message = commit["message"]
        return ChangeRecord(
            change_id=str(item.get("change_id") or item.get("id") or item.get("_number")),
            project=item.get("project", project),
            branch=item.get("branch", branch),
            revision=revision,
            message=message,
            files=files,
            created=item.get("created", ""),
        )

    def _content(self, record: ChangeRecord, path: str, side: str) -> bytes:
        key = (record.change_id, path, record.revision, side)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        quoted = urllib.parse.quote(path, safe="")
        url = (f"{self.endpoint}/changes/{urllib.parse.quote(record.change_id, safe='')}"
               f"/revisions/{record.revision}/files/{quoted}/content")
        if side == "before":
            url += "?parent=1"
        status, body = self._request(url)
        if status == 404:
            data = b""
        elif status == 200:
            data = base64.b64decode(body)
        else:
            raise IngestError(f"content fetch failed with HTTP {status}: {url}")
        if self.cache is not None:
            self.cache.put(key, data)
        return data

    def file_pairs(self, items):
        """For each ``(record, path)`` in order, its ``FilePair``, or None
        when neither side has content."""
        for record, path in items:
            yield _decoded_pair(record, path, self._content(record, path, "before"),
                                self._content(record, path, "after"))


# the empty blob's id under each object format, keyed by hex length
_EMPTY_BLOBS = {len(oid): oid.encode("ascii")
                for oid in (hashlib.sha1(b"blob 0\x00").hexdigest(),
                            hashlib.sha256(b"blob 0\x00").hexdigest())}
_GITLINK = b"160000"
_FULL_ID = re.compile(r"[0-9a-f]{40}|[0-9a-f]{64}")
# The scan's ``git log`` and the lookup's ``git diff-tree --stdin`` print
# the same stream: per commit a NUL-terminated header, then its --raw
# entries, a ":<modes> <ids> <status>" token and a path token each.
# Headers start with the hash, status tokens with ":", so neither messages
# nor paths can shift the boundaries.  --no-renames lists both paths of a
# rename; merges list no entries.
_RAW_DIFF = ("-z", "--root", "--no-renames", "--raw", "--no-abbrev",
             "--format=%H%x1f%P%x1f%aI%x1f%B")


def _blob_name(mode: bytes, oid: bytes) -> bytes:
    """The ``cat-file`` request for one side of a ``--raw`` entry: its
    object id, or b"" when the side reads empty.  An all-zero id is
    absent, the empty blob has no content, and a gitlink names a commit,
    not a blob."""
    if mode == _GITLINK or oid == b"0" * len(oid) or oid == _EMPTY_BLOBS.get(len(oid)):
        return b""
    return oid


class GitSource:
    """Offline source walking the commits of a local repository.

    Every non-merge commit is one change: a merge's ``--raw`` diff lists
    no files, so the scan skips merges and reads each fix from the commit
    that made it.  A scan runs one ``git log`` however many commits it
    reads, and no blob: the source keeps the log's object ids, and
    ``file_pairs`` reads blobs by those ids through one ``git cat-file
    --batch`` per call, and never asks for a side that reads empty.  For
    commits the source has not scanned, as when extract runs alone in a
    later process, it first finds the ids with one ``git diff-tree
    --stdin``.
    """

    def __init__(self, repo_path: str | Path):
        self.repo = Path(repo_path)
        # (revision, path) of each file of a scanned or looked-up commit ->
        # the cat-file request for its (before, after) sides, b"" for a
        # side that reads empty
        self._blob_ids: dict[tuple[str, str], tuple[bytes, bytes]] = {}

    def _git(self, *args: str, stdin: bytes | None = None) -> bytes:
        """git's output, with ``stdin`` as its input; a failure raises
        :class:`IngestError`."""
        proc = subprocess.run(
            ["git", "-C", str(self.repo), *args], input=stdin,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise IngestError(
                f"git {' '.join(args)} failed: {proc.stderr.decode('utf-8', 'replace')}")
        return proc.stdout

    def _read_raw(self, stream: bytes) -> list[tuple[str, set[str]]]:
        """Each commit's header and the paths it changes, from a stream
        in the ``_RAW_DIFF`` shape; the ids of every path go to
        ``_blob_ids``."""
        tokens = iter(stream.split(b"\x00"))
        commits: list[tuple[str, set[str]]] = []
        for token in tokens:
            if token.startswith((b":", b"\n:")):
                src_mode, dst_mode, src_oid, dst_oid, _status = (
                    token.lstrip(b"\n")[1:].split())
                name = next(tokens)
                header, paths = commits[-1]
                commit = header.split("\x1f", 1)[0]
                try:
                    path = name.decode("utf-8")
                    self._blob_ids[commit, path] = (_blob_name(src_mode, src_oid),
                                                    _blob_name(dst_mode, dst_oid))
                except UnicodeDecodeError:
                    # git resolves no blob under the replaced spelling; a
                    # file that really bears it keeps its own ids
                    path = name.decode("utf-8", errors="replace")
                    self._blob_ids.setdefault((commit, path), (b"", b""))
                paths.add(path)
            elif token:
                commits.append((token.decode("utf-8", errors="replace"), set()))
        return commits

    def fetch_merged_changes(
        self,
        projects: tuple[str, ...] = (),
        branches: tuple[str, ...] = (),
        after: str | None = None,
        before: str | None = None,
    ) -> list[ChangeRecord]:
        """Every non-merge commit reachable from ``branches`` (HEAD when
        there are none) and inside the ``after``/``before`` window, oldest
        first.  ``projects`` is accepted for the shared interface and
        unused: the repository is the one project.  Branch names are read
        as revisions only, never as options or paths, and one that does
        not resolve is an error; a repository without commits has no
        changes."""
        args = ["log", *_RAW_DIFF]
        if after:
            args.append(f"--since={after}")
        if before:
            args.append(f"--until={before}")
        if not branches:  # an unborn HEAD lists nothing; a named branch must resolve
            args.append("--ignore-missing")
        # --end-of-options: a branch named "--output=x" is a bad revision,
        # not an option; "--": one named like a file is still a revision
        args += ["--end-of-options", *(branches or ("HEAD",)), "--"]
        records = []
        project = self.repo.name
        for header, paths in self._read_raw(self._git(*args)):
            commit, parents, date, message = header.split("\x1f", 3)
            if len(parents.split()) > 1:  # a merge lists no files of its own
                continue
            records.append(ChangeRecord(
                change_id=commit, project=project, branch="", revision=commit,
                message=message, files=tuple(sorted(paths)), created=date))
        records.reverse()  # oldest first
        return records

    def file_pairs(self, items):
        """For each ``(record, path)`` in order, its ``FilePair``, or None
        when neither side has content.  A side that is missing, or names
        something other than a blob, reads as empty, and so does a path
        the commit's diff does not list, as in a commit git lacks.

        One ``git cat-file --batch`` serves every item.  It reads its
        requests, each side's object id, from a file, so git never waits
        for this generator; a side that reads empty is not requested, and
        with nothing to request no process starts.  Closing the generator,
        also before it is exhausted, closes git's output and reaps git.
        """
        items = list(items)
        # One diff-tree finds the ids of the commits this source has not
        # scanned.  It skips an id git lacks, but prints back a line it
        # cannot read as an id of the repository's format (a SHA-1 id in a
        # SHA-256 repository), so longer ids go first: such a line can only
        # follow the last commit.
        unscanned = sorted({record.revision for record, path in items
                            if (record.revision, path) not in self._blob_ids
                            and _FULL_ID.fullmatch(record.revision)},
                           key=lambda rev: (-len(rev), rev))
        if unscanned:
            self._read_raw(self._git(
                "diff-tree", "--stdin", "-r", "--always", *_RAW_DIFF,
                stdin="".join(f"{rev}\n" for rev in unscanned).encode("ascii")))
        requests = [(record, path, *self._blob_ids.get((record.revision, path), (b"", b"")))
                    for record, path in items]
        stream = b"".join(oid + b"\n" for *_, before, after in requests
                          for oid in (before, after) if oid)
        if not stream:
            yield from (None for _ in requests)
            return
        with tempfile.TemporaryFile() as request_file:
            request_file.write(stream)
            request_file.seek(0)
            batch = subprocess.Popen(
                ["git", "-C", str(self.repo), "cat-file", "--batch"],
                stdin=request_file, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with batch:  # on exit git's output closes, so git quits on its next reply
            for record, path, before, after in requests:
                yield _decoded_pair(record, path, self._read(batch.stdout, before),
                                    self._read(batch.stdout, after))

    def _read(self, stdout, oid: bytes) -> bytes:
        """The blob ``oid`` from git's reply; empty when nothing was
        requested (``oid`` is b""), or the object is missing or not a
        blob."""
        if not oid:
            return b""
        line = stdout.readline()
        if line == oid + b" missing\n":
            return b""
        fields = line.split()  # "<oid> <type> <size>"
        size = int(fields[2]) if len(fields) == 3 else -1
        data = stdout.read(size + 1) if size >= 0 else b""  # content, LF
        if size < 0 or len(data) != size + 1:
            raise IngestError(f"git cat-file stopped answering in {self.repo}")
        return data[:-1] if fields[1] == b"blob" else b""

    def fetch_file_pair(self, record: ChangeRecord, path: str) -> FilePair:
        [pair] = self.file_pairs([(record, path)])
        if pair is None:
            raise MissingBlobError(f"{record.change_id}:{path}")
        return pair
