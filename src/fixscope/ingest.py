"""Collecting candidate bug-fix changes and file pairs.

Two sources share one interface: a Gerrit-style review API (HTTPS JSON
with the XSSI prefix line, offset pagination, base64 file content) and a
local git repository.  Remote fetches go through an on-disk content
cache keyed by (change id, path, revision, side) and verified by digest,
so full runs replay offline.  The git source needs no cache: its scan
runs ``git rev-parse`` and one ``git log`` and reads no blob, since the
log's object ids tell which files have content, and ``file_pairs``
streams every blob a stage needs through one ``git cat-file --batch``.
It names each blob by the object id the same source's scan found, and
sends no request for a side the scan found empty; without a scan, as in
a later process, it names blobs by revision and path.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import logging
import re
import subprocess
import threading
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


def keyword_filter(
    message: str,
    keywords: tuple[str, ...] = DEFAULT_KEYWORDS,
    case_sensitive: bool = False,
    word_bounded: bool = False,
) -> bool:
    """True when the message contains any keyword as a substring.

    Substring matching deliberately catches inflections ("fixes",
    "failure"); it also yields a documented false-positive class
    ("dispatch" contains "patch"), accepted and left to manual triage.
    """
    haystack = message if case_sensitive else message.lower()
    # on str, \w is exactly str.isalnum() or "_"
    tokens = set(re.findall(r"\w+", haystack)) if word_bounded else None
    for keyword in keywords:
        needle = keyword if case_sensitive else keyword.lower()
        if word_bounded:
            if needle in tokens:
                return True
        elif needle in haystack:
            return True
    return False


def exclude_test_files(paths, markers: tuple[str, ...] = ("test", "tests")) -> list[str]:
    """Drop test-only paths; the default rule is documented as aggressive
    (any segment starting with "test" goes, including testing_utils.py)."""
    retained = []
    for path in paths:
        segments = path.replace("\\", "/").split("/")
        drop = False
        for segment in segments:
            lowered = segment.lower()
            if lowered in markers or lowered.startswith("test"):
                drop = True
                break
        if not drop:
            stem = segments[-1].rsplit(".", 1)[0].lower()
            if stem.endswith("_test"):
                drop = True
        if not drop:
            retained.append(path)
    return retained


class ContentCache:
    """Content-addressed blob cache with digest-verified reads."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

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

    ``transport`` is a callable ``(url) -> (status_code, bytes)``; the
    default speaks HTTPS via requests.  Failed requests are retried with
    exponential backoff; after the last attempt the error propagates so
    partial results are never silently returned.
    """

    def __init__(
        self,
        endpoint: str,
        transport=None,
        cache: ContentCache | None = None,
        retries: int = 3,
        backoff: float = 0.5,
        sleep=time.sleep,
        page_size: int = 500,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.transport = transport or self._http_transport
        self.cache = cache
        self.retries = retries
        self.backoff = backoff
        self.sleep = sleep
        self.page_size = page_size

    @staticmethod
    def _http_transport(url: str) -> tuple[int, bytes]:
        import requests  # only this transport needs it; importing it slows start-up

        response = requests.get(url, timeout=30)
        return response.status_code, response.content

    def _request(self, url: str) -> tuple[int, bytes]:
        last_error: Exception | None = None
        for attempt in range(self.retries):
            try:
                status, body = self.transport(url)
            except Exception as exc:
                last_error = exc
                status, body = None, b""
            if status is not None and status < 500:
                return status, body
            if status is not None:
                last_error = IngestError(f"HTTP {status} for {url}")
            if attempt + 1 < self.retries:
                self.sleep(self.backoff * (2 ** attempt))
        raise IngestError(f"request failed after {self.retries} attempts: {url}") \
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
                           f"&n={self.page_size}&start={start}")
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

    def has_content(self, record: ChangeRecord, path: str) -> bool:
        """Whether either side of ``path`` has content.  Fetches both
        sides, which fills the cache for offline replays."""
        before = self._content(record, path, "before")
        after = self._content(record, path, "after")
        return bool(before or after)

    def fetch_file_pair(self, record: ChangeRecord, path: str) -> FilePair:
        pair = _decoded_pair(record, path, self._content(record, path, "before"),
                             self._content(record, path, "after"))
        if pair is None:
            raise MissingBlobError(f"{record.change_id}:{path}")
        return pair

    def file_pairs(self, items):
        """For each ``(record, path)`` in order, its ``FilePair``, or None
        when neither side has content."""
        for record, path in items:
            try:
                yield self.fetch_file_pair(record, path)
            except MissingBlobError:
                yield None


# the empty blob's id under each object format, keyed by hex length
_EMPTY_BLOBS = {len(oid): oid.encode("ascii")
                for oid in (hashlib.sha1(b"blob 0\x00").hexdigest(),
                            hashlib.sha256(b"blob 0\x00").hexdigest())}
_GITLINK = b"160000"


def _blob_name(mode: bytes, oid: bytes) -> bytes:
    """The ``cat-file`` request for one side of a ``--raw`` entry: its
    object id, or b"" when the side reads empty.  An all-zero id is
    absent, the empty blob has no content, and a gitlink names a commit,
    not a blob."""
    if mode == _GITLINK or oid == b"0" * len(oid) or oid == _EMPTY_BLOBS.get(len(oid)):
        return b""
    return oid


def _send(stdin, names: bytes):
    """Write every request, then close the pipe so git sees the end of
    input; a git that has exited has nothing left to read."""
    with contextlib.suppress(BrokenPipeError), stdin:
        stdin.write(names)


class GitSource:
    """Offline source walking the commits of a local repository.

    Every non-merge commit is one change; ``merges_only`` restricts the
    scan to merge commits for review workflows that land merges.  A scan
    runs ``git rev-parse`` and one ``git log`` however many commits it
    reads, and no blob: the log's object ids answer ``has_content``, and
    the source keeps them.  ``file_pairs`` reads blobs through one ``git
    cat-file --batch`` per call, fed by a writer thread so no request
    waits for the reply before it.  It asks for each side by the object
    id this source's scan found, and never for a side the scan found
    empty; a file the source has not scanned, as when extract runs alone
    in a later process, is asked for by name.  ``fetch_file_pair`` is the
    one-pair call of the same reader.
    """

    def __init__(self, repo_path: str | Path):
        self.repo = Path(repo_path)
        # (revision, path) of each scanned file -> the cat-file request for
        # its (before, after) sides, b"" for a side that reads empty
        self._blob_ids: dict[tuple[str, str], tuple[bytes, bytes]] = {}

    def _git(self, *args: str, missing_ok: bool = False) -> bytes | None:
        """git's output.  With ``missing_ok``, None when git exits 1, as
        ``rev-parse --verify -q`` does for a name that does not resolve;
        any other failure raises :class:`IngestError`."""
        proc = subprocess.run(
            ["git", "-C", str(self.repo), *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if missing_ok and proc.returncode == 1:
            return None
        if proc.returncode != 0:
            raise IngestError(
                f"git {' '.join(args)} failed: {proc.stderr.decode('utf-8', 'replace')}")
        return proc.stdout

    def fetch_merged_changes(
        self,
        projects: tuple[str, ...] = (),
        branches: tuple[str, ...] = (),
        after: str | None = None,
        before: str | None = None,
        merges_only: bool = False,
    ) -> list[ChangeRecord]:
        if self._git("rev-parse", "--verify", "-q", "HEAD", missing_ok=True) is None:
            return []  # repository without commits
        # Each commit is a NUL-terminated header followed by its --raw
        # entries, a ":<modes> <ids> <status>" token and a path token each.
        # Headers start with the hash, status tokens with ":", so neither
        # messages nor paths can shift the boundaries.  --no-renames lists
        # both paths of a rename; merges list no entries.
        args = ["log", "-z", "--root", "--no-renames", "--raw", "--no-abbrev",
                "--format=%H%x1f%P%x1f%aI%x1f%B"]
        if merges_only:
            args.append("--merges")
        if after:
            args.append(f"--since={after}")
        if before:
            args.append(f"--until={before}")
        args.extend(branches)
        args.append("--")  # branches are revisions even where files share their names
        tokens = iter(self._git(*args).split(b"\x00"))
        # each commit's header, and path -> (before, after) request names
        commits: list[tuple[str, dict[str, tuple[bytes, bytes]]]] = []
        for token in tokens:
            if token.startswith((b":", b"\n:")):
                src_mode, dst_mode, src_oid, dst_oid, _status = (
                    token.lstrip(b"\n")[1:].split())
                name = next(tokens)
                files = commits[-1][1]
                try:
                    path = name.decode("utf-8")
                except UnicodeDecodeError:
                    # git resolves no blob under the replaced spelling; a
                    # file that really bears it keeps its own ids
                    files.setdefault(name.decode("utf-8", errors="replace"), (b"", b""))
                else:
                    files[path] = (_blob_name(src_mode, src_oid),
                                   _blob_name(dst_mode, dst_oid))
            elif token:
                commits.append((token.decode("utf-8", errors="replace"), {}))
        records = []
        project = self.repo.name
        for header, files in commits:
            commit, parents, date, message = header.split("\x1f", 3)
            if not merges_only and len(parents.split()) > 1:
                continue
            self._blob_ids.update(((commit, path), names) for path, names in files.items())
            records.append(ChangeRecord(
                change_id=commit, project=project, branch="", revision=commit,
                message=message, files=tuple(sorted(files)), created=date))
        records.reverse()  # oldest first
        return records

    def has_content(self, record: ChangeRecord, path: str) -> bool:
        """Whether either side of ``path`` reads as content, for a file of
        a record this source's scan returned.  Answered from the scan's
        object ids; no blob is read."""
        names = self._blob_ids.get((record.revision, path))
        return names is None or any(names)

    def file_pairs(self, items):
        """For each ``(record, path)`` in order, its ``FilePair``, or None
        when neither side has content.  A side that is missing, or names
        something other than a blob, reads as empty.

        One ``git cat-file --batch -z`` serves every item: a writer thread
        sends all the names while this generator reads the replies.  A
        side is named by the object id this source's scan found, and a
        side the scan found empty is not sent at all; a file the source
        has not scanned is named ``<rev>^:<path>`` and ``<rev>:<path>``.
        With nothing to send, no process starts.  Closing the generator,
        also before it is exhausted, closes the pipes, joins the writer
        and reaps git.
        """
        requests = []
        for record, path in items:
            names = self._blob_ids.get((record.revision, path))
            if names is None:
                names = (f"{record.revision}^:{path}".encode("utf-8"),
                         f"{record.revision}:{path}".encode("utf-8"))
            requests.append((record, path, *names))
        stream = b"".join(name + b"\x00" for *_, before, after in requests
                          for name in (before, after) if name)
        if not stream:
            yield from (None for _ in requests)
            return
        with subprocess.Popen(
                ["git", "-C", str(self.repo), "cat-file", "--batch", "-z"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL) as batch:
            writer = threading.Thread(target=_send, args=(batch.stdin, stream),
                                      name="git-cat-file-writer", daemon=True)
            writer.start()

            def read(name: bytes) -> bytes:
                return self._read(batch.stdout, name) if name else b""

            try:
                for record, path, before, after in requests:
                    yield _decoded_pair(record, path, read(before), read(after))
            finally:
                batch.stdout.close()  # git quits on its next reply, not blocks
                writer.join()

    def _read(self, stdout, name: bytes) -> bytes:
        """The reply to ``name``: the blob, or empty when it is missing or
        not a blob."""
        line = stdout.readline()
        # "<name> missing": a path name holds a colon, and with -z its echo
        # may hold LFs; an object id comes back as it was sent
        if b":" in line or line == name + b" missing\n":
            for _ in range(name.count(b"\n")):
                stdout.readline()
            return b""
        fields = line.split()  # "<oid> <type> <size>"
        size = int(fields[2]) if len(fields) == 3 else -1
        data = stdout.read(size + 1) if size >= 0 else b""  # content, LF
        if size < 0 or len(data) != size + 1:
            raise IngestError(f"git cat-file stopped answering in {self.repo}")
        return data[:-1] if fields[1] == b"blob" else b""

    def fetch_file_pair(self, record: ChangeRecord, path: str) -> FilePair:
        with contextlib.closing(self.file_pairs([(record, path)])) as pairs:
            pair = next(pairs)
        if pair is None:
            raise MissingBlobError(f"{record.change_id}:{path}")
        return pair
