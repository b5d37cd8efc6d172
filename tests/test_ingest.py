"""Change collection, filters, the review-API client, the cache, and
the git source against its per-commit reference."""

from __future__ import annotations

import base64
import json
import logging
import os
import re
import subprocess
import threading
import urllib.parse
from contextlib import closing

import pytest

import fixscope.ingest
import fixscope.pipeline
import oracles
from fixscope.ingest import (
    ChangeRecord,
    ContentCache,
    GerritSource,
    GitSource,
    IngestError,
    MissingBlobError,
    exclude_test_files,
    keyword_filter,
)
from fixscope.pipeline import Pipeline, PipelineConfig, StageError


class TestKeywordFilter:
    def test_fix_matches(self):
        assert keyword_filter("Fix race in scheduler")

    def test_feature_does_not_match(self):
        assert not keyword_filter("Add new feature flag")

    def test_dispatch_is_a_known_false_positive(self):
        assert keyword_filter("dispatch events correctly")

    def test_inflections_match(self):
        assert keyword_filter("fixes the failure path")

    def test_enlarging_keywords_is_monotone(self):
        messages = ["Fix a bug", "improve logging", "handle fault", "cleanup"]
        small = {m for m in messages if keyword_filter(m, keywords=("bug", "fix"))}
        big = {m for m in messages
               if keyword_filter(m, keywords=("bug", "fix", "fault", "fail", "patch"))}
        assert small <= big


class TestExcludeTestFiles:
    def test_unit_test_tree_excluded(self):
        assert exclude_test_files(["nova/tests/unit/foo.py"]) == []

    def test_production_file_retained(self):
        assert exclude_test_files(["nova/virt/driver.py"]) == ["nova/virt/driver.py"]

    def test_testing_utils_excluded_by_default_rule(self):
        assert exclude_test_files(["nova/testing_utils.py"]) == []

    def test_suffix_test_excluded(self):
        assert exclude_test_files(["pkg/driver_test.py"]) == []

    def test_mixed_list(self):
        paths = ["a/b.py", "a/tests/c.py", "test_d.py", "a/e.py"]
        assert exclude_test_files(paths) == ["a/b.py", "a/e.py"]


def gerrit_page(changes, more=False):
    items = []
    for number, change in enumerate(changes):
        item = {
            "change_id": change["id"],
            "_number": number,
            "project": change.get("project", "demo"),
            "branch": "master",
            "subject": change.get("subject", "Fix something"),
            "current_revision": change.get("rev", "r1"),
            "revisions": {change.get("rev", "r1"): {"files": change.get("files", {})}},
            "created": "2018-01-01 00:00:00.000000000",
        }
        items.append(item)
    if items and more:
        items[-1]["_more_changes"] = True
    return (")]}'\n" + json.dumps(items)).encode("utf-8")


class CannedTransport:
    def __init__(self, pages=None, files=None, failures=0):
        self.pages = pages or []
        self.files = files or {}
        self.failures = failures
        self.urls = []

    def __call__(self, url):
        self.urls.append(url)
        if self.failures > 0:
            self.failures -= 1
            return 503, b"unavailable"
        if "/files/" in url:
            key = url.split("/files/")[1]
            if key in self.files:
                return 200, base64.b64encode(self.files[key])
            return 404, b""
        start = int(url.split("start=")[1].split("&")[0])
        page_size = int(url.split("n=")[1].split("&")[0])
        del page_size
        index = 0
        consumed = 0
        while index < len(self.pages) and consumed < start:
            consumed += self.pages[index][0]
            index += 1
        if index >= len(self.pages):
            return 200, (")]}'\n[]").encode("utf-8")
        return 200, self.pages[index][1]


def make_pages(total, per_page):
    """Canned pages of `per_page` records summing to `total` unique ids."""
    pages = []
    made = 0
    while made < total:
        count = min(per_page, total - made)
        changes = [{"id": f"I{made + k:04d}"} for k in range(count)]
        made += count
        pages.append((count, gerrit_page(changes, more=made < total)))
    return pages


class TestGerritSource:
    def test_fixture_replay_yields_exact_record_count(self):
        pages = make_pages(total=37, per_page=4)
        assert len(pages) == 10
        transport = CannedTransport(pages=pages)
        source = GerritSource("https://review.example.org", transport=transport)
        records = source.fetch_merged_changes(projects=("demo",))
        assert len(records) == 37
        assert len({r.change_id for r in records}) == 37

    def test_empty_project_list(self):
        source = GerritSource("https://review.example.org",
                              transport=CannedTransport())
        assert source.fetch_merged_changes(projects=()) == []

    def test_query_terms_include_filters(self):
        transport = CannedTransport(pages=make_pages(1, 1))
        source = GerritSource("https://review.example.org", transport=transport)
        source.fetch_merged_changes(projects=("nova",), branches=("stable/ocata",),
                                    after="2017-02-01", before="2018-05-31")
        query = urllib.parse.unquote(transport.urls[0])
        for term in ("status:merged", "project:nova", "branch:stable/ocata",
                     "after:2017-02-01", "before:2018-05-31"):
            assert term in query

    def test_retries_then_succeeds(self):
        transport = CannedTransport(pages=make_pages(2, 2), failures=2)
        sleeps = []
        source = GerritSource("https://review.example.org", transport=transport,
                              sleep=sleeps.append)
        records = source.fetch_merged_changes(projects=("demo",))
        assert len(records) == 2
        assert sleeps == [0.5, 1.0]

    def test_exhausted_retries_raise_instead_of_partial(self):
        transport = CannedTransport(pages=make_pages(2, 2), failures=99)
        source = GerritSource("https://review.example.org", transport=transport,
                              sleep=lambda _s: None)
        with pytest.raises(IngestError):
            source.fetch_merged_changes(projects=("demo",))

    def test_file_pairs_decode_both_sides(self):
        quoted = urllib.parse.quote("pkg/mod.py", safe="")
        transport = CannedTransport(files={
            f"{quoted}/content?parent=1": b"x = 1\n",
            f"{quoted}/content": b"x = 2\n",
        })
        source = GerritSource("https://review.example.org", transport=transport)
        record_page = json.loads(gerrit_page([{"id": "I1"}]).decode()[5:])[0]
        record = GerritSource._to_record(record_page, "demo", "master")
        [pair] = source.file_pairs([(record, "pkg/mod.py")])
        assert pair.before_text == "x = 1\n"
        assert pair.after_text == "x = 2\n"

    def test_new_file_has_empty_before(self):
        quoted = urllib.parse.quote("pkg/new.py", safe="")
        transport = CannedTransport(files={f"{quoted}/content": b"fresh = True\n"})
        source = GerritSource("https://review.example.org", transport=transport)
        record_page = json.loads(gerrit_page([{"id": "I2"}]).decode()[5:])[0]
        record = GerritSource._to_record(record_page, "demo", "master")
        [pair] = source.file_pairs([(record, "pkg/new.py")])
        assert pair.before_text == ""
        assert pair.after_text == "fresh = True\n"

    def test_ingest_fetches_no_content(self, tmp_path, monkeypatch):
        # extract is the one reader of file content, and counts what has none
        quoted = urllib.parse.quote("pkg/mod.py", safe="")
        transport = CannedTransport(
            pages=[(1, gerrit_page([{"id": "I1", "files": {"pkg/mod.py": {},
                                                           "pkg/gone.py": {}}}]))],
            files={f"{quoted}/content": b"x = 1\n"})
        monkeypatch.setattr(GerritSource, "_http_transport", staticmethod(transport))
        pipeline = Pipeline(PipelineConfig(source_mode="gerrit",
                                           endpoint="https://review.example.org",
                                           projects=("demo",),
                                           output_dir=str(tmp_path / "out")))
        pipeline.run_stage("ingest")
        assert transport.urls and not [url for url in transport.urls if "/files/" in url]
        assert json.loads((tmp_path / "out" / "ingest_counts.json").read_text()) == {
            "changes_total": 1, "changes_matched": 1, "files_total": 2, "files_retained": 2}
        # the cache is made by its first write, and ingest writes none
        assert not (tmp_path / "out" / "cache").exists()
        transport.urls.clear()
        pipeline.run_stage("extract")
        assert len([url for url in transport.urls if "/files/" in url]) == 4
        assert [path for path in (tmp_path / "out" / "cache").rglob("*") if path.is_file()]
        counts = json.loads((tmp_path / "out" / "extract_counts.json").read_text())
        assert (counts["files_considered"], counts["files_missing"]) == (2, 1)

    def test_cache_round_trip_is_byte_identical(self, tmp_path):
        quoted = urllib.parse.quote("m.py", safe="")
        payload = "x = 'é'\n".encode("utf-8")
        transport = CannedTransport(files={f"{quoted}/content": payload,
                                           f"{quoted}/content?parent=1": b"x = 0\n"})
        cache = ContentCache(tmp_path / "cache")
        source = GerritSource("https://review.example.org", transport=transport,
                              cache=cache)
        record_page = json.loads(gerrit_page([{"id": "I3"}]).decode()[5:])[0]
        record = GerritSource._to_record(record_page, "demo", "master")
        [first] = source.file_pairs([(record, "m.py")])
        fetches = len(transport.urls)
        [second] = source.file_pairs([(record, "m.py")])
        assert len(transport.urls) == fetches  # served from cache
        assert first == second


class TestContentCache:
    def test_roundtrip(self, tmp_path):
        cache = ContentCache(tmp_path)
        cache.put(("c", "p", "r", "after"), b"payload")
        assert cache.get(("c", "p", "r", "after")) == b"payload"

    def test_miss(self, tmp_path):
        cache = ContentCache(tmp_path)
        assert cache.get(("nope",)) is None

    def test_corruption_detected(self, tmp_path):
        cache = ContentCache(tmp_path)
        key = ("c", "p", "r", "after")
        cache.put(key, b"payload")
        blob_path, _ = cache._paths(key)
        blob_path.write_bytes(b"tampered")
        assert cache.get(key) is None


def git(repo, *args, env_extra=None):
    env = {
        "GIT_AUTHOR_NAME": "dev", "GIT_AUTHOR_EMAIL": "dev@example.org",
        "GIT_COMMITTER_NAME": "dev", "GIT_COMMITTER_EMAIL": "dev@example.org",
        "GIT_AUTHOR_DATE": "2018-01-01T00:00:00Z",
        "GIT_COMMITTER_DATE": "2018-01-01T00:00:00Z",
        "HOME": str(repo),
    }
    if env_extra:
        env.update(env_extra)
    subprocess.run(["git", "-C", str(repo), *args], check=True, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


@pytest.fixture
def tiny_repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main")
    (repo / "mod.py").write_text("x = 1\n")
    git(repo, "add", "mod.py")
    git(repo, "commit", "-q", "-m", "initial import")
    (repo / "mod.py").write_text("x = 2\n")
    git(repo, "commit", "-q", "-am", "Fix off-by-one in x")
    (repo / "other.py").write_text("y = 3\n")
    git(repo, "add", "other.py")
    git(repo, "commit", "-q", "-am", "Add helper module")
    return repo


class TestGitSource:
    def test_records_oldest_first_with_messages_and_files(self, tiny_repo):
        source = GitSource(tiny_repo)
        records = source.fetch_merged_changes()
        assert len(records) == 3
        assert records[0].message.startswith("initial import")
        assert records[1].files == ("mod.py",)
        assert records[2].files == ("other.py",)

    def test_idempotent_rescan(self, tiny_repo):
        source = GitSource(tiny_repo)
        assert source.fetch_merged_changes() == source.fetch_merged_changes()

    def test_file_pair_for_modification(self, tiny_repo):
        source = GitSource(tiny_repo)
        records = source.fetch_merged_changes()
        pair = source.fetch_file_pair(records[1], "mod.py")
        assert pair.before_text == "x = 1\n"
        assert pair.after_text == "x = 2\n"

    def test_new_file_has_empty_before(self, tiny_repo):
        source = GitSource(tiny_repo)
        records = source.fetch_merged_changes()
        pair = source.fetch_file_pair(records[0], "mod.py")
        assert pair.before_text == ""
        assert pair.after_text == "x = 1\n"

    def test_branch_named_like_a_file(self, tiny_repo):
        (tiny_repo / "main").write_text("not a revision\n")
        git(tiny_repo, "add", "main")
        git(tiny_repo, "commit", "-q", "-m", "Fix: add a file named main")
        records = GitSource(tiny_repo).fetch_merged_changes(branches=("main",))
        assert records[-1].files == ("main",)

    def test_tree_side_reads_empty(self, tmp_path):
        # a directory replaced by a file of the same name: the parent side
        # names a tree, which is not file content
        git(tmp_path, "init", "-q", "-b", "main")
        (tmp_path / "pkg.py").mkdir()
        (tmp_path / "pkg.py" / "inner.py").write_text("a = 1\n")
        git(tmp_path, "add", "-A")
        git(tmp_path, "commit", "-q", "-m", "package")
        git(tmp_path, "rm", "-q", "-r", "pkg.py")
        (tmp_path / "pkg.py").write_text("b = 2\n")
        git(tmp_path, "add", "-A")
        git(tmp_path, "commit", "-q", "-m", "Fix: flatten the package")
        source = GitSource(tmp_path)
        record = source.fetch_merged_changes()[-1]
        assert record.files == ("pkg.py", "pkg.py/inner.py")
        flat, inner = source.file_pairs([(record, "pkg.py"), (record, "pkg.py/inner.py")])
        assert (flat.before_text, flat.after_text) == ("", "b = 2\n")
        assert (inner.before_text, inner.after_text) == ("a = 1\n", "")

    def test_repository_without_commits_has_no_changes(self, tmp_path):
        git(tmp_path, "init", "-q", "-b", "main")
        assert GitSource(tmp_path).fetch_merged_changes() == []

    def test_repository_without_commits_starts_only_log(self, tmp_path, monkeypatch):
        git(tmp_path, "init", "-q", "-b", "main")
        counter = CountingSubprocess(monkeypatch)
        assert GitSource(tmp_path).fetch_merged_changes() == []
        assert counter.commands == ["log"]

    def test_unresolved_branch_fails_in_a_repository_without_commits(self, tmp_path):
        # a named branch must resolve, whether or not the repository has commits
        git(tmp_path, "init", "-q", "-b", "main")
        with pytest.raises(IngestError, match="bad revision 'main'"):
            GitSource(tmp_path).fetch_merged_changes(branches=("main",))

    @pytest.mark.parametrize("where", ["plain", "missing"])
    def test_non_repository_source_fails(self, tmp_path, monkeypatch, where):
        # a scan that cannot reach a repository must not pass for an empty one
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        path = tmp_path / where
        if where == "plain":
            path.mkdir()
        with pytest.raises(IngestError, match="git log"):
            GitSource(path).fetch_merged_changes()


# Paths and messages chosen to break naive parsing of git's output: LF,
# the unit separator, a leading colon, non-ASCII, and a file named after
# the hash of the commit that git log prints next.  The last four commits
# touch files that read empty: an empty file added, its mode changed and
# the file deleted, then a gitlink.
NEWLINE_PATH = "new\nline.py"
COLON_PATH = ":colon.py"
LATIN1_BLOB = "x = '\xe9'\n".encode("latin-1")
ABSENT_COMMIT = "5" * 40  # a gitlink target the repository does not hold


def _commit(repo, day, *args):
    stamp = f"2018-01-{day:02d}T12:00:00Z"
    git(repo, "commit", "-q", *args,
        env_extra={"GIT_AUTHOR_DATE": stamp, "GIT_COMMITTER_DATE": stamp})


@pytest.fixture(scope="module")
def parity_repo(tmp_path_factory):
    repo = tmp_path_factory.mktemp("parity") / "repo"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main")
    (repo / "lib").mkdir()
    (repo / "mod.py").write_text("x = 1\n")
    (repo / "lib" / "util.py").write_text("def f():\n    return 1\n")
    git(repo, "add", "-A")
    _commit(repo, 1, "-m", "Initial import")
    _commit(repo, 2, "--allow-empty", "-m", "Fix nothing at all")
    git(repo, "mv", "lib/util.py", "lib/helpers.py")
    _commit(repo, 3, "-m", "Fix naming\x1fwith a unit separator\n\n:100644 M\tnot-a-path")
    (repo / "with space.py").write_text("s = 1\n")
    (repo / "\u00fcn\u00efcode.py").write_text("u = '\u00e9'\n")
    (repo / NEWLINE_PATH).write_text("n = 1\n")
    (repo / COLON_PATH).write_text("c = 1\n")
    git(repo, "add", "-A")
    _commit(repo, 4, "-m", "Fix paths")
    git(repo, "rm", "-q", "mod.py")
    (repo / "with space.py").write_text("s = 2\n")
    (repo / NEWLINE_PATH).write_text("n = 2\n")
    git(repo, "add", "-A")
    _commit(repo, 5, "-m", "Fix: drop mod")
    (repo / "latin.py").write_bytes(LATIN1_BLOB)
    git(repo, "add", "-A")
    _commit(repo, 6, "-m", "Add a latin-1 file")
    parent = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=True).stdout.strip()
    (repo / parent).write_text("h = 1\n")
    (repo / "latin.py").write_bytes(LATIN1_BLOB + b"y = 2\n")
    git(repo, "add", "-A")
    _commit(repo, 7, "-m", "Fix the hex name")
    git(repo, "checkout", "-q", "-b", "side")
    (repo / "side.py").write_text("side = 1\n")
    git(repo, "add", "-A")
    _commit(repo, 8, "-m", "Fix on the side branch")
    git(repo, "checkout", "-q", "main")
    (repo / "main.py").write_text("main = 1\n")
    git(repo, "add", "-A")
    _commit(repo, 9, "-m", "Fix on main")
    git(repo, "merge", "-q", "--no-ff", "side", "-m", "Merge the side fix",
        env_extra={"GIT_AUTHOR_DATE": "2018-01-10T12:00:00Z",
                   "GIT_COMMITTER_DATE": "2018-01-10T12:00:00Z"})
    message = repo.parent / "message.txt"
    message.write_text("Fix verbatim message\n\n\n  trailing blank lines")
    (repo / "main.py").write_text("main = 2\n")
    _commit(repo, 11, "-a", "--cleanup=verbatim", "-F", str(message))
    (repo / "empty.py").write_text("")
    git(repo, "add", "empty.py")
    _commit(repo, 12, "-m", "Fix: add an empty module")
    git(repo, "update-index", "--chmod=+x", "empty.py")
    _commit(repo, 13, "-m", "Fix the mode of the empty module")
    git(repo, "rm", "-q", "-f", "empty.py")  # the worktree copy kept its old mode
    _commit(repo, 14, "-m", "Fix: drop the empty module")
    git(repo, "update-index", "--add", "--cacheinfo", f"160000,{ABSENT_COMMIT},sub.py")
    _commit(repo, 15, "-m", "Fix: link a submodule")
    return repo, parent


@pytest.fixture(scope="module")
def sha256_repo(tmp_path_factory):
    repo = tmp_path_factory.mktemp("sha256") / "repo"
    repo.mkdir()
    git(repo, "init", "-q", "-b", "main", "--object-format=sha256")
    (repo / "mod.py").write_text("x = 1\n")
    (repo / "empty.py").write_text("")
    git(repo, "add", "-A")
    _commit(repo, 1, "-m", "Fix: import")
    (repo / "mod.py").write_text("x = 2\n")
    git(repo, "add", "mod.py")
    git(repo, "rm", "-q", "empty.py")
    git(repo, "update-index", "--add", "--cacheinfo", f"160000,{'5' * 64},sub.py")
    _commit(repo, 2, "-m", "Fix x, drop the empty module, link a submodule")
    return repo


SCANS = [
    {},
    {"after": "2018-01-04", "before": "2018-01-07T23:00:00Z"},
    {"branches": ("side",)},
    {"branches": ("main", "side"), "after": "2018-01-08"},
]


def _assert_matches_reference(repo, scan):
    """Records and file pairs equal the per-commit reference's; a pair
    the reference finds missing reads as None.  The pairs are read both
    by the scanning source and by a source that has not scanned, which
    finds the object ids with ``git diff-tree``."""
    reference = oracles.PerCommitGitSource(repo)
    source = GitSource(repo)
    records = source.fetch_merged_changes(**scan)
    assert records == reference.fetch_merged_changes(**scan)
    assert records
    items = [(record, path) for record in records for path in record.files]
    expected = []
    for record, path in items:
        try:
            expected.append(reference.fetch_file_pair(record, path))
        except MissingBlobError:
            expected.append(None)
    assert list(source.file_pairs(items)) == expected
    assert list(GitSource(repo).file_pairs(items)) == expected


def _assert_counts_match_blob_reads(repo, scan, out) -> dict:
    """Runs ingest and extract; ingest's four counts must be those of the
    per-commit reference's records, and extract's ``files_missing`` the
    retained files whose blobs the reference cannot read.  Returns the
    extract counts."""
    pipeline = Pipeline(PipelineConfig(source_path=str(repo), output_dir=str(out), **scan))
    for stage in ("ingest", "extract"):
        pipeline.run_stage(stage)
    reference = oracles.PerCommitGitSource(repo)
    records = reference.fetch_merged_changes(**scan)
    matched = [record for record in records if keyword_filter(record.message)]
    retained = [(record, path) for record in matched
                for path in exclude_test_files(p for p in record.files if p.endswith(".py"))]
    missing = 0
    for record, path in retained:
        try:
            reference.fetch_file_pair(record, path)
        except MissingBlobError:
            missing += 1
    assert json.loads((out / "ingest_counts.json").read_text()) == {
        "changes_total": len(records),
        "changes_matched": len(matched),
        "files_total": sum(len(record.files) for record in matched),
        "files_retained": len(retained)}
    counts = json.loads((out / "extract_counts.json").read_text())
    assert (counts["files_considered"], counts["files_missing"]) == (len(retained), missing)
    return counts


class TestGitSourceParity:
    @pytest.mark.parametrize("scan", SCANS, ids=lambda scan: ",".join(scan) or "all")
    def test_records_and_pairs_match_per_commit_reference(self, parity_repo, scan):
        repo, _ = parity_repo
        _assert_matches_reference(repo, scan)

    @pytest.mark.parametrize("scan", SCANS, ids=lambda scan: ",".join(scan) or "all")
    def test_ingest_counts_match_blob_reads(self, parity_repo, scan, tmp_path):
        repo, _ = parity_repo
        counts = _assert_counts_match_blob_reads(repo, scan, tmp_path)
        if not scan:
            assert counts["files_missing"] == 4  # the four empty-reading commits

    def test_sha256_repository(self, sha256_repo, tmp_path):
        _assert_matches_reference(sha256_repo, {})
        source = GitSource(sha256_repo)
        first, second = source.fetch_merged_changes()
        assert len(first.revision) == 64
        assert list(source.file_pairs([(first, "empty.py"), (second, "empty.py"),
                                       (second, "sub.py")])) == [None] * 3
        counts = _assert_counts_match_blob_reads(sha256_repo, {}, tmp_path)
        assert (counts["files_considered"] - counts["files_missing"],
                counts["files_missing"]) == (2, 3)

    def test_non_utf8_path_reads_missing(self, tmp_path):
        # git cannot resolve the U+FFFD spelling the records carry
        git(tmp_path, "init", "-q", "-b", "main")
        oid = subprocess.run(["git", "-C", str(tmp_path), "hash-object", "-w", "--stdin"],
                             input=b"x = 1\n", capture_output=True,
                             check=True).stdout.decode().strip()
        subprocess.run(["git", "-C", str(tmp_path), "update-index", "--add", "--cacheinfo",
                        f"100644,{oid},".encode() + b"caf\xe9.py"], check=True)
        _commit(tmp_path, 1, "-m", "Fix: a latin-1 file name")
        _assert_matches_reference(tmp_path, {})
        source = GitSource(tmp_path)
        [record] = source.fetch_merged_changes()
        assert record.files == ("caf\ufffd.py",)
        assert list(source.file_pairs([(record, "caf\ufffd.py")])) == [None]

    def test_pruned_blob_reads_empty_scanned_or_not(self, tmp_path):
        # git answers "<oid> missing", whichever source found the id
        git(tmp_path, "init", "-q", "-b", "main")
        for day, text in ((1, "x = 1\n"), (2, "x = 2\n")):
            (tmp_path / "mod.py").write_text(text)
            git(tmp_path, "add", "mod.py")
            _commit(tmp_path, day, "-m", f"Fix {day}")
        oid = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD:mod.py"],
                             capture_output=True, text=True, check=True).stdout.strip()
        (tmp_path / ".git" / "objects" / oid[:2] / oid[2:]).unlink()
        source = GitSource(tmp_path)
        items = [(record, "mod.py") for record in source.fetch_merged_changes()]
        pairs = list(source.file_pairs(items))
        assert pairs == list(GitSource(tmp_path).file_pairs(items))
        assert (pairs[1].before_text, pairs[1].after_text) == ("x = 1\n", "")

    def test_a_pruned_blob_is_missing_in_extract_counts_only(self, tmp_path):
        # the scan's object ids name a blob git no longer has: ingest reads
        # no content, so only extract, which reads it, counts the file
        git(tmp_path, "init", "-q", "-b", "main")
        (tmp_path / "mod.py").write_text("x = 1\n")
        git(tmp_path, "add", "mod.py")
        _commit(tmp_path, 1, "-m", "Fix: add the module")
        oid = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD:mod.py"],
                             capture_output=True, text=True, check=True).stdout.strip()
        (tmp_path / ".git" / "objects" / oid[:2] / oid[2:]).unlink()
        out = tmp_path / "out"
        pipeline = Pipeline(PipelineConfig(source_path=str(tmp_path), output_dir=str(out)))
        for stage in ("ingest", "extract"):
            pipeline.run_stage(stage)
        assert json.loads((out / "ingest_counts.json").read_text()) == {
            "changes_total": 1, "changes_matched": 1, "files_total": 1, "files_retained": 1}
        counts = json.loads((out / "extract_counts.json").read_text())
        assert (counts["files_considered"], counts["files_missing"]) == (1, 1)

    def test_cases_the_fixture_must_hold(self, parity_repo):
        repo, parent = parity_repo
        source = GitSource(repo)
        records = source.fetch_merged_changes()
        by_message = {r.message.split("\n")[0].split("\x1f")[0]: r for r in records}
        assert records[0].files == ("lib/util.py", "mod.py")  # root commit
        assert by_message["Fix nothing at all"].files == ()
        renamed = by_message["Fix naming"]
        assert renamed.files == ("lib/helpers.py", "lib/util.py")
        assert renamed.message.startswith("Fix naming\x1fwith a unit separator\n")
        assert NEWLINE_PATH in by_message["Fix paths"].files
        assert COLON_PATH in by_message["Fix paths"].files
        assert parent in by_message["Fix the hex name"].files
        assert by_message["Fix verbatim message"].message == (
            "Fix verbatim message\n\n\n  trailing blank lines")
        assert "Merge the side fix" not in by_message
        with pytest.raises(MissingBlobError):
            source.fetch_file_pair(by_message["Fix paths"], "absent.py")
        empty_reading = []
        for message, path in (("Fix: add an empty module", "empty.py"),
                              ("Fix the mode of the empty module", "empty.py"),
                              ("Fix: drop the empty module", "empty.py"),
                              ("Fix: link a submodule", "sub.py")):
            assert by_message[message].files == (path,)
            empty_reading.append((by_message[message], path))
        # read in one batch with files that have content, so each empty
        # pair is decoded rather than skipped with the batch
        added, deleted, *empty = source.file_pairs(
            [(by_message["Fix paths"], NEWLINE_PATH),
             (by_message["Fix: drop mod"], "mod.py"), *empty_reading])
        assert (added.before_text, added.after_text) == ("", "n = 1\n")
        assert (deleted.before_text, deleted.after_text) == ("x = 1\n", "")
        assert empty == [None] * 4

    def test_branch_names_are_revisions_not_options(self, parity_repo, tmp_path):
        repo, _ = parity_repo
        target = tmp_path / "log.txt"
        branches = (f"--output={target}",)
        with pytest.raises(IngestError, match="bad revision"):
            GitSource(repo).fetch_merged_changes(branches=branches)
        with pytest.raises(AssertionError, match="bad revision"):
            oracles.PerCommitGitSource(repo).fetch_merged_changes(branches=branches)
        assert not target.exists()

    def test_non_utf8_blob_logs_replacement_warning(self, parity_repo, caplog):
        repo, _ = parity_repo
        source = GitSource(repo)
        record = next(r for r in source.fetch_merged_changes()
                      if r.message.startswith("Fix the hex name"))
        with caplog.at_level(logging.WARNING, logger="fixscope.ingest"):
            pair = source.fetch_file_pair(record, "latin.py")
        assert pair.after_text == "x = '\ufffd'\ny = 2\n"
        warnings = [r.getMessage() for r in caplog.records]
        assert warnings == [f"decode warning: {record.change_id}:latin.py@parent "
                            "is not clean UTF-8; replacing",
                            f"decode warning: {record.change_id}:latin.py "
                            "is not clean UTF-8; replacing"]

    def test_ingest_and_extract_decode_each_side_once(self, parity_repo, tmp_path,
                                                      caplog):
        repo, _ = parity_repo
        pipeline = Pipeline(PipelineConfig(source_path=str(repo),
                                           output_dir=str(tmp_path / "out")))
        with caplog.at_level(logging.WARNING, logger="fixscope.ingest"):
            pipeline.run_stage("ingest")
            pipeline.run_stage("extract")
        revision = next(r.revision for r in GitSource(repo).fetch_merged_changes()
                        if r.message.startswith("Fix the hex name"))
        assert [r.getMessage() for r in caplog.records] == [
            f"decode warning: {revision}:latin.py@parent is not clean UTF-8; replacing",
            f"decode warning: {revision}:latin.py is not clean UTF-8; replacing"]

    def test_cold_extract_reads_by_object_id_only_sides_with_content(
            self, parity_repo, tmp_path, monkeypatch):
        repo, _ = parity_repo
        pipeline = Pipeline(PipelineConfig(source_path=str(repo),
                                           output_dir=str(tmp_path / "out")))
        pipeline.run_stage("ingest")
        counter = CountingSubprocess(monkeypatch)
        pipeline.run_stage("extract")
        names = counter.names()
        assert names and all(re.fullmatch(rb"[0-9a-f]{40}", name) for name in names)
        # an absent side, the empty blob and a gitlink are never asked for
        reference = oracles.PerCommitGitSource(repo)
        sides = [reference._show(f"{change['revision']}{parent}:{path}")
                 for change in map(json.loads, (tmp_path / "out" / "changes.jsonl")
                                   .read_text().splitlines())
                 for path in change["files"] for parent in ("^", "")]
        assert len(names) == sum(1 for side in sides if side) < len(sides)

    @pytest.mark.parametrize("fixture", ["parity_repo", "sha256_repo"])
    def test_extract_alone_writes_the_cold_runs_bytes(self, fixture, request,
                                                      tmp_path, monkeypatch):
        repo = request.getfixturevalue(fixture)
        repo = repo[0] if isinstance(repo, tuple) else repo
        config = PipelineConfig(source_path=str(repo), output_dir=str(tmp_path / "out"))
        names = ("hunks.jsonl", "extract_counts.json", "extract.manifest.json")
        pipeline = Pipeline(config)
        for stage in ("ingest", "extract"):
            pipeline.run_stage(stage)
        cold = [(tmp_path / "out" / name).read_bytes() for name in names]
        counter = CountingSubprocess(monkeypatch)
        Pipeline(config).run_stage("extract", force=True)
        # a source that has not scanned also asks for every blob by its id
        assert counter.names() and all(re.fullmatch(rb"[0-9a-f]{40}|[0-9a-f]{64}", name)
                                       for name in counter.names())
        assert [(tmp_path / "out" / name).read_bytes() for name in names] == cold
        assert json.loads(cold[1])["files_parsed"] > 0

    @pytest.mark.parametrize("absent", ["0" * 40, "0" * 64])
    @pytest.mark.parametrize("fixture", ["parity_repo", "sha256_repo"])
    def test_extract_alone_reads_an_absent_commit_as_missing(self, fixture, absent,
                                                             request, tmp_path):
        # the absent id sorts before every commit's; a SHA-256 repository
        # cannot read a 40-hex id, and git prints that line back
        repo = request.getfixturevalue(fixture)
        repo = repo[0] if isinstance(repo, tuple) else repo
        config = PipelineConfig(source_path=str(repo), output_dir=str(tmp_path / "out"))
        pipeline = Pipeline(config)
        for stage in ("ingest", "extract"):
            pipeline.run_stage(stage)
        changes = tmp_path / "out" / "changes.jsonl"
        first = next(change for change in map(json.loads, changes.read_text().splitlines())
                     if change["files"])
        absent_change = {**first, "change_id": absent, "revision": absent}
        changes.write_text(json.dumps(absent_change) + "\n" + changes.read_text())
        cold = json.loads((tmp_path / "out" / "extract_counts.json").read_text())
        Pipeline(config).run_stage("extract", force=True)
        counts = json.loads((tmp_path / "out" / "extract_counts.json").read_text())
        assert counts["files_missing"] == cold["files_missing"] + len(first["files"])
        assert counts["files_parsed"] == cold["files_parsed"] > 0
        record = ChangeRecord(change_id=absent, project="", branch="", revision=absent,
                              message="", files=tuple(first["files"]))
        assert list(GitSource(repo).file_pairs((record, path) for path in record.files)) \
            == [None] * len(record.files)

    @pytest.mark.parametrize("fixture", ["parity_repo", "sha256_repo"])
    def test_lookup_prints_what_the_scan_prints(self, fixture, request, monkeypatch):
        # a source that has not scanned reads the diff-tree stream with the
        # scan's parser: fed every commit in the log's order, it must print
        # the log's bytes
        repo = request.getfixturevalue(fixture)
        repo = repo[0] if isinstance(repo, tuple) else repo
        calls = {}
        run_git = GitSource._git

        def recording_git(self, *args, **kwargs):
            calls[args[0]] = args, run_git(self, *args, **kwargs)
            return calls[args[0]][1]

        monkeypatch.setattr(GitSource, "_git", recording_git)
        records = GitSource(repo).fetch_merged_changes()
        list(GitSource(repo).file_pairs(
            [(record, path) for record in records for path in record.files]))
        commits = subprocess.run(["git", "-C", str(repo), "rev-list", "HEAD"],
                                 capture_output=True, check=True).stdout
        lookup = subprocess.run(["git", "-C", str(repo), *calls["diff-tree"][0]],
                                input=commits, capture_output=True, check=True)
        assert lookup.stdout == calls["log"][1]


def _linear_repo(path, commits):
    """A repository of ``commits`` fix commits to one module, written by a
    single ``git fast-import``."""
    git(path, "init", "-q", "-b", "main")
    stream = []
    for k in range(commits):
        message = f"Fix value {k}\n".encode()
        body = f"def f():\n    return {k}\n".encode()
        stream += [b"commit refs/heads/main", f"mark :{k + 1}".encode(),
                   f"committer dev <dev@example.org> {1514764800 + 60 * k} +0000".encode(),
                   b"data %d" % len(message), message]
        if k:
            stream.append(f"from :{k}".encode())
        stream += [b"M 100644 inline mod.py", b"data %d" % len(body), body]
    subprocess.run(["git", "-C", str(path), "fast-import", "--quiet"],
                   input=b"\n".join(stream) + b"\n", check=True)


def _wide_repo(path, files):
    """One commit adding ``files`` modules, each 20 lines long."""
    git(path, "init", "-q", "-b", "main")
    message = b"Fix many modules\n"
    stream = [b"commit refs/heads/main",
              b"committer dev <dev@example.org> 1514764800 +0000",
              b"data %d" % len(message), message]
    for k in range(files):
        body = f"value_{k} = {k}\n".encode() * 20
        stream += [f"M 100644 inline mod_{k:04d}.py".encode(),
                   b"data %d" % len(body), body]
    subprocess.run(["git", "-C", str(path), "fast-import", "--quiet"],
                   input=b"\n".join(stream) + b"\n", check=True)


class CountingSubprocess:
    """Stands in for ``subprocess`` inside ``fixscope.ingest``: records the
    git command of each process started, and the requests each ``git
    cat-file`` batch reads from the file handed to it as stdin."""

    def __init__(self, monkeypatch):
        self.commands = []
        self.batches = []
        self.sent = []
        monkeypatch.setattr(fixscope.ingest, "subprocess", self)

    def names(self) -> list[bytes]:
        """Every object requested, in order."""
        return [name for stream in self.sent for name in stream.splitlines()]

    def run(self, args, **kwargs):
        self.commands.append(args[3])  # git -C <repo> <command>
        return subprocess.run(args, **kwargs)

    def Popen(self, args, **kwargs):  # noqa: N802 - mirrors subprocess
        self.commands.append(args[3])
        requests = kwargs["stdin"].fileno()
        self.sent.append(os.pread(requests, os.fstat(requests).st_size, 0))
        self.batches.append(subprocess.Popen(args, **kwargs))
        return self.batches[-1]

    def __getattr__(self, name):
        return getattr(subprocess, name)


def _bounded(action, timeout=60.0):
    """Run ``action`` in a thread; fail, rather than hang, on a deadlock.
    Returns what it returned or raised."""
    outcome = {}

    def target():
        try:
            outcome["value"] = action()
        except Exception as exc:  # handed to the test to inspect
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the blob reader did not finish"
    return outcome


class TestGitSourceProcesses:
    def _stage_commands(self, monkeypatch, pipeline, stage, force=False):
        counter = CountingSubprocess(monkeypatch)
        try:
            pipeline.run_stage(stage, force=force)
        finally:
            assert all(batch.returncode is not None for batch in counter.batches)
        return counter.commands

    @pytest.mark.parametrize("commits", [30, 60])
    def test_process_count_does_not_grow_with_commits(self, tmp_path, monkeypatch,
                                                      commits):
        _linear_repo(tmp_path, commits)
        out = tmp_path / "out"
        config = PipelineConfig(source_path=str(tmp_path), output_dir=str(out))
        pipeline = Pipeline(config)
        assert self._stage_commands(monkeypatch, pipeline, "ingest") == ["log"]
        assert self._stage_commands(monkeypatch, pipeline, "extract") == ["cat-file"]
        matched = json.loads((out / "ingest_counts.json").read_text())["changes_matched"]
        counts = json.loads((out / "extract_counts.json").read_text())
        assert (matched, counts["files_considered"], counts["files_missing"]) == \
            (commits, commits, 0)
        assert not (out / "cache").exists()
        # extract alone in a later process first looks the ids up
        alone = Pipeline(config)
        assert self._stage_commands(monkeypatch, alone, "extract", force=True) == [
            "diff-tree", "cat-file"]

    def test_failed_extract_still_reaps_the_batch_process(self, tmp_path, monkeypatch):
        _linear_repo(tmp_path, 30)
        pipeline = Pipeline(PipelineConfig(source_path=str(tmp_path),
                                           output_dir=str(tmp_path / "out")))
        pipeline.run_stage("ingest")
        parse_source = fixscope.pipeline.parse_source
        calls = []

        def parse_then_crash(*args, **kwargs):
            calls.append(args)
            if len(calls) == 10:
                raise RuntimeError("parser crashed")
            return parse_source(*args, **kwargs)

        monkeypatch.setattr(fixscope.pipeline, "parse_source", parse_then_crash)
        threads = threading.active_count()
        with pytest.raises(StageError):
            self._stage_commands(monkeypatch, pipeline, "extract")
        assert threading.active_count() == threads


class TestStreamingReader:
    @pytest.fixture
    def wide(self, tmp_path, monkeypatch):
        _wide_repo(tmp_path, 600)
        source = GitSource(tmp_path)
        [record] = source.fetch_merged_changes()
        items = [(record, path) for path in record.files]
        # git's replies outgrow a pipe's buffer, so a consumer that stops
        # early leaves git blocked on a full pipe
        assert sum(len(pair.after_text) for pair in source.file_pairs(items)) > 64 * 1024
        return source, items, CountingSubprocess(monkeypatch)

    def _assert_released(self, counter, threads):
        assert len(counter.batches) == 1
        assert counter.batches[0].returncode is not None
        assert threading.active_count() == threads

    def test_reads_every_item_in_order(self, wide):
        source, items, counter = wide
        threads = threading.active_count()
        pairs = _bounded(lambda: list(source.file_pairs(items)))["value"]
        assert [pair.path for pair in pairs] == [path for _, path in items]
        assert pairs[-1].after_text == "value_599 = 599\n" * 20
        self._assert_released(counter, threads)
        assert counter.batches[0].returncode == 0

    def test_consumer_stopping_after_one_item(self, wide):
        source, items, counter = wide
        threads = threading.active_count()

        def first():
            with closing(source.file_pairs(items)) as pairs:
                return next(pairs)

        assert _bounded(first)["value"].path == items[0][1]
        self._assert_released(counter, threads)

    def test_consumer_raising_mid_stream(self, wide):
        source, items, counter = wide
        threads = threading.active_count()

        def crash():
            with closing(source.file_pairs(items)) as pairs:
                for seen, _pair in enumerate(pairs):
                    if seen == 5:
                        raise RuntimeError("consumer crashed")

        assert str(_bounded(crash)["error"]) == "consumer crashed"
        self._assert_released(counter, threads)

    def test_no_items_start_no_process(self, wide):
        source, _items, counter = wide
        assert list(source.file_pairs([])) == []
        assert counter.commands == []
