"""End-to-end pipeline stages, checkpoints, exports, and the CLI."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import fixscope
from fixscope.cli import build_parser, main as cli_main
from fixscope.cluster import sample_cluster
from fixscope.democorpus import _commit_stamp, build_demo_corpus
from fixscope.diffing import hunk_from_dict
from fixscope.grammar import _Normalizer, parse_source, tree_height
from fixscope.ingest import GerritSource, GitSource
from fixscope.pipeline import (
    NO_CONTROL_GROUP,
    STAGE_ARTIFACTS,
    STAGES,
    MissingCheckpointError,
    Pipeline,
    PipelineConfig,
    RunReport,
    StageError,
    _parse_annotations,
    export_dataset,
    extract_file,
    run_pipeline,
)
from fixscope.report import render_report
from fixscope.stats import dunn_test

IRRELEVANT_HISTORY_BUDGET_S = 20.0  # copy, three commits and two cold runs


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("small-corpus")
    manifest = build_demo_corpus(root, family_size=5, noise_count=5,
                                 filler_plain=3, filler_tests=2, filler_docs=1)
    return manifest


def small_config(manifest, out_dir, **overrides) -> PipelineConfig:
    params = dict(source_mode="git", source_path=manifest["repo"],
                  min_cluster_size=3, output_dir=str(out_dir))
    params.update(overrides)
    return PipelineConfig(**params)


@pytest.fixture(scope="module")
def completed_run(small_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = small_config(small_corpus, out)
    report = run_pipeline(config)
    return config, report


class TestConfig:
    def test_round_trip(self, tmp_path):
        config = PipelineConfig(source_mode="git", source_path="/repo",
                                output_dir=str(tmp_path / "o"))
        clone = PipelineConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert clone == config

    def test_unknown_keys_rejected(self):
        for doc in ({"bogus": 1}, {"streaming_threshold": 16000}, {"sample_size": 5},
                    {"dialect": "py27"}, {"metric": "euclidean"}, {"linkage": "complete"},
                    {"seed": 0}):
            with pytest.raises(ValueError):
                PipelineConfig.from_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"control_mode": "bogus"}, "control_mode 'bogus'"),
        ({"alpha": 5.0}, "alpha"), ({"alpha": 0.0}, "alpha"), ({"alpha": 1.0}, "alpha"),
        ({"alpha": math.nan}, "alpha"), ({"alpha": "0.05"}, "alpha"),
        ({"version": "7"}, "version '7'"),
        # no cut can use these: a depth below 1 puts every hunk in one
        # cluster, a NaN cutoff leaves none
        ({"inconsistency_depth": 0}, "inconsistency_depth"),
        ({"inconsistency_depth": -1}, "inconsistency_depth"),
        ({"inconsistency_depth": 2.0}, "inconsistency_depth"),
        ({"min_cluster_size": 0}, "min_cluster_size"),
        ({"min_cluster_size": -3}, "min_cluster_size"),
        ({"min_cluster_size": 2.5}, "min_cluster_size"),
        ({"cutoff": math.nan}, "cutoff"), ({"cutoff": math.inf}, "cutoff"),
        ({"cutoff": "1.1"}, "cutoff"),
        # a string would load as its characters, and any nonempty one is truthy
        ({"keywords": "bug"}, "keywords"), ({"test_markers": "tests"}, "test_markers"),
        ({"projects": "nova"}, "projects"), ({"branches": "master"}, "branches"),
        ({"keywords": ["bug", 1]}, "keywords"), ({"branches": None}, "branches"),
        ({"bonferroni": "no"}, "bonferroni"),
        # a removed key, rejected as unknown whatever its value
        ({"case_sensitive": "false"}, "case_sensitive"),
        ({"merges_only": False}, "merges_only"), ({"word_bounded": None}, "word_bounded"),
        # a path, endpoint or date that is no string, and a bool for a number
        ({"source_path": 5}, "source_path"), ({"endpoint": None}, "endpoint"),
        ({"after": 5}, "after"), ({"before": 20180101}, "before"),
        ({"output_dir": 5}, "output_dir"), ({"cache_dir": ["c"]}, "cache_dir"),
        ({"min_cluster_size": True}, "min_cluster_size"),
        ({"inconsistency_depth": True}, "inconsistency_depth"),
        ({"cutoff": True}, "cutoff"),
        ({"source_mode": "svn"}, "source_mode 'svn'"),
        # no keywords: ingest would keep no change
        ({"keywords": []}, "keywords is empty"),
        # blank keywords: as substrings they match almost every message
        ({"keywords": ["\t"]}, r"keyword '\\t' is blank"),
        ({"keywords": ["fix", "\r\n"]}, r"keyword '\\r\\n' is blank"),
        ({"keywords": [""]}, "keyword '' is blank"),
        ({"keywords": [" "]}, "keyword ' ' is blank"),
        ({"keywords": ["bug", ""]}, "keyword '' is blank"),
    ])
    def test_bad_values_rejected_at_load(self, doc, message):
        with pytest.raises(ValueError, match=message) as err:
            PipelineConfig.from_dict(doc)
        # a removed key (case_sensitive, merges_only, test_markers,
        # word_bounded) is rejected as unknown
        if not set(doc) <= {f.name for f in dataclasses.fields(PipelineConfig)}:
            assert str(err.value).startswith("unknown config keys")

    def test_accepted_values_load(self):
        for doc in ({"control_mode": "inclusive"}, {"alpha": 0.999}, {"alpha": 1e-9},
                    {"version": "1"}, {"inconsistency_depth": 1}, {"min_cluster_size": 1},
                    {"cutoff": None}, {"cutoff": 0}, {"cutoff": 1.15},
                    {"bonferroni": True}, {"keywords": ["null pointer", "fix-up"]}):
            PipelineConfig.from_dict(doc)

    def test_lists_from_config_json_load_as_tuples(self):
        config = PipelineConfig.from_dict({"keywords": ["bug"], "projects": ["nova"],
                                           "branches": ["master"]})
        assert config.keywords == ("bug",)
        assert (config.projects, config.branches) == (("nova",), ("master",))

    def test_every_config_key_is_pinned(self):
        # each key is read by a stage or by the source it builds; a new key
        # changes every manifest, so it must be added here on purpose
        assert [f.name for f in dataclasses.fields(PipelineConfig)] == [
            "version", "source_mode", "source_path", "endpoint", "projects",
            "branches", "after", "before", "keywords", "w_type", "w_role",
            "r", "c", "inconsistency_depth", "min_cluster_size", "cutoff", "alpha",
            "control_mode", "bonferroni", "output_dir", "cache_dir"]


class TestDemoCorpus:
    def test_commit_stamp_rolls_over_midnight(self):
        # stamps of the first day keep their old form, so corpus ids hold
        for clock in range(1440):
            assert _commit_stamp(clock) == \
                f"2018-01-01T{clock // 60:02d}:{clock % 60:02d}:00Z"
        assert [_commit_stamp(c) for c in (1439, 1440, 1441)] == [
            "2018-01-01T23:59:00Z", "2018-01-02T00:00:00Z", "2018-01-02T00:01:00Z"]


class TestEmptyCorpus:
    def test_all_zero_counts_and_no_clusters(self, tmp_path):
        repo = tmp_path / "empty"
        repo.mkdir()
        subprocess.run(["git", "-C", str(repo), "init", "-q"], check=True)
        config = PipelineConfig(source_mode="git", source_path=str(repo),
                                output_dir=str(tmp_path / "out"))
        report = run_pipeline(config)
        assert report.counts["changes"] == 0
        assert report.counts["hunks"] == 0
        assert report.clusters == []
        assert report.cophenetic is None
        assert (tmp_path / "out" / "report.md").exists()


def _git_repo(path: Path):
    """An empty repository at ``path`` and a ``git`` that commits in it."""
    path.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(path), "-c", "user.name=dev",
                        "-c", "user.email=dev@example.org", *args],
                       check=True, capture_output=True)

    git("init", "-q", "-b", "main")
    return git


def _sum(terms: int, edited: int | None = None) -> str:
    """``x = 1 + 1 + ...``, one tree level per term; term ``edited`` reads 2."""
    values = ["1"] * terms
    if edited is not None:
        values[edited] = "2"
    return "x = " + " + ".join(values) + "\n"


class TestDeepNesting:
    """No walk of the program limits depth: a hunk's labeled subtree may
    be ``MAX_HUNK_DEPTH`` levels high, its unchanged ancestors any depth
    the host parser builds."""

    @pytest.fixture(scope="class")
    def deep_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("deep")
        repo = root / "repo"
        git = _git_repo(repo)
        (repo / "edit600.py").write_text(_sum(600))
        git("add", "-A")
        git("commit", "-q", "-m", "Initial import")
        (repo / "edit600.py").write_text(_sum(600, edited=300))
        for name, terms in (("insert350.py", 350), ("insert600.py", 600),
                            ("sum4000.py", 4000)):
            (repo / name).write_text(_sum(terms))
        git("add", "-A")
        git("commit", "-q", "-m", "Fix the sums")
        out = root / "out"
        run_pipeline(PipelineConfig(source_path=str(repo), output_dir=str(out),
                                    min_cluster_size=1))
        hunks = [json.loads(line) for line in (out / "hunks.jsonl").read_text().splitlines()]
        vectors = [json.loads(line) for line in
                   (out / "feature_vectors.jsonl").read_text().splitlines()]
        return json.loads((out / "extract_counts.json").read_text()), hunks, vectors

    def test_one_term_edit_inside_a_600_term_sum_yields_hunks(self, deep_run):
        extract, hunks, _vectors = deep_run
        edits = [doc for doc in hunks if doc["path"] == "edit600.py"]
        assert [root["kind"] for doc in edits for root in doc["roots"]] == ["Num", "Num"]
        # the closest ancestor is one of the 599 unchanged BinOps above the term
        assert edits[0]["context"]["ctx_including_BinOp"] == 1.0
        assert (extract["files_parsed"], extract["files_skipped_syntax"]) == (2, 2)

    def test_whole_file_insert_of_350_terms_yields_finite_features(self, deep_run):
        _extract, hunks, vectors = deep_run
        [doc] = [doc for doc in hunks if doc["path"] == "insert350.py"]
        # levels past 308 take the overflow branch of hunk_feature_vector
        assert tree_height(hunk_from_dict(doc).labeled_roots[0]) > 308
        [vector] = [v for v in vectors if v["hunk_id"] == doc["id"]]
        assert vector["features"]["add_BinOp"] > 0
        assert all(math.isfinite(value) for value in vector["features"].values())

    def test_whole_file_insert_of_600_terms_is_skipped(self, deep_run):
        extract, hunks, _vectors = deep_run
        assert {"path": "insert600.py", "line": 1} in [
            {"path": entry["path"], "line": entry["line"]}
            for entry in extract["skipped_files"]]
        assert all(doc["path"] != "insert600.py" for doc in hunks)

    def test_sum_past_the_host_parser_is_skipped_not_fatal(self, deep_run):
        extract, hunks, _vectors = deep_run
        assert "sum4000.py" in [entry["path"] for entry in extract["skipped_files"]]
        assert all(doc["path"] != "sum4000.py" for doc in hunks)

    def test_artifacts_do_not_depend_on_the_callers_stack_depth(self, tmp_path):
        git = _git_repo(tmp_path / "repo")
        (tmp_path / "repo" / "sum450.py").write_text(_sum(450))
        git("add", "-A")
        git("commit", "-q", "-m", "Initial import")
        (tmp_path / "repo" / "sum450.py").write_text(_sum(450, edited=225))
        git("commit", "-q", "-am", "Fix the sum")

        def run_below(frames: int, out: Path):
            if frames:
                return run_below(frames - 1, out)
            return run_pipeline(PipelineConfig(source_path=str(tmp_path / "repo"),
                                               output_dir=str(out), min_cluster_size=1))

        # a fresh thread starts at the top of its own stack
        for frames, out in ((0, tmp_path / "top"), (150, tmp_path / "deep")):
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(run_below, frames, out).result()
        for name in STAGE_ARTIFACTS["extract"]:
            assert (tmp_path / "top" / name).read_bytes() == \
                (tmp_path / "deep" / name).read_bytes(), name
        extract = json.loads((tmp_path / "top" / "extract_counts.json").read_text())
        assert (extract["files_parsed"], extract["hunks"]) == (1, 1)


class TestExtractFile:
    # the share of the whole-file conversions that extract makes on the
    # demo corpus: 72.4% when statement stubs landed, against 100% without
    CONVERSION_SHARE_BOUND = 0.80

    def test_extract_converts_only_part_of_the_demo_corpus(self, demo_corpus, monkeypatch):
        source = GitSource(demo_corpus["repo"])
        items = [(record, path) for record in source.fetch_merged_changes()
                 for path in record.files]
        pairs = [pair for pair in source.file_pairs(items) if pair is not None]
        calls = []
        convert = _Normalizer.convert

        def counted(self, node, role):
            calls.append(None)
            return convert(self, node, role)

        monkeypatch.setattr(_Normalizer, "convert", counted)
        for pair in pairs:
            extract_file(pair)
        extracted = len(calls)
        calls.clear()
        for pair in pairs:
            for text in (pair.before_text, pair.after_text):
                try:
                    parse_source(text)
                except SyntaxError:
                    pass
        assert len(pairs) > 400
        assert extracted <= self.CONVERSION_SHARE_BOUND * len(calls), (extracted, len(calls))


class TestConflictLog:
    def test_one_warning_per_extract_run_and_each_conflict_at_debug(self, tmp_path,
                                                                    caplog):
        # in-block ambiguous anchors: a whitespace edit inside lines that
        # hold same-key siblings
        nested = ("x = [a, a]\nx = [a, a]\ndef f():\n    if c:\n"
                  "        g(b, b)\n        g(b, b)\n")
        flat = "x = [a, a]\nx = [a, a]\n"
        repo = tmp_path / "repo"
        git = _git_repo(repo)
        for name, text in (("nested.py", nested), ("flat.py", flat), ("plain.py", "y = 1\n")):
            (repo / name).write_text(text)
        git("add", "-A")
        git("commit", "-q", "-m", "Initial import")
        for name, text in (("nested.py", nested), ("flat.py", flat), ("plain.py", "y = 2\n")):
            (repo / name).write_text(text.replace(", ", ",  "))
        git("commit", "-q", "-am", "Fix the spacing")
        out = tmp_path / "out"
        pipeline = Pipeline(PipelineConfig(source_path=str(repo), output_dir=str(out)))
        pipeline.run_stage("ingest")
        for force in (False, True):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="fixscope"):
                pipeline.run_stage("extract", force=force)
            warnings = [r.getMessage() for r in caplog.records
                        if r.levelno >= logging.WARNING]
            assert warnings == ["18 alignment conflicts in 2 files, each resolved in "
                                "source order"]
            conflicts = [r.getMessage() for r in caplog.records
                         if r.name == "fixscope.diffing"]
            assert len(conflicts) == 18
            assert sum("nested.py" in message for message in conflicts) == 12
        counts = json.loads((out / "extract_counts.json").read_text())
        assert (counts["alignment_conflicts"], counts["files_parsed"]) == (18, 3)


class TestStageArtifacts:
    def test_counts_reconcile(self, completed_run):
        config, report = completed_run
        assert report.counts["changes"] > 0
        hunk_lines = (Path(config.output_dir) / "hunks.jsonl").read_text().splitlines()
        assert report.counts["hunks"] == len([l for l in hunk_lines if l])

    def test_feature_matrix_schema(self, completed_run):
        config, _report = completed_run
        with (Path(config.output_dir) / "feature_matrix.csv").open() as handle:
            header = next(csv.reader(handle))
        assert header[0] == "hunk_id"
        assert header[1:] == sorted(header[1:])

    def test_assignment_schema(self, completed_run):
        config, _report = completed_run
        with (Path(config.output_dir) / "cluster_assignment.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert {"hunk_id", "cluster_id"} <= set(rows[0])
        clustered = [r for r in rows if r["cluster_id"]]
        assert clustered

    def test_dendrogram_json(self, completed_run):
        config, report = completed_run
        doc = json.loads((Path(config.output_dir) / "dendrogram.json").read_text())
        assert doc["n_leaves"] == report.counts["hunks"]
        assert len(doc["merges"]) == doc["n_leaves"] - 1

    def test_test_files_never_reach_extraction(self, completed_run):
        config, _report = completed_run
        changes = (Path(config.output_dir) / "changes.jsonl").read_text()
        assert "tests/test_mod" not in changes

    def test_keyword_less_changes_filtered(self, completed_run):
        config, report = completed_run
        assert report.counts["changes_scanned"] > report.counts["changes"]


class TestCheckpointing:
    def test_rerun_skips_completed_stages(self, small_corpus, tmp_path):
        config = small_config(small_corpus, tmp_path / "out")
        pipeline = Pipeline(config)
        pipeline.run()
        stamp = (tmp_path / "out" / "hunks.jsonl").stat().st_mtime_ns
        pipeline2 = Pipeline(config)
        pipeline2.run()
        assert (tmp_path / "out" / "hunks.jsonl").stat().st_mtime_ns == stamp

    def test_config_change_invalidates_downstream(self, small_corpus, tmp_path):
        config = small_config(small_corpus, tmp_path / "out")
        Pipeline(config).run()
        stamp = (tmp_path / "out" / "feature_matrix.csv").stat().st_mtime_ns
        changed = small_config(small_corpus, tmp_path / "out", w_type=1e3)
        Pipeline(changed).run()
        assert (tmp_path / "out" / "feature_matrix.csv").stat().st_mtime_ns != stamp

    def test_forced_op_writes_config_once_from_one_config_dict(self, small_corpus,
                                                               tmp_path, monkeypatch):
        # the recluster loop: forced cluster, stats and report on one pipeline
        out = tmp_path / "out"
        config = annotated_pipeline(small_corpus, out).config
        manifests = {stage: (out / f"{stage}.manifest.json").read_bytes()
                     for stage in STAGES}
        replaced, dicts = [], []
        real_replace, real_to_dict = os.replace, PipelineConfig.to_dict

        def counting_replace(src, dst, *args, **kwargs):
            replaced.append(Path(dst).name)
            return real_replace(src, dst, *args, **kwargs)

        def counting_to_dict(self):
            dicts.append(1)
            return real_to_dict(self)

        monkeypatch.setattr(os, "replace", counting_replace)
        monkeypatch.setattr(PipelineConfig, "to_dict", counting_to_dict)
        pipeline = Pipeline(config)
        assert not replaced  # construction writes nothing
        for stage in ("cluster", "stats", "report"):
            pipeline.run_stage(stage, force=True)
        assert replaced.count("config.json") == 1 and len(dicts) == 1
        assert {stage: (out / f"{stage}.manifest.json").read_bytes()
                for stage in STAGES} == manifests
        # a run where every stage is current builds the dict once, writes nothing
        replaced.clear()
        dicts.clear()
        Pipeline(config).run()
        assert replaced == [] and len(dicts) == 1

    def test_crash_on_forced_rerun_leaves_no_valid_manifest(self, small_corpus, tmp_path,
                                                            monkeypatch):
        config = small_config(small_corpus, tmp_path / "out")
        Pipeline(config).run()
        vectors = tmp_path / "out" / "feature_vectors.jsonl"
        complete = vectors.read_bytes()

        def crash_midway(self):
            vectors.write_bytes(complete[:len(complete) // 2])
            raise OSError("disk full")

        crashing = Pipeline(config)
        monkeypatch.setattr(crashing, "_stage_features", crash_midway.__get__(crashing))
        with pytest.raises(StageError):
            crashing.run_stage("features", force=True)
        assert not crashing._is_current("features")
        Pipeline(config).run_stage("features")  # not forced: reruns on its own
        assert vectors.read_bytes() == complete
        assert not list((tmp_path / "out").glob("*.partial"))

    def test_truncated_artifact_is_stale_and_restored(self, small_corpus, tmp_path):
        config = small_config(small_corpus, tmp_path / "out")
        Pipeline(config).run()
        hunks = tmp_path / "out" / "hunks.jsonl"
        complete = hunks.read_bytes()
        hunks.write_bytes(complete[:len(complete) // 2])
        pipeline = Pipeline(config)
        assert not pipeline._is_current("extract")
        assert not pipeline._is_current("features")  # its recorded read differs
        assert pipeline._is_current("ingest")
        pipeline.run()
        assert hunks.read_bytes() == complete
        assert all(pipeline._is_current(stage) for stage in STAGES)

    def test_hand_edited_input_reruns_the_stage_that_read_it(self, small_corpus,
                                                             tmp_path):
        out = tmp_path / "out"
        pipeline = Pipeline(small_config(small_corpus, out))
        sizes = {c["id"]: c["size"] for c in pipeline.run().clusters}
        assignment = out / "cluster_assignment.csv"
        with assignment.open(newline="") as handle:
            rows = list(csv.reader(handle))
        edited = next(row for row in rows[1:] if row[1])
        cluster_id = int(edited[1])
        edited[1] = ""  # take one hunk out of its cluster
        with assignment.open("w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        # the report reads cluster_assignment.csv, so its seal no longer holds
        assert not pipeline._is_current("report")
        pipeline.run_stage("report")
        report = json.loads((out / "run_report.json").read_text())
        rerun = {c["id"]: c["size"] for c in report["clusters"]}
        assert rerun[cluster_id] == sizes[cluster_id] - 1
        assert pipeline._is_current("report")

    def test_undeclared_artifact_is_a_stage_error(self, small_corpus, tmp_path,
                                                  monkeypatch):
        out = tmp_path / "out"
        pipeline = Pipeline(small_config(small_corpus, out))
        pipeline.run()
        report_stage = pipeline._stage_report
        monkeypatch.setattr(pipeline, "_stage_report",
                            lambda: {**report_stage(), "extra.txt": "x\n"})
        with pytest.raises(StageError, match="extra.txt"):
            pipeline.run_stage("report", force=True)
        assert not (out / "report.manifest.json").exists()
        assert not (out / "extra.txt").exists()
        assert not pipeline._is_current("report")

    def test_failed_write_leaves_no_partial_file(self, small_corpus, tmp_path,
                                                 monkeypatch):
        out = tmp_path / "out"
        config = small_config(small_corpus, out)
        Pipeline(config).run()
        assert not list(out.glob("*.partial"))
        complete = (out / "feature_vectors.jsonl").read_bytes()
        replace = os.replace

        def disk_full(source, target):
            if Path(target).name == "feature_vectors.jsonl":
                raise OSError("disk full")
            replace(source, target)

        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(StageError, match="disk full"):
            Pipeline(config).run_stage("features", force=True)
        monkeypatch.undo()
        assert not list(out.glob("*.partial"))
        assert (out / "feature_vectors.jsonl").read_bytes() == complete
        assert not Pipeline(config)._is_current("features")

    def test_export_requires_checkpoint(self, small_corpus, tmp_path):
        config = small_config(small_corpus, tmp_path / "never-ran")
        with pytest.raises(MissingCheckpointError):
            export_dataset(config, "features", tmp_path / "exported")


class TestDeterminism:
    @staticmethod
    def snapshot(out_dir: Path) -> dict[str, bytes]:
        return {path.name: path.read_bytes()
                for path in sorted(Path(out_dir).glob("*.*"))
                if path.suffix in (".csv", ".jsonl", ".md", ".json")
                and not path.name.endswith(".manifest.json")}

    def test_forced_rerun_byte_identical(self, small_corpus, tmp_path):
        config = small_config(small_corpus, tmp_path / "out")
        run_pipeline(config)
        first = self.snapshot(config.output_dir)
        run_pipeline(config, force=True)
        second = self.snapshot(config.output_dir)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_exports_identical_across_output_dirs(self, small_corpus, tmp_path):
        # data exports carry no environment paths, so two runs of the same
        # analysis into different directories agree byte for byte
        exports = []
        for name in ("a", "b"):
            config = small_config(small_corpus, tmp_path / name)
            run_pipeline(config)
            blob = {path.name: path.read_bytes()
                    for path in sorted(Path(config.output_dir).glob("*.*"))
                    if path.suffix in (".csv", ".jsonl")}
            exports.append(blob)
        assert exports[0].keys() == exports[1].keys()
        for name in exports[0]:
            assert exports[0][name] == exports[1][name], name

    def test_re_export_byte_identical(self, completed_run, tmp_path):
        config, _report = completed_run
        first = export_dataset(config, "features", tmp_path / "x1")
        second = export_dataset(config, "features", tmp_path / "x2")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_keyword_less_history_changes_only_the_scan_count(self, small_corpus,
                                                              tmp_path):
        # a relation: commits the message filter drops reach no artifact
        # past the count of scanned changes
        start = time.perf_counter()
        repo = tmp_path / "repo"
        shutil.copytree(small_corpus["repo"], repo)  # the shared fixture stays as is
        env = dict(os.environ, GIT_AUTHOR_NAME="demo", GIT_AUTHOR_EMAIL="demo@example.org",
                   GIT_COMMITTER_NAME="demo", GIT_COMMITTER_EMAIL="demo@example.org",
                   GIT_AUTHOR_DATE="2018-03-01T00:00:00Z",
                   GIT_COMMITTER_DATE="2018-03-01T00:00:00Z")
        messages = ("Add a retry helper", "Document the scheduler options",
                    "Move constants into their own module")
        for i, message in enumerate(messages):
            (repo / "service" / f"later_{i}.py").write_text(f"LATER_{i} = {i}\n")
            for args in (["add", "-A"], ["commit", "-q", "-m", message]):
                subprocess.run(["git", "-C", str(repo), *args], check=True, env=env)
        outs = []
        for name, source in (("old", small_corpus["repo"]), ("new", str(repo))):
            out = tmp_path / name
            run_pipeline(small_config(small_corpus, out, source_path=source))
            outs.append(out)
        old, new = outs
        compared = [name for stage in ("ingest", "extract", "features", "cluster", "stats")
                    for name in STAGE_ARTIFACTS[stage] if name != "ingest_counts.json"]
        for name in compared:
            assert (old / name).read_bytes() == (new / name).read_bytes(), name
        counts = json.loads((old / "ingest_counts.json").read_text())
        assert json.loads((new / "ingest_counts.json").read_text()) == \
            {**counts, "changes_total": counts["changes_total"] + 3}
        assert time.perf_counter() - start < IRRELEVANT_HISTORY_BUDGET_S


class TestAnnotationsAndStats:
    def test_unannotated_run_withholds_relevance(self, completed_run):
        config, report = completed_run
        assert report.relevance_withheld
        assert all(c["label"] == "UNREVIEWED" for c in report.clusters)
        rendered = (Path(config.output_dir) / "report.md").read_text()
        assert "\nWithheld: no cluster is triaged BUG-FIX yet. Provide an annotation " \
               "file and re-run the stats stage.\n" in rendered
        assert "not tested" not in rendered

    def test_annotated_run_renders_checkmark_matrix(self, small_corpus, tmp_path):
        config = small_config(small_corpus, tmp_path / "out")
        pipeline = Pipeline(config)
        report = pipeline.run()
        assert report.clusters
        lines = ["cluster_id,label,description"]
        for entry in report.clusters:
            lines.append(f"{entry['id']},BUG-FIX,planted pattern")
        (tmp_path / "out" / "annotations.csv").write_text("\n".join(lines) + "\n")
        report = pipeline.run()  # stats + report rerun via checkpoint invalidation
        assert not report.relevance_withheld
        matrix_lines = (Path(config.output_dir) / "relevance_matrix.csv") \
            .read_text().strip().splitlines()
        assert len(matrix_lines) == 1 + 17
        rendered = (Path(config.output_dir) / "report.md").read_text()
        assert "✓" in rendered
        assert all(c["label"] == "BUG-FIX" for c in report.clusters)

    def test_stale_bugfix_annotations_withhold_relevance(self, small_corpus, tmp_path,
                                                         caplog):
        # cluster ids are dendrogram node ids: a re-cluster can orphan them
        out = tmp_path / "out"
        pipeline = Pipeline(small_config(small_corpus, out))
        live = int(pipeline.run().clusters[0]["id"])
        annotations = out / "annotations.csv"
        annotations.write_text("cluster_id,label,description\n99999,BUG-FIX,old id\n")
        with caplog.at_level(logging.WARNING, logger="fixscope.pipeline"):
            report = pipeline.run()
        assert report.relevance_withheld
        summary = json.loads((out / "stats_summary.json").read_text())
        assert summary["withheld"] and summary["bugfix_clusters"] == []
        assert "Withheld" in (out / "report.md").read_text()
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "[99999]" in warnings[0].getMessage()
        annotations.write_text("cluster_id,label,description\n"
                               f"{live},BUG-FIX,live id\n99999,BUG-FIX,old id\n")
        assert not pipeline.run().relevance_withheld
        summary = json.loads((out / "stats_summary.json").read_text())
        assert not summary["withheld"] and summary["bugfix_clusters"] == [live]

    def test_only_bugfix_clusters_tested(self, small_corpus, tmp_path):
        out = tmp_path / "out"
        pipeline = Pipeline(small_config(small_corpus, out))
        ids = sorted(int(c["id"]) for c in pipeline.run().clusters)
        assert len(ids) >= 2
        refactoring, *bugfix = ids
        (out / "annotations.csv").write_text(
            f"cluster_id,label,description\n{refactoring},REFACTORING,x\n"
            + "".join(f"{cid},BUG-FIX,y\n" for cid in bugfix))
        assert not pipeline.run().relevance_withheld
        summary = json.loads((out / "stats_summary.json").read_text())
        assert summary["bugfix_clusters"] == bugfix and "untested" not in summary
        header = (out / "relevance_matrix.csv").read_text().splitlines()[0]
        assert header.split(",") == ["category"] + sorted(map(str, bugfix))
        with (out / "relevance_long.csv").open(newline="") as handle:
            long_ids = {int(row["cluster_id"]) for row in csv.DictReader(handle)}
        assert long_ids == set(bugfix)

    def test_annotations_with_a_byte_order_mark_are_tested(self, small_corpus, tmp_path):
        out = tmp_path / "out"
        annotated_pipeline(small_corpus, out)
        annotations = out / "annotations.csv"
        relevance = (out / "relevance_long.csv").read_bytes()
        annotations.write_bytes(b"\xef\xbb\xbf" + annotations.read_bytes())
        pipeline = Pipeline(small_config(small_corpus, out))
        assert not pipeline.run().relevance_withheld
        assert (out / "relevance_long.csv").read_bytes() == relevance

    def test_bad_annotation_label_rejected(self, small_corpus, tmp_path):
        config = small_config(small_corpus, tmp_path / "out")
        pipeline = Pipeline(config)
        pipeline.run_stage("ingest")
        (tmp_path / "out" / "annotations.csv").write_text(
            "cluster_id,label,description\n1,NONSENSE,x\n")
        with pytest.raises(ValueError):
            pipeline.load_annotations()


def one_cluster_pipeline(manifest, out, control_mode) -> tuple[Pipeline, int]:
    """A completed run whose one cluster, marked BUG-FIX since, holds every
    hunk: cutoff 1e9 and a minimum size of 1 keep the dendrogram's root."""
    pipeline = Pipeline(small_config(manifest, out, cutoff=1e9, min_cluster_size=1,
                                     control_mode=control_mode))
    report = pipeline.run()
    assert [c["size"] for c in report.clusters] == [report.counts["hunks"]]
    cid = report.clusters[0]["id"]
    (out / "annotations.csv").write_text(f"cluster_id,label,description\n{cid},BUG-FIX,x\n")
    return pipeline, cid


class TestUntestableCluster:
    def test_exclusive_mode_withholds_and_names_it(self, small_corpus, tmp_path, caplog):
        out = tmp_path / "out"
        pipeline, cid = one_cluster_pipeline(small_corpus, out, "exclusive")
        with caplog.at_level(logging.WARNING, logger="fixscope.pipeline"):
            assert pipeline.run().relevance_withheld
        summary = json.loads((out / "stats_summary.json").read_text())
        assert summary["withheld"] and summary["bugfix_clusters"] == []
        assert summary["untested"] == {str(cid): NO_CONTROL_GROUP}
        # the withheld headers, as when nothing is annotated
        assert (out / "relevance_matrix.csv").read_text() == "category\n"
        assert (out / "relevance_long.csv").read_text() == (
            "cluster_id,feature,category,z,p,relevant,mean,cv,q05,q25,q50,q75,q95\n")
        rendered = (out / "report.md").read_text()
        assert "\nWithheld: no BUG-FIX cluster could be tested.\n" in rendered
        assert f"\n- cluster {cid}: {NO_CONTROL_GROUP}\n" in rendered
        assert "triaged BUG-FIX yet" not in rendered
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and f"[{cid}]" in warnings[0]

    def test_inclusive_mode_tests_it_against_every_hunk(self, small_corpus, tmp_path):
        out = tmp_path / "out"
        pipeline, cid = one_cluster_pipeline(small_corpus, out, "inclusive")
        assert not pipeline.run().relevance_withheld
        summary = json.loads((out / "stats_summary.json").read_text())
        assert summary["bugfix_clusters"] == [cid] and "untested" not in summary
        contexts = [json.loads(line)["features"]
                    for line in (out / "context_vectors.jsonl").read_text().splitlines()]
        with (out / "relevance_long.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows and {row["cluster_id"] for row in rows} == {str(cid)}
        for row in rows:
            # the members and the control group are both every hunk
            values = [features.get(row["feature"], 0.0) for features in contexts]
            expected = dunn_test(values, values)
            assert (row["z"], row["p"]) == (repr(expected.z), repr(expected.p))


TRACED_RUN = """
import json, sys
import tracing
from fixscope.pipeline import PipelineConfig, run_pipeline
tracer = tracing.Tracer()
tracing.install(tracer)
report = run_pipeline(PipelineConfig(source_mode="git", source_path=sys.argv[1],
                                     min_cluster_size=3, output_dir=sys.argv[2]))
callers = [tracer.spans[parent][0] for name, _start, _end, parent in tracer.spans
           if name == "cluster.distance"]
print(json.dumps({"hunks": report.counts["hunks"], "metrics": tracer.metrics(),
                  "distance_callers": callers}))
"""


def annotated_pipeline(manifest, out) -> Pipeline:
    """A completed run of ``manifest``'s corpus with every cluster BUG-FIX."""
    pipeline = Pipeline(small_config(manifest, out))
    clusters = pipeline.run().clusters
    assert clusters
    (out / "annotations.csv").write_text("cluster_id,label,description\n" + "".join(
        f"{entry['id']},BUG-FIX,planted pattern\n" for entry in clusters))
    assert not pipeline.run().relevance_withheld
    return pipeline


class TestReportReads:
    def test_blank_lines_in_hunks_are_not_counted(self, small_corpus, tmp_path):
        out = tmp_path / "out"
        pipeline = annotated_pipeline(small_corpus, out)
        hunks = out / "hunks.jsonl"
        lines = hunks.read_bytes().splitlines(keepends=True)
        hunks.write_bytes(b"\n" + b"\n\n".join(lines) + b"\r\n\n")
        pipeline.run_stage("report", force=True)
        assert json.loads((out / "run_report.json").read_text())["counts"]["hunks"] == \
            len(lines)

    def test_a_dropped_hunk_line_does_not_reconcile(self, small_corpus, tmp_path):
        out = tmp_path / "out"
        pipeline = annotated_pipeline(small_corpus, out)
        hunks = out / "hunks.jsonl"
        hunks.write_bytes(b"".join(hunks.read_bytes().splitlines(keepends=True)[1:]))
        with pytest.raises(StageError, match="hunk counts do not reconcile"):
            pipeline.run_stage("report", force=True)

    def test_appendix_is_the_relevant_long_table_rows(self, small_corpus, tmp_path,
                                                      monkeypatch):
        import fixscope.report

        out = tmp_path / "out"
        pipeline = annotated_pipeline(small_corpus, out)
        appendices = []
        render = fixscope.report.render_report

        def capture(report, tested, rows, appendix, untested):
            appendices.append(appendix)
            return render(report, tested, rows, appendix, untested)

        monkeypatch.setattr(fixscope.report, "render_report", capture)
        pipeline.run_stage("report", force=True)
        with (out / "relevance_long.csv").open(newline="") as handle:
            expected = [row for row in csv.DictReader(handle) if row["relevant"] == "yes"]
        assert expected and appendices == [expected]

    def test_a_description_with_a_bar_or_line_breaks_keeps_its_table_row(self):
        annotations = _parse_annotations('cluster_id,label,description\n'
                                         '7,BUG-FIX,"guard a|b\nsecond line"\n'
                                         '8,REFACTORING,"one\r\ntwo\rthree|"\n')
        report = RunReport(clusters=[{"id": cid, "size": 3, **entry}
                                     for cid, entry in annotations.items()])
        rendered = render_report(report, [], [], [], {})
        table = rendered.split("## Clusters\n\n")[1].split("\n\n")[0].splitlines()
        assert table == ["| cluster | size | triage | description |",
                         "| --- | --- | --- | --- |",
                         "| 7 | 3 | BUG-FIX | guard a\\|b<br>second line |",
                         "| 8 | 3 | REFACTORING | one<br>two<br>three\\| |"]


def run_python(code: str, *args: str, paths=()) -> dict:
    """Run ``code`` in a fresh interpreter that imports the package (and
    anything under ``paths``); return the JSON object it prints last."""
    paths = [str(Path(fixscope.__file__).parents[1]), *paths]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        paths + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestBenchmarkTracing:
    def test_install_finds_every_name_it_wraps(self):
        # install wraps program names through getattr: a name deleted or
        # renamed in the package fails here, not only in a traced bench run.
        # -B keeps the interpreter from writing bytecode, so nothing is written
        bench = Path(__file__).resolve().parents[1] / "bench"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(fixscope.__file__).parents[1]), str(bench)]))
        done = subprocess.run(
            [sys.executable, "-B", "-c", "import tracing; tracing.install(tracing.Tracer())"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_traced_run_counts_every_stage(self, small_corpus, tmp_path):
        # bench/tracing.py wraps pipeline and cluster functions by name; its
        # patches last for the life of the process, hence the subprocess
        bench = Path(__file__).resolve().parents[1] / "bench"
        doc = run_python(TRACED_RUN, small_corpus["repo"], str(tmp_path / "out"),
                         paths=[str(bench)])
        assert doc["hunks"] > 0
        assert doc["metrics"]["cluster.n"] == doc["hunks"]
        assert doc["metrics"]["pipeline.stages_run"] == 6
        # each layer the pipeline calls must stay in the tracer's view
        for metric in ("grammar.parse_calls", "diffing.hunks",
                       "features.assemble_calls", "cluster.distance_s",
                       "report.render_s"):
            assert doc["metrics"][metric] > 0, metric
        # one distance table per cluster stage, shared by linkage and
        # cophenetic rather than built inside either
        assert doc["distance_callers"] == ["pipeline.stage.cluster"]
        # the tracer reports the width of the feature matrix, not of the
        # (here wider) context table
        header = (tmp_path / "out" / "feature_matrix.csv").read_text().splitlines()[0]
        assert doc["metrics"]["features.n_features"] == len(header.split(",")) - 1


GERRIT_FETCH = """
import base64, json, sys
import fixscope, fixscope.cli
from fixscope.ingest import GerritSource

def loaded():
    return [name for name in ("scipy", "requests") if name in sys.modules]

on_import = loaded()
change = {"change_id": "I1", "project": "demo", "branch": "master",
          "subject": "Fix it", "current_revision": "r1",
          "revisions": {"r1": {"files": {"m.py": {}}}}}

def transport(url):
    if "/files/" in url:
        return 200, base64.b64encode(b"x = 1\\n")
    page = [change] if "start=0" in url else []
    return 200, (")]}'\\n" + json.dumps(page)).encode()

source = GerritSource("https://review.example.org", transport=transport)
records = source.fetch_merged_changes(projects=("demo",))
[pair] = source.file_pairs([(records[0], "m.py")])
print(json.dumps({"on_import": on_import, "after_fetch": loaded(),
                  "changes": len(records), "after_text": pair.after_text}))
"""

ANNOTATED_RUN = """
import json, sys
from pathlib import Path
from fixscope.context import category_table_checksum
from fixscope.grammar import taxonomy_checksum
from fixscope.pipeline import Pipeline, PipelineConfig

# set-up as the benchmark's worker does it: the import, then the table loads
taxonomy_checksum(), category_table_checksum()
before = set(sys.modules)
masked_on_set_up = "numpy.ma" in sys.modules
out = Path(sys.argv[2])
pipeline = Pipeline(PipelineConfig(source_mode="git", source_path=sys.argv[1],
                                   min_cluster_size=3, output_dir=str(out)))
report = pipeline.run()
lines = ["cluster_id,label,description"]
lines += [f"{entry['id']},BUG-FIX,planted pattern" for entry in report.clusters]
(out / "annotations.csv").write_text("\\n".join(lines) + "\\n")
report = pipeline.run()
print(json.dumps({"new_modules": sorted(set(sys.modules) - before),
                  "masked": [masked_on_set_up, "numpy.ma" in sys.modules],
                  "clusters": len(report.clusters),
                  "withheld": report.relevance_withheld}))
"""


TREE_MODULES = """
import json, sys
import fixscope.grammar, fixscope.diffing
print(json.dumps({"numpy": "numpy" in sys.modules}))
"""


class TestStartUpImports:
    def test_the_tree_modules_load_no_numpy(self):
        # tests/interp_digest.py runs them under interpreters that may lack it
        assert run_python(TREE_MODULES) == {"numpy": False}

    def test_cli_and_injected_gerrit_transport_load_no_scipy_or_requests(self):
        doc = run_python(GERRIT_FETCH)
        assert doc["changes"] == 1 and doc["after_text"] == "x = 1\n"
        assert doc["on_import"] == []
        assert doc["after_fetch"] == []

    def test_a_full_annotated_run_imports_no_new_module(self, small_corpus, tmp_path):
        # every module a run needs loads in set-up, outside the timed stages,
        # the report module included: it no longer imports the pipeline
        doc = run_python(ANNOTATED_RUN, small_corpus["repo"], str(tmp_path / "out"))
        assert doc["clusters"] and not doc["withheld"]
        assert doc["new_modules"] == []
        # the cut and the summaries compute their own quantiles: numpy's
        # quantile code would load numpy.ma, in set-up or in a stage
        assert doc["masked"] == [False, False]


class TestPytestSession:
    def test_stops_when_pythonpath_names_another_tree(self, tmp_path):
        # pyproject.toml's pythonpath would otherwise test the checkout
        named = tmp_path / "fixscope" / "__init__.py"
        named.parent.mkdir()
        named.write_text("")
        checkout = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--collect-only",
             "tests/test_writers.py"],
            env=dict(os.environ, PYTHONPATH=str(tmp_path)),
            cwd=checkout, capture_output=True, text=True, timeout=300)
        assert done.returncode == pytest.ExitCode.USAGE_ERROR
        assert str(named.resolve()) in done.stdout
        assert str(checkout / "src" / "fixscope" / "__init__.py") in done.stdout


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["run", "--config", "/nonexistent.json"]) == 1
        capsys.readouterr()

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as err:
            cli_main(["definitely-not-a-verb"])
        assert err.value.code == 1

    def test_stage_failure_exit_code(self, tmp_path, capsys):
        # extract before ingest: missing input file -> stage failure
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "source_mode": "git", "source_path": str(tmp_path),
            "output_dir": str(tmp_path / "out")}))
        assert cli_main(["extract", "--config", str(config_path)]) == 2
        capsys.readouterr()

    def test_missing_source_is_a_stage_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", "--source", str(tmp_path / "absent"),
                         "--out", str(out)]) == 2
        assert "git log" in capsys.readouterr().err
        assert not (out / "changes.jsonl").exists()

    def _refused_gerrit_ingest(self, monkeypatch, capsys, out, flags) -> str:
        """stderr of a gerrit-mode ingest that must fail before any request."""
        urls = []
        monkeypatch.setattr(GerritSource, "_http_transport",
                            staticmethod(lambda url: urls.append(url) or (404, b"")))
        assert cli_main(["ingest", "--mode", "gerrit", "--out", str(out), *flags]) == 2
        assert urls == []
        assert not (out / "changes.jsonl").exists()
        assert not (out / "cache").exists()
        return capsys.readouterr().err

    def test_gerrit_mode_without_endpoint_is_refused(self, tmp_path, monkeypatch, capsys):
        # every query would go to a URL with no host, and be retried
        err = self._refused_gerrit_ingest(monkeypatch, capsys, tmp_path / "out",
                                          ["--project", "nova"])
        assert "--source" in err

    def test_gerrit_mode_without_project_is_refused(self, tmp_path, monkeypatch, capsys):
        # the review source queries each project, so with none ingest
        # would seal an empty scan
        err = self._refused_gerrit_ingest(monkeypatch, capsys, tmp_path / "out",
                                          ["--source", "https://review.example.org"])
        assert "--project" in err

    def test_git_mode_without_source_is_refused(self, small_corpus, tmp_path,
                                               monkeypatch, capsys):
        # without --source, git would scan whatever repository the shell is in
        out = tmp_path / "out"
        monkeypatch.chdir(small_corpus["repo"])
        assert cli_main(["run", "--out", str(out)]) == 2
        assert "--source" in capsys.readouterr().err
        assert not (out / "changes.jsonl").exists()
        # verbs that read no source still run on a completed output
        assert cli_main(["run", "--source", small_corpus["repo"], "--out", str(out),
                         "--min-size", "3"]) == 0
        for verb in ("stats", "report"):
            assert cli_main([verb, "--out", str(out), "--min-size", "3"]) == 0
        capsys.readouterr()

    def test_verbs_that_run_no_stage_leave_config_untouched(self, small_corpus,
                                                            tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", "--source", small_corpus["repo"], "--out", str(out),
                         "--min-size", "3"]) == 0
        config = (out / "config.json").read_bytes()
        cluster_id = json.loads((out / "run_report.json").read_text())["clusters"][0]["id"]
        notes = tmp_path / "notes.csv"
        notes.write_text(f"cluster_id,label,description\n{cluster_id},BUG-FIX,x\n")
        for verb in (["annotate", "--file", str(notes)],
                     ["sample", "--cluster", str(cluster_id), "--n", "1"],
                     ["export", "--stage", "cluster", "--dest", str(tmp_path / "exp")]):
            assert cli_main(verb + ["--out", str(out)]) == 0, verb[0]
            assert (out / "config.json").read_bytes() == config, verb[0]
        capsys.readouterr()

    def test_export_refuses_artifacts_their_seal_no_longer_covers(self, small_corpus,
                                                                 tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", "--source", small_corpus["repo"], "--out", str(out),
                         "--min-size", "3"]) == 0
        # export's own flags need not repeat the run's configuration
        export = ["export", "--out", str(out), "--stage", "features", "--dest"]
        assert cli_main(export + [str(tmp_path / "ok")]) == 0
        vectors = out / "feature_vectors.jsonl"
        assert (tmp_path / "ok" / vectors.name).read_bytes() == vectors.read_bytes()
        complete = vectors.read_bytes()
        vectors.write_bytes(complete[:100])
        assert cli_main(export + [str(tmp_path / "truncated")]) == 2
        assert vectors.name in capsys.readouterr().err
        assert not (tmp_path / "truncated").exists()
        vectors.write_bytes(complete)
        manifest = out / "features.manifest.json"
        sealed = json.loads(manifest.read_text())
        del sealed["outputs"]
        manifest.write_text(json.dumps(sealed))
        assert cli_main(export + [str(tmp_path / "unsealed")]) == 2
        assert not (tmp_path / "unsealed").exists()
        # a seal that names none of the artifacts, all of them gone: an
        # absent file is never a match, though both digests read None
        sealed["outputs"] = {}
        manifest.write_text(json.dumps(sealed))
        for name in ("feature_matrix.csv", "feature_vectors.jsonl", "context_matrix.csv",
                     "context_vectors.jsonl"):
            (out / name).unlink()
        assert cli_main(export + [str(tmp_path / "gone")]) == 2
        assert "no longer matches" in capsys.readouterr().err
        assert not (tmp_path / "gone").exists()

    def test_weights_growing_with_depth_are_a_usage_error(self, small_corpus, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"r": 0.5}))
        assert cli_main(["run", "--config", str(config_path), "--source",
                         small_corpus["repo"], "--out", str(out)]) == 1
        assert "r must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_rejected_annotations_are_not_installed(self, tmp_path, capsys):
        out = tmp_path / "out"
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("cluster_id,label,description\n7,BUG-FIX,kept\n")
        bad.write_text("cluster_id,label,description\n7,BOGUS,rejected\n")
        short = tmp_path / "short.csv"
        short.write_text("cluster_id,label,description\n7\n")
        no_id = tmp_path / "no_id.csv"
        no_id.write_text("label,cluster_id\nBUG-FIX\n")
        extra = tmp_path / "extra.csv"
        extra.write_text("cluster_id,label,description\n7,BUG-FIX,extra,cells\n")
        assert cli_main(["annotate", "--file", str(bad), "--out", str(out)]) == 1
        assert "fixscope: annotations line 2 has no known label: 'BOGUS'" in \
            capsys.readouterr().err
        assert not (out / "annotations.csv").exists()
        assert cli_main(["annotate", "--file", str(good), "--out", str(out)]) == 0
        for rejected in (bad, short, no_id, extra):
            assert cli_main(["annotate", "--file", str(rejected), "--out", str(out)]) == 1
        # each rejected row is named, not a traceback
        err = capsys.readouterr().err
        assert "fixscope: annotations line 2 has no known label: None" in err
        assert "fixscope: annotations line 2 has no integer cluster_id: None" in err
        assert "fixscope: annotations line 2 has more cells than the header: ['cells']" in err
        assert (out / "annotations.csv").read_bytes() == good.read_bytes()
        # a row without a description cell reads as an empty description
        bare = tmp_path / "bare.csv"
        bare.write_text("cluster_id,label,description\n7,bug-fix\n")
        assert cli_main(["annotate", "--file", str(bare), "--out", str(out)]) == 0
        capsys.readouterr()
        assert Pipeline(PipelineConfig(output_dir=str(out))).load_annotations() == {
            7: {"label": "BUG-FIX", "description": ""}}

    @pytest.mark.parametrize("first", ["40", "040"])
    def test_annotations_naming_a_cluster_twice_are_rejected(self, tmp_path, capsys,
                                                             first):
        out = tmp_path / "out"
        good, twice = tmp_path / "good.csv", tmp_path / "twice.csv"
        good.write_text("cluster_id,label,description\n7,BUG-FIX,kept\n")
        twice.write_text(f"cluster_id,label,description\n{first},BUG-FIX,x\n"
                         "40,REFACTORING,y\n")
        assert cli_main(["annotate", "--file", str(twice), "--out", str(out)]) == 1
        assert "cluster 40 more than once" in capsys.readouterr().err
        assert not out.exists()
        assert cli_main(["annotate", "--file", str(good), "--out", str(out)]) == 0
        assert cli_main(["annotate", "--file", str(twice), "--out", str(out)]) == 1
        capsys.readouterr()
        assert (out / "annotations.csv").read_bytes() == good.read_bytes()

    def test_annotations_with_a_byte_order_mark_are_installed(self, tmp_path, capsys):
        out = tmp_path / "out"
        notes = tmp_path / "notes.csv"
        notes.write_bytes(b"\xef\xbb\xbfcluster_id,label,description\r\n7,BUG-FIX,x\r\n")
        assert cli_main(["annotate", "--file", str(notes), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "annotations.csv").read_bytes() == notes.read_bytes()
        assert Pipeline(PipelineConfig(output_dir=str(out))).load_annotations() == {
            7: {"label": "BUG-FIX", "description": "x"}}

    @pytest.mark.parametrize("header, missing", [
        ("id,label,description", "cluster_id"), ("cluster_id,triage", "label")])
    def test_annotations_missing_a_column_name_it(self, tmp_path, capsys, header,
                                                  missing):
        out = tmp_path / "out"
        notes = tmp_path / "notes.csv"
        notes.write_text(f"{header}\n7,BUG-FIX,x\n")
        assert cli_main(["annotate", "--file", str(notes), "--out", str(out)]) == 1
        assert f"{missing!r} column" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, doc", [
        (["--alpha", "5"], {}), ([], {"control_mode": "bogus"}),
        (["--cutoff", "nan"], {}), (["--min-size", "0"], {}),
        ([], {"inconsistency_depth": 0}), ([], {"min_cluster_size": 2.5}),
        ([], {"keywords": "bug"}), ([], {"bonferroni": "no"}),
        # a document that is no JSON object, and weights that are no real number
        ([], []), ([], ["r", 10]), ([], {"w_type": "big"}), ([], {"r": None}),
        ([], {"c": True}), ([], {"w_role": [1]}),
        # and weights that are no finite number
        ([], {"w_type": float("nan")}), ([], {"c": float("inf")}),
        ([], {"r": float("inf")}),
        # and no keywords, and a removed key
        ([], {"keywords": []}), ([], {"word_bounded": True}),
        # and a blank keyword, which would match almost every message
        ([], {"keywords": ["bug", " "]}),
        # and the other removed key
        ([], {"case_sensitive": False})])
    def test_bad_config_values_are_a_usage_error(self, small_corpus, tmp_path, capsys,
                                                 args, doc):
        out = tmp_path / "out"
        config_path = tmp_path / "fixscope.json"
        config_path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(config_path), "--source",
                         small_corpus["repo"], "--out", str(out)] + args) == 1
        err = capsys.readouterr().err
        assert "bad configuration" in err
        if isinstance(doc, dict) and not set(doc) <= {
                f.name for f in dataclasses.fields(PipelineConfig)}:
            assert "unknown config keys" in err
        assert not out.exists()

    def test_full_run_and_sample(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["--mode", "git", "--source", small_corpus["repo"],
                "--out", str(out), "--min-size", "3"]
        assert cli_main(["run"] + args) == 0
        capsys.readouterr()
        doc = json.loads((out / "run_report.json").read_text())
        cluster_id = doc["clusters"][0]["id"]
        sample = ["sample", "--out", str(out), "--cluster", str(cluster_id)]
        assert cli_main(sample + ["--n", "2"]) == 0
        sampled = capsys.readouterr().out.strip().splitlines()
        assert len(sampled) == 2
        # --seed N prints sample_cluster's draw for seed N; the default is 0
        clusters = Pipeline(PipelineConfig(output_dir=str(out))).load_clusters()
        for seed in (0, 3):
            assert cli_main(sample + ["--n", "2", "--seed", str(seed)]) == 0
            assert capsys.readouterr().out.split() == sample_cluster(
                clusters, cluster_id, n=2, seed=seed)
        assert sampled == sample_cluster(clusters, cluster_id, n=2, seed=0)
        # no stage reads a seed, so no other verb takes one
        with pytest.raises(SystemExit) as err:
            cli_main(["run", "--seed", "1"] + args)
        assert err.value.code == 1
        capsys.readouterr()

    def test_annotate_and_export_verbs(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["--mode", "git", "--source", small_corpus["repo"],
                "--out", str(out), "--min-size", "3"]
        assert cli_main(["run"] + args) == 0
        doc = json.loads((out / "run_report.json").read_text())
        notes = tmp_path / "notes.csv"
        lines = ["cluster_id,label,description"] + [
            f"{c['id']},BUG-FIX,demo" for c in doc["clusters"]]
        notes.write_text("\n".join(lines) + "\n")
        assert cli_main(["annotate", "--file", str(notes), "--out", str(out)]) == 0
        assert cli_main(["run"] + args) == 0
        assert cli_main(["export", "--stage", "stats", "--dest", str(tmp_path / "exp"),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert (tmp_path / "exp" / "relevance_matrix.csv").exists()

    def test_sample_names_what_is_wrong(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", "--source", small_corpus["repo"], "--out", str(out),
                         "--min-size", "3"]) == 0
        cluster_id = json.loads((out / "run_report.json").read_text())["clusters"][0]["id"]
        capsys.readouterr()
        assert cli_main(["sample", "--out", str(out), "--cluster", "999999"]) == 1
        assert capsys.readouterr().err == \
            "fixscope: cluster 999999 is not in cluster_assignment.csv\n"
        for n in ("0", "-1"):
            assert cli_main(["sample", "--out", str(out), "--cluster", str(cluster_id),
                             "--n", n]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"fixscope: sample size must be at least 1, got {n}\n"


# each verb's flags; the stage verbs and run take every override, since
# each stage's manifest records the whole config
OUTPUT_FLAGS = {"--config", "--out"}
RUN_FLAGS = OUTPUT_FLAGS | {"--source", "--mode", "--project", "--branch", "--after",
                            "--before", "--min-size", "--cutoff", "--alpha", "--force"}
VERB_FLAGS = {**{verb: RUN_FLAGS for verb in (*STAGES, "run")},
              "sample": OUTPUT_FLAGS | {"--cluster", "--n", "--seed"},
              "annotate": OUTPUT_FLAGS | {"--file"},
              "export": OUTPUT_FLAGS | {"--stage", "--dest"}}


class TestCliFlags:
    def test_each_verb_takes_exactly_its_flags(self):
        [verbs] = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
        flags = {verb: {option for action in parser._actions
                        for option in action.option_strings} - {"-h", "--help"}
                 for verb, parser in verbs.items()}
        assert flags == VERB_FLAGS
        assert sum(len(options) for options in flags.values()) == 96

    @pytest.mark.parametrize("verb", [
        ["sample", "--cluster", "1", "--source", "x"],
        ["annotate", "--file", "notes.csv", "--alpha", "0.1"],
        ["export", "--stage", "cluster", "--dest", "exp", "--force"]])
    def test_an_override_on_a_verb_that_reads_none_is_a_usage_error(self, tmp_path,
                                                                     monkeypatch, capsys,
                                                                     verb):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            cli_main(verb + ["--out", str(tmp_path / "out")])
        assert err.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestPublicNames:
    def test_every_name_in_a_modules_all_exists(self):
        import importlib
        import pkgutil

        listed = 0
        for module_info in pkgutil.iter_modules(fixscope.__path__):
            module = importlib.import_module(f"fixscope.{module_info.name}")
            names = getattr(module, "__all__", ())
            assert [n for n in names if not hasattr(module, n)] == [], module.__name__
            listed += len(names)
        assert listed


CALL_PROFILE = """
import csv, importlib, inspect, json, pkgutil, sys
from pathlib import Path

codes = set()


def profile(frame, event, _arg):
    if event == "call":
        codes.add(frame.f_code)


sys.setprofile(profile)
import fixscope.cli

repo, work = sys.argv[1], Path(sys.argv[2])
out = str(work / "out")
flags = ["--source", repo, "--out", out, "--min-size", "3"]
main = fixscope.cli.main
exits = [main(["run", *flags])]
with open(work / "out" / "cluster_assignment.csv", newline="") as handle:
    ids = sorted({row["cluster_id"] for row in csv.DictReader(handle) if row["cluster_id"]})
(work / "triage.csv").write_text("cluster_id,label,description\\n" + "".join(
    f"{cid},BUG-FIX,planted pattern\\n" for cid in ids))
exits.append(main(["annotate", "--file", str(work / "triage.csv"), "--out", out]))
exits.append(main(["run", *flags]))
for stage in fixscope.cli.STAGES:
    exits.append(main([stage, *flags, "--force"]))
exits.append(main(["sample", "--cluster", ids[0], "--out", out]))
exits.append(main(["export", "--stage", "cluster", "--dest", str(work / "export"),
                   "--out", out]))
try:
    main(["sample", "--out", out])
except SystemExit as exc:
    exits.append(exc.code)
sys.setprofile(None)


def public_methods(cls):
    for name, member in vars(cls).items():
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        elif isinstance(member, property):
            member = member.fget
        if not name.startswith("_") and inspect.isfunction(member):
            yield name, member


unreached = []
for module in [fixscope, *(importlib.import_module(f"fixscope.{info.name}")
                           for info in pkgutil.iter_modules(fixscope.__path__))]:
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue  # imported, not defined here
        members = public_methods(value) if inspect.isclass(value) else [("", value)]
        for attr, function in members:
            function = inspect.unwrap(function)
            if inspect.isfunction(function) and function.__code__ not in codes:
                unreached.append(".".join(filter(None, (module.__name__, name, attr))))
print(json.dumps({"exits": exits, "unreached": sorted(unreached), "clusters": len(ids)}))
"""

# what no verb reaches, and why it may stay; an entry names a function,
# a class (its public methods) or a module (everything defined in it)
UNREACHED_BY_VERBS = {
    "fixscope.ingest.GerritSource": "the review source needs a network",
    "fixscope.ingest.ContentCache": "it caches the review source's content",
    # TestBenchmarkTracing pins the names bench/tracing.py wraps
    "fixscope.cluster.single_linkage_rows": "bench/tracing.py wraps it by name",
    "fixscope.cluster.cophenetic_coefficient_rows": "bench/tracing.py wraps it by name",
    "fixscope.ingest.GitSource.fetch_file_pair": "bench/tracing.py wraps it by name",
    "fixscope.stats.dunn_test": "bench/tracing.py wraps it by name",
    "fixscope.democorpus": "bench/workloads.py hashes it, bench/worker.py imports it",
}


class TestEveryFunctionIsReached:
    def test_the_verbs_call_every_function(self, small_corpus, tmp_path):
        # the profile hook is set before the package is imported, so a
        # function called at import time counts too; every module-level
        # function is checked, and of a class its public methods
        doc = run_python(CALL_PROFILE, small_corpus["repo"], str(tmp_path))
        assert doc["clusters"] > 0
        # run, annotate, a warm run, the six stages, sample and export
        # succeed; sample without --cluster is a usage error
        assert doc["exits"] == [0] * 11 + [1]

        def entry(name):
            return next((allowed for allowed in UNREACHED_BY_VERBS
                         if name == allowed or name.startswith(allowed + ".")), None)

        assert [name for name in doc["unreached"] if entry(name) is None] == []
        # an entry that names only reached code is stale
        assert set(map(entry, doc["unreached"])) == set(UNREACHED_BY_VERBS)
