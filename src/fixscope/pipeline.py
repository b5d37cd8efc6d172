"""Pipeline orchestration: ingest -> extract -> features -> cluster ->
stats -> report, with checkpointed, byte-stable stage artifacts.

Every stage writes its outputs plus a manifest recording the config and
the digests of its inputs; a rerun skips stages whose manifests still
match, so interrupted runs resume from the last valid checkpoint.  All
artifacts are deterministic functions of (config, cached inputs,
annotations): no timestamps, sorted keys, repr-formatted floats.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import shutil
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fixscope import cluster as fc
from fixscope import stats as fstats
from fixscope.context import CATEGORIES, category_table_checksum, extract_context
from fixscope.diffing import (
    align_versions,
    build_diff_ast,
    extract_hunks,
    hunk_from_dict,
    hunk_to_dict,
)
from fixscope.features import (
    FeatureVector,
    WeightConfig,
    assemble_matrix,
    hunk_feature_vector,
    matrix_to_csv,
    vectors_to_jsonl,
)
from fixscope.grammar import parse_source, taxonomy_checksum
from fixscope.ingest import (
    DEFAULT_KEYWORDS,
    ChangeRecord,
    ContentCache,
    GerritSource,
    GitSource,
    exclude_test_files,
    keyword_filter,
)

logger = logging.getLogger(__name__)

__all__ = [
    "STAGES",
    "PipelineConfig",
    "RunReport",
    "StageError",
    "MissingCheckpointError",
    "Pipeline",
    "run_pipeline",
    "export_dataset",
]

STAGES = ("ingest", "extract", "features", "cluster", "stats", "report")

STAGE_ARTIFACTS = {
    "ingest": ("changes.jsonl", "ingest_counts.json"),
    "extract": ("hunks.jsonl", "extract_counts.json"),
    "features": ("feature_matrix.csv", "feature_vectors.jsonl",
                 "context_matrix.csv", "context_vectors.jsonl"),
    "cluster": ("dendrogram.json", "cluster_assignment.csv",
                "clustering_summary.json"),
    "stats": ("relevance_matrix.csv", "relevance_long.csv", "stats_summary.json"),
    "report": ("run_report.json", "report.md"),
}

STAGE_INPUTS = {
    "ingest": (),
    "extract": ("changes.jsonl",),
    "features": ("hunks.jsonl",),
    "cluster": ("feature_vectors.jsonl",),
    "stats": ("cluster_assignment.csv", "context_vectors.jsonl",
              "annotations.csv"),
    "report": ("ingest_counts.json", "extract_counts.json",
               "clustering_summary.json", "relevance_matrix.csv",
               "relevance_long.csv", "annotations.csv"),
}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


class MissingCheckpointError(FileNotFoundError):
    """Requested a stage export before the stage has run."""


@dataclass
class PipelineConfig:
    """Fully serializable run configuration, echoed into every report."""

    version: str = "1"
    source_mode: str = "git"  # "git" or "gerrit"
    source_path: str = ""
    endpoint: str = ""
    projects: tuple[str, ...] = ()
    branches: tuple[str, ...] = ()
    after: str = ""
    before: str = ""
    merges_only: bool = False
    keywords: tuple[str, ...] = DEFAULT_KEYWORDS
    case_sensitive: bool = False
    word_bounded: bool = False
    test_markers: tuple[str, ...] = ("test", "tests")
    w_type: float = 1e15
    w_role: float = 1e15
    r: float = 10.0
    c: float = 0.1
    inconsistency_depth: int = 2
    min_cluster_size: int = 10
    cutoff: float | None = None
    alpha: float = 0.05
    control_mode: str = "exclusive"
    bonferroni: bool = False
    seed: int = 0
    output_dir: str = "fixscope-out"
    cache_dir: str = ""

    def __post_init__(self):
        if self.source_mode not in ("git", "gerrit"):
            raise ValueError(f"unknown source_mode {self.source_mode!r}")
        self.projects = tuple(self.projects)
        self.branches = tuple(self.branches)
        self.keywords = tuple(self.keywords)
        self.test_markers = tuple(self.test_markers)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        for key in ("projects", "branches", "keywords", "test_markers"):
            doc[key] = list(doc[key])
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    @property
    def weights(self) -> WeightConfig:
        return WeightConfig(w_type=self.w_type, w_role=self.w_role,
                            r=self.r, c=self.c)


@dataclass
class RunReport:
    counts: dict = field(default_factory=dict)
    cophenetic: float | None = None
    cutoff: float | None = None
    clusters: list = field(default_factory=list)
    category_distribution: dict = field(default_factory=dict)
    relevance_withheld: bool = True
    config: dict = field(default_factory=dict)
    taxonomy_checksum: str = ""
    category_table_checksum: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pipeline:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out = Path(config.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "config.json").write_text(_json_dumps(config.to_dict()))

    # -- checkpointing

    def _manifest_path(self, stage: str) -> Path:
        return self.out / f"{stage}.manifest.json"

    def _fingerprint(self, stage: str) -> dict:
        inputs = {}
        for name in STAGE_INPUTS[stage]:
            path = self.out / name
            inputs[name] = _sha256_file(path) if path.exists() else None
        return {"stage": stage, "config": self.config.to_dict(), "inputs": inputs}

    def _is_current(self, stage: str) -> bool:
        manifest = self._manifest_path(stage)
        if not manifest.exists():
            return False
        for name in STAGE_ARTIFACTS[stage]:
            if not (self.out / name).exists():
                return False
        try:
            stored = json.loads(manifest.read_text())
        except json.JSONDecodeError:
            return False
        return stored == self._fingerprint(stage)

    def _seal(self, stage: str):
        self._manifest_path(stage).write_text(_json_dumps(self._fingerprint(stage)))

    # -- driving

    def run(self, stages: tuple[str, ...] = STAGES, force: bool = False) -> RunReport:
        for stage in stages:
            self.run_stage(stage, force=force)
        report_path = self.out / "run_report.json"
        if report_path.exists():
            doc = json.loads(report_path.read_text())
            return RunReport(**doc)
        return RunReport(config=self.config.to_dict())

    def run_stage(self, stage: str, force: bool = False):
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        if not force and self._is_current(stage):
            logger.info("stage %s is current; skipping", stage)
            return
        logger.info("running stage %s", stage)
        # a crash below must not leave the previous run's seal vouching
        # for half-written artifacts
        self._manifest_path(stage).unlink(missing_ok=True)
        try:
            getattr(self, f"_stage_{stage}")()
        except Exception as exc:
            raise StageError(stage, exc) from exc
        self._seal(stage)

    def _source(self):
        cfg = self.config
        if cfg.source_mode == "git":
            return GitSource(cfg.source_path)
        # only remote content is cached: git's object store is already local
        cache_dir = Path(cfg.cache_dir) if cfg.cache_dir else self.out / "cache"
        return GerritSource(cfg.endpoint, cache=ContentCache(cache_dir))

    # -- stages

    def _stage_ingest(self):
        cfg = self.config
        source = self._source()
        if cfg.source_mode == "git":
            records = source.fetch_merged_changes(
                projects=cfg.projects, branches=cfg.branches,
                after=cfg.after or None, before=cfg.before or None,
                merges_only=cfg.merges_only)
        else:
            records = source.fetch_merged_changes(
                projects=cfg.projects, branches=cfg.branches,
                after=cfg.after or None, before=cfg.before or None)
        matched = [r for r in records
                   if keyword_filter(r.message, cfg.keywords,
                                     cfg.case_sensitive, cfg.word_bounded)]
        rows = []
        files_total = 0
        files_retained = 0
        fetched = 0
        missing = 0
        for record in matched:
            python_files = [p for p in record.files if p.endswith(".py")]
            files_total += len(record.files)
            retained = exclude_test_files(python_files, cfg.test_markers)
            files_retained += len(retained)
            for path in retained:
                if source.has_content(record, path):
                    fetched += 1
                else:
                    missing += 1
            rows.append({
                "change_id": record.change_id,
                "project": record.project,
                "branch": record.branch,
                "revision": record.revision,
                "message": record.message,
                "created": record.created,
                "files": list(retained),
            })
        lines = [json.dumps(row, sort_keys=True) for row in rows]
        (self.out / "changes.jsonl").write_text(
            "\n".join(lines) + ("\n" if lines else ""))
        counts = {
            "changes_total": len(records),
            "changes_matched": len(matched),
            "files_total": files_total,
            "files_retained": files_retained,
            "files_fetched": fetched,
            "files_missing": missing,
        }
        (self.out / "ingest_counts.json").write_text(_json_dumps(counts))

    def _stage_extract(self):
        items = []
        for line in (self.out / "changes.jsonl").read_text().splitlines():
            if not line:
                continue
            change = json.loads(line)
            record = ChangeRecord(
                change_id=change["change_id"], project=change["project"],
                branch=change["branch"], revision=change["revision"],
                message=change["message"], files=tuple(change["files"]),
                created=change.get("created", ""))
            items.extend((record, path) for path in record.files)
        hunk_docs = []
        skipped = []
        counts = {"files_considered": len(items), "files_parsed": 0,
                  "files_skipped_syntax": 0, "files_missing": 0,
                  "alignment_conflicts": 0, "hunks": 0}
        with closing(self._source().file_pairs(items)) as pairs:
            for (record, path), pair in zip(items, pairs):
                if pair is None:
                    counts["files_missing"] += 1
                    continue
                try:
                    before = parse_source(pair.before_text)
                    after = parse_source(pair.after_text)
                except SyntaxError as err:
                    counts["files_skipped_syntax"] += 1
                    skipped.append({"change_id": record.change_id, "path": path,
                                    "line": err.lineno})
                    continue
                counts["files_parsed"] += 1
                script = align_versions(pair.before_text, pair.after_text)
                enhanced = build_diff_ast(before, after, script,
                                          change_id=record.change_id, path=path)
                counts["alignment_conflicts"] += len(enhanced.conflicts)
                for hunk in extract_hunks(enhanced):
                    doc = hunk_to_dict(hunk)
                    doc["change_id"] = record.change_id
                    doc["path"] = path
                    doc["context"] = {k: v for k, v
                                      in sorted(extract_context(hunk).as_dict().items())}
                    hunk_docs.append(doc)
                    counts["hunks"] += 1
        lines = [json.dumps(doc, sort_keys=True) for doc in hunk_docs]
        (self.out / "hunks.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""))
        counts["skipped_files"] = skipped
        # a modified node always yields a Minus+Plus pair (no update label)
        counts["update_label_policy"] = "minus-plus-pair"
        (self.out / "extract_counts.json").write_text(_json_dumps(counts))

    def _load_hunk_docs(self) -> list[dict]:
        text = (self.out / "hunks.jsonl").read_text()
        return [json.loads(line) for line in text.splitlines() if line]

    def _stage_features(self):
        cfg = self.config
        docs = self._load_hunk_docs()
        vectors = []
        context_rows = []
        for doc in docs:
            hunk = hunk_from_dict(doc)
            vectors.append(hunk_feature_vector(hunk, cfg.weights))
            context_rows.append({"hunk_id": doc["id"], "features": doc["context"]})
        matrix = assemble_matrix(vectors)
        (self.out / "feature_matrix.csv").write_text(matrix_to_csv(matrix))
        (self.out / "feature_vectors.jsonl").write_text(vectors_to_jsonl(vectors))
        ctx_lines = [json.dumps(row, sort_keys=True) for row in context_rows]
        (self.out / "context_vectors.jsonl").write_text(
            "\n".join(ctx_lines) + ("\n" if ctx_lines else ""))
        ctx_names = sorted({name for row in context_rows for name in row["features"]})
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["hunk_id"] + ctx_names)
        for row in context_rows:
            feats = row["features"]
            writer.writerow([row["hunk_id"]] +
                            [repr(float(feats.get(n, 0.0))) for n in ctx_names])
        (self.out / "context_matrix.csv").write_text(out.getvalue())

    def _load_feature_vectors(self) -> list[FeatureVector]:
        text = (self.out / "feature_vectors.jsonl").read_text()
        vectors = []
        for line in text.splitlines():
            if not line:
                continue
            doc = json.loads(line)
            vectors.append(FeatureVector(hunk_id=doc["hunk_id"],
                                         entries=dict(doc["features"])))
        return vectors

    def _stage_cluster(self):
        cfg = self.config
        vectors = self._load_feature_vectors()
        summary = {
            "n_hunks": len(vectors), "n_features": 0,
            "cophenetic": None, "cophenetic_degenerate": False,
            "cutoff": None, "cutoff_source": None,
            "inconsistency_depth": cfg.inconsistency_depth,
            "min_cluster_size": cfg.min_cluster_size,
            "n_clusters": 0, "cluster_sizes": {},
        }
        if not vectors:
            (self.out / "dendrogram.json").write_text(_json_dumps({"n_leaves": 0,
                                                                   "merges": []}))
            self._write_assignment({}, [])
            (self.out / "clustering_summary.json").write_text(_json_dumps(summary))
            return
        matrix = assemble_matrix(vectors)
        summary["n_features"] = len(matrix.feature_names)
        dendrogram = fc.single_linkage_rows(matrix.values)
        cophenetic = fc.cophenetic_coefficient_rows(dendrogram, matrix.values)
        if math.isnan(cophenetic):
            summary["cophenetic_degenerate"] = True
        else:
            summary["cophenetic"] = cophenetic
        coefs = fc.inconsistency_coefficients(dendrogram, cfg.inconsistency_depth)
        if cfg.cutoff is not None:
            cutoff = cfg.cutoff
            summary["cutoff_source"] = "config"
        else:
            try:
                cutoff = fc.select_cutoff(coefs)
                summary["cutoff_source"] = "automatic"
            except fc.AllZeroError:
                # undefined cutoff: everything lands in a single cluster
                cutoff = float(np.max(coefs)) + 1.0 if len(coefs) else 1.0
                summary["cutoff_source"] = "all-zero-single-cluster"
        summary["cutoff"] = cutoff
        assignment = fc.cut_clusters(dendrogram, coefs, cutoff,
                                     cfg.min_cluster_size, labels=matrix.hunk_ids)
        summary["n_clusters"] = len(assignment.clusters)
        summary["cluster_sizes"] = {str(cid): len(members)
                                    for cid, members in sorted(assignment.clusters.items())}
        (self.out / "dendrogram.json").write_text(fc.dendrogram_to_json(dendrogram) + "\n")
        self._write_assignment(assignment.clusters, matrix.hunk_ids)
        (self.out / "clustering_summary.json").write_text(_json_dumps(summary))

    def _write_assignment(self, clusters: dict, hunk_ids: list):
        by_hunk = {}
        for cid, members in clusters.items():
            for hunk_id in members:
                by_hunk[hunk_id] = cid
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["hunk_id", "cluster_id"])
        for hunk_id in hunk_ids:
            cid = by_hunk.get(hunk_id)
            writer.writerow([hunk_id, "" if cid is None else cid])
        (self.out / "cluster_assignment.csv").write_text(out.getvalue())

    def load_clusters(self) -> dict[int, tuple]:
        path = self.out / "cluster_assignment.csv"
        if not path.exists():
            raise MissingCheckpointError("cluster stage has not run")
        clusters: dict[int, list] = {}
        with path.open() as handle:
            for row in csv.DictReader(handle):
                if row["cluster_id"]:
                    clusters.setdefault(int(row["cluster_id"]), []).append(row["hunk_id"])
        return {cid: tuple(members) for cid, members in clusters.items()}

    def load_annotations(self, path: Path | None = None) -> dict[int, dict]:
        """cluster_id -> {label, description} from an annotation CSV, by
        default the one installed in the output directory.  A row with an
        unknown label raises ``ValueError``."""
        path = self.out / "annotations.csv" if path is None else path
        if not path.exists():
            return {}
        annotations = {}
        with path.open() as handle:
            for row in csv.DictReader(handle):
                # a row shorter than the header reads its label as None
                label = (row["label"] or "").strip().upper()
                fc.TriageLabel(label)  # validates
                annotations[int(row["cluster_id"])] = {
                    "label": label,
                    "description": row.get("description", "").strip(),
                }
        return annotations

    def _stage_stats(self):
        cfg = self.config
        clusters = self.load_clusters()
        annotations = self.load_annotations()
        context_data = {}
        text = (self.out / "context_vectors.jsonl").read_text()
        for line in text.splitlines():
            if not line:
                continue
            doc = json.loads(line)
            context_data[doc["hunk_id"]] = doc["features"]
        triage = {cid: meta["label"] for cid, meta in annotations.items()}
        bugfix = [cid for cid, label in triage.items() if label == "BUG-FIX"]
        # cluster ids are dendrogram node ids, so a re-cluster can leave an
        # annotation naming a cluster that no longer exists
        stale = sorted(cid for cid in bugfix if cid not in clusters)
        if stale:
            logger.warning("annotations.csv marks BUG-FIX clusters absent from "
                           "cluster_assignment.csv, not tested: %s", stale)
            bugfix = [cid for cid in bugfix if cid in clusters]
        summary = {"withheld": not bugfix, "alpha": cfg.alpha,
                   "control_mode": cfg.control_mode, "bonferroni": cfg.bonferroni,
                   "bugfix_clusters": sorted(bugfix)}
        if not bugfix:
            self._write_relevance(None)
            (self.out / "stats_summary.json").write_text(_json_dumps(summary))
            return
        matrix = fstats.relevance_matrix(
            clusters, triage, context_data, alpha=cfg.alpha,
            control_mode=cfg.control_mode, bonferroni=cfg.bonferroni)
        self._write_relevance(matrix)
        (self.out / "stats_summary.json").write_text(_json_dumps(summary))

    def _write_relevance(self, matrix):
        matrix_out = io.StringIO()
        writer = csv.writer(matrix_out, lineterminator="\n")
        long_out = io.StringIO()
        long_writer = csv.writer(long_out, lineterminator="\n")
        long_writer.writerow(["cluster_id", "feature", "category", "z", "p",
                              "relevant", "mean", "cv", "q05", "q25", "q50",
                              "q75", "q95"])
        if matrix is None:
            writer.writerow(["category"])
        else:
            writer.writerow(["category"] + [str(c) for c in matrix.cluster_ids])
            for category in CATEGORIES:
                writer.writerow([category] + [
                    "yes" if matrix.relevant(category, cid) else ""
                    for cid in matrix.cluster_ids])
            for record in matrix.records:
                s = record.summary
                long_writer.writerow([
                    record.cluster_id, record.feature, record.category,
                    repr(record.z), repr(record.p),
                    "yes" if record.relevant else "no",
                    repr(s.mean), "" if not s.cv_defined else repr(s.cv),
                    repr(s.quantiles[0.05]), repr(s.quantiles[0.25]),
                    repr(s.quantiles[0.50]), repr(s.quantiles[0.75]),
                    repr(s.quantiles[0.95]),
                ])
        (self.out / "relevance_matrix.csv").write_text(matrix_out.getvalue())
        (self.out / "relevance_long.csv").write_text(long_out.getvalue())

    def _stage_report(self):
        from fixscope.report import render_report

        ingest_counts = json.loads((self.out / "ingest_counts.json").read_text())
        extract_counts = json.loads((self.out / "extract_counts.json").read_text())
        clustering = json.loads((self.out / "clustering_summary.json").read_text())
        annotations = self.load_annotations()
        clusters = self.load_clusters()
        hunk_totals = {}
        for doc in self._load_hunk_docs():
            key = f"{doc['change_id']}:{doc['path']}"
            hunk_totals[key] = hunk_totals.get(key, 0) + 1
        if sum(hunk_totals.values()) != extract_counts["hunks"]:
            raise AssertionError("hunk counts do not reconcile")
        cluster_rows = []
        for cid, members in sorted(clusters.items()):
            meta = annotations.get(cid, {})
            cluster_rows.append({
                "id": cid,
                "size": len(members),
                "label": meta.get("label", fc.TriageLabel.UNREVIEWED.value),
                "description": meta.get("description", ""),
            })
        category_distribution = {category: 0 for category in CATEGORIES}
        relevance_rows = []
        relevance_path = self.out / "relevance_matrix.csv"
        with relevance_path.open() as handle:
            reader = csv.reader(handle)
            header = next(reader)
            for row in reader:
                relevance_rows.append(row)
                category_distribution[row[0]] = sum(1 for cell in row[1:] if cell)
        withheld = json.loads(
            (self.out / "stats_summary.json").read_text())["withheld"]
        report = RunReport(
            counts={
                "changes": ingest_counts["changes_matched"],
                "changes_scanned": ingest_counts["changes_total"],
                "files": ingest_counts["files_retained"],
                "parsed": extract_counts["files_parsed"],
                "skipped": extract_counts["files_skipped_syntax"],
                "hunks": extract_counts["hunks"],
            },
            cophenetic=clustering["cophenetic"],
            cutoff=clustering["cutoff"],
            clusters=cluster_rows,
            category_distribution=category_distribution,
            relevance_withheld=withheld,
            config=self.config.to_dict(),
            taxonomy_checksum=taxonomy_checksum(),
            category_table_checksum=category_table_checksum(),
        )
        (self.out / "run_report.json").write_text(_json_dumps(report.to_dict()))
        (self.out / "report.md").write_text(
            render_report(report, header[1:] if len(header) > 1 else [],
                          relevance_rows, self._relevance_appendix()))

    def _relevance_appendix(self) -> list[dict]:
        rows = []
        with (self.out / "relevance_long.csv").open() as handle:
            for row in csv.DictReader(handle):
                if row["relevant"] == "yes":
                    rows.append(row)
        return rows


def run_pipeline(config: PipelineConfig, force: bool = False) -> RunReport:
    """Execute all stages and return the run report."""
    return Pipeline(config).run(force=force)


def export_dataset(config: PipelineConfig, stage: str, dest: str | Path) -> list[Path]:
    """Copy a completed stage's artifacts to ``dest``; byte-stable."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    out = Path(config.output_dir)
    dest = Path(dest)
    manifest = out / f"{stage}.manifest.json"
    if not manifest.exists():
        raise MissingCheckpointError(f"stage {stage!r} has no checkpoint")
    dest.mkdir(parents=True, exist_ok=True)
    copied = []
    for name in STAGE_ARTIFACTS[stage]:
        source = out / name
        if source.exists():
            target = dest / name
            shutil.copyfile(source, target)
            copied.append(target)
    return copied
