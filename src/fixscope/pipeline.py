"""Pipeline orchestration: ingest -> extract -> features -> cluster ->
stats -> report, with checkpointed, byte-stable stage artifacts.

Artifacts pass through one small store inside ``Pipeline``.  A stage
reads only through ``_read_bytes`` (or its ``_read``, ``_read_json``,
``_read_jsonl`` and ``_read_csv`` wrappers), which records the sha256 of
the bytes it returned, or None for an absent file.  A stage returns its
outputs as ``{artifact name: text}``; ``run_stage`` checks the names
against ``STAGE_ARTIFACTS``, writes each text as UTF-8 to a ``.partial``
file that ``os.replace`` moves into place, and seals the stage with a
manifest holding the config, the recorded reads and the digests of the
outputs.
A stage is current while its manifest matches the config and every file
it names still hashes the same, so a truncated or hand-edited artifact
makes its stage, and each stage that read it, rerun; interrupted runs
resume from the last valid checkpoint.  That check and
``export_dataset`` read a manifest through ``_sealed`` and the files it
names through ``_files``.  ``config.json`` is written only
when a stage runs, once per ``Pipeline``: by the first stage it runs.
All artifacts are deterministic functions of
(config, cached inputs, annotations): no timestamps, sorted keys,
repr-formatted floats.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from fixscope import cluster as fc
from fixscope import report as freport
from fixscope import stats as fstats
from fixscope.context import (
    CATEGORIES,
    category_table_checksum,
    context_matrix,
    extract_context,
)
from fixscope.diffing import (
    align_versions,
    build_diff_ast,
    extract_hunks,
    hunk_from_dict,
    hunk_to_dict,
    line_maps,
)
from fixscope.features import (
    FeatureVector,
    WeightConfig,
    assemble_matrix,
    hunk_feature_vector,
)
from fixscope.grammar import parse_source, taxonomy_checksum
from fixscope.ingest import (
    DEFAULT_KEYWORDS,
    ChangeRecord,
    ContentCache,
    FilePair,
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
    "ExtractedFile",
    "extract_file",
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

# why a BUG-FIX cluster got no column, as stats_summary.json and report.md say it
NO_CONTROL_GROUP = "it holds every hunk, so its exclusive control group is empty"


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
    keywords: tuple[str, ...] = DEFAULT_KEYWORDS
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
    output_dir: str = "fixscope-out"
    cache_dir: str = ""

    def __post_init__(self):
        if self.version != "1":
            raise ValueError(f"unknown config version {self.version!r}")
        for name in ("source_path", "endpoint", "after", "before", "output_dir",
                     "cache_dir"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if self.source_mode not in ("git", "gerrit"):
            raise ValueError(f"unknown source_mode {self.source_mode!r}")
        if self.control_mode not in ("exclusive", "inclusive"):
            raise ValueError(f"unknown control_mode {self.control_mode!r}")
        if not (isinstance(self.alpha, (int, float)) and 0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        # a bool is an int, and true would load as 1
        for name in ("inconsistency_depth", "min_cluster_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, int) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.cutoff is not None and (isinstance(self.cutoff, bool) or not (
                isinstance(self.cutoff, (int, float)) and math.isfinite(self.cutoff))):
            raise ValueError(f"cutoff must be a finite number or null, got {self.cutoff!r}")
        for name in ("projects", "branches", "keywords"):
            value = getattr(self, name)
            # a lone string would load as a tuple of its characters
            if not (isinstance(value, (list, tuple))
                    and all(isinstance(item, str) for item in value)):
                raise ValueError(f"{name} must be a list of strings, got {value!r}")
            setattr(self, name, tuple(value))
        if not isinstance(self.bonferroni, bool):  # "no" would switch it on
            raise ValueError(f"bonferroni must be true or false, got {self.bonferroni!r}")
        if not self.keywords:
            raise ValueError("keywords is empty, so ingest would keep no change")
        for keyword in self.keywords:
            if not keyword.strip():  # as a substring it is in nearly every message
                raise ValueError(f"keyword {keyword!r} is blank, so it would match "
                                 "almost any message")
        # built here, so bad weights are a configuration error at load
        self.weights = WeightConfig(w_type=self.w_type, w_role=self.w_role,
                                    r=self.r, c=self.c)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        for key in ("projects", "branches", "keywords"):
            doc[key] = list(doc[key])
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


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
    """The text of every ``.json`` artifact, manifest and ``config.json``."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _jsonl_line(doc) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _jsonl(docs) -> str:
    return "".join(map(_jsonl_line, docs))


def _csv(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _matrix_rows(matrix):
    """A dense table's CSV rows, one at a time: hunk_id and the feature
    names, then each hunk's id and values (floats print as their repr)."""
    yield ["hunk_id", *matrix.feature_names]
    for hunk_id, row in zip(matrix.hunk_ids, matrix.values):
        yield [hunk_id, *row.tolist()]


def _csv_records(text: str) -> list[dict]:
    # newline=None reads the text as a file opened in text mode would
    return list(csv.DictReader(io.StringIO(text, newline=None)))


def _digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _manifest(stage: str) -> str:
    return f"{stage}.manifest.json"


def _parse_annotations(text: str) -> dict[int, dict]:
    """cluster_id -> {label, description}; a missing column, a row with
    an unknown label, no integer cluster id or more cells than the header,
    or a cluster id named twice (``040`` and ``40`` are one id) raises
    ``ValueError``.  A leading UTF-8 byte order mark, which spreadsheet
    tools write, is ignored."""
    rows = csv.DictReader(io.StringIO(text.removeprefix("\ufeff"), newline=None))
    for name in ("cluster_id", "label"):
        # an empty file has no header and no rows
        if rows.fieldnames is not None and name not in rows.fieldnames:
            raise ValueError(f"annotations lack a {name!r} column")
    annotations = {}
    for row in rows:
        if None in row:  # DictReader's key for the cells past the header
            raise ValueError(f"annotations line {rows.line_num} has more cells than "
                             f"the header: {row[None]!r}")
        # a row shorter than the header reads its missing cells as None
        label = (row["label"] or "").strip().upper()
        try:
            fc.TriageLabel(label)
        except ValueError:
            raise ValueError(f"annotations line {rows.line_num} has no known label: "
                             f"{row['label']!r}") from None
        try:
            cid = int(row["cluster_id"] or "")
        except ValueError:
            raise ValueError(f"annotations line {rows.line_num} has no integer cluster_id: "
                             f"{row['cluster_id']!r}") from None
        if cid in annotations:
            raise ValueError(f"annotations name cluster {cid} more than once")
        annotations[cid] = {
            "label": label,
            "description": (row.get("description") or "").strip(),
        }
    return annotations


def _relevant_cells(matrix: fstats.ContextRelevanceMatrix) -> set[tuple[str, object]]:
    """(category, cluster id) of each category that holds a relevant
    feature of a tested cluster: one pass over each column's ``relevant``
    list, so a cell's mark is a set lookup."""
    return {(category, col.cluster_id) for col in matrix.columns
            for category, hit in zip(matrix.feature_categories, col.relevant) if hit}


class ExtractedFile(NamedTuple):
    """One file pair's share of the extract stage."""

    lines: list[str]  # its hunks.jsonl lines, in hunk order
    conflicts: int
    skipped: dict | None  # its skipped_files entry, for a file skipped


def extract_file(pair: FilePair) -> ExtractedFile:
    """Align, parse, join and cut one file pair into hunks, and serialize
    each hunk with its context.  Pure function of the pair.

    The line script comes first: statements on lines it leaves untouched
    parse as stubs, which the join pairs whole or converts on demand.  A
    file the taxonomy cannot represent is skipped, with its error's line.
    """
    before_text, after_text = pair.before_text, pair.after_text
    change_id, path = pair.change_id, pair.path
    try:
        tables = line_maps(align_versions(before_text, after_text), before_text, after_text)
        before = parse_source(before_text, tables[0].stub_test)
        after = parse_source(after_text, tables[1].stub_test)
        enhanced = build_diff_ast(before, after, tables, change_id=change_id, path=path)
        # a labeled subtree too high for hunks.jsonl skips the file
        hunks = extract_hunks(enhanced)
    except SyntaxError as err:
        return ExtractedFile([], 0, {"change_id": change_id, "path": path,
                                     "line": err.lineno})
    lines = []
    for hunk in hunks:
        doc = hunk_to_dict(hunk)
        doc["change_id"] = change_id
        doc["path"] = path
        doc["context"] = extract_context(hunk)
        lines.append(_jsonl_line(doc))
    return ExtractedFile(lines, len(enhanced.conflicts), None)


class Pipeline:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out = Path(config.output_dir)
        # the config is fixed for this pipeline's life: every manifest, every
        # currency check and the report echo the one dict built here
        self._config_doc = config.to_dict()
        # artifact name -> sha256 of what the running stage read (None for
        # an absent file), and of what this pipeline last wrote
        self._reads: dict[str, str | None] = {}
        self._writes: dict[str, str] = {}

    # -- artifact store

    def _read_bytes(self, name: str, missing_ok: bool = False) -> bytes | None:
        """The bytes of artifact ``name``; None when it is absent and
        ``missing_ok``.  The running stage's trace records what was read."""
        try:
            data = (self.out / name).read_bytes()
        except FileNotFoundError:
            if not missing_ok:
                raise
            data = None
        self._reads[name] = _digest(data)
        return data

    def _read(self, name: str, missing_ok: bool = False) -> str | None:
        data = self._read_bytes(name, missing_ok)
        return None if data is None else data.decode("utf-8")

    def _read_json(self, name: str, missing_ok: bool = False):
        text = self._read(name, missing_ok)
        return None if text is None else json.loads(text)

    def _read_jsonl(self, name: str) -> list[dict]:
        # one decode of the nonblank lines as the items of one array
        lines = filter(None, self._read(name).splitlines())
        return json.loads("[" + ",".join(lines) + "]")

    def _read_csv(self, name: str, missing_ok: bool = False) -> list[dict] | None:
        text = self._read(name, missing_ok)
        return None if text is None else _csv_records(text)

    def _write(self, name: str, text: str):
        """Replace artifact ``name`` with ``text`` atomically: a crash
        leaves the old file or the new one, never a mix."""
        data = text.encode("utf-8")
        partial = self.out / f"{name}.partial"
        self.out.mkdir(parents=True, exist_ok=True)
        try:
            partial.write_bytes(data)
            os.replace(partial, self.out / name)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        self._writes[name] = _digest(data)

    def _trace(self, stage: str, inputs: dict, outputs: dict) -> dict:
        return {"stage": stage, "config": self._config_doc,
                "inputs": inputs, "outputs": outputs}

    def _sealed(self, stage: str):
        """The stage's manifest as it is now.  Raises ``FileNotFoundError``
        when there is none, and ``ValueError`` when it is no JSON."""
        return json.loads((self.out / _manifest(stage)).read_bytes())

    def _files(self, names):
        """(name, bytes, sha256) of each file as it is now, read through the
        store one at a time; bytes and digest are None for an absent file.
        A stage's trace starts empty when it runs, so this leaves none."""
        for name in names:
            data = self._read_bytes(name, missing_ok=True)
            yield name, data, self._reads[name]

    def _is_current(self, stage: str) -> bool:
        """Whether the stage's manifest matches the config and every file
        it recorded still hashes to the recorded digest."""
        try:
            sealed = self._sealed(stage)
            inputs, outputs = ({name: digest for name, _data, digest in self._files(names)}
                               for names in (sealed["inputs"], STAGE_ARTIFACTS[stage]))
        except (OSError, ValueError, KeyError, TypeError):
            return False
        return sealed == self._trace(stage, inputs, outputs)

    def _seal(self, stage: str):
        outputs = {name: self._writes[name] for name in STAGE_ARTIFACTS[stage]}
        self._write(_manifest(stage), _json_dumps(self._trace(stage, self._reads, outputs)))

    # -- driving

    def run(self, force: bool = False) -> RunReport:
        for stage in STAGES:
            self.run_stage(stage, force=force)
        # the report stage wrote it, or found it current
        return RunReport(**self._read_json("run_report.json"))

    def run_stage(self, stage: str, force: bool = False):
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        if not force and self._is_current(stage):
            logger.info("stage %s is current; skipping", stage)
            return
        logger.info("running stage %s", stage)
        # a crash below must not leave the previous run's seal vouching
        # for half-written artifacts
        (self.out / _manifest(stage)).unlink(missing_ok=True)
        if "config.json" not in self._writes:  # the first stage this pipeline runs
            self._write("config.json", _json_dumps(self._config_doc))
        self._reads = {}
        expected = STAGE_ARTIFACTS[stage]
        try:
            outputs = getattr(self, f"_stage_{stage}")()
            if sorted(outputs) != sorted(expected):
                raise ValueError(f"returned artifacts {sorted(outputs)}, "
                                 f"expected {sorted(expected)}")
            for name in expected:
                self._write(name, outputs[name])
        except Exception as exc:
            raise StageError(stage, exc) from exc
        self._seal(stage)

    @cached_property
    def _source(self):
        """The one source every stage of this pipeline reads, so extract
        reads blobs by the object ids ingest's scan found."""
        cfg = self.config
        if cfg.source_mode == "git":
            if not cfg.source_path:
                # git -C "" would scan whatever repository the shell is in
                raise ValueError("git mode needs a repository path (--source)")
            return GitSource(cfg.source_path)
        if not cfg.endpoint:
            # every request would go to a URL with no host, and be retried
            raise ValueError("gerrit mode needs a review endpoint (--source)")
        # only remote content is cached: git's object store is already local
        cache_dir = Path(cfg.cache_dir) if cfg.cache_dir else self.out / "cache"
        return GerritSource(cfg.endpoint, cache=ContentCache(cache_dir))

    # -- stages

    def _stage_ingest(self) -> dict[str, str]:
        """The changes the source finds in the configured window whose
        message matches a keyword, each with its retained Python files.
        Both sources take the one window: projects, branches, after and
        before.  No file content is read: extract is its one reader, and
        counts the files that have none."""
        cfg = self.config
        if cfg.source_mode == "gerrit" and not cfg.projects:
            # the review source queries each project, so none finds nothing
            raise ValueError("gerrit mode needs at least one project (--project)")
        records = self._source.fetch_merged_changes(cfg.projects, cfg.branches,
                                                    cfg.after or None, cfg.before or None)
        matched = [r for r in records if keyword_filter(r.message, cfg.keywords)]
        counts = {"changes_total": len(records), "changes_matched": len(matched),
                  "files_total": 0, "files_retained": 0}
        rows = []
        for record in matched:
            python_files = [p for p in record.files if p.endswith(".py")]
            retained = exclude_test_files(python_files)
            counts["files_total"] += len(record.files)
            counts["files_retained"] += len(retained)
            rows.append({"change_id": record.change_id, "project": record.project,
                         "branch": record.branch, "revision": record.revision,
                         "message": record.message, "created": record.created,
                         "files": list(retained)})
        return {"changes.jsonl": _jsonl(rows), "ingest_counts.json": _json_dumps(counts)}

    def _stage_extract(self) -> dict[str, str]:
        items = []
        for change in self._read_jsonl("changes.jsonl"):
            record = ChangeRecord(**{**change, "files": tuple(change["files"])})
            items.extend((record, path) for path in record.files)
        hunk_lines = []
        skipped = []
        conflicted_files = 0
        counts = {"files_considered": len(items), "files_parsed": 0,
                  "files_skipped_syntax": 0, "files_missing": 0,
                  "alignment_conflicts": 0, "hunks": 0}
        with closing(self._source.file_pairs(items)) as pairs:
            for pair in pairs:
                if pair is None:
                    counts["files_missing"] += 1
                    continue
                lines, conflicts, skip = extract_file(pair)
                if skip is not None:
                    counts["files_skipped_syntax"] += 1
                    skipped.append(skip)
                    continue
                counts["files_parsed"] += 1
                counts["alignment_conflicts"] += conflicts
                conflicted_files += conflicts > 0
                counts["hunks"] += len(lines)
                hunk_lines += lines
        if counts["alignment_conflicts"]:
            logger.warning("%d alignment conflicts in %d files, each resolved in source order",
                           counts["alignment_conflicts"], conflicted_files)
        counts["skipped_files"] = skipped
        # a modified node always yields a Minus+Plus pair (no update label)
        counts["update_label_policy"] = "minus-plus-pair"
        return {"hunks.jsonl": "".join(hunk_lines), "extract_counts.json": _json_dumps(counts)}

    def _stage_features(self) -> dict[str, str]:
        weights = self.config.weights
        vectors = []
        contexts = {}
        for doc in self._read_jsonl("hunks.jsonl"):
            vectors.append(hunk_feature_vector(hunk_from_dict(doc), weights))
            contexts[doc["id"]] = doc["context"]
        # a duplicate hunk id raises in the first assemble_matrix, before
        # ``contexts`` could have merged it away
        return {
            "feature_matrix.csv": _csv(_matrix_rows(assemble_matrix(vectors))),
            "feature_vectors.jsonl": _jsonl({"hunk_id": v.hunk_id, "features": v.entries}
                                            for v in vectors),
            "context_matrix.csv": _csv(_matrix_rows(context_matrix(contexts))),
            "context_vectors.jsonl": _jsonl({"hunk_id": hunk_id, "features": features}
                                            for hunk_id, features in contexts.items()),
        }

    def _stage_cluster(self) -> dict[str, str]:
        cfg = self.config
        vectors = [FeatureVector(hunk_id=doc["hunk_id"], entries=dict(doc["features"]))
                   for doc in self._read_jsonl("feature_vectors.jsonl")]
        summary = {
            "n_hunks": len(vectors), "n_features": 0,
            "cophenetic": None, "cophenetic_degenerate": False,
            "cutoff": None, "cutoff_source": None,
            "inconsistency_depth": cfg.inconsistency_depth,
            "min_cluster_size": cfg.min_cluster_size,
            "n_clusters": 0, "cluster_sizes": {},
        }
        dendrogram, assignment = fc.Dendrogram(0, ()), {}
        if vectors:
            matrix = assemble_matrix(vectors)
            summary["n_features"] = len(matrix.feature_names)
            distances = fc.pairwise_distances(matrix.values)
            dendrogram = fc.single_linkage(distances)
            cophenetic = fc.cophenetic_coefficient(dendrogram, distances)
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
                    cutoff = 1.0
                    summary["cutoff_source"] = "all-zero-single-cluster"
            summary["cutoff"] = cutoff
            cut = fc.cut_clusters(dendrogram, coefs, cutoff,
                                  cfg.min_cluster_size, labels=matrix.hunk_ids)
            assignment = cut.assignment
            summary["n_clusters"] = len(cut.clusters)
            summary["cluster_sizes"] = {str(cid): len(members)
                                        for cid, members in sorted(cut.clusters.items())}
        return {
            "dendrogram.json": _json_dumps({
                "merges": [{"height": m.height, "left": m.left, "right": m.right,
                            "size": m.size} for m in dendrogram.merges],
                "n_leaves": dendrogram.n_leaves}),
            # csv writes an unclustered hunk's None as an empty cell
            "cluster_assignment.csv": _csv([("hunk_id", "cluster_id"),
                                            *assignment.items()]),
            "clustering_summary.json": _json_dumps(summary),
        }

    def load_clusters(self) -> dict[int, tuple]:
        rows = self._read_csv("cluster_assignment.csv", missing_ok=True)
        if rows is None:
            raise MissingCheckpointError("cluster stage has not run")
        clusters: dict[int, list] = {}
        for row in rows:
            if row["cluster_id"]:
                clusters.setdefault(int(row["cluster_id"]), []).append(row["hunk_id"])
        return {cid: tuple(members) for cid, members in clusters.items()}

    def load_annotations(self) -> dict[int, dict]:
        """cluster_id -> {label, description} from the installed
        ``annotations.csv`` ({} when there is none).  A file that
        ``_parse_annotations`` rejects raises ``ValueError``."""
        text = self._read("annotations.csv", missing_ok=True)
        return {} if text is None else _parse_annotations(text)

    def install_annotations(self, source: str | Path) -> Path:
        """Validate the annotation CSV ``source``, then install it as
        ``annotations.csv``; a rejected file leaves the installed one."""
        text = Path(source).read_bytes().decode("utf-8")
        _parse_annotations(text)
        self._write("annotations.csv", text)
        return self.out / "annotations.csv"

    def _stage_stats(self) -> dict[str, str]:
        """Test the annotated BUG-FIX clusters that still exist.  This is
        the one place that picks the clusters to test; ``relevance_matrix``
        tests exactly the groups it is given."""
        cfg = self.config
        clusters = self.load_clusters()
        bugfix = [cid for cid, meta in self.load_annotations().items()
                  if meta["label"] == "BUG-FIX"]
        # cluster ids are dendrogram node ids, so a re-cluster can leave an
        # annotation naming a cluster that no longer exists
        stale = sorted(cid for cid in bugfix if cid not in clusters)
        if stale:
            logger.warning("annotations.csv marks BUG-FIX clusters absent from "
                           "cluster_assignment.csv, not tested: %s", stale)
        groups = {cid: clusters[cid] for cid in sorted(bugfix, key=str) if cid in clusters}
        columns, untested = [], []
        if groups:
            context_data = {doc["hunk_id"]: doc["features"]
                            for doc in self._read_jsonl("context_vectors.jsonl")}
            matrix = fstats.relevance_matrix(
                groups, context_data, alpha=cfg.alpha,
                control_mode=cfg.control_mode, bonferroni=cfg.bonferroni)
            columns = matrix.columns
            # the only group that gets no column is one left without a
            # control hunk: in exclusive mode, a cluster holding every hunk
            untested = sorted(groups.keys() - {col.cluster_id for col in columns})
            if untested:
                logger.warning("annotations.csv marks BUG-FIX clusters that hold every "
                               "hunk, so their exclusive control group is empty, not "
                               "tested: %s", untested)
        tested = [col.cluster_id for col in columns]
        summary = {"withheld": not tested, "alpha": cfg.alpha,
                   "control_mode": cfg.control_mode, "bonferroni": cfg.bonferroni,
                   "bugfix_clusters": sorted(tested)}
        if untested:  # the key appears only then, so every other summary keeps its bytes
            summary["untested"] = {str(cid): NO_CONTROL_GROUP for cid in untested}
        matrix_rows = [["category"]]
        long_rows = [["cluster_id", "feature", "category", "z", "p", "relevant",
                      "mean", "cv", "q05", "q25", "q50", "q75", "q95"]]
        if tested:
            marked = _relevant_cells(matrix)
            matrix_rows = [["category"] + [str(cid) for cid in tested]] + [
                [category] + ["yes" if (category, cid) in marked else "" for cid in tested]
                for category in CATEGORIES]
            for col in columns:
                long_rows.extend(
                    [col.cluster_id, feature, category, repr(z), repr(p),
                     "yes" if hit else "no", repr(mean), repr(cv) if defined else "",
                     *map(repr, quantiles)]
                    for feature, category, z, p, hit, mean, cv, defined, quantiles in zip(
                        matrix.features, matrix.feature_categories, col.z, col.p,
                        col.relevant, col.mean, col.cv, col.cv_defined, col.quantiles))
        return {
            "relevance_matrix.csv": _csv(matrix_rows),
            "relevance_long.csv": _csv(long_rows),
            "stats_summary.json": _json_dumps(summary),
        }

    def _stage_report(self) -> dict[str, str]:
        ingest_counts = self._read_json("ingest_counts.json")
        extract_counts = self._read_json("extract_counts.json")
        clustering = self._read_json("clustering_summary.json")
        annotations = self.load_annotations()
        clusters = self.load_clusters()
        hunks = sum(1 for line in self._read_bytes("hunks.jsonl").splitlines() if line)
        if hunks != extract_counts["hunks"]:
            raise AssertionError("hunk counts do not reconcile")
        unreviewed = {"label": fc.TriageLabel.UNREVIEWED.value, "description": ""}
        cluster_rows = [{"id": cid, "size": len(members), **annotations.get(cid, unreviewed)}
                        for cid, members in sorted(clusters.items())]
        relevance = self._read_csv("relevance_matrix.csv")
        stats_summary = self._read_json("stats_summary.json")
        relevance_rows = [list(record.values()) for record in relevance]
        category_distribution = {category: 0 for category in CATEGORIES}
        for row in relevance_rows:
            category_distribution[row[0]] = sum(1 for cell in row[1:] if cell)
        tested = list(relevance[0])[1:] if relevance else []
        # a dict only for each relevant row of the long table
        rows = csv.reader(io.StringIO(self._read("relevance_long.csv"), newline=None))
        header = next(rows, [])
        relevant = header.index("relevant") if header else 0
        appendix = [dict(zip(header, row)) for row in rows
                    if len(row) > relevant and row[relevant] == "yes"]
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
            relevance_withheld=stats_summary["withheld"],
            config=self._config_doc,
            taxonomy_checksum=taxonomy_checksum(),
            category_table_checksum=category_table_checksum(),
        )
        return {
            "run_report.json": _json_dumps(report.to_dict()),
            "report.md": freport.render_report(report, tested, relevance_rows, appendix,
                                               stats_summary.get("untested", {}),
                                               _json_dumps(self._config_doc)[:-1]),
        }


def run_pipeline(config: PipelineConfig, force: bool = False) -> RunReport:
    """Execute all stages and return the run report."""
    return Pipeline(config).run(force=force)


def export_dataset(config: PipelineConfig, stage: str, dest: str | Path) -> list[Path]:
    """Copy a completed stage's artifacts to ``dest``; byte-stable.

    Each artifact must still hash to the digest its stage's manifest
    sealed; otherwise, or when the manifest seals no outputs, nothing is
    copied and ``MissingCheckpointError`` is raised.  Only the outputs
    are checked, not the config: export's flags rarely repeat the run's.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    pipeline = Pipeline(config)
    try:
        outputs = pipeline._sealed(stage)["outputs"]
    except FileNotFoundError:
        raise MissingCheckpointError(f"stage {stage!r} has no checkpoint") from None
    except (ValueError, KeyError, TypeError):
        outputs = None
    if not isinstance(outputs, dict):
        raise MissingCheckpointError(f"stage {stage!r} has a checkpoint that seals no outputs")
    contents = {}
    for name, data, digest in pipeline._files(STAGE_ARTIFACTS[stage]):
        if data is None or digest != outputs.get(name):
            raise MissingCheckpointError(
                f"{name} no longer matches the {stage!r} checkpoint; rerun the stage")
        contents[name] = data
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    copied = []
    for name, data in contents.items():
        target = dest / name
        target.write_bytes(data)
        copied.append(target)
    return copied
