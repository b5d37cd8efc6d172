"""Per-layer tracing from outside the program.

``install`` replaces the callables that ``fixscope.pipeline`` reaches for
with wrappers that record a span (name, start, end, parent) per call and
a few counts.  Functions the pipeline imported by name are replaced in
``fixscope.pipeline``'s namespace; modules it calls through an attribute
(``fc.*``, ``fstats.relevance_matrix``) are patched on the module; git
calls are counted only where ``fixscope.ingest`` makes them.  Spans stay
in memory until ``write_spans``.

A layer's ``_s`` metric is self time: the span durations minus the part
covered by child spans.  ``pipeline.stage.<stage>_s`` is the inclusive
time of ``Pipeline.run_stage`` for that stage, and ``pipeline.self_s`` is
the self time of all stage spans (checkpoint hashing, artifact I/O).
"""

from __future__ import annotations

import functools
import json
import subprocess
import time
from collections import Counter
from pathlib import Path

STAGES = ("ingest", "extract", "features", "cluster", "stats", "report")

# metric name -> span whose self time it reports
SPAN_METRICS = {
    "ingest.git_s": "ingest.git",
    "ingest.fetch_changes_s": "ingest.fetch_changes",
    "ingest.file_pair_s": "ingest.file_pair",
    "ingest.cache_s": "ingest.cache",
    "grammar.parse_s": "grammar.parse",
    "diffing.align_s": "diffing.align",
    "diffing.join_s": "diffing.join",
    "diffing.hunks_s": "diffing.hunks",
    "diffing.serialize_s": "diffing.serialize",
    "context.extract_s": "context.extract",
    "features.vector_s": "features.vector",
    "features.assemble_s": "features.assemble",
    "cluster.distance_s": "cluster.distance",
    "cluster.linkage_s": "cluster.linkage",
    "cluster.cophenetic_s": "cluster.cophenetic",
    "cluster.inconsistency_s": "cluster.inconsistency",
    "cluster.cut_s": "cluster.cut",
    "stats.relevance_s": "stats.relevance",
    "stats.rank_test_s": "stats.rank_test",
    "report.render_s": "report.render",
}

COUNT_METRICS = (
    "ingest.git_calls", "ingest.file_pairs", "ingest.cache_hits",
    "ingest.cache_misses", "ingest.cache_bytes_written", "ingest.missing_blobs",
    "grammar.parse_calls", "grammar.parse_lines", "grammar.syntax_errors",
    "diffing.edit_blocks", "diffing.conflicts", "diffing.hunks",
    "features.assemble_calls", "features.n_features",
    "cluster.n", "cluster.clusters", "stats.rank_tests", "pipeline.stages_run",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None, on_error=None):
        """Return ``fn`` recording a span per call; the hooks run after the
        span has closed, so counting is not charged to the layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
                if on_error is not None:
                    on_error(exc, *args, **kwargs)
                raise
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    def self_times(self) -> Counter:
        own = Counter()
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return own

    def metrics(self) -> dict:
        own = self.self_times()
        values = {metric: own[span] for metric, span in SPAN_METRICS.items()}
        values.update({name: self.counts[name] for name in COUNT_METRICS})
        inclusive = Counter()
        for name, start, end, _parent in self.spans:
            inclusive[name] += end - start
        for stage in STAGES:
            values[f"pipeline.stage.{stage}_s"] = inclusive[f"pipeline.stage.{stage}"]
        values["pipeline.self_s"] = sum(own[f"pipeline.stage.{s}"] for s in STAGES)
        return values

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent}) + "\n")


class _SubprocessProxy:
    """Stands in for ``subprocess`` inside ``fixscope.ingest`` only."""

    def __init__(self, run):
        self.run = run

    def __getattr__(self, name):
        return getattr(subprocess, name)


def install(tracer: Tracer):
    """Wrap the layer boundaries the pipeline calls.  The patches last for
    the life of the process, which runs a single op."""
    import fixscope.ingest as ingest
    import fixscope.pipeline as pipeline
    import fixscope.report as report
    import fixscope.stats as stats
    from fixscope import cluster as fc

    counts = tracer.counts

    def count(name):
        def hook(*_args, **_kwargs):
            counts[name] += 1
        return hook

    ingest.subprocess = _SubprocessProxy(
        tracer.wrap("ingest.git", subprocess.run, count("ingest.git_calls")))
    git = ingest.GitSource
    git.fetch_merged_changes = tracer.wrap("ingest.fetch_changes",
                                           git.fetch_merged_changes)

    def missing(exc, *_args, **_kwargs):
        if isinstance(exc, ingest.MissingBlobError):
            counts["ingest.missing_blobs"] += 1

    git.fetch_file_pair = tracer.wrap("ingest.file_pair", git.fetch_file_pair,
                                      count("ingest.file_pairs"), missing)

    def cache_get(result, *_args, **_kwargs):
        counts["ingest.cache_hits" if result is not None else "ingest.cache_misses"] += 1

    def cache_put(_result, _cache, _key, data):
        counts["ingest.cache_bytes_written"] += len(data)

    cache = ingest.ContentCache
    cache.get = tracer.wrap("ingest.cache", cache.get, cache_get)
    cache.put = tracer.wrap("ingest.cache", cache.put, cache_put)

    def parsed(_result, text, *_args, **_kwargs):
        counts["grammar.parse_calls"] += 1
        counts["grammar.parse_lines"] += text.count("\n") + 1

    def parse_failed(exc, text, *_args, **_kwargs):
        parsed(None, text)
        if isinstance(exc, SyntaxError):
            counts["grammar.syntax_errors"] += 1

    def sized(name, attribute=None):
        def hook(result, *_args, **_kwargs):
            counts[name] += len(getattr(result, attribute) if attribute else result)
        return hook

    def assembled(result, *_args, **_kwargs):
        counts["features.assemble_calls"] += 1
        counts["features.n_features"] = max(counts["features.n_features"],
                                            len(result.feature_names))

    def linked(result, *_args, **_kwargs):
        counts["cluster.n"] = result.n_leaves

    def cut(result, *_args, **_kwargs):
        counts["cluster.clusters"] = len(result.clusters)

    by_name = {
        "parse_source": ("grammar.parse", parsed, parse_failed),
        "align_versions": ("diffing.align", sized("diffing.edit_blocks"), None),
        "build_diff_ast": ("diffing.join", sized("diffing.conflicts", "conflicts"), None),
        "extract_hunks": ("diffing.hunks", sized("diffing.hunks"), None),
        "hunk_to_dict": ("diffing.serialize", None, None),
        "hunk_from_dict": ("diffing.serialize", None, None),
        "extract_context": ("context.extract", None, None),
        "hunk_feature_vector": ("features.vector", None, None),
        "assemble_matrix": ("features.assemble", assembled, None),
    }
    for attr, (span, on_result, on_error) in by_name.items():
        setattr(pipeline, attr,
                tracer.wrap(span, getattr(pipeline, attr), on_result, on_error))

    by_attribute = {
        "pairwise_distances": ("cluster.distance", None),
        "single_linkage": ("cluster.linkage", linked),
        "single_linkage_rows": ("cluster.linkage", linked),
        "cophenetic_coefficient": ("cluster.cophenetic", None),
        "cophenetic_coefficient_rows": ("cluster.cophenetic", None),
        "inconsistency_coefficients": ("cluster.inconsistency", None),
        "select_cutoff": ("cluster.cut", None),
        "cut_clusters": ("cluster.cut", cut),
    }
    for attr, (span, on_result) in by_attribute.items():
        setattr(fc, attr, tracer.wrap(span, getattr(fc, attr), on_result))
    stats.relevance_matrix = tracer.wrap("stats.relevance", stats.relevance_matrix)
    stats.dunn_test = tracer.wrap("stats.rank_test", stats.dunn_test,
                                  count("stats.rank_tests"))
    report.render_report = tracer.wrap("report.render", report.render_report)

    run_stage = pipeline.Pipeline.run_stage

    def staged(self, stage, force=False):
        return tracer.wrap(f"pipeline.stage.{stage}", run_stage)(self, stage, force)

    seal = pipeline.Pipeline._seal

    def sealed(self, stage):  # a stage that ran (was not skipped) seals once
        seal(self, stage)
        counts["pipeline.stages_run"] += 1

    pipeline.Pipeline.run_stage = staged
    pipeline.Pipeline._seal = sealed
