"""The four workloads: how each prepares its inputs, what its timed op is,
and how its outputs are checked.

Each workload's ``prepare`` builds its inputs from the seed (untimed) and
returns the facts that identify them; ``op(k)`` describes the k-th timed
op for ``worker.py``; ``check(k, result)`` returns the problems found in
that op's outputs.  ``variant(k)`` names the ops whose artifacts must be
byte-identical to each other.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import subprocess
from pathlib import Path

import gencorpus

FAMILIES = ("add-kwarg", "wrap-if", "dict-entry")
MIN_PURITY = 0.90
MIN_CLUSTER_SIZE = 10

# demo corpus: 3 x 30 planted fixes plus 76-84 noise commits (seeded),
# ~270 commits in all.  Fewer than 90 noise commits keep each of the ten
# noise shapes below the minimum cluster size.
DEMO_FAMILY_SIZE = 30
# bigfile-cold: one commit of 20 edits per 2.6-2.9k-line module, ~40 hunks
BIGFILE = (gencorpus.LARGE_MODULES, 2, 20)
# recluster: one commit of 40 edits per 1.1-1.7k-line module, 480 hunks.
# At --min-size 5 every seed tried gave 26-33 clusters; the 8 largest are
# triaged BUG-FIX, so the number of rank tests does not depend on the seed
# (it would if every cluster were: 4-9 clusters at the default size 10).
RECLUSTER = (gencorpus.MEDIUM_MODULES, 12, 40)
RECLUSTER_MIN_SIZE = 5
RECLUSTER_BUGFIX = 8
ALPHAS = (0.01, 0.05)  # config-rerun flips between these; prepared at 0.05


def git_head(repo: Path) -> dict:
    def rev(name):
        return subprocess.run(["git", "-C", str(repo), "rev-parse", name], check=True,
                              capture_output=True, text=True).stdout.strip()
    return {"corpus_head": rev("HEAD"), "corpus_head_tree": rev("HEAD^{tree}")}


def read_clusters(out: Path) -> dict[str, list[str]]:
    clusters: dict[str, list[str]] = {}
    with (out / "cluster_assignment.csv").open() as handle:
        for row in csv.DictReader(handle):
            if row["cluster_id"]:
                clusters.setdefault(row["cluster_id"], []).append(row["hunk_id"])
    return clusters


def annotate_bugfix(out: Path, largest: int | None = None):
    """Mark retained clusters BUG-FIX, as an analyst's triage would: all of
    them, or the ``largest`` biggest (ties by id)."""
    clusters = read_clusters(out)
    ids = sorted(clusters, key=lambda cid: (-len(clusters[cid]), int(cid)))[:largest]
    ids.sort(key=int)
    lines = ["cluster_id,label,description"] + [f"{cid},BUG-FIX,triaged" for cid in ids]
    (out / "annotations.csv").write_text("\n".join(lines) + "\n")


def read_json(path: Path):
    return json.loads(path.read_text())


class Workload:
    # the parts of probe.py whose time the op's times are divided by: the
    # kind of work the op does most (see probe.py)
    PROBE_PARTS: tuple[str, ...] = ("python",)

    def __init__(self, run):
        self.run = run  # the Runner: seed, work directory, child()
        self.work = run.work

    def config(self, repo: Path, out: Path, **overrides) -> dict:
        return {"source_mode": "git", "source_path": str(repo),
                "min_cluster_size": MIN_CLUSTER_SIZE, "output_dir": str(out),
                **overrides}

    def variant(self, k: int):
        return None

    def cold_output(self) -> Path:
        """An output directory with nothing in it, so the op runs cold."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        return out


class DemoWorkload(Workload):
    PROBE_PARTS = ("python", "git")  # ingest: git processes and cache writes

    def build_demo(self) -> dict:
        """The demo corpus for this seed.  There are nine, one per noise
        count; each is built once per checkout and cached under a key of
        its parameters and the generator's source."""
        params = {"family_size": DEMO_FAMILY_SIZE,
                  "noise_count": 76 + self.run.seed % 9}
        generator = self.run.src / "fixscope" / "democorpus.py"
        key = hashlib.sha256(json.dumps(params, sort_keys=True).encode()
                             + generator.read_bytes()).hexdigest()[:16]
        corpus = self.run.cache / f"demo-{key}"
        if not (corpus / "manifest.json").exists():
            fresh = self.work / "corpus"
            self.run.require(self.run.child(
                {"kind": "demo_corpus", "root": str(fresh), "params": params}, "corpus"))
            shutil.rmtree(corpus, ignore_errors=True)  # an interrupted build
            corpus.parent.mkdir(parents=True, exist_ok=True)
            fresh.rename(corpus)
        self.repo = corpus / "repo"
        self.truth = read_json(corpus / "manifest.json")["truth"]
        return {"generator": "fixscope.democorpus.build_demo_corpus",
                "params": params, **git_head(self.repo)}


class DemoCold(DemoWorkload):
    """Full cold run on the demo corpus: ingest-bound."""

    def prepare(self) -> dict:
        return self.build_demo()

    def op(self, k: int) -> dict:
        return {"kind": "run", "config": self.config(self.repo, self.cold_output())}

    def check(self, k: int, result: dict) -> list[str]:
        clusters = read_clusters(self.work / "out")
        problems = []
        if len(clusters) < len(FAMILIES):
            problems.append(f"{len(clusters)} clusters, expected at least {len(FAMILIES)}")
        for family in FAMILIES:
            def hits(members):
                return sum(1 for h in members if self.truth.get(h.split(":")[0]) == family)
            dominant = max(clusters.values(), key=hits, default=[])
            purity = hits(dominant) / len(dominant) if dominant else 0.0
            if purity < MIN_PURITY:
                problems.append(f"family {family}: purity {purity:.3f} < {MIN_PURITY}")
        return problems


class BigfileCold(Workload):
    """Full cold run on fixes to large stdlib modules: extract-bound."""

    def prepare(self) -> dict:
        modules, commits, edits = BIGFILE
        info = gencorpus.build_corpus(self.work / "corpus", self.run.seed,
                                      modules, commits, edits)
        self.repo = Path(info.pop("repo"))
        return {"generator": "bench/gencorpus.py", **info, **git_head(self.repo)}

    def op(self, k: int) -> dict:
        return {"kind": "run", "config": self.config(self.repo, self.cold_output())}

    def check(self, k: int, result: dict) -> list[str]:
        hunks = read_json(self.work / "out" / "extract_counts.json")["hunks"]
        return [] if hunks else ["no hunks extracted"]


class Recluster(Workload):
    """Forced cluster, stats and report over a prepared, annotated feature
    set: the analyst's tuning loop; linkage and rank tests dominate."""

    def prepare(self) -> dict:
        modules, commits, edits = RECLUSTER
        info = gencorpus.build_corpus(self.work / "corpus", self.run.seed,
                                      modules, commits, edits)
        repo = Path(info.pop("repo"))
        self.out = self.work / "out"
        config = self.config(repo, self.out, min_cluster_size=RECLUSTER_MIN_SIZE)
        self.run.require(self.run.child(
            {"kind": "stages", "config": config, "force": False,
             "stages": ["ingest", "extract", "features", "cluster"]}, "prepare"))
        annotate_bugfix(self.out, RECLUSTER_BUGFIX)
        self.spec = {"kind": "stages", "config": config, "force": True,
                     "stages": ["cluster", "stats", "report"]}
        return {"generator": "bench/gencorpus.py", **info, **git_head(repo)}

    def op(self, k: int) -> dict:
        return self.spec

    def check(self, k: int, result: dict) -> list[str]:
        problems = []
        if read_json(self.out / "stats_summary.json")["withheld"]:
            problems.append("relevance withheld despite BUG-FIX annotations")
        if k == 0:  # later ops must reproduce these bytes, checked in run.py
            problems += linkage_oracle(self.out)
        return problems


def linkage_oracle(out: Path) -> list[str]:
    """Compare the dendrogram and cophenetic coefficient with scipy's."""
    import numpy as np
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import pdist

    with (out / "feature_matrix.csv").open() as handle:
        rows = list(csv.reader(handle))[1:]
    points = np.array([[float(v) for v in row[1:]] for row in rows])
    reference = linkage(points, "single")
    heights = np.sort([m["height"] for m in read_json(out / "dendrogram.json")["merges"]])
    expected = np.sort(reference[:, 2])
    problems = []
    scale = max(1.0, float(expected.max(initial=0.0)))
    if heights.shape != expected.shape or not np.allclose(heights, expected,
                                                         rtol=1e-9, atol=1e-9 * scale):
        problems.append("dendrogram heights differ from scipy linkage(single)")
    coefficient = cophenet(reference, pdist(points))[0]
    ours = read_json(out / "clustering_summary.json")["cophenetic"]
    if ours is None or abs(ours - coefficient) > 1e-9:
        problems.append(f"cophenetic {ours} differs from scipy {coefficient}")
    return problems


class ConfigRerun(DemoWorkload):
    """Rerun of a completed, annotated demo output with only ``alpha``
    flipped: the checkpoint layer and the ContentCache read path."""

    def prepare(self) -> dict:
        inputs = self.build_demo()
        self.out = self.work / "out"
        spec = {"kind": "run", "config": self.config(self.repo, self.out, alpha=ALPHAS[1])}
        self.previous = self.run.require(self.run.child(spec, "prepare"))
        # every op reruns all six stages, so op 0 costs the same whether or
        # not stats and report were already redone with the annotations
        annotate_bugfix(self.out)
        return inputs

    def variant(self, k: int):
        return ALPHAS[k % 2]

    def op(self, k: int) -> dict:
        return {"kind": "run",
                "config": self.config(self.repo, self.out, alpha=self.variant(k))}

    def check(self, k: int, result: dict) -> list[str]:
        problems = []
        unchanged = [name for stage in ("ingest", "extract", "features", "cluster")
                     for name in result["stage_artifacts"][stage]]
        for name in unchanged:
            if result["artifacts"].get(name) != self.previous["artifacts"].get(name):
                problems.append(f"{name} changed when only alpha changed")
        alpha = read_json(self.out / "stats_summary.json")["alpha"]
        if alpha != self.variant(k):
            problems.append(f"stats_summary.json alpha {alpha}, expected {self.variant(k)}")
        self.previous = result
        return problems


WORKLOADS = {
    "demo-cold": DemoCold,
    "bigfile-cold": BigfileCold,
    "recluster": Recluster,
    "config-rerun": ConfigRerun,
}
