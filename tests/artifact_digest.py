"""Print the sha256 of every file the pipeline writes on the bundled corpora.

Under ``--work DIR`` it builds these corpora, or reuses them as they are
when an earlier run left them there:

- ``demo``: the default demo corpus (``build_demo_corpus`` defaults);
- ``demo-s1`` .. ``demo-s3``: the benchmark's demo corpora for seeds 1-3
  (``family_size=30``, ``noise_count=76 + seed % 9``);
- ``bigfile-s1`` and ``recluster-s1``: the benchmark's generated corpora
  for seed 1 (``bench/gencorpus.py``);
- ``self-d1d1ae4``: this repository's own history up to ``d1d1ae4``,
  cloned from ``tests/data/self-d1d1ae4.bundle``, scanned on its one
  branch.

It then runs the pipeline on each into an emptied ``DIR/out/<corpus>``
as the benchmark's ops do: a full run at the benchmark's config, and for
``recluster-s1`` the stages ingest to cluster at its minimum cluster
size, the triage of its largest clusters as BUG-FIX, then a forced
cluster, stats and report.  It prints one line per top-level file of each
output directory, manifests included::

    <corpus> <file> sha256 <hex digest>

``config.json`` and the manifests name the corpus and output paths, so
two checkouts compare under the same ``--work``; the corpora built by the
first are the inputs of the second::

    python tests/artifact_digest.py --work /tmp/digest > before.txt
    python tests/artifact_digest.py --work /tmp/digest > after.txt
    diff before.txt after.txt

Run from anywhere; it imports ``fixscope`` from this checkout's ``src``
and the benchmark's settings and generator from ``bench/``, which it only
reads.  It takes under a minute.  pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode cache in bench/
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gencorpus  # noqa: E402
import workloads  # noqa: E402
from fixscope.democorpus import build_demo_corpus  # noqa: E402
from fixscope.pipeline import Pipeline, PipelineConfig, run_pipeline  # noqa: E402
from self_bundle import SELF_BRANCH, clone_self_history  # noqa: E402

SEED = 1  # of the bigfile and recluster corpora
DEMO_SEEDS = (1, 2, 3)


def corpus(work: Path, name: str, build) -> Path:
    """The repository of corpus ``name``, built by ``build(root)`` unless
    an earlier run left it; an interrupted build is started over."""
    root = work / "corpora" / name
    if not root.exists():
        partial = root.with_name(f"{name}.partial")
        shutil.rmtree(partial, ignore_errors=True)
        build(partial)
        partial.rename(root)
    return root / "repo"


def config(repo: Path, out: Path, **overrides) -> PipelineConfig:
    # the benchmark's op config; the method reads nothing of its instance
    return PipelineConfig(**workloads.Workload.config(None, repo, out, **overrides))


def full_run(repo: Path, out: Path):
    run_pipeline(config(repo, out))


def recluster_run(repo: Path, out: Path):
    cfg = config(repo, out, min_cluster_size=workloads.RECLUSTER_MIN_SIZE)
    pipeline = Pipeline(cfg)
    for stage in ("ingest", "extract", "features", "cluster"):
        pipeline.run_stage(stage)
    workloads.annotate_bugfix(out, workloads.RECLUSTER_BUGFIX)
    pipeline = Pipeline(cfg)
    for stage in ("cluster", "stats", "report"):
        pipeline.run_stage(stage, force=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--work", required=True, type=Path,
                        help="directory for the corpora and the output directories")
    work = parser.parse_args().work.resolve()

    def demo(**params):
        return lambda root: build_demo_corpus(root, **params)

    def generated(shape):
        return lambda root: gencorpus.build_corpus(root, SEED, *shape)

    runs = [("demo", demo(), full_run)]
    # the noise count mirrors DemoWorkload.build_demo in bench/workloads.py
    runs += [(f"demo-s{seed}", demo(family_size=workloads.DEMO_FAMILY_SIZE,
                                    noise_count=76 + seed % 9), full_run)
             for seed in DEMO_SEEDS]
    runs += [(f"bigfile-s{SEED}", generated(workloads.BIGFILE), full_run),
             (f"recluster-s{SEED}", generated(workloads.RECLUSTER), recluster_run),
             (SELF_BRANCH, lambda root: clone_self_history(root / "repo"),
              lambda repo, out: run_pipeline(config(repo, out, branches=[SELF_BRANCH])))]
    for name, build, run in runs:
        repo = corpus(work, name, build)
        out = work / "out" / name
        shutil.rmtree(out, ignore_errors=True)
        run(repo, out)
        for path in sorted(out.iterdir()):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{name} {path.name} sha256 {digest}", flush=True)


if __name__ == "__main__":
    main()
