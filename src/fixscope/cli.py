"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from fixscope.cluster import sample_cluster
from fixscope.pipeline import (
    STAGES,
    MissingCheckpointError,
    Pipeline,
    PipelineConfig,
    StageError,
    export_dataset,
)

USAGE_EXIT = 1
STAGE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--source", help="git repo path or review endpoint")
    parser.add_argument("--mode", choices=("git", "gerrit"), help="source mode")
    parser.add_argument("--project", action="append", default=None,
                        help="project filter (repeatable; gerrit mode)")
    parser.add_argument("--branch", action="append", default=None,
                        help="branch filter (repeatable)")
    parser.add_argument("--after", help="window start (date)")
    parser.add_argument("--before", help="window end (date)")
    parser.add_argument("--min-size", type=int, help="minimum cluster size")
    parser.add_argument("--cutoff", type=float, help="inconsistency cutoff override")
    parser.add_argument("--alpha", type=float, help="significance level")
    parser.add_argument("--force", action="store_true",
                        help="rerun stages even when checkpoints are current")


def _config_from(args) -> PipelineConfig:
    doc = {}
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config} holds no JSON object")
    mode = args.mode or doc.get("source_mode", "git")
    overrides = {
        "output_dir": args.out,
        "source_path": args.source if mode == "git" else None,
        "endpoint": args.source if mode == "gerrit" else None,
        "source_mode": args.mode,
        "projects": args.project,
        "branches": args.branch,
        "after": args.after,
        "before": args.before,
        "min_cluster_size": args.min_size,
        "cutoff": args.cutoff,
        "alpha": args.alpha,
    }
    for key, value in overrides.items():
        if value is not None:
            doc[key] = value
    return PipelineConfig.from_dict(doc)


def build_parser() -> _Parser:
    parser = _Parser(prog="fixscope",
                     description="Mine recurring bug-fix patterns and their contexts.")
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGES:
        stage_parser = sub.add_parser(stage, help=f"run the {stage} stage")
        _add_common(stage_parser)

    run_parser = sub.add_parser("run", help="run all stages")
    _add_common(run_parser)

    sample_parser = sub.add_parser("sample", help="sample hunks from a cluster")
    _add_common(sample_parser)
    sample_parser.add_argument("--cluster", type=int, required=True)
    sample_parser.add_argument("--n", type=int, default=5)
    sample_parser.add_argument("--seed", type=int, default=0,
                               help="seed of the sample (the same seed, the same ids)")

    annotate_parser = sub.add_parser("annotate",
                                     help="install a triage annotation CSV")
    _add_common(annotate_parser)
    annotate_parser.add_argument("--file", required=True,
                                 help="CSV with cluster_id,label,description")

    export_parser = sub.add_parser("export", help="export a stage's artifacts")
    _add_common(export_parser)
    export_parser.add_argument("--stage", required=True, choices=STAGES)
    export_parser.add_argument("--dest", required=True)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"fixscope: bad configuration: {exc}", file=sys.stderr)
        return USAGE_EXIT

    try:
        if args.command == "run":
            pipeline = Pipeline(config)
            report = pipeline.run(force=args.force)
            print(f"run complete: {report.counts.get('hunks', 0)} hunks, "
                  f"{len(report.clusters)} clusters; report at "
                  f"{Path(config.output_dir) / 'report.md'}")
        elif args.command in STAGES:
            Pipeline(config).run_stage(args.command, force=args.force)
            print(f"stage {args.command} complete")
        elif args.command == "sample":
            clusters = Pipeline(config).load_clusters()
            for hunk_id in sample_cluster(clusters, args.cluster, n=args.n, seed=args.seed):
                print(hunk_id)
        elif args.command == "annotate":
            target = Pipeline(config).install_annotations(args.file)
            print(f"annotations installed at {target}")
        elif args.command == "export":
            copied = export_dataset(config, args.stage, args.dest)
            for path in copied:
                print(path)
    except StageError as exc:
        print(f"fixscope: {exc}", file=sys.stderr)
        return STAGE_EXIT
    except MissingCheckpointError as exc:
        print(f"fixscope: missing checkpoint: {exc}", file=sys.stderr)
        return STAGE_EXIT
    except (KeyError, ValueError, OSError) as exc:
        print(f"fixscope: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
