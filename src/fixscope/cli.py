"""Command-line front end.

Every verb takes ``--config`` and ``--out``; only the verbs that run a
stage (the six stage verbs and ``run``) take the config overrides.

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
    run_pipeline,
)

USAGE_EXIT = 1
STAGE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _verb(sub, name: str, help_text: str):
    """A verb's parser, with the flags every verb takes."""
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    return parser


def _add_overrides(parser):
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


# config key -> its flag; --source sets source_path or endpoint, by mode
_OVERRIDES = {"output_dir": "out", "source_mode": "mode", "projects": "project",
              "branches": "branch", "after": "after", "before": "before",
              "min_cluster_size": "min_size", "cutoff": "cutoff", "alpha": "alpha"}


def _config_from(args) -> PipelineConfig:
    """The config file's document under the flags the verb has and was given."""
    doc = {}
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config} holds no JSON object")
    flags = vars(args)
    if flags.get("source") is not None:
        mode = flags["mode"] or doc.get("source_mode", "git")
        doc["source_path" if mode == "git" else "endpoint"] = flags["source"]
    for key, flag in _OVERRIDES.items():
        if flags.get(flag) is not None:
            doc[key] = flags[flag]
    return PipelineConfig.from_dict(doc)


def build_parser() -> _Parser:
    parser = _Parser(prog="fixscope",
                     description="Mine recurring bug-fix patterns and their contexts.")
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGES:
        _add_overrides(_verb(sub, stage, f"run the {stage} stage"))
    _add_overrides(_verb(sub, "run", "run all stages"))

    sample_parser = _verb(sub, "sample", "sample hunks from a cluster")
    sample_parser.add_argument("--cluster", type=int, required=True)
    sample_parser.add_argument("--n", type=int, default=5)
    sample_parser.add_argument("--seed", type=int, default=0,
                               help="seed of the sample (the same seed, the same ids)")

    annotate_parser = _verb(sub, "annotate", "install a triage annotation CSV")
    annotate_parser.add_argument("--file", required=True,
                                 help="CSV with cluster_id,label,description")

    export_parser = _verb(sub, "export", "export a stage's artifacts")
    export_parser.add_argument("--stage", required=True, choices=STAGES)
    export_parser.add_argument("--dest", required=True)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = _config_from(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"fixscope: bad configuration: {exc}", file=sys.stderr)
        return USAGE_EXIT

    try:
        if args.command == "run":
            report = run_pipeline(config, force=args.force)
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
            for path in export_dataset(config, args.stage, args.dest):
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
