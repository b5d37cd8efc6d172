"""Compare two sets of benchmark results, such as a parent and a change.

    python3 bench/compare.py BASE_RESULTS CHANGE_RESULTS

Each argument is a directory of result records written by ``run.py``
(``.bench_out/results`` of a checkout) or a single record.  Only untraced
records count.  The comparison is refused (exit 2) unless, for every
workload, both sets hold records of exactly the same inputs: the same
input digests, which cover the generator version, the seed, the corpus
HEAD tree and the interpreter version.  For each workload and end-to-end
metric it prints both medians with their quartiles and the change as a
share of the base median, and marks a change worse than the metric's
bound in ``BENCHMARK.json``; it exits 1 if any is.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> dict[str, list[dict]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    by_workload = defaultdict(list)
    for file in files:
        record = json.loads(file.read_text())
        if not record["trace"] and record.get("metrics"):
            by_workload[record["workload"]].append(record)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (load(Path(arg)) for arg in argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    refused = []
    for workload in sorted(set(base) | set(change)):
        digests = [sorted({r["input_digest"] for r in side.get(workload, [])})
                   for side in (base, change)]
        if digests[0] != digests[1]:
            refused.append(workload)
    if refused:
        print(f"refused: inputs differ between the result sets for {', '.join(refused)}",
              file=sys.stderr)
        return 2
    worse = False
    for workload in sorted(base):
        print(f"{workload} ({len(base[workload])} base runs, "
              f"{len(change[workload])} change runs)")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = quartiles([r["metrics"][name] for r in base[workload]])
            c = quartiles([r["metrics"][name] for r in change[workload]])
            delta = (c[1] - b[1]) / b[1]
            regressed = (delta if metric["better"] == "lower" else -delta) > metric["bound"]
            worse |= regressed
            print(f"  {name:<12} base {b[1]:.4f} [{b[0]:.4f}, {b[2]:.4f}]  "
                  f"change {c[1]:.4f} [{c[0]:.4f}, {c[2]:.4f}] {metric['unit']}  "
                  f"{delta:+.1%}{'  WORSE than bound ' + str(metric['bound']) if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
