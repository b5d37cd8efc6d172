"""Entry point of the fixscope benchmark.

Run from the root of a fixscope source checkout:

    python3 bench/run.py --workload demo-cold --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1

One invocation prepares the workload's inputs from the seed, then runs
timed ops, each in a fresh forked process, until ``--seconds`` have passed
(at least three ops).  A host-speed probe (``probe.py``) is timed just
before and after every op, and the gated times are the op's times over
the probe's.  With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced
and traced ops and reports the per-layer metrics, plus the tracing
overhead.  Every op's outputs are checked; an op that raises or fails its
check counts as failed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  A full
record (inputs and their digest, environment, every op) goes to
``.bench_out/results/``, the program's logs to ``.bench_out/logs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import probe
from workloads import WORKLOADS

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
CACHE = ROOT / ".bench_cache"
MIN_OPS = 3
OPS_PER_WORKER = 8
BUDGET_S = 165.0  # one invocation must end within 180 s
OP_METRICS = ("run_s", "cpu_s", "peak_rss_mb", "run_rel", "cpu_rel")
RAW_UNITS = {"run_s": "s", "cpu_s": "s"}  # printed and recorded, not gated
# Ops run one at a time on a shared 2-vCPU host: a second BLAS thread
# there times the scheduler and the neighbours' load, not the program.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class OpFailed(RuntimeError):
    pass


class Runner:
    """Runs op specs for one invocation, each in a process forked from a
    worker that has already imported the program (``worker.py``).  A new
    worker, and with it a new set-up measurement, starts every
    ``OPS_PER_WORKER`` ops."""

    def __init__(self, seed: int, work: Path, tag: str, deadline: float):
        self.seed = seed
        self.src = ROOT / "src"
        self.cache = CACHE
        self.work = work
        self.tag = tag
        self.deadline = deadline
        self.setups: list[float] = []
        self.worker = None
        self.worker_ops = 0
        self.stderr = OUT / "logs" / f"{tag}-stderr.log"
        self.probe_repo = probe.make_repo(work)

    def _reply(self) -> dict:
        timeout = max(0.0, self.deadline - time.monotonic())
        ready, _, _ = select.select([self.worker.stdout], [], [], timeout)
        line = self.worker.stdout.readline() if ready else ""
        if not line:
            self.stop(kill=not ready)
            tail = self.stderr.read_text()[-2000:] if self.stderr.exists() else ""
            raise OpFailed(f"worker {'timed out' if not ready else 'exited'}: {tail}")
        return json.loads(line)

    def _start_worker(self):
        with self.stderr.open("a") as stderr:
            self.worker = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(self.src)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr, text=True,
                env={**os.environ, **ONE_THREAD, "PYTHONPATH": str(self.src)},
                start_new_session=True)
        self.worker_ops = 0
        self.setups.append(self._reply()["setup_s"])

    def stop(self, kill: bool = False):
        """End the worker.  ``kill`` (after a timeout) also ends its forked
        op and that op's git processes, which share its session."""
        if self.worker is None:
            return
        worker, self.worker = self.worker, None
        if kill:
            os.killpg(worker.pid, signal.SIGKILL)
        worker.stdin.close()
        try:
            worker.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
        worker.stdout.close()

    def child(self, spec: dict, label: str, trace: bool = False,
              probe_parts: tuple[str, ...] = ()) -> dict:
        """Run one op; with ``probe_parts``, also time the host-speed probe
        just before and after it and add the op's times relative to the
        sum of those parts of the probe."""
        result_path = self.work / f"{label}.result.json"
        request = {"spec": spec, "result": str(result_path), "trace": trace,
                   "probe": {"repo": str(self.probe_repo), "parts": probe_parts}
                   if probe_parts else None,
                   "log": str(OUT / "logs" / f"{self.tag}-{label}.log"),
                   "spans": str(OUT / "spans" / f"{self.tag}-{label}.jsonl")}
        try:
            if self.worker is None or self.worker_ops == OPS_PER_WORKER:
                self.stop()
                self._start_worker()
            self.worker.stdin.write(json.dumps(request) + "\n")
            self.worker.stdin.flush()
            reply = self._reply()
        except (OpFailed, OSError) as exc:
            self.stop()
            return {"error": f"{label}: {exc}"}
        self.worker_ops += 1
        if not result_path.exists():
            return {"error": f"{label}: op process ended with wait status {reply['status']}"}
        result = json.loads(result_path.read_text())
        if probe_parts and not result["error"]:
            result["probe"] = reply["probe"]
            for key, index in (("probe_s", 0), ("probe_cpu_s", 1)):
                result[key] = statistics.mean(
                    sum(times[part][index] for part in probe_parts)
                    for times in reply["probe"])
            result["run_rel"] = result["run_s"] / result["probe_s"]
            result["cpu_rel"] = result["cpu_s"] / result["probe_cpu_s"]
        return result

    def require(self, result: dict) -> dict:
        if result.get("error"):
            raise OpFailed(result["error"])
        return result


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    git = subprocess.run(["git", "--version"], capture_output=True, text=True).stdout
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version, "numpy": _version("numpy"),
            "scipy": _version("scipy"), "git": git.strip(),
            "loadavg_start": os.getloadavg()}


def set_digest(artifacts: dict) -> str:
    text = "".join(f"{name} {digest}\n" for name, digest in sorted(artifacts.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    tag = f"{name}-s{seed}-t{int(trace)}-{time.time_ns()}"
    work = WORK / tag
    work.mkdir(parents=True)
    (OUT / "logs").mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "ops": [], "errors": []}
    runner = Runner(seed, work, tag, started + BUDGET_S)
    try:
        workload = WORKLOADS[name](runner)
        inputs = {"workload": name, "seed": seed, "python": sys.version,
                  **workload.prepare()}
        record["inputs"] = inputs
        record["input_digest"] = hashlib.sha256(
            json.dumps(inputs, sort_keys=True).encode()).hexdigest()
        measure_ops(workload, runner, record, seconds, trace)
    except OpFailed as exc:
        record["errors"].append(f"preparation failed: {exc}")
    finally:
        runner.stop()
        record["setups"] = runner.setups
        shutil.rmtree(work, ignore_errors=True)
    summarize(record)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return record


def measure_ops(workload, runner: Runner, record: dict, seconds: float, trace: bool):
    min_ops = 2 * MIN_OPS if trace else MIN_OPS
    digests: dict = {}
    start = time.monotonic()
    k = 0
    last = 0.0
    while k < min_ops or time.monotonic() - start < seconds:
        if time.monotonic() + last > runner.deadline:
            record["errors"].append(f"time budget spent after {k} ops")
            break
        began = time.monotonic()
        traced = trace and k % 2 == 1
        result = runner.child(workload.op(k), f"op{k}", traced, workload.PROBE_PARTS)
        last = time.monotonic() - began
        result["traced"] = traced
        problems = [result["error"]] if result.get("error") else checked(workload, k, result)
        if not result.get("error"):
            result["artifact_sha256"] = set_digest(result["artifacts"])
            expected = digests.setdefault(workload.variant(k), result["artifact_sha256"])
            if result["artifact_sha256"] != expected:
                problems.append("artifacts differ from an earlier op's")
        result["problems"] = problems
        record["ops"].append(result)
        k += 1
    if k < min_ops:
        record["errors"].append(f"only {k} of {min_ops} ops ran")


def checked(workload, k: int, result: dict) -> list[str]:
    try:
        return workload.check(k, result)
    except Exception:  # a check that cannot read the outputs fails the op
        return [f"output check raised: {traceback.format_exc()}"]


def summarize(record: dict):
    ops = record["ops"]
    good = [op for op in ops if not op["problems"]]
    record["attempted"] = max(1, len(ops))
    record["failed"] = record["attempted"] - len(good)
    record["fail_ratio"] = record["failed"] / record["attempted"]
    record["correct"] = not record["failed"] and not record["errors"]
    record["artifact_sha256"] = sorted({op["artifact_sha256"] for op in good})
    plain = [op for op in good if not op["traced"]]
    record["samples"] = len(plain)
    record["metrics"] = {}
    if plain and record["setups"]:
        record["metrics"] = {m: statistics.median(op[m] for op in plain) for m in OP_METRICS}
        record["metrics"]["setup_s"] = statistics.median(record["setups"])
    traced = [op for op in good if op["traced"]]
    if traced:
        names = traced[0]["layers"]
        record["layers"] = {m: statistics.median(op["layers"][m] for op in traced)
                            if m.endswith("_s") else traced[0]["layers"][m]
                            for m in names}
        record["trace_counts_repeat"] = all(
            op["layers"][m] == traced[0]["layers"][m]
            for op in traced for m in names if not m.endswith("_s"))
        if plain:
            record["trace_overhead_s"] = (
                statistics.median(op["run_s"] for op in traced) - record["metrics"]["run_s"])


def result_line(record: dict, spec: list[dict], source: str) -> str:
    values = record[source]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def print_summary(record: dict, units: dict):
    print(f"{record['workload']} (seed {record['seed']}, {record['samples']} samples, "
          f"input digest {record.get('input_digest', 'none')[:16]}):")
    for name, value in {**record["metrics"], **record.get("layers", {})}.items():
        print(f"  {name:<28} {value:14.4f} {units[name]}  (median)")
    print(f"  {'fail_ratio':<28} {record['fail_ratio']:14.4f} ratio "
          f"({record['failed']}/{record['attempted']} ops failed)")
    if "trace_overhead_s" in record:
        print(f"  tracing overhead {record['trace_overhead_s']:.4f} s "
              f"(traced minus untraced run_s)")
    for problem in record["errors"] + [p for op in record["ops"] for p in op["problems"]]:
        print(f"  FAILED: {problem.strip().splitlines()[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fixscope" / "__init__.py").is_file():
        print(f"no fixscope source under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = {**RAW_UNITS,
             **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, seconds, bool(args.trace))
        records.append(record)
        print_summary(record, units)
    source = "layers" if args.trace else "metrics"
    if not all(r.get(source) for r in records):
        print("no op completed; no result", file=sys.stderr)
        return 1
    if args.workload != "all":
        metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
        print(result_line(records[0], metrics, source))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
