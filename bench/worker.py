"""Fork server that runs benchmark ops, each in a fresh forked process.

Usage: worker.py SRC

The worker imports ``fixscope.pipeline`` from SRC and loads the pinned
taxonomy and category tables, timing that as set-up, and prints
``{"setup_s": ...}``.  It then reads one JSON request per line on stdin,
forks a child per request and prints ``{"status": ...}`` once the child
has exited.  A request names the op ``spec``, the ``result`` file the
child writes its measurements to, the ``log`` file that receives the
program's logging at the level the ``fixscope`` command line uses (INFO),
unfiltered, and with ``trace`` set the ``spans`` file for the traced
layer boundaries (see ``tracing.py``).  Because each op runs in its own
child, its peak RSS and CPU time are its own, and the tracing patches
never outlive it.  With ``probe`` set (the probe's repository and the
parts to run), the host-speed probe (``probe.py``) runs in a child of
its own just before and just after the op, and the reply carries the
``[wall, cpu]`` seconds of each part for both.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ARTIFACT_SUFFIXES = (".csv", ".jsonl", ".json", ".md")


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every top-level artifact a determinism check compares:
    ``*.csv``/``*.jsonl``/``*.json``/``*.md`` except stage manifests."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("*.*"))
            if path.suffix in ARTIFACT_SUFFIXES
            and not path.name.endswith(".manifest.json")}


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_op(spec: dict, pipeline):
    kind = spec["kind"]
    if kind == "demo_corpus":
        from fixscope.democorpus import build_demo_corpus
        build_demo_corpus(spec["root"], **spec["params"])
    elif kind == "run":
        pipeline.run_pipeline(pipeline.PipelineConfig(**spec["config"]))
    elif kind == "stages":
        runner = pipeline.Pipeline(pipeline.PipelineConfig(**spec["config"]))
        for stage in spec["stages"]:
            runner.run_stage(stage, force=spec["force"])
    else:
        raise ValueError(f"unknown op kind {kind!r}")


def measure(request: dict, pipeline) -> dict:
    """Run one op in this (forked) process and return its measurements."""
    spec = request["spec"]
    counter = _WarningCounter()
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s",
                        handlers=[logging.FileHandler(request["log"]), counter])
    tracer = None
    if request["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    result: dict = {}
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    kids_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    run_op(spec, pipeline)
    result["run_s"] = time.perf_counter() - start
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    kids_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["cpu_s"] = (_cpu(self_after) - _cpu(self_before)
                       + _cpu(kids_after) - _cpu(kids_before))
    result["peak_rss_mb"] = self_after.ru_maxrss / 1024.0  # KiB on Linux

    if "config" in spec:
        out = Path(spec["config"]["output_dir"])
        result["artifacts"] = artifact_digests(out)
        result["stage_artifacts"] = {stage: list(names) for stage, names
                                     in pipeline.STAGE_ARTIFACTS.items()}
        if tracer is not None:
            layers = tracer.metrics()
            layers["log.warnings"] = counter.count
            layers["pipeline.artifact_bytes"] = sum(
                path.stat().st_size for path in out.iterdir() if path.is_file())
            result["layers"] = layers
            tracer.write_spans(Path(request["spans"]))
    return result


def timed_probe(request: dict) -> dict[str, list[float]]:
    """Run the probe in a forked child and return its parts' times."""
    import probe
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            times = probe.run(Path(request["repo"]), request["parts"])
            os.write(write, json.dumps(times).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        text = pipe.read()
    os.waitpid(pid, 0)
    return json.loads(text)


def serve(src: str):
    start = time.perf_counter()
    import fixscope.pipeline as pipeline
    from fixscope.context import category_table_checksum
    from fixscope.grammar import taxonomy_checksum
    taxonomy_checksum()
    category_table_checksum()
    setup_s = time.perf_counter() - start
    expected = Path(src).resolve() / "fixscope"
    if Path(pipeline.__file__).resolve().parent != expected:
        raise RuntimeError(f"imported {pipeline.__file__}, expected {expected}")
    print(json.dumps({"setup_s": setup_s}), flush=True)

    for line in sys.stdin:
        request = json.loads(line)
        reply = {}
        if request.get("probe"):
            reply["probe"] = [timed_probe(request["probe"])]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.dup2(2, 1)  # stdout carries the replies; the op must not write there
                try:
                    result = {"error": None, **measure(request, pipeline)}
                except Exception:
                    result = {"error": traceback.format_exc()}
                Path(request["result"]).write_text(json.dumps(result))
                code = 1 if result["error"] else 0
            finally:
                os._exit(code)
        _, reply["status"] = os.waitpid(pid, 0)
        if request.get("probe"):
            reply["probe"].append(timed_probe(request["probe"]))
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    serve(sys.argv[1])
