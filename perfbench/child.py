"""Timed part of one benchmark run, in a fresh process so its peak RSS is its own.

    python3 perfbench/child.py SPEC_JSON

The spec names the workload, seed, time budget, trace flag, the set-up's
directory and where to write the result. The process runs one warm-up pass,
then timed passes until the next one would overrun the budget. With tracing
on, untraced and traced passes alternate, so their difference is the tracing
overhead. Every pass's outputs are checked against the warm-up pass.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

import tracer as tracing
import workloads


def run_pass(ops, reference, tracer=None, phase=None) -> dict:
    results = []
    if tracer is not None:
        tracer.phase = phase
        tracer.install()
        root = tracer.open("pass", "bench")
    try:
        start, cpu_start = time.perf_counter(), time.process_time()
        for op in ops:
            results.append(workloads.run_op(op, tracer))
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    for op, res in zip(ops, results):
        workloads.check_op(op, res, reference.get(op.name) if reference else None)
    return {"phase": phase, "traced": tracer is not None, "wall": wall, "cpu": cpu,
            "ops": results}


def read_peak_ratio(ops) -> dict:
    """tracemalloc peak of reading the pass's largest capture, over its file size."""
    from rotorsense import frameio

    paths = {Path(op.argv[i + 1]) for op in ops for i, a in enumerate(op.argv)
             if a == "--frames"}
    path = max(paths, key=lambda p: p.stat().st_size)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        frameio.read_frames(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"file": path.name, "bytes": size, "peak_bytes": peak}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import rotorsense.cli  # noqa: F401  (the tracer patches loaded modules only)

    root, setup_dir, work = Path(spec["root"]), Path(spec["setup_dir"]), Path(spec["work"])

    def ops_for(name):
        return workloads.pass_ops(spec["workload"], spec["seed"], root, setup_dir, work / name)

    warm_ops = ops_for("warmup")
    warmup = run_pass(warm_ops, None, phase="warmup")
    reference = {res["name"]: res for res in warmup["ops"]}
    shutil.rmtree(work / "warmup", ignore_errors=True)

    tracer = tracing.Tracer() if spec["trace"] else None
    probe = None
    passes = []
    budget_start = time.perf_counter()
    while True:
        i = len(passes)
        traced = tracer is not None and i % 2 == 1
        ops = ops_for(f"pass{i}")
        passes.append(run_pass(ops, reference, tracer if traced else None, phase=f"pass{i}"))
        if traced and probe is None:
            probe = read_peak_ratio(ops)
        shutil.rmtree(work / f"pass{i}", ignore_errors=True)
        elapsed = time.perf_counter() - budget_start
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and elapsed * (len(passes) + 1) / len(passes) > spec["seconds"]:
            break

    result = {
        "warmup": warmup,
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "read_probe": probe,
        "spans": [s.to_dict() for s in tracer.spans] if tracer is not None else [],
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
