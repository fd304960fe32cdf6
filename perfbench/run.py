"""rotorsense benchmark: one workload, or all of them, end to end or traced.

    python3 perfbench/run.py --workload scene-e2e --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; paths resolve against the checkout that holds this file.
A run sets its workload up SETUP_REPEATS times (once when traced) and hands
the timed part to perfbench/child.py in a fresh process. The last line of
standard output is one JSON object: correct, attempted, failed and metrics,
the end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1. The line before it holds context: environment,
output digests and quality figures. perfbench/README.md defines each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170      # a run must end within 180 s
ADDITIVITY_TOLERANCE = 0.02

REQUIRED = [ROOT / "BENCHMARK.json", SRC / "rotorsense" / "cli.py"] + [
    ROOT / "demos" / "scenarios" / f"{name}.json"
    for name in workloads.SCENE_FILES + ("background",)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    """Context recorded beside the metrics, never compared."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "rotorsense").glob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "src_lines": src_lines}


def _blas_threads(np):
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_setup(workload, seed, setup_dir, tracer=None):
    """One set-up: returns its ops, their results and its wall time."""
    if tracer is not None:
        tracer.phase = "setup"
        tracer.install()
        root = tracer.open("setup", "bench")
    try:
        start = time.perf_counter()
        ops = workloads.setup(workload, seed, ROOT, setup_dir)
        results = [workloads.run_op(op, tracer) for op in ops]
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    return ops, results, seconds


def run_child(spec: dict, work: Path, deadline: float) -> dict:
    spec_path = work / "child_spec.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"timed part exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(Path(spec["result"]).read_text())


def _tail(samples):
    """Highest of p90/p99 with at least ten samples beyond it, or None."""
    best = None
    for p in (90, 99):
        if len(samples) * (100 - p) / 100 >= 10:
            best = {"p": p, "s": statistics.quantiles(samples, n=100)[p - 1]}
    return best


def end_to_end(child: dict, setup_seconds: list) -> tuple[dict, dict]:
    walls = [p["wall"] for p in child["passes"]]
    verdicts = [op["seconds"] for p in child["passes"] for op in p["ops"] if op["verdict"]]
    values = {"run_s": statistics.median(walls),
              "setup_s": statistics.median(setup_seconds),
              "verdict_p50_s": statistics.median(verdicts),
              "peak_rss_mb": child["peak_rss_kib"] / 1024}
    op_seconds = {}
    for p in child["passes"]:
        for op in p["ops"]:
            op_seconds.setdefault(op["name"], []).append(op["seconds"])
    context = {"passes": len(walls), "pass_walls_s": walls, "setups_s": setup_seconds,
               "pass_cpu_s": [p["cpu"] for p in child["passes"]],
               "op_seconds": {k: statistics.median(v) for k, v in op_seconds.items()},
               "verdict_samples": len(verdicts), "verdict_tail": _tail(verdicts)}
    return values, context


def per_layer(setup_spans, child: dict, expected: dict) -> tuple[dict, dict, list]:
    """Per-layer metrics of one traced set-up plus the mean traced pass."""
    setup = tracing.phase_totals(setup_spans)
    traced = [p for p in child["passes"] if p["traced"]]
    untraced = [p for p in child["passes"] if not p["traced"]]
    passes = [tracing.phase_totals([s for s in child["spans"] if s["phase"] == p["phase"]])
              for p in traced]
    total = tracing.combine(setup, passes)
    values = tracing.layer_metrics(total)
    probe = child["read_probe"]
    values["frameio.read_peak_x"] = probe["peak_bytes"] / probe["bytes"]
    values["trace.setup_s"] = setup["wall"]
    values["trace.run_s"] = statistics.fmean(p["wall"] for p in passes)
    values["trace.overhead_s"] = (values["trace.run_s"]
                                  - statistics.fmean(p["wall"] for p in untraced))

    problems = []
    for phase, parts in (("setup", [setup]), ("pass", passes)):
        for key in expected[phase]:
            if not sum(part["calls"].get(key, 0) for part in parts):
                problems.append(f"{key} recorded no call in the {phase}")
    attributed = sum(total["seconds"].get(k, 0.0) for k in tracing.LAYER_TOTALS)
    residual = total["wall"] - attributed
    if abs(residual) > ADDITIVITY_TOLERANCE * total["wall"]:
        problems.append(f"layer self times miss {residual:.4f} s of {total['wall']:.4f} s")
    context = {"traced_passes": len(traced), "untraced_passes": len(untraced),
               "unattributed_s": residual, "read_probe": probe,
               "calls": {k: round(v, 3) for k, v in sorted(total["calls"].items())}}
    return values, context, problems


def run_setups(args, work: Path, tracer):
    """Set the workload up (once when traced); repeats must match the first."""
    seconds, results, reference = [], [], None
    for i in range(1 if tracer is not None else SETUP_REPEATS):
        setup_dir = work / f"setup{i}"
        ops, res, wall = run_setup(args.workload, args.seed, setup_dir, tracer)
        for op, r in zip(ops, res):
            workloads.check_op(op, r, reference.get(op.name) if reference else None)
        reference = reference or {r["name"]: r for r in res}
        seconds.append(wall)
        results += res
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
    return setup_dir, seconds, results


def write_trace(path: Path, setup_spans: list, child_spans: list) -> None:
    """One span list for the run: child ids are shifted past the set-up's."""
    spans = list(setup_spans)
    offset = len(spans)
    for s in child_spans:
        spans.append(dict(s, id=s["id"] + offset,
                          parent=None if s["parent"] is None else s["parent"] + offset))
    for s in spans:
        if s["attrs"] and "fingerprints" in s["attrs"]:
            s["attrs"] = dict(s["attrs"], fingerprints=len(s["attrs"]["fingerprints"]))
    path.write_text(json.dumps({"spans": spans}))


def quality(child: dict, failed: int, attempted: int) -> dict:
    """Deterministic output figures of the warm-up pass, plus the failure share."""
    ops = child["warmup"]["ops"]
    out = {"fail_frac": failed / attempted}
    errs = [op["track_rel_err"] for op in ops if "track_rel_err" in op]
    if errs:
        out["track_rel_err"] = statistics.fmean(errs)
    for key, field in (("val_loss", "val_loss"), ("test_accuracy", "accuracy")):
        found = [op[field] for op in ops if field in op]
        if found:
            out[key] = found[0]
    return out


def run_workload(args, spec_metrics: dict) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    work = RUNS / f"work-{tag}-{os.getpid()}"
    sys.path.insert(0, str(SRC))
    import rotorsense.cli  # noqa: F401  (loaded before the tracer patches it)

    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_dir, setup_seconds, results = run_setups(args, work, tracer)
        child = run_child({"workload": args.workload, "seed": args.seed,
                           "seconds": args.seconds, "trace": args.trace,
                           "root": str(ROOT), "src": str(SRC),
                           "setup_dir": str(setup_dir), "work": str(work),
                           "result": str(work / "child_result.json")}, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results += child["warmup"]["ops"] + [op for p in child["passes"] for op in p["ops"]]
    failures = [f"{r['name']}: {why}" for r in results for why in r["failures"]]
    failed = sum(1 for r in results if r["failures"])
    if args.trace:
        setup_spans = [s.to_dict() for s in tracer.spans]
        values, context, problems = per_layer(setup_spans, child,
                                              workloads.EXPECTED_CALLS[args.workload])
        write_trace(RUNS / f"{tag}.json", setup_spans, child["spans"])
    else:
        values, context = end_to_end(child, setup_seconds)
        problems = []
    digests = {r["name"]: r["digests"] for r in child["warmup"]["ops"]}
    context.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quality": quality(child, failed, len(results)),
        "outputs_digest": hashlib.sha256(
            json.dumps(digests, sort_keys=True).encode()).hexdigest(),
        "env": environment(),
        "failures": failures[:20] + problems,
    })
    (RUNS / f"{tag}-report.json").write_text(json.dumps(
        {"context": context, "digests": digests, "metrics": values}, indent=2))

    metrics = {}
    for name, unit in spec_metrics.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<28} {values[name]:>14.6g} {unit}")
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": not failures and not problems, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each metric and fail_frac."""
    summary, status = {}, 0
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_DEADLINE_S + 10)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        fail_frac = result["failed"] / result["attempted"]
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_frac={fail_frac:.4f}")
        for metric, v in result["metrics"].items():
            print(f"   {metric:<28} {v['value']:>14.6g} {v['unit']}")
        summary[name] = dict(result, fail_frac=fail_frac)
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    for var in [v for v in os.environ if v.startswith("ROTORSENSE_")]:
        del os.environ[var]   # the CLI reads defaults from these
    if args.workload == "all":
        return run_all(args)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec_metrics = {m["name"]: m["unit"]
                    for m in bench["per_layer" if args.trace else "end_to_end"]}
    return run_workload(args, spec_metrics)


if __name__ == "__main__":
    sys.exit(main())
