"""The benchmark's workloads: CLI operations, their inputs and their checks.

Every workload is a set-up, whose outputs the timed part reads, and a pass,
the sequence of CLI commands that one timed repetition runs. Each operation
is one call of rotorsense.cli.main(argv) in the benchmark's process. All seeds
handed to the CLI derive from the workload seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

NAMES = ("scene-e2e", "long-capture", "train")

# Criterion 5's budget on the mean relative range error of a UAV track.
TRACK_ERR_BOUND = 0.02

SCENE_FILES = ("hover48", "ascent", "flapper")
LONG_FRAMES = 400            # 36 s at the default radar's 0.09 s frames
CORPUS_PER_CLASS = 6         # dataset gen --uav N --distractor N for `train`
TRAIN_EPOCHS = 20
MODEL_PER_CLASS = 1          # the small model the capture workloads classify with
MODEL_EPOCHS = 2


_CAPTURE_PATH = ("frameio.read_s", "rdmap.s", "folding.s", "tracking.subtract_s",
                 "tracking.dp_s", "tracking.pf_s", "identify.preprocess_s",
                 "identify.segment_filter_s", "lstm.forward_s", "cli.self_s")
_CORPUS_BUILD = ("echo.s", "rdmap.s", "folding.s", "identify.preprocess_s",
                 "identify.segment_filter_s", "identify.dataset_io_s", "cli.self_s")
_MODEL_BUILD = _CORPUS_BUILD + ("frameio.write_s", "lstm.train_step_s", "lstm.adam_s")

# Per-layer metrics whose functions each phase is predicted to call; a traced
# run fails its self-check when one of them records no call.
EXPECTED_CALLS = {
    "scene-e2e": {"setup": _MODEL_BUILD,
                  "pass": _CAPTURE_PATH + ("echo.s", "frameio.write_s")},
    "long-capture": {"setup": _MODEL_BUILD, "pass": _CAPTURE_PATH},
    "train": {"setup": _CORPUS_BUILD + ("frameio.write_s",),
              "pass": _CAPTURE_PATH + ("lstm.train_step_s", "lstm.adam_s",
                                       "identify.dataset_io_s")},
}


@dataclass(frozen=True)
class Op:
    """One CLI call; `outputs` are the files in `out` it writes and the checks digest."""

    name: str
    argv: tuple
    out: Path
    outputs: tuple = ()
    truth: bool = False      # track with --truth: gate summary.json's error
    verdict: bool = False    # identify --frames: one capture-to-verdict latency sample


def derive_seed(seed: int, label: str) -> int:
    """31-bit CLI seed for one named input of the workload seeded by `seed`."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _simulate(name, scenario, seed, out, frames=None):
    argv = ["simulate", "--scenario", str(scenario), "--seed", str(seed), "--out", str(out)]
    if frames:
        argv += ["--frames", str(frames)]
    return Op(name, tuple(argv), Path(out), ("frames.bin", "truth.csv"))


def _track(name, frames, seed, out, background=None, truth=None):
    argv = ["track", "--frames", str(frames), "--seed", str(seed), "--out", str(out)]
    if background:
        argv += ["--background", str(background)]
    if truth:
        argv += ["--truth", str(truth)]
    return Op(name, tuple(argv), Path(out), ("track.csv", "summary.json"), truth=bool(truth))


def _identify_frames(name, frames, model, seed, out, background=None):
    argv = ["identify", "--frames", str(frames), "--model", str(model),
            "--seed", str(seed), "--out", str(out)]
    if background:
        argv += ["--background", str(background)]
    return Op(name, tuple(argv), Path(out), ("metrics.json", "labels.csv"), verdict=True)


def _model_ops(seed, setup_dir):
    """A small CLI-trained model, enough for identify --frames to run its LSTM."""
    out = setup_dir / "model"
    s = derive_seed(seed, "model")
    return [
        Op("model/dataset-gen",
           ("dataset", "gen", "--uav", str(MODEL_PER_CLASS), "--distractor",
            str(MODEL_PER_CLASS), "--seed", str(s), "--out", str(out)),
           out, ("dataset.bin",)),
        Op("model/train",
           ("train", "--dataset", str(out / "dataset.bin"), "--epochs", str(MODEL_EPOCHS),
            "--seed", str(s), "--out", str(out)),
           out, ("model.npz", "history.json")),
    ]


def long_scenario(seed: int) -> dict:
    """36 s capture: a UAV approaches, hovers and recedes; clutter and a flapper stay put.

    The UAV stays between 46 and 66 m and the flapper between 22 and 32 m, so
    the tracker's per-frame motion bound keeps the two apart.
    """
    rng = random.Random(derive_seed(seed, "long-capture/scenario"))
    far = rng.uniform(58.0, 66.0)
    leg = 12.0   # three legs cover the LONG_FRAMES frames
    legs = ((far, -1.0), (far - 12.0, 0.0), (far - 12.0, 1.0))
    return {
        "schema_version": 1,
        "noise_std": 4.0,
        "emitters": [
            {"kind": "uav",
             "uav": {"rotation_rate_hz": rng.uniform(40.0, 120.0),
                     "rotor_count": 4, "scatterers_per_rotor": 2},
             "trajectory": [{"start_time_s": i * leg, "duration_s": leg,
                             "start_range_m": r, "radial_velocity_m_per_s": v}
                            for i, (r, v) in enumerate(legs)]},
            {"kind": "static-clutter", "range_m": 12.0, "reflectivity": 2.0},
            {"kind": "distractor", "distractor": "aperiodic-flapper",
             "params": {"range_m": rng.uniform(22.0, 32.0), "reflectivity": 1.3,
                        "base_rate_hz": rng.uniform(30.0, 60.0), "amplitude_m": 0.03}},
        ],
    }


def setup(workload: str, seed: int, root: Path, setup_dir: Path) -> list[Op]:
    """Write the workload's own input files; return the set-up's CLI operations."""
    scenarios = root / "demos" / "scenarios"
    background = _simulate("background", scenarios / "background.json",
                           derive_seed(seed, "background"), setup_dir / "bg")
    if workload == "scene-e2e":
        return [background] + _model_ops(seed, setup_dir)
    if workload == "long-capture":
        setup_dir.mkdir(parents=True, exist_ok=True)
        scenario = setup_dir / "long.json"
        scenario.write_text(json.dumps(long_scenario(seed), indent=2))
        capture = _simulate("long/simulate", scenario, derive_seed(seed, "long-capture"),
                            setup_dir / "long", frames=LONG_FRAMES)
        return [capture, background] + _model_ops(seed, setup_dir)
    if workload == "train":
        out = setup_dir / "corpus"
        return [
            Op("corpus/dataset-gen",
               ("dataset", "gen", "--uav", str(CORPUS_PER_CLASS), "--distractor",
                str(CORPUS_PER_CLASS), "--seed", str(derive_seed(seed, "corpus")),
                "--out", str(out)),
               out, ("dataset.bin", "train.bin", "test.bin")),
            _simulate("capture/simulate", scenarios / "hover48.json",
                      derive_seed(seed, "capture"), setup_dir / "capture"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pass_ops(workload: str, seed: int, root: Path, setup_dir: Path,
             pass_dir: Path) -> list[Op]:
    """The CLI operations of one timed pass, reading the set-up's files."""
    bg = setup_dir / "bg" / "frames.bin"
    model = setup_dir / "model" / "model.npz"
    if workload == "scene-e2e":
        ops = []
        for name in SCENE_FILES:
            s = derive_seed(seed, f"scene-e2e/{name}")
            out = pass_dir / name
            sim = _simulate(f"{name}/simulate", root / "demos" / "scenarios" / f"{name}.json",
                            s, out)
            truth = out / "truth.csv" if name != "flapper" else None
            ops += [sim,
                    _track(f"{name}/track", out / "frames.bin", s, out, bg, truth),
                    _identify_frames(f"{name}/identify", out / "frames.bin", model, s, out, bg)]
        return ops
    if workload == "long-capture":
        s = derive_seed(seed, "long-capture")
        frames = setup_dir / "long" / "frames.bin"
        out = pass_dir / "long"
        return [_track("long/track", frames, s, out, bg, setup_dir / "long" / "truth.csv"),
                _identify_frames("long/identify", frames, model, s, out, bg)]
    if workload == "train":
        corpus = setup_dir / "corpus"
        out = pass_dir / "model"
        trained = out / "model.npz"
        return [
            Op("train",
               ("train", "--dataset", str(corpus / "train.bin"), "--val-dataset",
                str(corpus / "test.bin"), "--epochs", str(TRAIN_EPOCHS),
                "--seed", str(derive_seed(seed, "train")), "--out", str(out)),
               out, ("model.npz", "history.json")),
            Op("test/identify",
               ("identify", "--dataset", str(corpus / "test.bin"), "--model", str(trained),
                "--out", str(pass_dir / "test")),
               pass_dir / "test", ("metrics.json", "labels.csv")),
            _identify_frames("capture/identify", setup_dir / "capture" / "frames.bin",
                             trained, derive_seed(seed, "capture"), pass_dir / "capture"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- running and checking one operation ---------------------------------------

def run_op(op: Op, tracer=None) -> dict:
    """Call the CLI in-process; its prints are captured, its exit code returned."""
    from rotorsense import cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{op.argv[0]}", "cli") if tracer is not None else nullcontext()
    start = time.perf_counter()
    with span, redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(op.argv))
    seconds = time.perf_counter() - start
    return {"name": op.name, "code": code, "seconds": seconds, "verdict": op.verdict,
            "stderr": err.getvalue()[-400:]}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_op(op: Op, result: dict, reference: dict | None) -> dict:
    """Digest the op's outputs and record why it failed, if it did.

    An op fails when the CLI exits non-zero, when a UAV track misses the
    range-error bound, or when its outputs differ from the first run of the
    same op in this benchmark run (`reference`).
    """
    failures = []
    if result["code"] != 0:
        failures.append(f"exit code {result['code']}: {result['stderr'].strip()}")
    result["digests"] = {name: _sha256(op.out / name) if (op.out / name).exists() else None
                         for name in op.outputs}
    if result["code"] == 0 and op.truth:
        err = json.loads((op.out / "summary.json").read_text())["mean_relative_error"]
        result["track_rel_err"] = err
        if not err <= TRACK_ERR_BOUND:
            failures.append(f"track_rel_err {err:.4f} > {TRACK_ERR_BOUND}")
    if result["code"] == 0 and "metrics.json" in op.outputs:
        metrics = json.loads((op.out / "metrics.json").read_text())
        result["verdict_label"] = metrics["verdict"]
        if "metrics" in metrics:
            result["accuracy"] = metrics["metrics"]["accuracy"]
    if result["code"] == 0 and "history.json" in op.outputs:
        last = json.loads((op.out / "history.json").read_text())["history"][-1]
        if "val_loss" in last:
            result["val_loss"] = last["val_loss"]
    if reference is not None and result["digests"] != reference["digests"]:
        changed = sorted(k for k in op.outputs
                         if result["digests"][k] != reference["digests"].get(k))
        failures.append(f"outputs differ from the op's first run: {changed}")
    result["failures"] = failures
    return result
