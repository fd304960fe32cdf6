"""Command-line pipeline: simulate, track, identify, train, dataset.

Every command is reproducible: all randomness flows from one --seed value,
fanned out per component by hashing the component name into a child seed
(component_seed), so repeated runs with identical inputs produce byte-identical
outputs. Outputs are plain CSV/JSON plus the documented binary frame, dataset
and model formats; no wall-clock timestamps are written.

Exit codes: 0 success, 1 a config.ValidationError (every stage's typed error
is one), 2 an OSError or frameio.FormatError, 3 any other exception, a bare
ValueError or KeyError included: a fault in the code.

Each subcommand takes only the flags it reads; one that it would leave unread
exits 1 (_reject_unread), and so does a numeric flag out of its range, checked
at parse time. --v-max is the one motion assumption; CAPTURE_FLAG_DEFAULTS
holds its one default. A capture's radar is the one frameio.read_frames
returns: its header's, or for a headerless int16 capture the --raw-int16
radar config (default: the built-in radar).

track_capture is the one capture recipe: `track`, `identify --frames` and the
acceptance suite's end-to-end tracking check all track a capture and take its
noise calibration from it, and capture_segments turns a track into segments.
background_threshold and scene_segment are the one dataset recipe: `dataset
gen`, the acceptance suite and the identification demo all build segments
with them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import echo, frameio, identify, lstm, scenarios, tracking
from .config import (RadarConfig, TrajectorySegment, TrajectorySpec, ValidationError,
                     csv_columns, json_document, json_field, json_fields, load_radar_config)
from .echo import SceneSpec, StaticClutter, Distractor, UavEmitter
from .folding import build_folding_map
from .identify import IdentifyError
from .lstm import ModelError
from .rdmap import beat_range_bin, process_frames

SCENARIO_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


def component_seed(root_seed: int, component: str) -> int:
    """Stable child seed for a named component."""
    digest = hashlib.sha256(component.encode()).digest()
    salt = int.from_bytes(digest[:8], "little")
    seq = np.random.SeedSequence([int(root_seed), salt])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- scenario files ----------------------------------------------------------

# The kind of every key each level of a scenario file may carry; any other key
# exits 1. A distractor's params are the numbers echo.DISTRACTOR_PARAMS names.
SCENARIO_FIELDS = {"schema_version": "integer", "seed": "integer", "noise_std": "number",
                   "emitters": "list"}
EMITTER_FIELDS = {"uav": {"uav": "object", "trajectory": "list"},  # by "kind"
                  "static-clutter": {"range_m": "number", "reflectivity": "number"},
                  "distractor": {"distractor": "string", "params": "object"}}
UAV_FIELDS = {"geometry_seed": "integer", "rotation_rate_hz": "number", "rotor_count": "integer",
              "scatterers_per_rotor": "integer", "blade_reflectivity": "number",
              "body_reflectivity": "number"}
LEG_FIELDS = dict.fromkeys(("start_time_s", "duration_s", "start_range_m",
                            "radial_velocity_m_per_s"), "number")


def _seed(value: int, what: str) -> int:
    if value < 0:  # a numpy SeedSequence takes no negative entropy
        raise ValidationError(f"{what} = {value} is negative")
    return value


def load_scenario(path, seed: int) -> SceneSpec:
    """Build a SceneSpec from a scenario JSON file.

    The file may pin its own "seed"; otherwise the scene seed derives from
    --seed. A "uav" emitter gives summary knobs (rotation_rate_hz,
    blade_reflectivity, ...) that scenarios.make_uav expands deterministically.
    """
    with open(path, "rb") as fh:
        doc = json_fields(json_document(fh.read(), "scenario file"), SCENARIO_FIELDS, "scenario")
    if doc.get("schema_version") != SCENARIO_SCHEMA_VERSION:
        raise ValidationError(f"unsupported scenario schema_version {doc.get('schema_version')!r}")
    scene_seed = _seed(doc.get("seed", component_seed(seed, "scene")), "scenario seed")
    emitters = []
    for i in range(len(doc.get("emitters", []))):
        where = f"scenario emitter {i}"
        item = dict(json_field(doc["emitters"], i, "object", "scenario emitter"))
        kind = json_field(item, "kind", "string", where)
        if kind not in EMITTER_FIELDS:
            raise ValidationError(f"{where} has unknown kind {kind!r}")
        del item["kind"]
        item = json_fields(item, EMITTER_FIELDS[kind], where)
        if kind == "uav":
            knobs = json_fields(item.get("uav", {}), UAV_FIELDS, f"{where} uav")
            knobs["seed"] = _seed(knobs.pop("geometry_seed", scene_seed),
                                  f"{where} uav geometry_seed")
            legs = json_field(item, "trajectory", "list", where)
            segments = tuple(TrajectorySegment(**json_fields(
                json_field(legs, j, "object", f"{where} trajectory"), LEG_FIELDS,
                f"{where} trajectory {j}", required=True)) for j in range(len(legs)))
            emitters.append(UavEmitter(scenarios.make_uav(**knobs), TrajectorySpec(segments)))
        elif kind == "static-clutter":
            emitters.append(StaticClutter(**json_fields(item, EMITTER_FIELDS[kind], where,
                                                    required=True)))
        else:
            name = json_field(item, "distractor", "string", where)
            if name not in echo.DISTRACTOR_PARAMS:
                raise ValidationError(f"{where} has unknown distractor {name!r}")
            emitters.append(Distractor(kind=name, params=json_fields(
                item.get("params", {}), dict.fromkeys(echo.DISTRACTOR_PARAMS[name], "number"),
                f"{where} params")))
    return SceneSpec(emitters=tuple(emitters),
                     noise_std=doc.get("noise_std", scenarios.NOISE_STD),
                     rng_seed=scene_seed)


# --- shared pipeline pieces ---------------------------------------------------

def _radar_for(config) -> RadarConfig:
    """The radar of a config file, or the built-in radar without one."""
    return load_radar_config(config) if config else RadarConfig()


@dataclass(frozen=True)
class CaptureTrack:
    """What track_capture yields: the track, its segment window, its noise calibration."""

    track: tracking.Track
    window: int                 # identify.segment_window_frames of the capture's radar
    calibration: float | None   # mean + 5 sigma of off-track window maxima
    profile_source: str         # "background-capture" or "self-median-fallback"


def track_capture(cube, radar: RadarConfig, background_cube=None, *, v_max: float,
                  pf_seed: int = 0) -> CaptureTrack:
    """The one capture recipe: folding map -> spectral subtraction -> DP -> particle filter.

    The noise profile is the mean of the background cube's folding map, or the
    capture's own per-bin median without one; v_max sets the DP constraint and
    the particle filter's velocity prior. The calibration is the mean + 5 sigma
    of the cleaned map's off-track per-window folding maxima (one segment window,
    or the whole capture if shorter), None when no off-track range bins remain.
    """
    k_bins = tracking.motion_bins(radar, v_max)
    values = build_folding_map(cube).values
    if background_cube is not None:
        profile = tracking.estimate_noise_profile(build_folding_map(background_cube).values)
        profile_source = "background-capture"
    else:
        profile = np.median(values, axis=1)
        profile_source = "self-median-fallback"
    cleaned = tracking.spectral_subtract(values, profile)
    track = tracking.dp_max_path(cleaned, k_bins, radar.range_bin_size_m,
                                 echo.frame_mid_times(radar, cube.shape[0]))
    filtered, _ = tracking.particle_filter(track.ranges_m, radar, v_max, pf_seed)
    track = replace(track, filtered_ranges_m=filtered)
    window = identify.segment_window_frames(radar)
    try:
        calibration = identify.calibrate_threshold(identify.noise_window_max_folds(
            cleaned, min(window, cleaned.shape[1]), exclude_bins=track.range_bins))
    except IdentifyError:
        calibration = None
    return CaptureTrack(track, window, calibration, profile_source)


def _track_files(args):
    """Reads --frames (and --background, in the same format and from the same radar);
    returns the capture's magnitude cube and its CaptureTrack under --v-max and --seed.
    Each file's payload is freed once its cube exists."""
    layout = None if args.raw_int16 is None else _radar_for(args.raw_int16)
    frames, radar = frameio.read_frames(args.frames, layout)
    cube = process_frames(frames)
    del frames
    background = None
    if args.background:
        bg_frames, bg_radar = frameio.read_frames(args.background, layout)
        mismatch = ", ".join(frameio.radar_mismatch(bg_radar, radar))
        if mismatch:
            raise ValidationError(f"--background radar differs from the capture's: {mismatch}")
        background = process_frames(bg_frames)
        del bg_frames
    return cube, track_capture(cube, radar, background, v_max=args.v_max,
                               pf_seed=component_seed(args.seed, "particle-filter"))


def capture_segments(cube, range_bins, frame_times, window: int,
                     threshold: float) -> list[identify.Segment]:
    """Diagram at per-frame range bins -> DC removal -> alignment -> filtered windows."""
    diagram, _ = identify.dc_removal(identify.diagram_at_bins(cube, range_bins))
    return identify.segment_split_filter(identify.feature_alignment(diagram), frame_times,
                                         window, threshold)


# --- the dataset recipe --------------------------------------------------------

def background_threshold(radar: RadarConfig, window: int, seed: int) -> float:
    """Folding-filter threshold from a UAV-free capture of one segment window.

    The background scene (clutter plus noise) is seeded by `seed`; the
    threshold is the mean + 5 sigma of its per-window folding maxima.
    """
    bg = scenarios.background_scene(seed=seed)
    fmap = build_folding_map(process_frames(echo.synthesize_frames(bg, radar, window)))
    return identify.calibrate_threshold(identify.noise_window_max_folds(fmap.values, window))


def scene_segment(scene: SceneSpec, radar: RadarConfig, window: int,
                  threshold: float) -> identify.Segment:
    """The labelled segment of a scene whose first emitter is the target.

    Synthesizes `window` frames, reads the magnitude cube at the target's
    truth range bins, removes DC, aligns and applies the folding filter. A UAV
    target is labelled "uav", a distractor "other"; the provenance names the
    scene kind (and a UAV's rotation rate).
    """
    target = scene.emitters[0]
    times = echo.frame_mid_times(radar, window)
    if isinstance(target, UavEmitter):
        bins = [beat_range_bin(radar, float(r)) for r in target.trajectory.range_at(times)]
        label = "uav"
        provenance = {"scene": "uav", "rotation_rate_hz":
                      target.uav.rotor_angular_velocity_rad_per_s / (2 * np.pi)}
    else:
        bins = [beat_range_bin(radar, float(target.params["range_m"]))] * window
        label = "other"
        provenance = {"scene": target.kind}
    cube = process_frames(echo.synthesize_frames(scene, radar, window))
    segment = capture_segments(cube, bins, times, window, threshold)[0]
    segment.label = label
    segment.provenance.update(provenance, source_bins="truth")
    return segment


# --- subcommands --------------------------------------------------------------

def cmd_simulate(args) -> int:
    radar = _radar_for(args.config)
    scene = load_scenario(args.scenario, args.seed)
    n_frames = args.frames or radar.frames_per_capture
    frames = echo.synthesize_frames(scene, radar, n_frames)
    for t, frame in enumerate(frames):  # the frame file stores float32 parts
        if np.abs(frame.samples.view(np.float64)).max() > np.finfo(np.float32).max:
            raise ValidationError(f"frame {t}: a sample exceeds the float32 range of a "
                                  "frame file (noise_std or a reflectivity is too large)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    frameio.write_frames(out / "frames.bin", frames, radar)

    has_uav = any(isinstance(e, UavEmitter) for e in scene.emitters)
    if has_uav:
        times, ranges, velocities = echo.scene_truth(scene, radar, n_frames)
        with open(out / "truth.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", "range_m", "velocity_m_per_s"])
            for t, r, v in zip(times, ranges, velocities):
                writer.writerow([repr(float(t)), repr(float(r)), repr(float(v))])
    _write_json(out / "simulate_meta.json", {
        "scenario": str(args.scenario), "frames": n_frames,
        "seed": args.seed, "scene_seed": scene.rng_seed,
        "noise_std": scene.noise_std, "truth_written": has_uav,
    })
    print(f"wrote {n_frames} frames to {out / 'frames.bin'}")
    return EXIT_OK


def cmd_track(args) -> int:
    truth = None
    if args.truth:  # read before the tracking chain, so a bad truth costs no tracking
        truth = csv_columns(args.truth, ("time_s", "range_m"), f"truth CSV {args.truth}")
    cube, result = _track_files(args)
    track = result.track

    # Low confidence: the track's best score stays below the noise calibration.
    low_conf = result.calibration is not None and bool(track.scores.max() < result.calibration)
    summary = {
        "frames": cube.shape[0],
        "k_bins": track.k_bins,
        "max_score": float(track.scores.max()),
        "total_score": track.total_score,
        "noise_calibration": result.calibration,
        "low_confidence": low_conf,
        "noise_profile_source": result.profile_source,
        "seed": args.seed,
    }
    if truth is not None:
        truth_times, truth_ranges = truth
        if (truth_times.shape != track.frame_times.shape
                or not np.allclose(truth_times, track.frame_times)):
            raise ValidationError("track and truth time grids do not match")
        summary["mean_relative_error"] = tracking.relative_range_error(
            track.filtered_ranges_m, truth_ranges)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracking.track_to_csv(track, out / "track.csv")
    _write_json(out / "summary.json", summary)
    print(f"wrote {out / 'track.csv'}; low_confidence={low_conf}")
    return EXIT_OK


def cmd_identify(args) -> int:
    _reject_unread(args)
    detector = lstm.load_model(args.model)
    if args.dataset:
        segments = identify.load_segments(args.dataset)
        if not segments:
            raise IdentifyError("dataset contains no segments")
    else:
        cube, result = _track_files(args)
        threshold = args.threshold
        if threshold is None:
            if result.calibration is None:
                raise IdentifyError("not enough noise-only data to calibrate a threshold")
            threshold = result.calibration
        segments = capture_segments(cube, result.track.range_bins, result.track.frame_times,
                                    result.window, threshold)
        segments = [s for s in segments if s.passed_filter]
    if segments and detector.input_dim != segments[0].values.shape[1]:
        raise ModelError(
            f"model input_dim {detector.input_dim} does not match segment "
            f"bins {segments[0].values.shape[1]}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not segments:
        _write_json(out / "metrics.json", {"verdict": "no-detection", "segments": 0})
        print("no segments passed the folding filter: no-detection")
        return EXIT_OK
    labels, metrics = identify.classify(detector, segments)
    with open(out / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["segment", "predicted", "truth", "max_folding_result",
                         "passed_filter"])
        for i, (seg, lab) in enumerate(zip(segments, labels)):
            writer.writerow([i, lab, seg.label, repr(float(seg.max_folding_result)),
                             int(seg.passed_filter)])
    payload = {"segments": len(segments),
               "verdict": "uav" if "uav" in labels else "other"}
    if metrics is not None:
        payload["metrics"] = metrics
    _write_json(out / "metrics.json", payload)
    print(f"classified {len(segments)} segments; verdict={payload['verdict']}")
    return EXIT_OK


def cmd_train(args) -> int:
    x, y = identify.training_tensors(identify.load_segments(args.dataset),
                                     f"dataset {args.dataset}")
    detector = lstm.LstmDetector(input_dim=x.shape[2], hidden_size=args.hidden,
                                 seed=component_seed(args.seed, "lstm-init"))
    val = None
    if args.val_dataset:
        val = identify.training_tensors(identify.load_segments(args.val_dataset),
                                        f"dataset {args.val_dataset}")
    _, history = lstm.lstm_train(
        detector, x, y, epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.lr, rng_seed=component_seed(args.seed, "lstm-batches"),
        val_data=val, verbose=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lstm.save_model(detector, out / "model.npz")
    _write_json(out / "history.json", {"history": history})
    print(f"wrote {out / 'model.npz'}")
    return EXIT_OK


def _save_split(segments, args, out: Path) -> int:
    """Seeded train/test split into out/train.bin and out/test.bin; returns the train count."""
    order = np.random.default_rng(
        component_seed(args.seed, "dataset-split")).permutation(len(segments))
    n_train = int(round(args.train_frac * len(segments)))
    identify.save_segments(out / "train.bin", [segments[i] for i in order[:n_train]])
    identify.save_segments(out / "test.bin", [segments[i] for i in order[n_train:]])
    return n_train


def cmd_dataset_gen(args) -> int:
    radar = _radar_for(args.config)
    window = identify.segment_window_frames(radar)
    rng = np.random.default_rng(component_seed(args.seed, "dataset-gen"))
    threshold = background_threshold(radar, window,
                                     component_seed(args.seed, "dataset-background"))
    segments = [scene_segment(scenarios.sample_uav_scene(rng), radar, window, threshold)
                for _ in range(args.uav)]
    segments += [scene_segment(scenarios.sample_distractor_scene(rng), radar, window,
                               threshold) for _ in range(args.distractor)]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    identify.save_segments(out / "dataset.bin", segments)
    n_train = _save_split(segments, args, out)
    _write_json(out / "dataset_meta.json", {
        "uav": args.uav, "distractor": args.distractor,
        "window_frames": window, "threshold": threshold, "seed": args.seed,
        "train_segments": n_train, "test_segments": len(segments) - n_train,
    })
    print(f"wrote {len(segments)} segments to {out / 'dataset.bin'} "
          f"({n_train} train / {len(segments) - n_train} test)")
    return EXIT_OK


def cmd_dataset_split(args) -> int:
    segments = identify.load_segments(args.dataset)
    if not segments:
        raise IdentifyError("dataset contains no segments")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_train = _save_split(segments, args, out)
    print(f"split {len(segments)} segments into {n_train} train / "
          f"{len(segments) - n_train} test")
    return EXIT_OK


def cmd_dataset_stats(args) -> int:
    segments = identify.load_segments(args.dataset)
    counts = Counter(seg.label for seg in segments)
    stats = {
        "segments": len(segments),
        "labels": counts,
        "class_balance": counts["uav"] / len(segments) if segments else 0.0,
        "passed_filter": sum(bool(seg.passed_filter) for seg in segments),
    }
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


# --- parser -------------------------------------------------------------------

# The capture flags identify --dataset leaves unread, by argparse dest, with their parser
# defaults; a flag counts as set when its value differs from its default.
CAPTURE_FLAG_DEFAULTS = {"background": None, "raw_int16": None, "threshold": None,
                         "v_max": 4.0}


def _reject_unread(args) -> None:
    """Exit 1 naming the capture flags identify --dataset would not read."""
    if args.dataset:
        unread = ", ".join(f"--{dest.replace('_', '-')}" for dest in CAPTURE_FLAG_DEFAULTS
                           if getattr(args, dest) != CAPTURE_FLAG_DEFAULTS[dest])
        if unread:
            raise ValidationError(f"identify --dataset takes no capture flags: {unread}")


def _number(cast, rule: str, ok):
    """argparse type: `cast` of a flag's text that passes `ok`; else argparse names the flag."""
    def parse(text):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


_COUNT = _number(int, "an integer >= 0", lambda v: v >= 0)
_AT_LEAST_ONE = _number(int, "an integer >= 1", lambda v: v >= 1)
_FRACTION = _number(float, "a number in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_FINITE = _number(float, "a finite number", math.isfinite)
_POSITIVE = _number(float, "a finite number > 0", lambda v: math.isfinite(v) and v > 0)


def _add_seed_out(p, seed_help="root seed; all component randomness derives from it"):
    p.add_argument("--seed", type=_COUNT, default=0, help=seed_help)
    p.add_argument("--out", default=".", help="output directory")


def _add_capture_flags(p):
    p.add_argument("--v-max", type=_POSITIVE, default=CAPTURE_FLAG_DEFAULTS["v_max"],
                   help="largest radial speed in m/s: sets the DP motion constraint and "
                        "the particle filter's velocity prior")
    p.add_argument("--background", help="background capture for noise profile estimation")
    p.add_argument("--raw-int16", nargs="?", const="", metavar="CONFIG",
                   help="frames and background files are headerless int16 in the layout "
                        "of the radar config JSON CONFIG (default: the built-in radar)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorsense",
        description="FMCW radar pipeline: UAV echo simulation, folding-based "
                    "tracking and LSTM identification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a scenario into a frame file")
    _add_seed_out(p)
    p.add_argument("--config", help="radar config JSON (default: the built-in radar)")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--frames", type=_AT_LEAST_ONE, default=None,
                   help="frame count (default: radar frames_per_capture)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="recover the range track from a frame file")
    _add_seed_out(p)
    p.add_argument("--frames", required=True)
    p.add_argument("--truth", default=None, help="truth CSV on the capture's time grid")
    _add_capture_flags(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("identify", help="classify a capture or a segment dataset")
    _add_seed_out(p, seed_help="root seed; today it seeds only the particle filter, "
                               "whose output identify does not read")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--frames")
    source.add_argument("--dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=_FINITE,
                   help="fixed folding-filter threshold (default: the capture's noise "
                        "calibration)")
    _add_capture_flags(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("train", help="train the LSTM detector on a dataset")
    _add_seed_out(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--val-dataset", default=None)
    p.add_argument("--epochs", type=_COUNT, default=lstm.EPOCHS)
    p.add_argument("--batch-size", type=_AT_LEAST_ONE, default=lstm.BATCH_SIZE)
    p.add_argument("--lr", type=_POSITIVE, default=lstm.LEARNING_RATE)
    p.add_argument("--hidden", type=_AT_LEAST_ONE, default=lstm.HIDDEN_SIZE)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("dataset", help="generate, split or inspect segment datasets")
    actions = p.add_subparsers(dest="action", required=True)
    p = actions.add_parser("gen", help="synthesize a labelled dataset and its split")
    _add_seed_out(p)
    p.add_argument("--config", help="radar config JSON (default: the built-in radar)")
    p.add_argument("--uav", type=_COUNT, default=200)
    p.add_argument("--distractor", type=_COUNT, default=200)
    p.add_argument("--train-frac", type=_FRACTION, default=0.7)
    p.set_defaults(func=cmd_dataset_gen)
    p = actions.add_parser("split", help="seeded train/test split of a dataset")
    _add_seed_out(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--train-frac", type=_FRACTION, default=0.7)
    p.set_defaults(func=cmd_dataset_split)
    p = actions.add_parser("stats", help="print a dataset's label counts")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_dataset_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (frameio.FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # a bare ValueError included: a fault in the code
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
