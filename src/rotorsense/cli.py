"""Command-line pipeline: simulate, track, identify, train, evaluate, dataset.

Every command is reproducible: all randomness flows from one --seed value,
fanned out per component by hashing the component name into a child seed
(component_seed), so repeated runs with identical inputs produce byte-identical
outputs. Outputs are plain CSV/JSON plus the documented binary frame, dataset
and model formats; no wall-clock timestamps are written.

Exit codes: 0 success, 1 validation error, 2 I/O or file-format error,
3 internal error. Global flags may also be set via environment variables
ROTORSENSE_SEED, ROTORSENSE_OUT and ROTORSENSE_CONFIG.

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
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import echo, frameio, identify, lstm, scenarios, tracking
from .config import (DerivedParams, RadarConfig, TrajectorySegment, TrajectorySpec,
                     ValidationError, derive, load_radar_config)
from .echo import SceneSpec, SimulationError, StaticClutter, Distractor, UavEmitter
from .folding import FoldingError, build_folding_map
from .identify import IdentifyError
from .lstm import ModelError
from .rdmap import ProcessingError, beat_range_bin, process_frames
from .tracking import TrackingError

SCENARIO_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3

_VALIDATION_ERRORS = (ValidationError, SimulationError, ProcessingError,
                      FoldingError, TrackingError, IdentifyError, ModelError,
                      json.JSONDecodeError, KeyError, ValueError)


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

def _trajectory_from_json(items) -> TrajectorySpec:
    segs = tuple(TrajectorySegment(
        start_time_s=float(s["start_time_s"]),
        duration_s=float(s["duration_s"]),
        start_range_m=float(s["start_range_m"]),
        radial_velocity_m_per_s=float(s["radial_velocity_m_per_s"]),
    ) for s in items)
    return TrajectorySpec(segments=segs).validate()


def load_scenario(path, seed: int) -> SceneSpec:
    """Build a SceneSpec from a scenario JSON file.

    The file may pin its own "seed"; otherwise the scene seed derives from
    --seed. A "uav" emitter either spells out the full geometry arrays or
    gives summary knobs (rotation_rate_hz, blade_reflectivity, ...) that
    scenarios.make_uav expands deterministically.
    """
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ValidationError(f"unsupported scenario schema_version {version!r}")
    scene_seed = int(doc.get("seed", component_seed(seed, "scene")))
    emitters = []
    for i, item in enumerate(doc.get("emitters", [])):
        kind = item.get("kind")
        if kind == "uav":
            uav_doc = dict(item.get("uav", {}))
            geom_seed = int(uav_doc.pop("geometry_seed", scene_seed))
            uav = scenarios.make_uav(
                seed=geom_seed,
                rotation_rate_hz=float(uav_doc.pop("rotation_rate_hz",
                                                   scenarios.ROTATION_RATE_HZ)),
                rotor_count=int(uav_doc.pop("rotor_count", 6)),
                scatterers_per_rotor=int(uav_doc.pop("scatterers_per_rotor", 3)),
                blade_reflectivity=float(uav_doc.pop("blade_reflectivity",
                                                     scenarios.BLADE_REFLECTIVITY)),
                body_reflectivity=float(uav_doc.pop("body_reflectivity", 1.0)),
            )
            if uav_doc:
                raise ValidationError(f"emitter {i}: unknown uav keys {sorted(uav_doc)}")
            emitters.append(UavEmitter(uav, _trajectory_from_json(item["trajectory"])))
        elif kind == "static-clutter":
            emitters.append(StaticClutter(range_m=float(item["range_m"]),
                                          reflectivity=float(item["reflectivity"])))
        elif kind == "distractor":
            emitters.append(Distractor(kind=item["distractor"],
                                       params=dict(item.get("params", {}))))
        else:
            raise ValidationError(f"emitter {i}: unknown kind {kind!r}")
    return SceneSpec(emitters=tuple(emitters),
                     noise_std=float(doc.get("noise_std", scenarios.NOISE_STD)),
                     rng_seed=scene_seed).validate()


# --- shared pipeline pieces ---------------------------------------------------

def _radar_for(args) -> RadarConfig:
    if args.config:
        return load_radar_config(args.config)
    return RadarConfig().validate()


def _read_capture(args):
    """Frames plus a radar config, from either format."""
    if getattr(args, "raw_int16", False):
        radar = _radar_for(args)
        frames = frameio.read_frames_int16(args.frames, radar.chirps_per_frame,
                                           radar.samples_per_chirp)
        return frames, radar
    frames, header = frameio.read_frames(args.frames)
    radar = frameio.radar_from_header(header, frames_per_capture=max(1, len(frames)))
    return frames, radar


@dataclass(frozen=True)
class CaptureTrack:
    """What track_capture yields: the track, the grid it lives on, its noise calibration."""

    track: tracking.Track
    derived: DerivedParams
    calibration: float | None   # mean + 5 sigma of off-track window maxima
    profile_source: str         # "background-capture" or "self-median-fallback"


def track_capture(cube, radar: RadarConfig, background_cube=None, *, j_min: int = 2,
                  j_max: int = 20, k_bins: int = 0, v_max: float = 4.0,
                  pf_seed: int = 0) -> CaptureTrack:
    """The one capture recipe: folding map -> spectral subtraction -> DP -> particle filter.

    The noise profile is the mean of the background cube's folding map, or the
    capture's own per-bin median without one; k_bins 0 derives the DP
    constraint from v_max. The calibration is the mean + 5 sigma of the cleaned
    map's off-track per-window folding maxima (one segment window, or the whole
    capture if shorter), None when no off-track range bins remain.
    """
    derived = derive(radar, v_max_m_per_s=v_max)
    fmap = build_folding_map(cube, j_min=j_min, j_max=j_max,
                             frame_times=echo.frame_mid_times(radar, cube.shape[0]))
    if background_cube is not None:
        profile = tracking.estimate_noise_profile(
            build_folding_map(background_cube, j_min=j_min, j_max=j_max))
        profile_source = "background-capture"
    else:
        profile = tracking.NoiseProfile(values=np.median(fmap.values, axis=1))
        profile_source = "self-median-fallback"
    cleaned = tracking.spectral_subtract(fmap, profile)
    track = tracking.dp_max_path(cleaned, k_bins or derived.dp_constraint_bins,
                                 derived.range_bin_size_m)
    tracking.particle_filter(track, tracking.default_pf_config(derived, rng_seed=pf_seed),
                             derived)
    window = identify.segment_window_frames(derived)
    try:
        calibration = identify.calibrate_threshold(identify.noise_window_max_folds(
            cleaned, min(window, cleaned.n_frames), exclude_bins=track.range_bins))
    except IdentifyError:
        calibration = None
    return CaptureTrack(track, derived, calibration, profile_source)


def _track_files(args):
    """Reads --frames (and --background); returns the capture's magnitude cube and
    its CaptureTrack under the pipeline flags."""
    frames, radar = _read_capture(args)
    cube = process_frames(frames)
    background = (process_frames(frameio.read_frames(args.background)[0])
                  if args.background else None)
    return cube, track_capture(cube, radar, background, j_min=args.j_min, j_max=args.j_max,
                               k_bins=args.k_bins, v_max=args.v_max,
                               pf_seed=component_seed(args.seed, "particle-filter"))


def capture_segments(cube, range_bins, frame_times, window: int, threshold: float,
                     j_min: int = 2, j_max: int = 20) -> list[identify.Segment]:
    """Diagram at per-frame range bins -> DC removal -> alignment -> filtered windows."""
    diagram = identify.diagram_at_bins(cube, range_bins, frame_times)
    diagram = identify.feature_alignment(identify.dc_removal(diagram))
    return identify.segment_split_filter(diagram, window, threshold, j_min, j_max)


# --- the dataset recipe --------------------------------------------------------

def background_threshold(radar: RadarConfig, window: int, seed: int) -> float:
    """Folding-filter threshold from a UAV-free capture of one segment window.

    The background scene (clutter plus noise) is seeded by `seed`; the
    threshold is the mean + 5 sigma of its per-window folding maxima.
    """
    bg = scenarios.background_scene(seed=seed)
    fmap = build_folding_map(process_frames(echo.synthesize_frames(bg, radar, window)))
    return identify.calibrate_threshold(identify.noise_window_max_folds(fmap, window))


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
    radar = _radar_for(args)
    scene = load_scenario(args.scenario, args.seed)
    n_frames = args.frames or radar.frames_per_capture
    frames = echo.synthesize_frames(scene, radar, n_frames)
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
    cube, result = _track_files(args)
    track = result.track
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracking.track_to_csv(track, out / "track.csv")

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
    if args.truth:
        truth = _read_truth_csv(args.truth)
        ranges = track.filtered_ranges_m if track.filtered_ranges_m is not None else track.ranges_m
        summary["mean_relative_error"] = tracking.relative_range_error(ranges, truth[1])
    _write_json(out / "summary.json", summary)
    print(f"wrote {out / 'track.csv'}; low_confidence={low_conf}")
    return EXIT_OK


def _read_truth_csv(path):
    times, ranges = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            times.append(float(row["time_s"]))
            ranges.append(float(row["range_m"]))
    return np.array(times), np.array(ranges)


def cmd_identify(args) -> int:
    detector = lstm.load_model(args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.dataset:
        segments = identify.load_segments(args.dataset)
        if not segments:
            raise IdentifyError("dataset contains no segments")
    else:
        cube, result = _track_files(args)
        threshold = args.threshold
        if args.threshold_mode == "auto":
            if result.calibration is None:
                raise IdentifyError("not enough noise-only data to calibrate a threshold")
            threshold = result.calibration
        segments = capture_segments(cube, result.track.range_bins, result.track.frame_times,
                                    identify.segment_window_frames(result.derived),
                                    threshold, args.j_min, args.j_max)
        segments = [s for s in segments if s.passed_filter]
        if not segments:
            _write_json(out / "metrics.json",
                        {"verdict": "no-detection", "segments": 0})
            print("no segments passed the folding filter: no-detection")
            return EXIT_OK

    if detector.input_dim != segments[0].values.shape[1]:
        raise ModelError(
            f"model input_dim {detector.input_dim} does not match segment "
            f"bins {segments[0].values.shape[1]}")
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


def _training_tensors(path, normalize: bool):
    """Labelled segments of a dataset file as (x [n, steps, bins], y [n])."""
    labeled = [s for s in identify.load_segments(path) if s.label in identify.LABELS]
    if not labeled:
        raise ModelError(f"dataset {path} contains no labeled segments")
    x = np.stack([identify.normalize_segment(s.values) if normalize
                  else np.asarray(s.values, dtype=float) for s in labeled])
    y = np.array([identify.LABELS.index(s.label) for s in labeled])
    return x, y


def cmd_train(args) -> int:
    normalize = not args.no_normalize
    x, y = _training_tensors(args.dataset, normalize)
    detector = lstm.LstmDetector(
        input_dim=x.shape[2], hidden_size=args.hidden,
        seed=component_seed(args.seed, "lstm-init"), normalize=normalize)
    val = _training_tensors(args.val_dataset, normalize) if args.val_dataset else None
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


def cmd_evaluate(args) -> int:
    times, ranges, filtered = tracking.read_track_csv(args.track)
    truth_times, truth_ranges = _read_truth_csv(args.truth)
    if times.shape != truth_times.shape or not np.allclose(times, truth_times):
        raise ValidationError("track and truth time grids do not match")
    used = filtered if filtered is not None else ranges
    err = tracking.relative_range_error(used, truth_ranges)
    report = {
        "mean_relative_error": err,
        "budget": args.budget,
        "within_budget": bool(err <= args.budget),
        "samples": int(len(used)),
        "used": "filtered" if filtered is not None else "raw",
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "evaluate.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _save_split(segments, args, out: Path) -> int:
    """Seeded train/test split into out/train.bin and out/test.bin; returns the train count."""
    order = np.random.default_rng(
        component_seed(args.seed, "dataset-split")).permutation(len(segments))
    n_train = int(round(args.train_frac * len(segments)))
    identify.save_segments(out / "train.bin", [segments[i] for i in order[:n_train]])
    identify.save_segments(out / "test.bin", [segments[i] for i in order[n_train:]])
    return n_train


def _dataset_gen(args) -> int:
    radar = _radar_for(args)
    window = identify.segment_window_frames(derive(radar, v_max_m_per_s=args.v_max))
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


def _dataset_split(args) -> int:
    segments = identify.load_segments(args.dataset)
    if not segments:
        raise IdentifyError("dataset contains no segments")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_train = _save_split(segments, args, out)
    print(f"split {len(segments)} segments into {n_train} train / "
          f"{len(segments) - n_train} test")
    return EXIT_OK


def _dataset_stats(args) -> int:
    segments = identify.load_segments(args.dataset)
    counts: dict[str, int] = {}
    passed = 0
    for seg in segments:
        counts[seg.label] = counts.get(seg.label, 0) + 1
        passed += bool(seg.passed_filter)
    n = len(segments)
    uav = counts.get("uav", 0)
    stats = {
        "segments": n,
        "labels": counts,
        "class_balance": (uav / n) if n else 0.0,
        "passed_filter": passed,
    }
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_dataset(args) -> int:
    return {"gen": _dataset_gen, "split": _dataset_split,
            "stats": _dataset_stats}[args.action](args)


# --- parser -------------------------------------------------------------------

def _env_default(name, cast, fallback):
    raw = os.environ.get(f"ROTORSENSE_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        print(f"warning: ignoring malformed ROTORSENSE_{name}={raw!r}", file=sys.stderr)
        return fallback


def _add_common(p):
    p.add_argument("--seed", type=int, default=_env_default("SEED", int, 0),
                   help="root seed; all component randomness derives from it")
    p.add_argument("--out", default=_env_default("OUT", str, "."),
                   help="output directory")
    p.add_argument("--config", default=_env_default("CONFIG", str, None),
                   help="radar config JSON (defaults: built-in radar)")


def _add_pipeline_flags(p):
    p.add_argument("--j-min", type=int, default=2)
    p.add_argument("--j-max", type=int, default=20)
    p.add_argument("--k-bins", type=int, default=0,
                   help="DP motion constraint override (0 = derive from --v-max)")
    p.add_argument("--v-max", type=float, default=4.0)
    p.add_argument("--background", default=None,
                   help="background frame capture for noise profile estimation")
    p.add_argument("--raw-int16", action="store_true",
                   help="frames file is headerless int16; layout from --config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorsense",
        description="FMCW radar pipeline: UAV echo simulation, folding-based "
                    "tracking and LSTM identification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a scenario into a frame file")
    _add_common(p)
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--frames", type=int, default=0,
                   help="frame count (default: radar frames_per_capture)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="recover the range track from a frame file")
    _add_common(p)
    p.add_argument("--frames", required=True)
    p.add_argument("--truth", default=None, help="truth CSV for summary error")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("identify", help="classify a capture or a segment dataset")
    _add_common(p)
    p.add_argument("--frames", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=identify.DEFAULT_THRESHOLD)
    p.add_argument("--threshold-mode", choices=("fixed", "auto"), default="auto")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("train", help="train the LSTM detector on a dataset")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--val-dataset", default=None)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--lr", type=float, default=5e-5)
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--no-normalize", action="store_true",
                   help="feed raw magnitudes instead of per-segment max-normalized")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="relative range error of a track vs truth")
    _add_common(p)
    p.add_argument("--track", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--budget", type=float, default=0.02)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("dataset", help="generate, split or inspect segment datasets")
    _add_common(p)
    p.add_argument("action", choices=("gen", "split", "stats"))
    p.add_argument("--uav", type=int, default=200)
    p.add_argument("--distractor", type=int, default=200)
    p.add_argument("--dataset", default=None, help="input for split/stats")
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--v-max", type=float, default=4.0)
    p.set_defaults(func=cmd_dataset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "identify" and bool(args.frames) == bool(args.dataset):
            raise ValidationError("identify needs exactly one of --frames / --dataset")
        if args.command == "dataset" and args.action in ("split", "stats") \
                and not args.dataset:
            raise ValidationError(f"dataset {args.action} needs --dataset")
        return args.func(args)
    except frameio.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # stable contract: anything else is internal
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
