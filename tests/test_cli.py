import json
import hashlib
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rotorsense import cli, folding, frameio, identify, lstm, tracking, workers
from rotorsense.cli import component_seed, main
from rotorsense.config import RadarConfig, csv_columns
from rotorsense.echo import Frame, SceneSpec, StaticClutter, synthesize_frames
from rotorsense.tracking import relative_range_error

HOVER_SCENARIO = {
    "schema_version": 1,
    "noise_std": 4.0,
    "emitters": [
        {"kind": "uav",
         "uav": {"rotation_rate_hz": 55.6},
         "trajectory": [{"start_time_s": 0.0, "duration_s": 3.7,
                         "start_range_m": 48.0, "radial_velocity_m_per_s": 0.0}]},
        {"kind": "static-clutter", "range_m": 12.0, "reflectivity": 2.0},
    ],
}

BACKGROUND_SCENARIO = {
    "schema_version": 1,
    "noise_std": 4.0,
    "emitters": [{"kind": "static-clutter", "range_m": 12.0, "reflectivity": 2.0}],
}


def write_scenario(tmp_path, doc, name):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """simulate hover + background, then track; shared by several tests."""
    tmp = tmp_path_factory.mktemp("cli")
    scenario = write_scenario(tmp, HOVER_SCENARIO, "hover.json")
    background = write_scenario(tmp, BACKGROUND_SCENARIO, "background.json")
    assert main(["simulate", "--scenario", str(scenario), "--seed", "5",
                 "--out", str(tmp / "run")]) == 0
    assert main(["simulate", "--scenario", str(background), "--seed", "99",
                 "--out", str(tmp / "bg")]) == 0
    assert main(["track", "--frames", str(tmp / "run" / "frames.bin"),
                 "--background", str(tmp / "bg" / "frames.bin"),
                 "--truth", str(tmp / "run" / "truth.csv"),
                 "--seed", "5", "--out", str(tmp / "run")]) == 0
    return tmp


def test_simulate_outputs(pipeline_run):
    run = pipeline_run / "run"
    assert (run / "frames.bin").exists()
    truth_lines = (run / "truth.csv").read_text().splitlines()
    assert truth_lines[0] == "time_s,range_m,velocity_m_per_s"
    assert len(truth_lines) == 41
    t0, r0, v0 = truth_lines[1].split(",")
    assert float(r0) == 48.0 and float(v0) == 0.0
    meta = json.loads((run / "simulate_meta.json").read_text())
    assert meta["frames"] == 40 and meta["truth_written"]


def test_track_summary(pipeline_run):
    summary = json.loads((pipeline_run / "run" / "summary.json").read_text())
    assert summary["low_confidence"] is False
    assert summary["noise_profile_source"] == "background-capture"
    assert summary["mean_relative_error"] <= 0.02


def test_evaluate_against_truth(pipeline_run):
    """summary.json's error is the relative range error of track.csv's filtered
    ranges against truth.csv, on one time grid."""
    run = pipeline_run / "run"
    times, filtered = csv_columns(run / "track.csv", ("time_s", "filtered_range_m"),
                                  "track CSV")
    truth_times, truth_ranges = csv_columns(run / "truth.csv", ("time_s", "range_m"),
                                            "truth CSV")
    assert np.allclose(times, truth_times)
    summary = json.loads((run / "summary.json").read_text())
    assert summary["mean_relative_error"] == relative_range_error(filtered, truth_ranges)
    assert summary["mean_relative_error"] <= 0.02


def test_evaluate_identical_series_is_zero(pipeline_run, tmp_path):
    """track --truth against the track's own filtered ranges reads 0.0, and the
    truth leaves track.csv as it was."""
    run = pipeline_run / "run"
    track_lines = (run / "track.csv").read_text().splitlines()
    truth_path = tmp_path / "truth_from_track.csv"
    rows = ["time_s,range_m,velocity_m_per_s"]
    for line in track_lines[1:]:
        parts = line.split(",")
        rows.append(f"{parts[1]},{parts[4]},0.0")  # truth = filtered ranges
    truth_path.write_text("\n".join(rows) + "\n")
    assert main(["track", "--frames", str(run / "frames.bin"),
                 "--background", str(pipeline_run / "bg" / "frames.bin"),
                 "--truth", str(truth_path), "--seed", "5", "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["mean_relative_error"] == 0.0
    assert (tmp_path / "out" / "track.csv").read_bytes() == (run / "track.csv").read_bytes()


def _shift_times(truth_csv):
    """A truth CSV with every time moved 100 s later."""
    header, *rows = truth_csv.splitlines()
    for i, row in enumerate(rows):
        time_s, rest = row.split(",", 1)
        rows[i] = f"{float(time_s) + 100.0!r},{rest}"
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("edit, code, named", [
    (None, 2, "No such file or directory"),
    (lambda text: text.replace("range_m", "range"), 1, "has no 'range_m' column"),
    (lambda text: text.replace(",48.0,", ",x,", 1), 1,
     "truth.csv line 2 range_m = 'x' is not a finite number"),
    (_shift_times, 1, "track and truth time grids do not match"),
], ids=["missing-file", "missing-column", "non-number-cell", "shifted-grid"])
def test_refused_truth_leaves_no_out(pipeline_run, tmp_path, capsys, edit, code, named):
    """A --truth the track cannot be scored against exits before --out is created."""
    truth = tmp_path / "truth.csv"
    if edit is not None:
        truth.write_text(edit((pipeline_run / "run" / "truth.csv").read_text()))
    argv = ["track", "--frames", str(pipeline_run / "run" / "frames.bin"),
            "--truth", str(truth), "--out", str(tmp_path / "out")]
    assert main(argv) == code
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ascent_scenario_truth_is_linear(tmp_path):
    doc = {
        "schema_version": 1,
        "noise_std": 2.0,
        "emitters": [
            {"kind": "uav",
             "uav": {"rotation_rate_hz": 55.6},
             "trajectory": [{"start_time_s": 0.0, "duration_s": 2.0,
                             "start_range_m": 40.0, "radial_velocity_m_per_s": 1.5}]},
        ],
    }
    scenario = write_scenario(tmp_path, doc, "ascent.json")
    assert main(["simulate", "--scenario", str(scenario), "--seed", "3",
                 "--frames", "8", "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line
            in (tmp_path / "truth.csv").read_text().splitlines()[1:]]
    times = np.array([float(r[0]) for r in rows])
    ranges = np.array([float(r[1]) for r in rows])
    assert np.allclose(ranges, 40.0 + 1.5 * times)
    assert np.all(np.diff(ranges) > 0)


def test_track_without_emitters_flags_low_confidence(tmp_path):
    doc = {"schema_version": 1, "noise_std": 4.0, "emitters": []}
    scenario = write_scenario(tmp_path, doc, "empty.json")
    assert main(["simulate", "--scenario", str(scenario), "--seed", "17",
                 "--out", str(tmp_path)]) == 0
    for out in ("t1", "t2"):
        assert main(["track", "--frames", str(tmp_path / "frames.bin"),
                     "--seed", "17", "--out", str(tmp_path / out)]) == 0
    summary = json.loads((tmp_path / "t1" / "summary.json").read_text())
    assert summary["low_confidence"] is True
    assert summary["noise_profile_source"] == "self-median-fallback"
    # identical inputs and seed give byte-identical track output
    assert (tmp_path / "t1" / "track.csv").read_bytes() \
        == (tmp_path / "t2" / "track.csv").read_bytes()


def test_hover_at_80m_within_budget(tmp_path):
    doc = json.loads(json.dumps(HOVER_SCENARIO))
    doc["emitters"][0]["trajectory"][0]["start_range_m"] = 80.0
    scenario = write_scenario(tmp_path, doc, "hover80.json")
    background = write_scenario(tmp_path, BACKGROUND_SCENARIO, "background.json")
    assert main(["simulate", "--scenario", str(scenario), "--seed", "23",
                 "--out", str(tmp_path / "run")]) == 0
    assert main(["simulate", "--scenario", str(background), "--seed", "24",
                 "--out", str(tmp_path / "bg")]) == 0
    assert main(["track", "--frames", str(tmp_path / "run" / "frames.bin"),
                 "--background", str(tmp_path / "bg" / "frames.bin"),
                 "--truth", str(tmp_path / "run" / "truth.csv"),
                 "--seed", "23", "--out", str(tmp_path / "run")]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["mean_relative_error"] <= 0.02


def test_simulate_reproducible(tmp_path):
    scenario = write_scenario(tmp_path, HOVER_SCENARIO, "hover.json")
    for out in ("a", "b"):
        assert main(["simulate", "--scenario", str(scenario), "--seed", "7",
                     "--frames", "3", "--out", str(tmp_path / out)]) == 0
    assert sha256(tmp_path / "a" / "frames.bin") == sha256(tmp_path / "b" / "frames.bin")
    assert (tmp_path / "a" / "truth.csv").read_text() \
        == (tmp_path / "b" / "truth.csv").read_text()


def _simulate_in_blocks(monkeypatch):
    """Two workers, each splitting off at one frame: a block needs 3 frames, since its
    first runs before the split, so 9 frames make 3 blocks."""
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    radar = RadarConfig()
    monkeypatch.setattr(workers, "_MIN_CHUNK_ELEMENTS",
                        radar.chirps_per_frame * radar.samples_per_chirp)
    assert workers.split_frames(radar.chirps_per_frame * radar.samples_per_chirp) == 2


def test_simulate_in_blocks_writes_the_whole_capture(tmp_path, monkeypatch):
    scenario = write_scenario(tmp_path, HOVER_SCENARIO, "hover.json")
    whole = synthesize_frames(cli.load_scenario(scenario, 7), RadarConfig(), 9)
    frameio.write_frames(tmp_path / "whole.bin", whole, RadarConfig())
    _simulate_in_blocks(monkeypatch)
    assert main(["simulate", "--scenario", str(scenario), "--seed", "7",
                 "--frames", "9", "--out", str(tmp_path / "out")]) == 0
    assert sha256(tmp_path / "out" / "frames.bin") == sha256(tmp_path / "whole.bin")


def test_simulate_names_a_float32_overflow_before_a_later_blocks_range_error(
        tmp_path, monkeypatch, capsys):
    """Blocks are checked as they are made: a sample beyond float32 in frame 0 is named,
    though the UAV leaves the range in frame 7, in the third block. Before blocks, the
    whole capture was synthesized first, and the range error was named."""
    max_range = RadarConfig().max_range_m
    doc = {"schema_version": 1, "noise_std": 1e39, "emitters": [
        {"kind": "static-clutter", "range_m": 12.0, "reflectivity": 1.0},
        {"kind": "uav", "uav": {"rotation_rate_hz": 55.6},
         "trajectory": [{"start_time_s": 0.0, "duration_s": 1.0,
                         "start_range_m": max_range - 6.76, "radial_velocity_m_per_s": 10.0}]},
    ]}
    scenario = write_scenario(tmp_path, doc, "leaving.json")
    _simulate_in_blocks(monkeypatch)
    args = ["simulate", "--scenario", str(scenario), "--frames", "9",
            "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert "frame 0: a sample exceeds the float32 range" in capsys.readouterr().err
    doc["noise_std"] = 4.0
    write_scenario(tmp_path, doc, "leaving.json")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "emitter 1 (UavEmitter) leaves" in err and err.rstrip().endswith("in frame 7")
    assert not (tmp_path / "out").exists()


def test_failed_simulate_leaves_an_existing_out_as_it_was(tmp_path, monkeypatch, capsys):
    """frames.bin is written under a temporary name in --out and renamed only after the
    last frame's check. A run that fails in its third block, after two blocks were
    written, leaves an existing frames.bin byte-identical and no temporary file; an
    --out it created itself, with its parents, is removed."""
    out = tmp_path / "out"
    hover = write_scenario(tmp_path, HOVER_SCENARIO, "hover.json")
    assert main(["simulate", "--scenario", str(hover), "--frames", "3", "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    doc = {"schema_version": 1, "noise_std": 4.0, "emitters": [
        {"kind": "uav", "uav": {"rotation_rate_hz": 55.6},
         "trajectory": [{"start_time_s": 0.0, "duration_s": 1.0,
                         "start_range_m": RadarConfig().max_range_m - 6.76,
                         "radial_velocity_m_per_s": 10.0}]}]}
    leaving = write_scenario(tmp_path, doc, "leaving.json")
    _simulate_in_blocks(monkeypatch)
    for target in (out, tmp_path / "new" / "out"):
        assert main(["simulate", "--scenario", str(leaving), "--frames", "9",
                     "--out", str(target)]) == 1
        assert capsys.readouterr().err.rstrip().endswith("in frame 7")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert not (tmp_path / "new").exists()


def test_invalid_scenario_key_exits_one(tmp_path, capsys):
    doc = json.loads(json.dumps(HOVER_SCENARIO))
    doc["emitters"][0]["uav"]["blade_count"] = 9
    scenario = write_scenario(tmp_path, doc, "bad.json")
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(tmp_path)]) == 1
    assert "blade_count" in capsys.readouterr().err


def test_unknown_emitter_kind_exits_one(tmp_path, capsys):
    doc = {"schema_version": 1, "emitters": [{"kind": "ghost"}]}
    scenario = write_scenario(tmp_path, doc, "ghost.json")
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 1
    assert "ghost" in capsys.readouterr().err


def _malformed(edit):
    doc = json.loads(json.dumps(HOVER_SCENARIO))
    doc["emitters"].append({"kind": "distractor", "distractor": "aperiodic-flapper",
                            "params": {"range_m": 30.0}})
    return edit(doc) or doc


def _drop(*path):
    """A scenario edit that deletes the key at the end of path."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


@pytest.mark.parametrize("edit, named", [
    (lambda d: d.update(emitters=5), "scenario emitters = 5 is not a JSON list"),
    (lambda d: d.update(emitters=["uav"]), "scenario emitter 0 = 'uav' is not a JSON object"),
    (lambda d: d["emitters"][0].update(trajectory=5),
     "scenario emitter 0 trajectory = 5 is not a JSON list"),
    (lambda d: d["emitters"][0].update(uav=[1]),
     "scenario emitter 0 uav = [1] is not a JSON object"),
    (lambda d: d["emitters"][1].update(range_m=None),
     "scenario emitter 1 range_m = None is not a JSON number"),
    (lambda d: d["emitters"][2].update(params=[1]),
     "scenario emitter 2 params = [1] is not a JSON object"),
    (lambda d: [d], "scenario file is not a JSON object"),
    (_drop("emitters", 0, "trajectory"), "scenario emitter 0 has no key 'trajectory'"),
    (_drop("emitters", 1, "range_m"), "scenario emitter 1 has no key 'range_m'"),
    (_drop("emitters", 2, "distractor"), "scenario emitter 2 has no key 'distractor'"),
    (_drop("emitters", 0, "trajectory", 0, "duration_s"),
     "scenario emitter 0 trajectory 0 has no key 'duration_s'"),
    (lambda d: d.update(noise_sd=0.5), "scenario has unknown keys ['noise_sd']"),
    (lambda d: d["emitters"][1].update(extra=1), "scenario emitter 1 has unknown keys ['extra']"),
    (lambda d: d["emitters"][0]["trajectory"][0].update(end_time_s=1.0),
     "scenario emitter 0 trajectory 0 has unknown keys ['end_time_s']"),
    (lambda d: d["emitters"][2]["params"].update(rnage_m=30.0),
     "scenario emitter 2 params has unknown keys ['rnage_m']"),
    (lambda d: d["emitters"][2]["params"].update(drift_per_frame=0.3),
     "scenario emitter 2 params has unknown keys ['drift_per_frame']"),
    (lambda d: d["emitters"][2].update(distractor="ghost"),
     "scenario emitter 2 has unknown distractor 'ghost'"),
], ids=["emitters-number", "emitter-string", "trajectory-number", "uav-list",
        "range-null", "params-list", "top-level-list", "no-trajectory", "no-range",
        "no-distractor-kind", "no-duration", "unknown-top-level-key", "unknown-emitter-key",
        "unknown-leg-key", "unknown-params-key", "params-of-another-kind",
        "unknown-distractor-kind"])
def test_malformed_scenario_exits_one(tmp_path, capsys, edit, named):
    scenario = write_scenario(tmp_path, _malformed(edit), "bad.json")
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 1
    assert named in capsys.readouterr().err


def _set(*path, raw=None):
    """A scenario edit that sets the key at the end of path[:-1] to path[-1]; with raw,
    to the JSON text raw, which json.dumps cannot write (1e400 reads as infinity)."""
    def edit(doc):
        for key in path[:-2]:
            doc = doc[key]
        doc[path[-2]] = "RAW" if raw is not None else path[-1]
    return edit, raw


UAV, LEG = ("emitters", 0, "uav"), ("emitters", 0, "trajectory", 0)


@pytest.mark.parametrize("edit, named", [
    (_set(*UAV, "rotor_count", 4.9),
     "scenario emitter 0 uav rotor_count = 4.9 is not a JSON integer"),
    (_set(*UAV, "rotor_count", True), "uav rotor_count = True is not a JSON integer"),
    (_set(*UAV, "rotor_count", "4"), "uav rotor_count = '4' is not a JSON integer"),
    (_set("seed", 1.5), "scenario seed = 1.5 is not a JSON integer"),
    (_set("noise_std", math.nan), "scenario noise_std = nan is not a JSON number"),
    (_set("noise_std", math.inf), "scenario noise_std = inf is not a JSON number"),
    (_set(*UAV, "rotation_rate_hz", math.inf), "uav rotation_rate_hz = inf is not a JSON number"),
    (_set(*LEG, "start_time_s", math.nan),
     "scenario emitter 0 trajectory 0 start_time_s = nan is not a JSON number"),
    (_set("seed", None, raw="1e400"), "scenario seed = inf is not a JSON integer"),
    (_set(*UAV, "rotor_count", None, raw="1e400"), "uav rotor_count = inf is not a JSON integer"),
    (_set("noise_std", 10**400), "scenario noise_std = 1000"),
    (_set(*LEG, "start_range_m", -10**400), "trajectory 0 start_range_m = -1000"),
    (_set("seed", -1), "scenario seed = -1 is negative"),
    (_set(*UAV, "geometry_seed", -1), "scenario emitter 0 uav geometry_seed = -1 is negative"),
    (_set(*UAV, "rotor_count", -1), "uav.rotor_count must be >= 1"),
    (_set(*UAV, "rotor_count", 2**40), "uav.rotor_count * scatterers_per_rotor must be <="),
    (_set(*UAV, "rotation_rate_hz", 1e308), "uav.rotor_angular_velocity_rad_per_s must be finite"),
    (_set("noise_std", 1e39), "frame 0: a sample exceeds the float32 range of a frame file"),
], ids=["rotor-count-fraction", "rotor-count-bool", "rotor-count-string", "seed-fraction",
        "noise-nan", "noise-inf", "rotation-rate-inf", "leg-start-nan", "seed-1e400",
        "rotor-count-1e400", "noise-400-digits", "range-400-digits", "seed-negative",
        "geometry-seed-negative", "rotor-count-negative", "rotor-count-huge",
        "rotation-rate-1e308", "noise-beyond-float32"])
def test_mistyped_scenario_value_exits_one(tmp_path, capsys, edit, named):
    """Each of these ran with a coerced value, or exited 3, before scenario fields were typed."""
    edit, raw = edit
    text = json.dumps(_malformed(edit))
    scenario = tmp_path / "bad.json"
    scenario.write_text(text.replace('"RAW"', raw) if raw is not None else text)
    assert main(["simulate", "--scenario", str(scenario), "--frames", "1",
                 "--out", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["scenario", "radar"])
def test_non_utf8_scenario_or_radar_config_exits_one(tmp_path, capsys, name):
    scenario = write_scenario(tmp_path, HOVER_SCENARIO, "hover.json")
    config = tmp_path / "radar.json"
    config.write_text(json.dumps({"schema_version": 1, "radar": {}}))
    bad = {"scenario": scenario, "radar": config}[name]
    bad.write_bytes(b"\xff" + bad.read_bytes())
    assert main(["simulate", "--config", str(config), "--scenario", str(scenario),
                 "--frames", "1", "--out", str(tmp_path / "out")]) == 1
    assert f"unreadable {name}" in capsys.readouterr().err


def test_corrupt_frames_exits_two(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 512)
    assert main(["track", "--frames", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("key, value", [("L", 0), ("L", 1), ("L", "x"), ("Ns", -256),
                                        ("fs", 0)])
def test_malformed_frame_header_exits_two(tmp_path, capsys, key, value):
    header = {"magic": "rotorsense-raw", "schema_version": 1, "L": 100, "Ns": 256,
              "fs": 2.0e6, "Tc": 9.0e-4, "fc": 5.8e9, "K": 2.0e13, key: value}
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps(header).encode().ljust(256) + b"\x00" * 1024)
    assert main(["track", "--frames", str(bad), "--out", str(tmp_path)]) == 2
    assert "frame header" in capsys.readouterr().err


def test_frame_file_with_a_signalling_nan_exits_two(pipeline_run, tmp_path, capsys):
    """The reader refuses a non-finite sample, naming its frame, before a cast could warn."""
    assert main(["simulate", "--scenario", str(pipeline_run / "hover.json"), "--frames", "2",
                 "--out", str(tmp_path)]) == 0
    frames = tmp_path / "frames.bin"
    frames.write_bytes(frames.read_bytes()[:-4] + bytes.fromhex("0000a07f"))
    capsys.readouterr()
    assert main(["track", "--frames", str(frames), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: frame 1 holds a sample that is not finite\n"
    assert not (tmp_path / "out").exists()


def test_track_exits_one_naming_a_later_runs_overflowing_frame(monkeypatch, tmp_path,
                                                               capsys):
    """A file's samples are finite float32, so the overflow is put in after the read;
    the capture is folded in runs of 2 frames, and the third run's frame 5 is named."""
    radar = cli.RadarConfig()
    path = tmp_path / "frames.bin"
    shape = (radar.chirps_per_frame, radar.samples_per_chirp)
    cli.frameio.write_frames(path, [Frame(np.ones(shape, dtype=complex))] * 6, radar)
    read = cli.frameio.read_frames

    def read_overflowing(*args):
        frames, header_radar = read(*args)
        frames[5] = Frame(np.full(shape, 1e306, dtype=complex))
        return frames, header_radar

    monkeypatch.setattr(cli.frameio, "read_frames", read_overflowing)
    monkeypatch.setattr(folding, "_BLOCK_BYTES", 2 * shape[0] * shape[1] * 8)  # runs of 2
    assert main(["track", "--frames", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "frame 5: non-finite Range-Doppler map" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw_int16, extra", [(False, 1), (False, 2), (False, 3), (True, 1)],
                         ids=["frames-1-byte", "frames-2-bytes", "frames-3-bytes",
                              "int16-odd-byte"])
def test_payload_with_stray_trailing_bytes_exits_two(pipeline_run, tmp_path, capsys,
                                                     raw_int16, extra):
    """Bytes past the last whole value are refused, not dropped by the reader."""
    assert main(["simulate", "--scenario", str(pipeline_run / "hover.json"), "--frames", "2",
                 "--out", str(tmp_path)]) == 0
    frames = tmp_path / "frames.bin"
    if raw_int16:
        payload = np.fromfile(frames, dtype="<f4", offset=frameio.HEADER_BYTES)
        frames.write_bytes(np.round(payload).astype("<i2").tobytes())
    frames.write_bytes(frames.read_bytes() + b"\x01" * extra)
    capsys.readouterr()
    argv = ["track", "--frames", str(frames), "--out", str(tmp_path / "out")]
    assert main(argv + ["--raw-int16"] * raw_int16) == 2
    assert f"payload has {extra} stray bytes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_file_exits_two(tmp_path):
    assert main(["track", "--frames", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path)]) == 2


def test_identify_requires_one_input(tmp_path, capsys):
    assert main(["identify", "--model", "m.npz", "--out", str(tmp_path)]) == 1
    assert "one of the arguments --frames --dataset is required" in capsys.readouterr().err
    assert main(["identify", "--frames", "f.bin", "--dataset", "d.bin", "--model", "m.npz",
                 "--out", str(tmp_path)]) == 1
    assert "not allowed with argument --frames" in capsys.readouterr().err


def test_identify_model_dim_mismatch_exits_one(tmp_path):
    det = lstm.LstmDetector(input_dim=10, hidden_size=4, seed=0)
    model_path = tmp_path / "model.npz"
    lstm.save_model(det, model_path)
    seg = identify.Segment(values=np.ones((4, 7)), label="uav")
    data_path = tmp_path / "segments.bin"
    identify.save_segments(data_path, [seg])
    assert main(["identify", "--dataset", str(data_path),
                 "--model", str(model_path), "--out", str(tmp_path)]) == 1


def test_identify_dataset_rejects_capture_flags(tmp_path, capsys):
    lstm.save_model(lstm.LstmDetector(input_dim=7, hidden_size=4, seed=0),
                    tmp_path / "model.npz")
    identify.save_segments(tmp_path / "segments.bin",
                           [identify.Segment(values=np.ones((4, 7)), label="uav")])
    common = ["identify", "--dataset", str(tmp_path / "segments.bin"),
              "--model", str(tmp_path / "model.npz"), "--out", str(tmp_path)]
    assert main(common) == 0
    capsys.readouterr()
    assert main(common + ["--background", "/nonexistent", "--raw-int16",
                          "--threshold", "1e9", "--v-max", "5"]) == 1
    assert ("no capture flags: --background, --raw-int16, --threshold, "
            "--v-max\n") in capsys.readouterr().err
    assert main(common + ["--raw-int16", "c.json"]) == 1
    assert "no capture flags: --raw-int16\n" in capsys.readouterr().err


def test_background_from_another_radar_exits_one(pipeline_run, tmp_path, capsys):
    other = RadarConfig(chirp_duration_s=1.8e-3, carrier_freq_hz=77e9,
                        adc_rate_hz=3.125e6)
    scene = SceneSpec(emitters=(StaticClutter(12.0, 2.0),), noise_std=4.0,
                      rng_seed=3)
    frameio.write_frames(tmp_path / "bg.bin", synthesize_frames(scene, other, 3), other)
    assert main(["track", "--frames", str(pipeline_run / "run" / "frames.bin"),
                 "--background", str(tmp_path / "bg.bin"), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "radar differs from the capture's: fs, Tc, fc" in err


def test_raw_int16_background_is_read_as_int16(pipeline_run, tmp_path):
    """--raw-int16 covers --background too: int16 copies of a capture and its background."""
    for name in ("run", "bg"):
        payload = np.fromfile(pipeline_run / name / "frames.bin", dtype="<f4",
                              offset=frameio.HEADER_BYTES)
        np.round(payload).astype("<i2").tofile(tmp_path / f"{name}.bin")
    assert main(["track", "--frames", str(tmp_path / "run.bin"), "--raw-int16",
                 "--background", str(tmp_path / "bg.bin"), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["noise_profile_source"] == "background-capture"


def test_raw_int16_reads_the_layout_of_its_radar_config(tmp_path, capsys):
    """--raw-int16 CONFIG reads int16 captures in CONFIG's layout; bare, in the built-in one."""
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"schema_version": 1, "radar": {"chirps_per_frame": 16,
                                                               "samples_per_chirp": 64}}))
    for name, doc in (("run", HOVER_SCENARIO), ("bg", BACKGROUND_SCENARIO)):
        assert main(["simulate", "--config", str(config), "--frames", "12", "--scenario",
                     str(write_scenario(tmp_path, doc, f"{name}.json")),
                     "--out", str(tmp_path / name)]) == 0
        payload = np.fromfile(tmp_path / name / "frames.bin", dtype="<f4",
                              offset=frameio.HEADER_BYTES)
        np.round(payload).astype("<i2").tofile(tmp_path / f"{name}.bin")
    capsys.readouterr()
    raw = ["track", "--frames", str(tmp_path / "run.bin"), "--raw-int16"]
    assert main(raw + [str(config), "--background", str(tmp_path / "bg.bin"),
                       "--out", str(tmp_path / "track")]) == 0
    summary = json.loads((tmp_path / "track" / "summary.json").read_text())
    assert summary["frames"] == 12
    assert summary["noise_profile_source"] == "background-capture"
    assert main(raw + ["--out", str(tmp_path / "bare")]) == 2
    assert "not a whole number of 100x256 frames" in capsys.readouterr().err


def test_unreadable_model_exits_one(tmp_path, capsys):
    det = lstm.LstmDetector(input_dim=7, hidden_size=4, seed=0)
    truncated = tmp_path / "model.npz"
    lstm.save_model(det, truncated)
    truncated.write_bytes(truncated.read_bytes()[:100])
    bare_array = tmp_path / "array.npy"
    np.save(bare_array, np.ones(3))
    identify.save_segments(tmp_path / "segments.bin",
                           [identify.Segment(values=np.ones((4, 7)), label="uav")])
    for model_path in (truncated, bare_array):
        assert main(["identify", "--dataset", str(tmp_path / "segments.bin"),
                     "--model", str(model_path), "--out", str(tmp_path)]) == 1
        assert "not a readable archive" in capsys.readouterr().err


def test_train_unlabeled_validation_set_exits_one(tmp_path, capsys):
    labeled = [identify.Segment(values=np.ones((4, 7)), label=lab)
               for lab in ("uav", "other")]
    identify.save_segments(tmp_path / "train.bin", labeled)
    identify.save_segments(tmp_path / "val.bin", [identify.Segment(values=np.ones((4, 7)))])
    assert main(["train", "--dataset", str(tmp_path / "train.bin"),
                 "--val-dataset", str(tmp_path / "val.bin"), "--epochs", "1",
                 "--hidden", "4", "--out", str(tmp_path)]) == 1
    assert "no labeled segments" in capsys.readouterr().err


def test_identify_no_detection_when_capture_too_short(pipeline_run, tmp_path):
    """A 3.6 s window never fits in a 3-frame capture: defined no-detection exit."""
    scenario = pipeline_run / "hover.json"
    assert main(["simulate", "--scenario", str(scenario), "--seed", "8",
                 "--frames", "3", "--out", str(tmp_path)]) == 0
    det = lstm.LstmDetector(input_dim=100, hidden_size=4, seed=0)
    model_path = tmp_path / "model.npz"
    lstm.save_model(det, model_path)
    assert main(["identify", "--frames", str(tmp_path / "frames.bin"),
                 "--model", str(model_path), "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "metrics.json").read_text())
    assert verdict["verdict"] == "no-detection"


def _untrained_model(tmp_path):
    path = tmp_path / "model.npz"
    lstm.save_model(lstm.LstmDetector(input_dim=100, hidden_size=4, seed=0), path)
    return str(path)


def test_identify_auto_threshold_is_track_calibration(pipeline_run, tmp_path):
    """identify's auto threshold is the noise_calibration track wrote for the capture."""
    summary = json.loads((pipeline_run / "run" / "summary.json").read_text())
    common = ["identify", "--frames", str(pipeline_run / "run" / "frames.bin"),
              "--background", str(pipeline_run / "bg" / "frames.bin"),
              "--model", _untrained_model(tmp_path), "--seed", "5"]
    assert main(common + ["--out", str(tmp_path / "auto")]) == 0
    assert main(common + ["--threshold", repr(summary["noise_calibration"]),
                          "--out", str(tmp_path / "fixed")]) == 0
    for name in ("metrics.json", "labels.csv"):
        assert sha256(tmp_path / "auto" / name) == sha256(tmp_path / "fixed" / name)


def test_identify_given_threshold_is_fixed(pipeline_run, tmp_path):
    """A --threshold value replaces the calibration: no window reaches 1e30."""
    assert main(["identify", "--frames", str(pipeline_run / "run" / "frames.bin"),
                 "--model", _untrained_model(tmp_path), "--threshold", "1e30",
                 "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "metrics.json").read_text())["verdict"] == "no-detection"


def test_particle_count_moves_only_the_filtered_range(pipeline_run, tmp_path, monkeypatch):
    """The particle count reaches filtered_range_m and mean_relative_error, nothing else."""
    run, bg = pipeline_run / "run", pipeline_run / "bg"
    model = _untrained_model(tmp_path)
    for n in (5000, tracking.PARTICLES):
        monkeypatch.setattr(tracking, "PARTICLES", n)
        out = tmp_path / str(n)
        assert main(["track", "--frames", str(run / "frames.bin"),
                     "--background", str(bg / "frames.bin"), "--truth", str(run / "truth.csv"),
                     "--seed", "5", "--out", str(out)]) == 0
        assert main(["identify", "--frames", str(run / "frames.bin"),
                     "--background", str(bg / "frames.bin"), "--model", model,
                     "--seed", "5", "--out", str(out)]) == 0
    old, new = tmp_path / "5000", tmp_path / str(tracking.PARTICLES)

    def without_filtered(path):
        rows = [line.split(",") for line in (path / "track.csv").read_text().splitlines()]
        col = rows[0].index("filtered_range_m")
        return [row[:col] + row[col + 1:] for row in rows]

    def without_error(path):
        return [line for line in (path / "summary.json").read_text().splitlines()
                if not line.startswith('  "mean_relative_error": ')]

    assert without_filtered(new) == without_filtered(old)
    assert without_error(new) == without_error(old)
    for name in ("labels.csv", "metrics.json"):
        assert sha256(new / name) == sha256(old / name)
    assert len((new / "labels.csv").read_text().splitlines()) > 1


def test_outputs_do_not_depend_on_the_worker_count(pipeline_run, tmp_path, monkeypatch):
    """simulate splits a 40-frame capture's synthesis at 8 frames per worker, at 1
    worker and at the host's count; the two copies, and what track and identify
    --frames write for each, are the same bytes."""
    radar = RadarConfig()
    monkeypatch.setattr(workers, "_MIN_CHUNK_ELEMENTS",
                        8 * radar.chirps_per_frame * radar.samples_per_chirp)
    bg = pipeline_run / "bg"
    model = _untrained_model(tmp_path)
    default = workers.worker_count
    for name, count in (("one", lambda: 1), ("default", default)):
        monkeypatch.setattr(workers, "worker_count", count)
        out = tmp_path / name
        assert main(["simulate", "--scenario", str(pipeline_run / "hover.json"), "--seed", "5",
                     "--out", str(out)]) == 0
        assert main(["track", "--frames", str(out / "frames.bin"),
                     "--background", str(bg / "frames.bin"), "--truth", str(out / "truth.csv"),
                     "--seed", "5", "--out", str(out)]) == 0
        assert main(["identify", "--frames", str(out / "frames.bin"),
                     "--background", str(bg / "frames.bin"), "--model", model,
                     "--seed", "5", "--out", str(out)]) == 0
    names = sorted(path.name for path in (tmp_path / "one").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "default").iterdir())
    assert {"frames.bin", "track.csv", "summary.json", "labels.csv", "metrics.json"} <= set(names)
    for name in names:
        assert sha256(tmp_path / "one" / name) == sha256(tmp_path / "default" / name), name


def test_dataset_and_training_loop(tmp_path, capsys):
    assert main(["dataset", "gen", "--uav", "3", "--distractor", "3",
                 "--seed", "13", "--out", str(tmp_path)]) == 0
    data = tmp_path / "dataset.bin"
    segments = identify.load_segments(data)
    assert len(segments) == 6
    assert sum(s.label == "uav" for s in segments) == 3
    # gen also writes the seeded 70/30 split alongside the full dataset
    gen_train = identify.load_segments(tmp_path / "train.bin")
    gen_test = identify.load_segments(tmp_path / "test.bin")
    assert len(gen_train) + len(gen_test) == 6

    assert main(["dataset", "split", "--dataset", str(data), "--seed", "13",
                 "--train-frac", "0.5", "--out", str(tmp_path)]) == 0
    train = identify.load_segments(tmp_path / "train.bin")
    test = identify.load_segments(tmp_path / "test.bin")
    assert len(train) == 3 and len(test) == 3

    capsys.readouterr()
    assert main(["dataset", "stats", "--dataset", str(data)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["class_balance"] == 0.5
    assert stats["segments"] == 6

    assert main(["train", "--dataset", str(data), "--epochs", "2",
                 "--hidden", "8", "--seed", "13", "--out", str(tmp_path)]) == 0
    assert main(["identify", "--dataset", str(tmp_path / "test.bin"),
                 "--model", str(tmp_path / "model.npz"),
                 "--out", str(tmp_path)]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert "metrics" in metrics and metrics["segments"] == 3


def test_dataset_split_requires_input(tmp_path, capsys):
    assert main(["dataset", "split", "--out", str(tmp_path)]) == 1
    assert "--dataset" in capsys.readouterr().err


def test_component_seed_stable():
    assert component_seed(5, "scene") == component_seed(5, "scene")
    assert component_seed(5, "scene") != component_seed(5, "particle-filter")
    assert component_seed(5, "scene") != component_seed(6, "scene")


def test_bad_arguments_exit_one():
    assert main(["simulate"]) == 1  # missing --scenario
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("fault", [RuntimeError("induced fault"), ValueError("induced fault"),
                                   json.JSONDecodeError("induced fault", "{", 0)],
                         ids=["RuntimeError", "ValueError", "JSONDecodeError"])
def test_internal_error_exits_three(tmp_path, monkeypatch, capsys, fault):
    """Only a ValidationError is the user's: a bare ValueError inside a stage is a fault."""
    scenario = write_scenario(tmp_path, HOVER_SCENARIO, "hover.json")
    import rotorsense.cli as cli_mod

    def boom(*a, **k):
        raise fault

    monkeypatch.setattr(cli_mod.echo, "synthesize_frames", boom)
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 3
    assert "internal error" in capsys.readouterr().err


def test_key_error_inside_a_stage_exits_three(tmp_path, monkeypatch, capsys):
    """A KeyError from a fault in the code is internal, not a user error."""
    scenario = write_scenario(tmp_path, HOVER_SCENARIO, "hover.json")

    def boom(*a, **k):
        raise KeyError("induced fault")

    monkeypatch.setattr(cli.echo, "synthesize_frames", boom)
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 3
    assert "internal error" in capsys.readouterr().err


TRUTH_CSV = "time_s,range_m,velocity_m_per_s\n0.045,48.0,0.0\n"


def _identify_dataset(tmp_path, edit_manifest=lambda manifest: None, record=None,
                      edit_arrays=lambda arrays: None):
    """Argv of identify --dataset on a small saved model and a one-segment dataset.

    edit_manifest changes the model's manifest in place, and edit_arrays its dict of
    parameter arrays; record, when given, replaces the dataset with one record whose
    header is these raw bytes.
    """
    path = tmp_path / "model.npz"
    lstm.save_model(lstm.LstmDetector(input_dim=7, hidden_size=4, seed=0), path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    manifest = json.loads(bytes(arrays.pop("manifest")).decode())
    edit_manifest(manifest)
    edit_arrays(arrays)
    np.savez(path, manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
             **arrays)
    segments = tmp_path / "segments.bin"
    identify.save_segments(segments, [identify.Segment(values=np.ones((4, 7)), label="uav")])
    if record is not None:
        segments.write_bytes(identify.SEGMENT_MAGIC + (1).to_bytes(4, "little")
                             + len(record).to_bytes(4, "little") + record)
    return ["identify", "--dataset", str(segments), "--model", str(path),
            "--out", str(tmp_path)]


def _model_without_input_dim(tmp_path):
    return _identify_dataset(tmp_path, lambda manifest: manifest.pop("input_dim"))


def _record_without_w(tmp_path):
    blob = json.dumps({"L": 7, "label": "uav"}).encode()
    path = tmp_path / "segments.bin"
    path.write_bytes(identify.SEGMENT_MAGIC + (1).to_bytes(4, "little")
                     + len(blob).to_bytes(4, "little") + blob)
    return ["dataset", "stats", "--dataset", str(path)]


def _track_truth(tmp_path, truth_csv):
    """track --truth truth_csv on a frame file that does not exist: track reads the
    truth first, so its error is the truth's."""
    (tmp_path / "truth.csv").write_text(truth_csv)
    return ["track", "--frames", str(tmp_path / "frames.bin"),
            "--truth", str(tmp_path / "truth.csv"), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("argv, kind, key", [
    (_model_without_input_dim, "model manifest", "input_dim"),
    (_record_without_w, "dataset record 0", "W"),
    (lambda tmp: _track_truth(tmp, "time_s,velocity_m_per_s\n0.045,0.0\n"),
     "truth CSV", "range_m"),
    (lambda tmp: _track_truth(tmp, "range_m,velocity_m_per_s\n48.0,0.0\n"),
     "truth CSV", "time_s"),
], ids=["model-manifest", "segment-record", "truth-csv", "track-csv"])
def test_missing_key_names_file_and_key(tmp_path, capsys, argv, kind, key):
    assert main(argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert kind in err and repr(key) in err


# The track-* cases are the cell faults once checked on a track CSV, now met in the
# truth CSV that track reads.
@pytest.mark.parametrize("argv, named", [
    (lambda tmp: _track_truth(tmp, TRUTH_CSV.replace(",48.0,", ",x,")),
     "truth.csv line 2 range_m = 'x' is not a finite number"),
    (lambda tmp: _track_truth(tmp, TRUTH_CSV.replace("0.045,", "nan,")),
     "truth.csv line 2 time_s = 'nan' is not a finite number"),
    (lambda tmp: _track_truth(tmp, TRUTH_CSV.replace(",48.0,", ",inf,")),
     "truth.csv line 2 range_m = 'inf' is not a finite number"),
    (lambda tmp: _track_truth(tmp, TRUTH_CSV.replace("0.045", "")),
     "truth.csv line 2 time_s = '' is not a finite number"),
    (lambda tmp: _track_truth(tmp, TRUTH_CSV + "0.135\n"),
     "truth.csv line 3 range_m = None is not a finite number"),
    (lambda tmp: _track_truth(tmp, TRUTH_CSV.replace(",48.0,", ",,")),
     "truth.csv line 2 range_m = '' is not a finite number"),
], ids=["truth-text", "truth-nan", "track-inf", "track-empty", "track-short-row",
        "track-blank-filtered"])
def test_non_number_csv_cell_exits_one(tmp_path, capsys, argv, named):
    assert main(argv(tmp_path)) == 1
    assert named in capsys.readouterr().err


def _manifest_value(key, value):
    return lambda tmp: _identify_dataset(tmp, lambda manifest: manifest.update({key: value}))


def _record_header(raw):
    return lambda tmp: _identify_dataset(tmp, record=raw)


def _model_member(name, edit):
    """identify --dataset on a model whose member `name` is edit(the stored array)."""
    return lambda tmp: _identify_dataset(
        tmp, edit_arrays=lambda arrays: arrays.update({name: edit(arrays[name])}))


def _nan_record(command):
    """identify --dataset or train on a dataset whose second record holds a float32 NaN."""
    def argv(tmp):
        argv = _identify_dataset(tmp)
        values = np.ones((4, 7))
        values[2, 3] = np.nan
        identify.save_segments(argv[2], [identify.Segment(values=np.ones((4, 7)), label="other"),
                                         identify.Segment(values=values, label="uav")])
        return {"identify": argv, "train": ["train", "--dataset", argv[2], "--hidden", "4",
                                            "--out", str(tmp / "train")]}[command]
    return argv


def _first_value(value):
    """A float64 copy of an array whose first element is `value`."""
    def edit(arr):
        arr = arr.astype(np.float64)
        arr.flat[0] = value
        return arr
    return edit


@pytest.mark.parametrize("argv, named", [
    (_manifest_value("input_dim", "x"), "model manifest input_dim = 'x' is not a JSON integer"),
    (_manifest_value("input_dim", None), "model manifest input_dim = None"),
    (_manifest_value("input_dim", 2.5), "model manifest input_dim = 2.5"),
    (_manifest_value("hidden_size", True), "model manifest hidden_size = True"),
    (_manifest_value("seed", "0"), "model manifest seed = '0'"),
    (_manifest_value("seed", -1), "model manifest seed = -1 is negative"),
    (_manifest_value("input_dim", 10**12),
     "model manifest input_dim = 1000000000000 does not match stored wx0 of shape (16, 7)"),
    (_manifest_value("hidden_size", 10**6),
     "model manifest hidden_size = 1000000 does not match stored wh0 of shape (16, 4)"),
    (_record_header(b'{"W": "x", "L": 7}'),
     "dataset record 0 W = 'x' is not a JSON integer"),
    (_record_header(b'{"W": null, "L": 7}'), "dataset record 0 W = None"),
    (_record_header(b'{"W": 2.5, "L": 7}'), "dataset record 0 W = 2.5"),
    (_record_header(b'{"W": -1, "L": 7}'), "dataset record 0 W = -1"),
    (_record_header(b'{"W": 4, "L": 0}'), "dataset record 0 L = 0"),
    (_record_header(b'\xff{"W": 4, "L": 7}'), "unreadable dataset record 0 header"),
    (_record_header(b'{"W": 4,'), "unreadable dataset record 0 header"),
    (_record_header(b'[4, 7]'), "dataset record 0 header is not a JSON object"),
    (_nan_record("identify"), "dataset record 1 holds a value that is not finite"),
    (_nan_record("train"), "dataset record 1 holds a value that is not finite"),
    (_model_member("b_out", lambda arr: arr + 1j),
     "model file member 'b_out' has dtype complex64, not a real floating type"),
    (_model_member("wh0", lambda arr: arr > 0),
     "model file member 'wh0' has dtype bool, not a real floating type"),
    (_model_member("wx0", lambda arr: arr.astype(np.int64)),
     "model file member 'wx0' has dtype int64, not a real floating type"),
    (_model_member("w_out", _first_value(np.nan)),
     "model file member 'w_out' holds a value that is not a finite float32"),
    (_model_member("b0", _first_value(-np.inf)),
     "model file member 'b0' holds a value that is not a finite float32"),
    (_model_member("b_out", _first_value(1e300)),
     "model file member 'b_out' holds a value that is not a finite float32"),
], ids=["input-dim-string", "input-dim-null", "input-dim-float", "hidden-size-bool",
        "seed-string", "seed-negative", "input-dim-huge", "hidden-size-huge", "w-string",
        "w-null", "w-float", "w-negative", "l-zero",
        "header-not-utf8", "header-not-json", "header-list", "record-nan-identify",
        "record-nan-train", "member-complex",
        "member-bool", "member-int", "member-nan", "member-inf", "member-beyond-float32"])
def test_malformed_model_or_record_exits_one(tmp_path, capsys, argv, named):
    assert main(argv(tmp_path)) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("source, code, named", [
    ("--dataset", 1, "dataset record 1 holds a value that is not finite"),
    ("--frames", 2, "missing.bin"),
], ids=["dataset-nan", "frames-missing"])
def test_refused_identify_input_leaves_no_out(tmp_path, capsys, source, code, named):
    """identify reads and checks its input before it creates --out, as track and train do."""
    argv = _nan_record("identify")(tmp_path)
    if source == "--frames":
        argv[1:3] = ["--frames", str(tmp_path / "missing.bin")]
    argv[-1] = str(tmp_path / "out")
    assert main(argv) == code
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _record_command(command, header):
    """Argv of a command reading a one-record dataset whose header is `header`."""
    def argv(tmp):
        argv = _identify_dataset(tmp)
        dataset, blob = argv[2], json.dumps(header).encode()
        Path(dataset).write_bytes(identify.SEGMENT_MAGIC + (1).to_bytes(4, "little")
                                  + len(blob).to_bytes(4, "little") + blob
                                  + np.ones((4, 7), dtype=np.float32).tobytes())
        return {"identify": argv,
                "stats": ["dataset", "stats", "--dataset", dataset],
                "split": ["dataset", "split", "--dataset", dataset, "--out", str(tmp / "split")],
                }[command]
    return argv


@pytest.mark.parametrize("argv, named", [
    (_record_command("stats", {"W": 4, "L": 7, "label": [1]}),
     "dataset record 0 label = [1] is not a JSON string"),
    (_record_command("identify", {"W": 4, "L": 7, "max_folding_result": None}),
     "dataset record 0 max_folding_result = None is not a JSON number"),
    (_record_command("split", {"W": 4, "L": 7, "max_folding_result": None}),
     "dataset record 0 max_folding_result = None is not a JSON number"),
    (_record_command("identify", {"W": 4, "L": 7, "passed_filter": "no"}),
     "dataset record 0 passed_filter = 'no' is not a JSON bool"),
    (_record_command("split", {"W": 4, "L": 7, "passed_filter": "no"}),
     "dataset record 0 passed_filter = 'no' is not a JSON bool"),
    (_record_command("stats", {"W": 4, "L": 7, "provenance": [1]}),
     "dataset record 0 provenance = [1] is not a JSON object"),
    (_record_command("stats", {"W": 10**30, "L": 7}), "truncated dataset record payload"),
    (_manifest_value("training", [1]), "model manifest training = [1] is not a JSON object"),
    (_manifest_value("normalize", 1), "model manifest normalize is 1, not True"),
    (_manifest_value("schema_version", True), "model manifest schema_version = True"),
], ids=["label-list", "max-fold-null-identify", "max-fold-null-split",
        "passed-string-identify", "passed-string-split", "provenance-list", "w-huge",
        "training-list", "normalize-int", "schema-version-bool"])
def test_mistyped_record_or_manifest_field_exits_one(tmp_path, capsys, argv, named):
    """Each of these exited 3, or exited 0 with a coerced value, before the fields were typed."""
    assert main(argv(tmp_path)) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "split").exists()


def test_train_hidden_size_too_large_exits_one(tmp_path, capsys):
    """--hidden 10000000 asks for 4e14 weights per matrix; it is refused before any
    draw or allocation, where it once ended in a MemoryError (exit 3)."""
    identify.save_segments(tmp_path / "train.bin",
                           [identify.Segment(values=np.ones((4, 7)), label=lab)
                            for lab in ("uav", "other")])
    assert main(["train", "--dataset", str(tmp_path / "train.bin"), "--epochs", "1",
                 "--hidden", "10000000", "--out", str(tmp_path / "out")]) == 1
    assert "hidden_size 10000000 with input_dim 7 gives a weight matrix of" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_writes_float32_parameters(tmp_path):
    identify.save_segments(tmp_path / "train.bin",
                           [identify.Segment(values=np.full((4, 7), k), label=lab)
                            for k, lab in ((1.0, "uav"), (2.0, "other"))])
    assert main(["train", "--dataset", str(tmp_path / "train.bin"), "--epochs", "1",
                 "--hidden", "4", "--out", str(tmp_path / "out")]) == 0
    with np.load(tmp_path / "out" / "model.npz") as data:
        dtypes = {name: data[name].dtype for name in data.files if name != "manifest"}
    names = lstm.LstmDetector(input_dim=7, hidden_size=4).param_names()
    assert dtypes == dict.fromkeys(names, np.dtype(np.float32))


_MAIN_THEN_MODULES = """
import sys
from rotorsense.cli import main
print(main(sys.argv[1:]), "numpy.ma" in sys.modules)
"""


def test_train_leaves_numpy_ma_unimported(tmp_path):
    """Counting the classes with np.unique imported numpy.ma on its first call,
    about 1.5 MiB of resident memory for a two-class check."""
    identify.save_segments(tmp_path / "train.bin",
                           [identify.Segment(values=np.full((4, 7), k), label=lab)
                            for k, lab in ((1.0, "uav"), (2.0, "other"))])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = ["train", "--dataset", str(tmp_path / "train.bin"), "--epochs", "1",
            "--hidden", "4", "--out", str(tmp_path / "out")]
    run = subprocess.run([sys.executable, "-c", _MAIN_THEN_MODULES, *argv], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "0 False"


def test_segments_of_two_shapes_exit_one(tmp_path, capsys):
    identify.save_segments(tmp_path / "mixed.bin",
                           [identify.Segment(values=np.ones((4, 7)), label="uav"),
                            identify.Segment(values=np.ones((5, 7)), label="other")])
    assert main(["train", "--dataset", str(tmp_path / "mixed.bin"), "--epochs", "1",
                 "--hidden", "4", "--out", str(tmp_path)]) == 1
    assert "segments of different shapes [(4, 7), (5, 7)]" in capsys.readouterr().err


def test_model_with_a_damaged_member_exits_one(tmp_path, capsys):
    argv = _identify_dataset(tmp_path)
    model_path = tmp_path / "model.npz"
    with np.load(model_path) as data:
        stored = data["wh0"].tobytes()
    blob = bytearray(model_path.read_bytes())
    blob[blob.index(stored)] ^= 0xFF  # the member's CRC no longer matches
    model_path.write_bytes(bytes(blob))
    assert main(argv) == 1
    assert "model file member 'wh0' is unreadable: Bad CRC-32" in capsys.readouterr().err


@pytest.mark.parametrize("radar, named", [
    ({"chirps_per_frame": None}, "radar chirps_per_frame = None is not a JSON integer"),
    ([], "radar config file radar = [] is not a JSON object"),
    ({"adc_rate_hz": "x"}, "radar adc_rate_hz = 'x' is not a JSON number"),
    ({"samples_per_chirp": 256.5}, "radar samples_per_chirp = 256.5 is not a JSON integer"),
    ({"frames_per_capture": True}, "radar frames_per_capture = True is not a JSON integer"),
], ids=["int-null", "not-an-object", "float-string", "int-fraction", "int-bool"])
def test_malformed_radar_config_exits_one(tmp_path, capsys, radar, named):
    config = tmp_path / "radar.json"
    config.write_text(json.dumps({"schema_version": 1, "radar": radar}))
    scenario = write_scenario(tmp_path, HOVER_SCENARIO, "hover.json")
    argv = ["simulate", "--config", str(config), "--scenario", str(scenario), "--frames", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["track", "--frames", "f.bin", "--k-bins", "3"], "--k-bins"),
    (["identify", "--frames", "f.bin", "--model", "m.npz", "--j-min", "3"], "--j-min"),
    (["train", "--dataset", "d.bin", "--no-normalize"], "--no-normalize"),
    (["train", "--dataset", "d.bin", "--config", "c.json"], "--config"),
    (["evaluate", "--track", "t.csv", "--truth", "u.csv"], "'evaluate'"),
    (["dataset", "gen", "--v-max", "5"], "--v-max"),
    (["dataset", "stats", "--dataset", "d.bin", "--seed", "1"], "--seed"),
    (["track", "--frames", "f.bin", "--config", "c.json"], "--config"),
    (["identify", "--dataset", "d.bin", "--model", "m.npz", "--config", "c.json"],
     "--config"),
], ids=["track-k-bins", "identify-j-min", "train-no-normalize", "train-config",
        "removed-evaluate-command", "dataset-gen-v-max", "dataset-stats-seed",
        "track-config-without-raw-int16", "identify-dataset-config"])
def test_removed_or_unread_flag_exits_one(tmp_path, monkeypatch, capsys, argv, flag):
    """No file named here exists: each command must stop at its flags, before any read."""
    monkeypatch.chdir(tmp_path)  # the default --out
    assert main(argv) == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--scenario", "s.json", "--frames", "-3"], "--frames"),
    (["simulate", "--scenario", "s.json", "--frames", "0"], "--frames"),
    (["dataset", "gen", "--uav", "0", "--distractor", "0", "--train-frac", "1.5"],
     "--train-frac"),
    (["dataset", "split", "--dataset", "d.bin", "--train-frac", "-0.1"], "--train-frac"),
    (["dataset", "gen", "--uav", "-2", "--distractor", "0"], "--uav"),
    (["dataset", "gen", "--uav", "0", "--distractor", "-2"], "--distractor"),
    (["dataset", "gen", "--uav", "0", "--distractor", "0"], "--uav and --distractor"),
    (["train", "--dataset", "d.bin", "--lr", "nan"], "--lr"),
    (["train", "--dataset", "d.bin", "--lr", "0"], "--lr"),
    (["identify", "--frames", "f.bin", "--model", "m.npz", "--threshold", "inf"],
     "--threshold"),
    (["simulate", "--scenario", "s.json", "--seed", "-1"], "--seed"),
    (["track", "--frames", "f.bin", "--seed", "-1"], "--seed"),
    (["train", "--dataset", "d.bin", "--seed", "-5"], "--seed"),
    (["dataset", "gen", "--uav", "0", "--distractor", "0", "--seed", "-1"], "--seed"),
    (["train", "--dataset", "d.bin", "--batch-size", "0"], "--batch-size"),
    (["train", "--dataset", "d.bin", "--epochs", "-1"], "--epochs"),
    (["train", "--dataset", "d.bin", "--hidden", "0"], "--hidden"),
    (["track", "--frames", "f.bin", "--v-max", "-1"], "--v-max"),
    (["track", "--frames", "f.bin", "--v-max", "0"], "--v-max"),
    (["track", "--frames", "f.bin", "--v-max", "nan"], "--v-max"),
    (["track", "--frames", "f.bin", "--v-max", "inf"], "--v-max"),
    (["identify", "--frames", "f.bin", "--model", "m.npz", "--v-max", "-1"], "--v-max"),
], ids=["simulate-frames", "simulate-frames-zero", "gen-train-frac", "split-train-frac",
        "gen-uav", "gen-distractor", "gen-no-segments", "train-lr-nan", "train-lr-zero",
        "identify-threshold-inf", "simulate-seed", "track-seed", "train-seed", "gen-seed", "train-batch-size",
        "train-epochs", "train-hidden", "track-v-max-negative", "track-v-max-zero",
        "track-v-max-nan", "track-v-max-inf", "identify-v-max-negative"])
def test_out_of_range_numeric_flag_exits_one(tmp_path, monkeypatch, capsys, argv, flag):
    """No file named here exists: each command must stop at its flags and write nothing."""
    monkeypatch.chdir(tmp_path)  # the default --out
    assert main(argv) == 1
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("v_max", ["1e308", "1e300", "3e8"])
def test_v_max_at_or_above_the_speed_of_light_exits_one(pipeline_run, tmp_path, capsys, v_max):
    """1e308 overflowed the particle filter's velocity draw (exit 3); 1e300 ran."""
    argv = ["track", "--frames", str(pipeline_run / "run" / "frames.bin"), "--v-max", v_max,
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "below the speed of light 300000000.0 m/s" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_environment_sets_no_flag(tmp_path, monkeypatch):
    scenario = write_scenario(tmp_path, HOVER_SCENARIO, "hover.json")
    argv = ["simulate", "--scenario", str(scenario), "--frames", "2"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("ROTORSENSE_SEED", "7")
    monkeypatch.setenv("ROTORSENSE_CONFIG", str(tmp_path / "no-such-config.json"))
    assert main(argv + ["--out", str(tmp_path / "env")]) == 0
    for name in ("frames.bin", "truth.csv", "simulate_meta.json"):
        assert sha256(tmp_path / "env" / name) == sha256(tmp_path / "plain" / name)


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rotorsense ")]


def test_readme_command_lines_parse():
    """Every `rotorsense ...` line of the README parses, so the docs name no removed flag."""
    commands = _readme_commands()
    assert len(commands) >= 9
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
