import json
import hashlib

import numpy as np
import pytest

from rotorsense import cli, identify, lstm
from rotorsense.cli import component_seed, main

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
    run = pipeline_run / "run"
    assert main(["evaluate", "--track", str(run / "track.csv"),
                 "--truth", str(run / "truth.csv"), "--out", str(run)]) == 0
    report = json.loads((run / "evaluate.json").read_text())
    assert report["within_budget"] is True
    assert report["used"] == "filtered"


def test_evaluate_identical_series_is_zero(pipeline_run, tmp_path):
    run = pipeline_run / "run"
    track_lines = (run / "track.csv").read_text().splitlines()
    truth_path = tmp_path / "truth_from_track.csv"
    rows = ["time_s,range_m,velocity_m_per_s"]
    for line in track_lines[1:]:
        parts = line.split(",")
        rows.append(f"{parts[1]},{parts[4]},0.0")  # truth = filtered ranges
    truth_path.write_text("\n".join(rows) + "\n")
    assert main(["evaluate", "--track", str(run / "track.csv"),
                 "--truth", str(truth_path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "evaluate.json").read_text())
    assert report["mean_relative_error"] == 0.0


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
                 "--seed", "23", "--out", str(tmp_path / "run")]) == 0
    assert main(["evaluate", "--track", str(tmp_path / "run" / "track.csv"),
                 "--truth", str(tmp_path / "run" / "truth.csv"),
                 "--out", str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "evaluate.json").read_text())
    assert report["budget"] == 0.02
    assert report["within_budget"] is True


def test_simulate_reproducible(tmp_path):
    scenario = write_scenario(tmp_path, HOVER_SCENARIO, "hover.json")
    for out in ("a", "b"):
        assert main(["simulate", "--scenario", str(scenario), "--seed", "7",
                     "--frames", "3", "--out", str(tmp_path / out)]) == 0
    assert sha256(tmp_path / "a" / "frames.bin") == sha256(tmp_path / "b" / "frames.bin")
    assert (tmp_path / "a" / "truth.csv").read_text() \
        == (tmp_path / "b" / "truth.csv").read_text()


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


def test_missing_file_exits_two(tmp_path):
    assert main(["track", "--frames", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path)]) == 2


def test_identify_requires_one_input(tmp_path, capsys):
    assert main(["identify", "--model", "m.npz", "--out", str(tmp_path)]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_identify_model_dim_mismatch_exits_one(tmp_path):
    det = lstm.LstmDetector(input_dim=10, hidden_size=4, seed=0)
    model_path = tmp_path / "model.npz"
    lstm.save_model(det, model_path)
    seg = identify.Segment(values=np.ones((4, 7)), label="uav")
    data_path = tmp_path / "segments.bin"
    identify.save_segments(data_path, [seg])
    assert main(["identify", "--dataset", str(data_path),
                 "--model", str(model_path), "--out", str(tmp_path)]) == 1


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
    assert main(common + ["--threshold-mode", "fixed",
                          "--threshold", repr(summary["noise_calibration"]),
                          "--out", str(tmp_path / "fixed")]) == 0
    for name in ("metrics.json", "labels.csv"):
        assert sha256(tmp_path / "auto" / name) == sha256(tmp_path / "fixed" / name)


def test_identify_fold_sizes_reach_segment_filter(pipeline_run, tmp_path, monkeypatch):
    seen = []
    segment_split_filter = identify.segment_split_filter

    def spy(diagram, window_frames, threshold, j_min=2, j_max=20):
        seen.append((j_min, j_max))
        return segment_split_filter(diagram, window_frames, threshold, j_min, j_max)

    monkeypatch.setattr(cli.identify, "segment_split_filter", spy)
    assert main(["identify", "--frames", str(pipeline_run / "run" / "frames.bin"),
                 "--model", _untrained_model(tmp_path), "--j-min", "3", "--j-max", "12",
                 "--out", str(tmp_path)]) == 0
    assert seen == [(3, 12)]


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
    assert main(["dataset", "stats", "--dataset", str(data),
                 "--out", str(tmp_path)]) == 0
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


def test_internal_error_exits_three(tmp_path, monkeypatch, capsys):
    scenario = write_scenario(tmp_path, HOVER_SCENARIO, "hover.json")
    import rotorsense.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("induced fault")

    monkeypatch.setattr(cli_mod.echo, "synthesize_frames", boom)
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 3
    assert "internal error" in capsys.readouterr().err
