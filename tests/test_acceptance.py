"""Acceptance suite: one test per criterion, each printing a PASS line.

Each test pins the stated tolerance and, where one is given, the runtime
budget. The long identification experiment (criterion 8) trains the detector
used again by the velocity-independence check (criterion 9).
"""

import time

import numpy as np
import pytest

from rotorsense import scenarios
from rotorsense.cli import background_threshold, scene_segment, track_capture
from rotorsense.config import RadarConfig, constant_velocity, hover
from rotorsense.echo import SceneSpec, UavEmitter, scene_truth, synthesize_frames
from rotorsense.folding import folding_result, folding_value
from rotorsense.identify import (binary_metrics, classify, feature_alignment,
                                 normalize_segment, segment_window_frames, training_tensors)
from rotorsense.lstm import LstmDetector, lstm_train
from rotorsense.rdmap import beat_range_bin, dc_bin, process_frames
from rotorsense.tracking import (dp_max_path, particle_filter, relative_range_error,
                                 spectral_subtract)

from conftest import comb_spacing_estimate, float64_detector
from test_folding import naive_folding_value, fig_comb
from test_tracking import brute_force_max_path

RADAR = RadarConfig()
V_MAX = 4.0  # m/s, the --v-max default


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} - {detail}")
    assert ok, detail


# --- 1. blade comb structure -----------------------------------------------------

def test_criterion_1_comb_structure():
    t0 = time.perf_counter()
    scene = scenarios.hover_scene(48.0, seed=1)
    frames = synthesize_frames(scene, RADAR, 40)
    cube = process_frames(frames)
    uav_bin = beat_range_bin(RADAR, 48.0)
    dc = dc_bin(RADAR.chirps_per_frame)
    hits = 0
    for rd in cube:
        spacing = comb_spacing_estimate(rd[uav_bin], exclude=(dc - 2, dc + 2))
        hits += spacing is not None and abs(spacing - 5) <= 1
    elapsed = time.perf_counter() - t0
    report(1, hits >= 0.95 * 40 and elapsed < 10.0,
           f"comb spacing 5 +-1 bins in {hits}/40 frames (need >=38), {elapsed:.1f}s (<10s)")


# --- 2. folding oracle -----------------------------------------------------------

def test_criterion_2_folding_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(10_000):
        length = int(rng.integers(8, 128))
        d = rng.uniform(0.0, 100.0, length)
        j = int(rng.integers(2, length // 2 + 1))
        if folding_value(d, j) != naive_folding_value(d, j):
            mismatches += 1
    comb_best = folding_result(fig_comb(), 2, 20).best_folding_size
    elapsed = time.perf_counter() - t0
    report(2, mismatches == 0 and comb_best == 5 and elapsed < 5.0,
           f"{mismatches} oracle mismatches in 1e4 cases, comb best size {comb_best} "
           f"(want 5), {elapsed:.1f}s (<5s)")


# --- 3. DP exactness --------------------------------------------------------------

def test_criterion_3_dp_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(1000):
        n_r = int(rng.integers(2, 9))
        n_t = int(rng.integers(1, 7))
        k = int(rng.integers(1, 3))
        values = rng.uniform(-5.0, 10.0, (n_r, n_t))
        track = dp_max_path(values, k, RADAR.range_bin_size_m, np.arange(n_t))
        score, path = brute_force_max_path(values, k)
        if not np.array_equal(track.range_bins, path) \
                or abs(track.total_score - score) > 1e-9:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(3, mismatches == 0 and elapsed < 30.0,
           f"{mismatches} mismatches vs exhaustive enumeration in 1000 instances, "
           f"{elapsed:.1f}s (<30s)")


# --- 4. spectral subtraction -------------------------------------------------------

def test_criterion_4_spectral_subtraction():
    rng = np.random.default_rng(4)
    profile_vals = rng.uniform(1.0, 6.0, 64)
    scales = rng.uniform(0.5, 2.0, 30)
    fmap = np.outer(profile_vals, scales)
    cleaned = spectral_subtract(fmap, profile_vals)
    residual = np.max(np.sum(cleaned ** 2, axis=0) / np.sum(fmap ** 2, axis=0))

    n_r, n_t, uav_bin = 64, 40, 20
    ramp = np.linspace(1.0, 12.0, n_r)
    values = ramp[:, None] * rng.uniform(0.9, 1.1, (1, n_t))
    values[uav_bin] += 6.0 + rng.uniform(-0.5, 0.5, n_t)
    pre = np.argmax(values, axis=0)
    cleaned2 = spectral_subtract(values, ramp)
    post = np.argmax(cleaned2, axis=0)
    recovered = int(np.sum(post == uav_bin))
    report(4, residual <= 1e-10 and np.all(pre == n_r - 1) and recovered >= 0.95 * n_t,
           f"collinear residual {residual:.2e} (<=1e-10), argmax recovered in "
           f"{recovered}/{n_t} ramp frames (need >=38)")


# --- 5. end-to-end tracking ---------------------------------------------------------

def test_criterion_5_end_to_end_tracking():
    clutter = scenarios.default_clutter()
    bg = scenarios.background_scene(seed=99, clutter=clutter)
    bg_frames = synthesize_frames(bg, RADAR, 40)

    details = []
    ok = True
    for name, scene in (
            ("hover-48m", scenarios.hover_scene(48.0, seed=1, clutter=clutter)),
            ("ascent-1.5", scenarios.ascent_scene(40.0, 1.5, seed=2, clutter=clutter))):
        t0 = time.perf_counter()
        frames = synthesize_frames(scene, RADAR, 40)
        track = track_capture(frames, RADAR, bg_frames, v_max=V_MAX, pf_seed=5).track
        elapsed = time.perf_counter() - t0
        _, truth_ranges, _ = scene_truth(scene, RADAR, 40)
        err = relative_range_error(track.filtered_ranges_m, truth_ranges)
        truth_bins = np.array([beat_range_bin(RADAR, float(r)) for r in truth_ranges])
        bin_mae = float(np.mean(np.abs(track.range_bins - truth_bins)))
        ok &= err <= 0.02 and bin_mae <= 1.0 and elapsed < 60.0
        details.append(f"{name}: rel err {err:.3%} (<=2%), bin MAE {bin_mae:.2f} (<=1), "
                       f"{elapsed:.1f}s (<60s)")
    report(5, ok, "; ".join(details))


# --- 6. particle filter ----------------------------------------------------------------

def test_criterion_6_particle_filter():
    improved = 0
    for seed in range(100):
        rng = np.random.default_rng(60_000 + seed)
        truth = np.full(40, 48.0)
        obs = truth + rng.normal(0.0, RADAR.range_bin_size_m, truth.size)
        filtered, _ = particle_filter(obs, RADAR, V_MAX, seed)
        raw_rmse = np.sqrt(np.mean((obs - truth) ** 2))
        pf_rmse = np.sqrt(np.mean((filtered - truth) ** 2))
        improved += pf_rmse < raw_rmse

    rng = np.random.default_rng(123)
    obs = 48.0 + rng.normal(0.0, 0.4, 40)

    def run():
        filtered, _ = particle_filter(obs, RADAR, V_MAX, 77)
        return filtered

    deterministic = np.array_equal(run(), run())
    report(6, improved >= 90 and deterministic,
           f"filter beat raw observations in {improved}/100 seeds (need >=90), "
           f"bit-identical reruns: {deterministic}")


# --- 7. LSTM correctness -----------------------------------------------------------------

def test_criterion_7_lstm_gradients_and_determinism():
    det = float64_detector(input_dim=3, hidden_size=6, seed=7)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4, 3))
    y = np.array([0, 1, 0])
    _, grads = det.loss_and_grads(x, y)
    h = 1e-5
    worst = 0.0
    for name in det.param_names():
        flat = det.params[name].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            loss_plus, _ = det.loss_and_grads(x, y)
            flat[idx] = orig - h
            loss_minus, _ = det.loss_and_grads(x, y)
            flat[idx] = orig
            numeric = (loss_plus - loss_minus) / (2 * h)
            analytic = grads[name].ravel()[idx]
            worst = max(worst, abs(analytic - numeric)
                        / max(abs(analytic) + abs(numeric), 1e-8))

    xt = rng.normal(size=(12, 5, 3))
    yt = np.array([0, 1] * 6)

    def train_once():
        d = LstmDetector(input_dim=3, hidden_size=6, seed=1)
        lstm_train(d, xt, yt, epochs=3, batch_size=4, learning_rate=1e-3, rng_seed=2)
        return d

    a, b = train_once(), train_once()
    identical = all(np.array_equal(a.params[n], b.params[n]) for n in a.param_names())
    report(7, worst < 1e-4 and identical,
           f"max relative gradient error {worst:.2e} (<1e-4), "
           f"training determinism: {identical}")


# --- 8 + 9. identification experiment ------------------------------------------------------

WINDOW = segment_window_frames(RADAR)


@pytest.fixture(scope="module")
def identification_experiment():
    """200 UAV + 200 distractor segments, 70/30 split, trained detector.

    Segments come from the same recipe functions as `rotorsense dataset gen`,
    and the detector trains with lstm_train's defaults, as `rotorsense train` does.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    threshold = background_threshold(RADAR, WINDOW, seed=4100)
    segments = [scene_segment(scenarios.sample_uav_scene(rng), RADAR, WINDOW, threshold)
                for _ in range(200)]
    segments += [scene_segment(scenarios.sample_distractor_scene(rng), RADAR, WINDOW,
                               threshold) for _ in range(200)]

    order = rng.permutation(len(segments))
    n_train = int(round(0.7 * len(segments)))
    train = [segments[i] for i in order[:n_train]]
    test = [segments[i] for i in order[n_train:]]

    x_train, y_train = training_tensors(train, "the training split")
    detector = LstmDetector(input_dim=x_train.shape[2], seed=8)
    lstm_train(detector, x_train, y_train, rng_seed=8)
    elapsed = time.perf_counter() - t0
    return detector, test, elapsed


def test_criterion_8_identification_accuracy(identification_experiment):
    detector, test, elapsed = identification_experiment
    _, metrics = classify(detector, test)
    ok = metrics["accuracy"] >= 0.95 and elapsed < 600.0
    report(8, ok,
           f"test accuracy {metrics['accuracy']:.3f} (>=0.95) on {len(test)} held-out "
           f"segments [precision {metrics['precision']:.3f}, recall {metrics['recall']:.3f}, "
           f"f1 {metrics['f1']:.3f}], experiment {elapsed:.0f}s (<600s)")


def test_criterion_9_preprocessing_invariants(identification_experiment):
    detector, _, _ = identification_experiment
    # alignment invariant on random columns
    rng = np.random.default_rng(9)
    cols = rng.uniform(0.0, 5.0, (300, 100))
    aligned = feature_alignment(cols)
    dc = dc_bin(100)
    aligned_ok = all(col[dc] == col.max() for col in aligned)

    # velocity independence: identical captures except body velocity. The
    # rotation rate (80 rev/s) stays away from the sampled slow-oscillator
    # band, where hover-vs-oscillator confusability is a separate desk-scale
    # effect unrelated to velocity dependence.
    def prob_uav(v, seed):
        uav = scenarios.make_uav(seed=seed, rotation_rate_hz=80.0,
                                 rotor_count=4, scatterers_per_rotor=2,
                                 blade_reflectivity=0.2)
        traj = hover(48.0, 3.7) if v == 0 else constant_velocity(48.0, v, 3.7)
        scene = SceneSpec(emitters=(UavEmitter(uav, traj),),
                          noise_std=scenarios.DATASET_NOISE_STD, rng_seed=seed)
        seg = scene_segment(scene, RADAR, WINDOW, threshold=0.0)
        scores = detector.forward(normalize_segment(seg.values))
        exp = np.exp(scores - scores.max())
        return (exp / exp.sum())[1]

    diffs = [abs(prob_uav(0.0, seed) - prob_uav(1.5, seed)) for seed in range(20)]
    velocity_ok = max(diffs) < 0.05
    report(9, aligned_ok and velocity_ok,
           f"alignment argmax at DC for 300/300 columns: {aligned_ok}; "
           f"max class-score difference across 20 hover/ascent seed pairs "
           f"{max(diffs):.4f} (<0.05)")


# --- 10. metric formulas ---------------------------------------------------------------------

def test_criterion_10_metric_formulas():
    m = binary_metrics(tp=3, fp=1, fn=1, tn=5)
    exact = (m["accuracy"] == 0.8 and m["precision"] == 0.75
             and m["recall"] == 0.75 and m["f1"] == 0.75)
    perfect = binary_metrics(tp=7, fp=0, fn=0, tn=13)
    exact &= all(perfect[k] == 1.0 for k in ("accuracy", "precision", "recall", "f1"))
    err = relative_range_error(np.full(4, 40.36), np.full(4, 40.0))
    rel_ok = abs(err - 0.009) < 1e-12
    zero_ok = relative_range_error([48.0, 50.0], [48.0, 50.0]) == 0.0
    report(10, exact and rel_ok and zero_ok,
           f"confusion metrics exact: {exact}; relative range error 0.36/40 -> "
           f"{err:.12f} (within 1e-12 of 0.009); identical series -> 0.0: {zero_ok}")
