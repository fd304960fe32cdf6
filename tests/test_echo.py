import math

import numpy as np
import pytest

from rotorsense.config import RadarConfig, UavConfig, ValidationError, constant_velocity, hover
from rotorsense.echo import (Distractor, SceneSpec, SimulationError, StaticClutter,
                             UavEmitter, scatterer_range, scene_truth,
                             synthesize_distractor_frames, synthesize_frame,
                             synthesize_frames)
from rotorsense.folding import folding_result
from rotorsense.rdmap import compute_map, beat_range_bin, dc_bin, range_fft
from rotorsense import scenarios


@pytest.fixture(scope="module")
def radar():
    return RadarConfig().validate()


def test_scatterer_range_zero_radius_is_hub_range():
    uav = UavConfig(scatterer_radii_m=0.0).validate()
    traj = constant_velocity(40.0, 1.0, 2.0)
    t = np.linspace(0.0, 2.0, 11)
    assert np.array_equal(scatterer_range(uav, traj, 0, 0, t), traj.range_at(t))


def test_scatterer_range_perpendicular_blade_plane_has_no_projection():
    uav = UavConfig(scatterer_radii_m=0.3, blade_plane_angle_rad=math.pi / 2).validate()
    traj = hover(40.0, 2.0)
    t = np.linspace(0.0, 2.0, 50)
    assert np.max(np.abs(scatterer_range(uav, traj, 0, 0, t) - 40.0)) < 1e-12


def test_scatterer_range_matches_formula_transcription():
    # independent transcription: hub + r cos(w t + phi) cos(theta)
    uav = UavConfig(scatterer_radii_m=0.25, initial_phases_rad=0.0,
                    blade_plane_angle_rad=0.0,
                    rotor_angular_velocity_rad_per_s=2 * math.pi * 55.6).validate()
    traj = hover(48.0, 2.0)
    assert abs(scatterer_range(uav, traj, 0, 0, 0.0) - 48.25) < 1e-12
    for t in (0.0, 0.013, 0.5, 1.9):
        expected = 48.0 + 0.25 * math.cos(2 * math.pi * 55.6 * t + 0.0) * math.cos(0.0)
        assert abs(float(scatterer_range(uav, traj, 0, 0, t)) - expected) < 1e-12


def test_scatterer_range_outside_trajectory_errors():
    uav = UavConfig().validate()
    with pytest.raises(ValidationError, match="span"):
        scatterer_range(uav, hover(40.0, 1.0), 0, 0, 2.0)


def test_static_point_rows_identical_constant_modulus(radar):
    scene = SceneSpec(emitters=(StaticClutter(30.0, 0.7),)).validate()
    frame = synthesize_frame(scene, radar, 0)
    assert np.array_equal(frame.samples[0], frame.samples[17])
    assert np.array_equal(frame.samples[1], frame.samples[99])
    assert np.allclose(np.abs(frame.samples), 0.7, atol=1e-6)


def test_noise_statistics(radar):
    scene = SceneSpec(emitters=(), noise_std=1.0, rng_seed=123).validate()
    samples = np.concatenate([synthesize_frame(scene, radar, f).samples.ravel()
                              for f in range(5)])
    n = samples.size
    assert n >= 1e5
    # per-component variance 0.5; sample variance sd ~ var * sqrt(2/n)
    tol = 3.0 * 0.5 * math.sqrt(2.0 / n)
    assert abs(samples.real.var() - 0.5) < tol
    assert abs(samples.imag.var() - 0.5) < tol
    mean_tol = 3.0 * math.sqrt(0.5 / n)
    assert abs(samples.real.mean()) < mean_tol
    assert abs(samples.imag.mean()) < mean_tol


def test_body_slow_time_phase_advance(radar):
    # expected chirp-to-chirp phase step 2*pi*(2 v fc / c)*Tc, v = 1.5 m/s;
    # the slope-time cross term shifts it by ~0.4%, hence the loose tolerance
    uav = UavConfig(scatterer_radii_m=0.0, scatterer_reflectivities=0.0).validate()
    scene = SceneSpec(emitters=(UavEmitter(uav, constant_velocity(48.0, 1.5, 4.0)),))
    frame = synthesize_frame(scene.validate(), radar, 0)
    spectrum = range_fft(frame)
    peak_bin = int(np.argmax(np.abs(spectrum[0])))
    steps = np.diff(np.unwrap(np.angle(spectrum[:, peak_bin])))
    predicted = 2 * math.pi * (2 * 1.5 * 60.25e9 / 3e8) * 900e-6
    predicted = (predicted + math.pi) % (2 * math.pi) - math.pi
    assert abs(steps.mean() - predicted) < 0.02


def test_linearity(radar):
    uav = scenarios.make_uav(seed=3)
    a = SceneSpec(emitters=(UavEmitter(uav, hover(48.0, 4.0)),)).validate()
    b = SceneSpec(emitters=(StaticClutter(20.0, 1.1), StaticClutter(33.0, 0.4))).validate()
    both = SceneSpec(emitters=a.emitters + b.emitters).validate()
    fa = synthesize_frame(a, radar, 2).samples
    fb = synthesize_frame(b, radar, 2).samples
    fab = synthesize_frame(both, radar, 2).samples
    assert np.allclose(fab, fa + fb, rtol=1e-12, atol=1e-9)


def test_blade_off_reduction(radar):
    traj = constant_velocity(48.0, 1.0, 4.0)
    body_only = UavConfig(body_reflectivity=1.0, scatterer_radii_m=0.0,
                          scatterer_reflectivities=0.0).validate()
    zero_radius = UavConfig(body_reflectivity=1.0, scatterer_radii_m=0.0,
                            scatterer_reflectivities=0.1).validate()
    f_body = synthesize_frame(SceneSpec(emitters=(UavEmitter(body_only, traj),)), radar, 1)
    f_flat = synthesize_frame(SceneSpec(emitters=(UavEmitter(zero_radius, traj),)), radar, 1)
    # scatterers collapsed onto the hub act as extra body amplitude
    scale = 1.0 + 0.1 * zero_radius.rotor_count * zero_radius.scatterers_per_rotor
    assert np.allclose(f_flat.samples, scale * f_body.samples, rtol=1e-6, atol=1e-9)
    # with zero reflectivity they vanish exactly
    silent = UavConfig(scatterer_radii_m=0.0, scatterer_reflectivities=0.0).validate()
    f_silent = synthesize_frame(SceneSpec(emitters=(UavEmitter(silent, traj),)), radar, 1)
    assert np.array_equal(f_silent.samples, f_body.samples)


def test_seeded_determinism(radar):
    scene = scenarios.hover_scene(48.0, seed=5)
    f1 = synthesize_frame(scene, radar, 3)
    f2 = synthesize_frame(scene, radar, 3)
    assert np.array_equal(f1.samples, f2.samples)
    other_seed = scenarios.hover_scene(48.0, seed=6)
    assert not np.array_equal(f1.samples, synthesize_frame(other_seed, radar, 3).samples)


def test_frame_timebase(radar):
    scene = SceneSpec(emitters=()).validate()
    frame = synthesize_frame(scene, radar, 7)
    assert frame.samples.shape == (radar.chirps_per_frame, radar.samples_per_chirp)


def test_emitter_out_of_range_errors(radar):
    scene = SceneSpec(emitters=(StaticClutter(100.0, 1.0),)).validate()
    with pytest.raises(SimulationError, match="emitter 0"):
        synthesize_frame(scene, radar, 0)


def test_range_loss_scaling(radar):
    base = SceneSpec(emitters=(StaticClutter(40.0, 1.0),)).validate()
    flagged = SceneSpec(emitters=(StaticClutter(40.0, 1.0),),
                        range_loss_ref_m=20.0).validate()
    f0 = synthesize_frame(base, radar, 0).samples
    f1 = synthesize_frame(flagged, radar, 0).samples
    assert np.allclose(f1, 0.25 * f0, rtol=1e-6)


def test_static_blob_energy_confined_to_dc(radar):
    frames = synthesize_distractor_frames("static-blob", {"range_m": 30.0}, radar, 1)
    rd = compute_map(frames[0])
    row = rd[beat_range_bin(radar, 30.0)]
    dc = dc_bin(radar.chirps_per_frame)
    assert int(np.argmax(row)) == dc
    off_dc = np.delete(row, dc)
    assert off_dc.max() < 1e-9 * row[dc]


def test_flapper_deterministic_stream(radar):
    a = synthesize_distractor_frames("aperiodic-flapper", {"range_m": 30.0}, radar,
                                     3, rng_seed=9)
    b = synthesize_distractor_frames("aperiodic-flapper", {"range_m": 30.0}, radar,
                                     3, rng_seed=9)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.samples, fb.samples)
    # frames synthesize independently yet consistently
    scene = SceneSpec(emitters=(Distractor("aperiodic-flapper", {"range_m": 30.0}),),
                      rng_seed=9).validate()
    lone = synthesize_frame(scene, radar, 2)
    assert np.array_equal(lone.samples, a[2].samples)


def test_unknown_distractor_kind_errors(radar):
    with pytest.raises(SimulationError, match="unknown distractor kind"):
        synthesize_distractor_frames("wobbler", {}, radar, 1)


def test_slow_oscillator_folds_below_uav_at_equal_power(radar):
    """Drifting-period oscillator lacks a stable comb: folding separates them."""
    uav_power = 1.0 + 18 * scenarios.BLADE_REFLECTIVITY ** 2
    wins = 0
    trials = 50
    for trial in range(trials):
        uav_scene = scenarios.hover_scene(48.0, seed=trial)
        osc_scene = SceneSpec(
            emitters=(Distractor("slow-oscillator",
                                 {"range_m": 48.0, "reflectivity": math.sqrt(uav_power),
                                  "base_rate_hz": 55.6, "drift_per_frame": 0.35,
                                  "amplitude_m": 0.02}),),
            noise_std=scenarios.NOISE_STD, rng_seed=trial).validate()
        bin_ = beat_range_bin(radar, 48.0)
        best_uav = max(
            folding_result(compute_map(synthesize_frame(uav_scene, radar, f))[bin_]).folding_result
            for f in range(5))
        best_osc = max(
            folding_result(compute_map(synthesize_frame(osc_scene, radar, f))[bin_]).folding_result
            for f in range(5))
        wins += best_uav > best_osc
    assert wins >= 0.9 * trials


def test_scene_truth(radar):
    scene = scenarios.ascent_scene(40.0, 1.5, seed=0)
    times, ranges, velocities = scene_truth(scene, radar, 10)
    assert times.shape == (10,)
    assert abs(times[0] - 0.045) < 1e-12
    assert np.allclose(ranges, 40.0 + 1.5 * times)
    assert np.all(velocities == 1.5)
    with pytest.raises(ValidationError, match="no UAV"):
        scene_truth(SceneSpec(emitters=()), radar, 5)


def test_synthesize_frames_count(radar):
    scene = SceneSpec(emitters=(), noise_std=0.5, rng_seed=1).validate()
    frames = synthesize_frames(scene, radar, 3)
    assert [f.frame_index for f in frames] == [0, 1, 2]
