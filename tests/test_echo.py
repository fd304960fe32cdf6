import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotorsense.config import RadarConfig, UavConfig, ValidationError, constant_velocity, hover
from rotorsense.echo import (Distractor, SceneSpec, SimulationError, StaticClutter,
                             UavEmitter, _blade_amplitude, _blade_projection,
                             _distractor_paths, _distractor_range, _frame_rng,
                             _frame_samples, _frame_times, _unit_phasor, scatterer_range,
                             scene_truth, synthesize_frames)
from rotorsense.folding import folding_result
from rotorsense.rdmap import beat_range_bin, dc_bin, process_frames
from rotorsense import scenarios
from rotorsense.cli import load_scenario

HOVER48 = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "hover48.json"


@pytest.fixture(scope="module")
def radar():
    return RadarConfig()


def test_scatterer_range_zero_radius_is_hub_range():
    uav = UavConfig(scatterer_radii_m=0.0)
    traj = constant_velocity(40.0, 1.0, 2.0)
    t = np.linspace(0.0, 2.0, 11)
    assert np.array_equal(scatterer_range(uav, traj, 0, 0, t), traj.range_at(t))


def test_scatterer_range_perpendicular_blade_plane_has_no_projection():
    uav = UavConfig(scatterer_radii_m=0.3, blade_plane_angle_rad=math.pi / 2)
    traj = hover(40.0, 2.0)
    t = np.linspace(0.0, 2.0, 50)
    assert np.max(np.abs(scatterer_range(uav, traj, 0, 0, t) - 40.0)) < 1e-12


def test_scatterer_range_matches_formula_transcription():
    # independent transcription: hub + r cos(w t + phi) cos(theta)
    uav = UavConfig(scatterer_radii_m=0.25, initial_phases_rad=0.0,
                    blade_plane_angle_rad=0.0,
                    rotor_angular_velocity_rad_per_s=2 * math.pi * 55.6)
    traj = hover(48.0, 2.0)
    assert abs(scatterer_range(uav, traj, 0, 0, 0.0) - 48.25) < 1e-12
    for t in (0.0, 0.013, 0.5, 1.9):
        expected = 48.0 + 0.25 * math.cos(2 * math.pi * 55.6 * t + 0.0) * math.cos(0.0)
        assert abs(float(scatterer_range(uav, traj, 0, 0, t)) - expected) < 1e-12


def test_scatterer_range_outside_trajectory_errors():
    uav = UavConfig()
    with pytest.raises(ValidationError, match="span"):
        scatterer_range(uav, hover(40.0, 1.0), 0, 0, 2.0)


def _lone_frame(scene, radar, f):
    """Frame f of a scene with no moving distractor, synthesized alone."""
    return _frame_samples(scene, radar, f, {}, {})


def test_static_point_rows_identical_constant_modulus(radar):
    scene = SceneSpec(emitters=(StaticClutter(30.0, 0.7),))
    samples = synthesize_frames(scene, radar, 1)[0].samples
    assert np.array_equal(samples[0], samples[17])
    assert np.array_equal(samples[1], samples[99])
    assert np.allclose(np.abs(samples), 0.7, atol=1e-6)


def test_noise_statistics(radar):
    scene = SceneSpec(emitters=(), noise_std=1.0, rng_seed=123)
    samples = np.concatenate([frame.samples.ravel()
                              for frame in synthesize_frames(scene, radar, 5)])
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
    uav = UavConfig(scatterer_radii_m=0.0, scatterer_reflectivities=0.0)
    scene = SceneSpec(emitters=(UavEmitter(uav, constant_velocity(48.0, 1.5, 4.0)),))
    spectrum = np.fft.fft(synthesize_frames(scene, radar, 1)[0].samples, axis=1)
    peak_bin = int(np.argmax(np.abs(spectrum[0])))
    steps = np.diff(np.unwrap(np.angle(spectrum[:, peak_bin])))
    predicted = 2 * math.pi * (2 * 1.5 * 60.25e9 / 3e8) * 900e-6
    predicted = (predicted + math.pi) % (2 * math.pi) - math.pi
    assert abs(steps.mean() - predicted) < 0.02


def test_linearity(radar):
    uav = scenarios.make_uav(seed=3)
    a = SceneSpec(emitters=(UavEmitter(uav, hover(48.0, 4.0)),))
    b = SceneSpec(emitters=(StaticClutter(20.0, 1.1), StaticClutter(33.0, 0.4)))
    both = SceneSpec(emitters=a.emitters + b.emitters)
    fa = _lone_frame(a, radar, 2)
    fb = _lone_frame(b, radar, 2)
    fab = _lone_frame(both, radar, 2)
    assert np.allclose(fab, fa + fb, rtol=1e-12, atol=1e-9)


def test_blade_off_reduction(radar):
    traj = constant_velocity(48.0, 1.0, 4.0)
    body_only = UavConfig(body_reflectivity=1.0, scatterer_radii_m=0.0,
                          scatterer_reflectivities=0.0)
    zero_radius = UavConfig(body_reflectivity=1.0, scatterer_radii_m=0.0,
                            scatterer_reflectivities=0.1)
    f_body = _lone_frame(SceneSpec(emitters=(UavEmitter(body_only, traj),)), radar, 1)
    f_flat = _lone_frame(SceneSpec(emitters=(UavEmitter(zero_radius, traj),)), radar, 1)
    # scatterers collapsed onto the hub act as extra body amplitude
    scale = 1.0 + 0.1 * zero_radius.rotor_count * zero_radius.scatterers_per_rotor
    assert np.allclose(f_flat, scale * f_body, rtol=1e-6, atol=1e-9)
    # with zero reflectivity they vanish exactly
    silent = UavConfig(scatterer_radii_m=0.0, scatterer_reflectivities=0.0)
    f_silent = _lone_frame(SceneSpec(emitters=(UavEmitter(silent, traj),)), radar, 1)
    assert np.array_equal(f_silent, f_body)


def test_seeded_determinism(radar):
    scene = scenarios.hover_scene(48.0, seed=5)
    f1 = _lone_frame(scene, radar, 3)
    f2 = _lone_frame(scene, radar, 3)
    assert np.array_equal(f1, f2)
    other_seed = scenarios.hover_scene(48.0, seed=6)
    assert not np.array_equal(f1, _lone_frame(other_seed, radar, 3))


def test_frame_timebase(radar):
    scene = SceneSpec(emitters=())
    samples = _lone_frame(scene, radar, 7)
    assert samples.shape == (radar.chirps_per_frame, radar.samples_per_chirp)


def test_emitter_out_of_range_errors(radar):
    scene = SceneSpec(emitters=(StaticClutter(100.0, 1.0),))
    with pytest.raises(SimulationError, match="emitter 0"):
        synthesize_frames(scene, radar, 1)


def test_range_loss_scaling(radar):
    base = SceneSpec(emitters=(StaticClutter(40.0, 1.0),))
    flagged = SceneSpec(emitters=(StaticClutter(40.0, 1.0),),
                        range_loss_ref_m=20.0)
    f0 = synthesize_frames(base, radar, 1)[0].samples
    f1 = synthesize_frames(flagged, radar, 1)[0].samples
    assert np.allclose(f1, 0.25 * f0, rtol=1e-6)


def _lone_distractor(kind, params, rng_seed=0):
    return SceneSpec((Distractor(kind, params),), rng_seed=rng_seed)


def test_static_blob_energy_confined_to_dc(radar):
    frames = synthesize_frames(_lone_distractor("static-blob", {"range_m": 30.0}), radar, 1)
    rd = process_frames(frames)[0]
    row = rd[beat_range_bin(radar, 30.0)]
    dc = dc_bin(radar.chirps_per_frame)
    assert int(np.argmax(row)) == dc
    off_dc = np.delete(row, dc)
    assert off_dc.max() < 1e-9 * row[dc]


def test_flapper_deterministic_stream(radar):
    scene = _lone_distractor("aperiodic-flapper", {"range_m": 30.0}, rng_seed=9)
    a = synthesize_frames(scene, radar, 3)
    b = synthesize_frames(_lone_distractor("aperiodic-flapper", {"range_m": 30.0}, rng_seed=9),
                          radar, 3)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.samples, fb.samples)


def test_unknown_distractor_kind_errors(radar):
    with pytest.raises(SimulationError, match="unknown distractor kind"):
        synthesize_frames(_lone_distractor("wobbler", {}), radar, 1)


@pytest.mark.parametrize("scene", [
    SceneSpec(emitters=(StaticClutter(12.0, 1e300),)),
    SceneSpec(noise_std=1e308),
], ids=["reflectivity", "noise"])
def test_scene_whose_samples_overflow_errors(radar, scene):
    """Finite but extreme values once wrote a NaN capture that only `track` refused."""
    with pytest.raises(SimulationError, match="frame 0: the scene's samples are not finite"):
        synthesize_frames(scene, radar, 1)


@pytest.mark.parametrize("kind, key", [("aperiodic-flapper", "phase_jitter_rad"),
                                       ("slow-oscillator", "drift_per_frame")])
@pytest.mark.parametrize("value", [-1.0, -0.0])
def test_negative_distractor_spread_errors(kind, key, value):
    """numpy's normal refuses a scale whose sign bit is set, -0.0 included."""
    with pytest.raises(ValidationError, match=f"scene emitter 0: {key} must be >= \\+0.0"):
        _lone_distractor(kind, {"range_m": 30.0, key: value})


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
            noise_std=scenarios.NOISE_STD, rng_seed=trial)
        bin_ = beat_range_bin(radar, 48.0)
        best_uav, best_osc = (
            max(folding_result(row).folding_result
                for row in process_frames(synthesize_frames(scene, radar, 5))[:, bin_])
            for scene in (uav_scene, osc_scene))
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
    scene = SceneSpec(emitters=(), noise_std=0.5, rng_seed=1)
    frames = synthesize_frames(scene, radar, 3)
    assert len(frames) == 3
    assert all(f.samples.shape == (radar.chirps_per_frame, radar.samples_per_chirp)
               for f in frames)
    assert len({f.samples.tobytes() for f in frames}) == 3  # per-frame noise substreams


def test_synthesize_frames_uses_the_validated_scene(radar):
    """A freshly built UavConfig() already holds [rotor, scatterer] arrays, because
    construction is the check: synthesis once ran a raw default config as 1 blade
    scatterer instead of its 6 x 3."""
    uav = UavConfig()
    assert uav.scatterer_radii_m.shape == uav.initial_phases_rad.shape == (6, 3)
    six_by_three, one = (
        synthesize_frames(SceneSpec(emitters=(UavEmitter(u, hover(48.0, 1.0)),)), radar, 1)
        for u in (uav, UavConfig(rotor_count=1, scatterers_per_rotor=1)))
    assert not np.array_equal(six_by_three[0].samples, one[0].samples)


def _oracle(scene, radar, frame_index):
    """complex128 reference: one exp per return, each scatterer at scatterer_range."""
    L, N = radar.chirps_per_frame, radar.samples_per_chirp
    n = np.arange(N) / radar.adc_rate_hz
    t = frame_index * radar.frame_duration_s + (np.arange(L) * radar.chirp_duration_s)[:, None] + n
    scale = 4.0 * math.pi * (radar.carrier_freq_hz + radar.chirp_slope_hz_per_s * n) \
        / radar.speed_of_light_m_per_s
    (em,) = scene.emitters
    uav, traj = em.uav, em.trajectory
    out = uav.body_reflectivity * np.exp(1j * scale * traj.range_at(t))
    for q in range(uav.rotor_count):
        for p in range(uav.scatterers_per_rotor):
            out += uav.scatterer_reflectivities[q, p] * np.exp(
                1j * scale * scatterer_range(uav, traj, p, q, t))
    return out, scale.max()


@settings(max_examples=30, deadline=None)
@given(rotors=st.integers(1, 3), per_rotor=st.integers(1, 3), data=st.data(),
       rate_hz=st.floats(10.0, 200.0), velocity=st.floats(-2.0, 2.0),
       body=st.floats(0.0, 2.0), frame_index=st.integers(0, 40))
def test_blade_kernel_matches_per_scatterer_oracle(radar, rotors, per_rotor, data, rate_hz,
                                                   velocity, body, frame_index):
    shape = (rotors, per_rotor)

    def draw(lo, hi):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=rotors * per_rotor,
                                           max_size=rotors * per_rotor))).reshape(shape)

    uav = UavConfig(rotor_count=rotors, scatterers_per_rotor=per_rotor,
                    scatterer_radii_m=draw(0.0, 0.25),
                    rotor_angular_velocity_rad_per_s=2 * math.pi * rate_hz,
                    initial_phases_rad=draw(0.0, 2 * math.pi),
                    blade_plane_angle_rad=draw(0.0, math.pi),
                    body_reflectivity=body,
                    scatterer_reflectivities=draw(0.0, 1.0))
    scene = SceneSpec(emitters=(UavEmitter(uav, constant_velocity(40.0, velocity, 4.0)),))
    got = _lone_frame(scene, radar, frame_index)
    want, scale_max = _oracle(scene, radar, frame_index)
    # Each scatterer's blade phase, at most scale_max*|r cos(theta)|, is rounded to
    # float32, an error of at most |phase|*2**-24 rad, weighted by its reflectivity.
    # In units u = 2**-24 of the total amplitude body + sum(refl), the rest is: 4 u
    # for the float32 body phase after reduction to [0, 2*pi), 3 u (1.5 float32 ulps)
    # for each float32 cos/sin, S u for the float32 sum of S scatterers and 3 u for
    # the complex64 product: S + 13 u in all.
    refl = uav.scatterer_reflectivities
    phase_max = scale_max * np.abs(uav.scatterer_radii_m * np.cos(uav.blade_plane_angle_rad))
    u = 2.0 ** -24
    tol = u * (np.sum(refl * phase_max) + (refl.size + 13) * (body + refl.sum()))
    # Below float32's normal range a rounding errs by up to the subnormal spacing
    # 2**-149 instead of by a relative 2**-24 (a body of 5e-91 becomes 0), so each
    # of the S + 13 roundings counted above also gets that absolute floor.
    tol += (refl.size + 13) * 2.0 ** -149
    assert np.max(np.abs(got - want)) <= tol


def test_uav_range_check_covers_blade_envelope(radar):
    uav = UavConfig(scatterer_radii_m=0.25, blade_plane_angle_rad=0.0)
    reach = 0.25
    max_range = radar.max_range_m
    # the hub stays inside; only the blades cross max range
    near = SceneSpec(emitters=(UavEmitter(uav, hover(max_range - reach / 2, 4.0)),))
    with pytest.raises(SimulationError, match="emitter 0"):
        synthesize_frames(near, radar, 1)
    clear = SceneSpec(emitters=(UavEmitter(uav, hover(max_range - 2 * reach, 4.0)),))
    synthesize_frames(clear, radar, 1)


def test_hover_uav_range_loss_scales_at_hub_range(radar):
    uav = scenarios.make_uav(seed=4)
    plain = SceneSpec(emitters=(UavEmitter(uav, hover(48.0, 4.0)),))
    lossy = SceneSpec(emitters=plain.emitters, range_loss_ref_m=20.0)
    f0 = _lone_frame(plain, radar, 3)
    f1 = _lone_frame(lossy, radar, 3)
    assert np.allclose(f1, (20.0 / 48.0) ** 2 * f0, rtol=1e-6)


_HASH_HOVER48 = """
import hashlib, sys
from rotorsense.cli import load_scenario
from rotorsense.config import RadarConfig
from rotorsense.echo import synthesize_frames
frames = synthesize_frames(load_scenario(sys.argv[1], 0), RadarConfig(), 3)
print(hashlib.sha256(b"".join(f.samples.tobytes() for f in frames)).hexdigest())
"""


def test_hover48_bytes_do_not_depend_on_blas_threads(radar):
    frames = synthesize_frames(load_scenario(HOVER48, 0), radar, 3)
    here = hashlib.sha256(b"".join(f.samples.tobytes() for f in frames)).hexdigest()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", _HASH_HOVER48, str(HOVER48)], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == here


def _per_frame_recipe(scene, radar, frame_index, paths):
    """Reference: every emitter, static ones included, synthesized anew in each frame,
    and the noise added as one complex array."""
    L, N = radar.chirps_per_frame, radar.samples_per_chirp
    t_abs = _frame_times(radar, frame_index)
    tau = np.arange(N) / radar.adc_rate_hz
    c = radar.speed_of_light_m_per_s
    phase_scale = 4.0 * math.pi * (radar.carrier_freq_hz + radar.chirp_slope_hz_per_s * tau) / c
    max_range = radar.max_range_m

    total = np.zeros((L, N), dtype=np.complex128)
    for i, em in enumerate(scene.emitters):
        reach = 0.0
        if isinstance(em, UavEmitter):
            rng_m = em.trajectory.range_at(t_abs)
            reach = float(np.max(np.abs(_blade_projection(em.uav))))
            amp = _blade_amplitude(em.uav, radar, frame_index, phase_scale)
        elif isinstance(em, StaticClutter):
            amp, rng_m = em.reflectivity, np.full_like(t_abs, em.range_m)
        else:
            amp = float(em.params.get("reflectivity", 1.0))
            rng_m = _distractor_range(em, radar, paths.get(i), frame_index, t_abs)
        if np.any(rng_m - reach <= 0.0) or np.any(rng_m + reach >= max_range):
            raise SimulationError(
                f"emitter {i} ({type(em).__name__}) leaves (0, {max_range:.2f}) m "
                f"in frame {frame_index}")
        if scene.range_loss_ref_m is not None:
            amp = amp * (scene.range_loss_ref_m / rng_m) ** 2
        total += amp * _unit_phasor(phase_scale * rng_m)

    if scene.noise_std > 0:
        rng = _frame_rng(scene.rng_seed, frame_index)
        sigma = scene.noise_std / math.sqrt(2.0)
        total += rng.normal(0.0, sigma, (L, N)) + 1j * rng.normal(0.0, sigma, (L, N))
    return total


_MIXED_EMITTERS = (
    StaticClutter(12.0, 0.8),
    UavEmitter(scenarios.make_uav(seed=2), constant_velocity(40.0, 1.5, 4.0)),
    Distractor("static-blob", {"range_m": 25.0, "reflectivity": 1.3}),
    Distractor("slow-oscillator", {"range_m": 33.0, "reflectivity": 0.9}),
    StaticClutter(60.0, 0.4),
)


@pytest.mark.parametrize("range_loss_ref_m", [None, 20.0])
@pytest.mark.parametrize("noise_std", [0.0, 0.3])
def test_synthesize_frames_matches_per_frame_recipe(radar, range_loss_ref_m, noise_std):
    """Static emitters synthesized once per capture leave every frame's bytes as
    the per-frame recipe makes them."""
    scene = SceneSpec(emitters=_MIXED_EMITTERS, noise_std=noise_std, rng_seed=7,
                      range_loss_ref_m=range_loss_ref_m)
    n = 4
    with np.errstate(over="ignore", invalid="ignore"):
        paths = _distractor_paths(scene, radar, n)
        want = [_per_frame_recipe(scene, radar, f, paths) for f in range(n)]
    got = synthesize_frames(scene, radar, n)
    assert [f.samples.dtype for f in got] == [np.complex128] * n
    assert [f.samples.tobytes() for f in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("static", [StaticClutter(100.0, 1.0),
                                    Distractor("static-blob", {"range_m": -1.0})],
                         ids=["clutter", "static-blob"])
def test_out_of_range_static_emitter_names_frame_0(radar, static):
    scene = SceneSpec(emitters=(StaticClutter(12.0, 0.8), static))
    with pytest.raises(SimulationError, match=r"emitter 1 \(\w+\) leaves .* in frame 0$"):
        synthesize_frames(scene, radar, 3)


def test_zero_frames_synthesize_nothing(radar):
    scene = SceneSpec(emitters=_MIXED_EMITTERS, noise_std=0.3, range_loss_ref_m=20.0)
    assert synthesize_frames(scene, radar, 0) == []
