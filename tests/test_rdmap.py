import numpy as np
import pytest

from rotorsense.config import UavConfig, constant_velocity, hover
from rotorsense.echo import Frame, SceneSpec, StaticClutter, UavEmitter, synthesize_frame
from rotorsense.folding import folding_result
from rotorsense.identify import IdentifyError, diagram_at_bins
from rotorsense.rdmap import (ProcessingError, aliased_doppler_hz, beat_range_bin,
                              compute_map, dc_bin, doppler_axis_hz, doppler_fft,
                              map_to_csv, range_fft)
from rotorsense import scenarios

from conftest import UAV_RANGE_BIN, comb_spacing_estimate


def _point_frame(radar, range_m, amplitude=1.0, frame_index=0):
    scene = SceneSpec(emitters=(StaticClutter(range_m, amplitude),)).validate()
    return synthesize_frame(scene, radar, frame_index)


def test_static_point_range_bin(radar):
    # beat frequency 2 K R / c maps 30 m to bin 82 on the default grid
    assert beat_range_bin(radar, 30.0) == 82
    spectrum = range_fft(_point_frame(radar, 30.0))
    for chirp in (0, 13, 99):
        assert int(np.argmax(np.abs(spectrum[chirp]))) == 82


def test_zero_input_zero_output(radar):
    frame = Frame(0, np.zeros((radar.chirps_per_frame, radar.samples_per_chirp),
                              dtype=complex))
    assert np.all(range_fft(frame) == 0)


def test_two_points_match_single_point_runs(radar):
    lone_a = int(np.argmax(np.abs(range_fft(_point_frame(radar, 22.0))[0])))
    lone_b = int(np.argmax(np.abs(range_fft(_point_frame(radar, 61.0))[0])))
    both = SceneSpec(emitters=(StaticClutter(22.0, 1.0), StaticClutter(61.0, 1.0)))
    spectrum = np.abs(range_fft(synthesize_frame(both.validate(), radar, 0))[0])
    top_two = set(np.argsort(spectrum)[-2:])
    assert top_two == {lone_a, lone_b}


def test_non_finite_input_rejected(radar):
    samples = np.zeros((radar.chirps_per_frame, radar.samples_per_chirp), dtype=complex)
    samples[3, 5] = np.nan
    with pytest.raises(ProcessingError, match="non-finite"):
        range_fft(Frame(0, samples))
    with pytest.raises(ProcessingError, match="non-finite"):
        doppler_fft(samples * np.nan)


def test_static_point_doppler_at_dc(radar):
    rd = compute_map(_point_frame(radar, 30.0))
    row = rd[82]
    assert int(np.argmax(row)) == dc_bin(radar.chirps_per_frame)


def test_body_doppler_peak_aliases(radar):
    # 1.5 m/s -> 602.5 Hz, beyond PRF/2, aliases to -508.6 Hz
    predicted_hz = aliased_doppler_hz(radar, 1.5)
    assert abs(predicted_hz - (-508.6)) < 0.1
    uav = UavConfig(scatterer_radii_m=0.0, scatterer_reflectivities=0.0).validate()
    scene = SceneSpec(emitters=(UavEmitter(uav, constant_velocity(48.0, 1.5, 4.0)),))
    rd = compute_map(synthesize_frame(scene.validate(), radar, 0))
    row = rd[int(np.argmax(rd.max(axis=1)))]
    axis = doppler_axis_hz(radar)
    measured_hz = axis[int(np.argmax(row))]
    assert abs(measured_hz - predicted_hz) <= 11.2  # one Doppler bin


def test_uav_comb_spacing_five_bins(radar, hover_capture):
    _, _, cube, _, _ = hover_capture
    avg_row = np.mean([rd[UAV_RANGE_BIN] for rd in cube[:10]], axis=0)
    dc = dc_bin(radar.chirps_per_frame)
    spacing = comb_spacing_estimate(avg_row, exclude=(dc - 2, dc + 2))
    assert spacing is not None and abs(spacing - 5) <= 1


def test_comb_spacing_tracks_rotation_rate(radar):
    """Peak spacing equals round(rate / doppler bin) across the traversal range.

    Rates are sampled so the wrapped harmonic combs stay aligned on the
    100-bin circular Doppler axis (spacings that divide it, plus the low
    spacings whose harmonics fit in one wrap); spacings like 15 alias onto
    their gcd with the bin count by construction.
    """
    dc = dc_bin(radar.chirps_per_frame)
    for rate, expected in ((22.3, 2), (33.3, 3), (55.6, 5), (111.1, 10), (222.2, 20)):
        uav = scenarios.make_uav(seed=4, rotation_rate_hz=rate)
        scene = SceneSpec(emitters=(UavEmitter(uav, hover(48.0, 1.0)),),
                          noise_std=scenarios.NOISE_STD, rng_seed=40).validate()
        rows = [compute_map(synthesize_frame(scene, radar, f))[UAV_RANGE_BIN]
                for f in range(8)]
        spacing = comb_spacing_estimate(np.mean(rows, axis=0), exclude=(dc - 2, dc + 2))
        assert spacing is not None and abs(spacing - expected) <= 1, \
            f"rate {rate}: got {spacing}, expected {expected}"


def test_doppler_rows_partition_map(radar, hover_capture):
    _, frames, cube, _, _ = hover_capture
    rd = compute_map(frames[0])
    rebuilt = np.stack([cube[0, r] for r in range(cube.shape[1])])
    assert np.array_equal(rebuilt, rd)


def test_doppler_row_bounds(radar, hover_capture):
    cube = hover_capture[2][:1]
    with pytest.raises(IdentifyError, match="out of bounds"):
        diagram_at_bins(cube, [cube.shape[1]])
    with pytest.raises(IdentifyError, match="out of bounds"):
        diagram_at_bins(cube, [-1])


def test_uav_row_has_comb_neighbor_does_not(radar, hover_capture):
    _, _, cube, _, _ = hover_capture
    rd = cube[0]
    uav_fold = folding_result(rd[UAV_RANGE_BIN]).folding_result
    empty_fold = folding_result(rd[UAV_RANGE_BIN + 40]).folding_result
    assert uav_fold > 5 * empty_fold


def test_parseval_through_each_fft(radar):
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(100, 256)) + 1j * rng.normal(size=(100, 256))
    frame = Frame(0, samples)
    in_energy = np.sum(np.abs(samples) ** 2)
    spectrum = range_fft(frame)
    mid_energy = np.sum(np.abs(spectrum) ** 2)
    assert abs(mid_energy - in_energy) / in_energy < 1e-6
    rd = doppler_fft(spectrum)
    out_energy = np.sum(rd ** 2)
    assert abs(out_energy - mid_energy) / mid_energy < 1e-6


def test_body_argmax_invariant_under_blades(radar):
    traj = constant_velocity(48.0, 1.5, 4.0)
    body = UavConfig(scatterer_radii_m=0.0, scatterer_reflectivities=0.0).validate()
    bladed = scenarios.make_uav(seed=5)
    rd_body = compute_map(synthesize_frame(
        SceneSpec(emitters=(UavEmitter(body, traj),)).validate(), radar, 0))
    rd_blade = compute_map(synthesize_frame(
        SceneSpec(emitters=(UavEmitter(bladed, traj),)).validate(), radar, 0))
    assert np.unravel_index(np.argmax(rd_body), rd_body.shape) \
        == np.unravel_index(np.argmax(rd_blade), rd_blade.shape)


def test_map_csv_dump(radar, tmp_path):
    rd = compute_map(_point_frame(radar, 30.0))
    path = tmp_path / "map.csv"
    map_to_csv(rd, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "range_bin,doppler_bin,magnitude"
    assert len(lines) == 1 + 256 * 100
    r, d, mag = lines[1 + 82 * 100 + 50].split(",")
    assert (int(r), int(d)) == (82, 50)
    assert float(mag) == rd[82, 50]
