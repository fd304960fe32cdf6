import math

import numpy as np
import pytest

from rotorsense.config import (RadarConfig, TrajectorySegment, TrajectorySpec,
                               UavConfig, ValidationError, constant_velocity,
                               derive, hover, load_radar_config,
                               save_radar_config)


def test_default_radar_is_valid():
    radar = RadarConfig().validate()
    assert radar.carrier_freq_hz == 60.25e9
    assert radar.chirp_slope_hz_per_s == 9.994e12
    assert radar.chirp_duration_s == 900e-6
    assert radar.chirps_per_frame == 100
    assert radar.adc_rate_hz == 6.25e6


def test_single_chirp_frame_rejected():
    with pytest.raises(ValidationError, match="chirps_per_frame"):
        RadarConfig(chirps_per_frame=1).validate()


def test_sampling_window_must_fit_in_chirp():
    # 8192 samples at 6.25 MHz is a 1.31 ms window, longer than the 0.9 ms chirp
    with pytest.raises(ValidationError, match="window"):
        RadarConfig(samples_per_chirp=8192).validate()


def test_samples_per_chirp_power_of_two():
    with pytest.raises(ValidationError, match="power of two"):
        RadarConfig(samples_per_chirp=200).validate()


def test_negative_rate_rejected():
    with pytest.raises(ValidationError):
        RadarConfig(adc_rate_hz=-1.0).validate()


def test_derive_max_range_matches_published_figure():
    derived = derive(RadarConfig().validate(), 4.0)
    assert round(derived.max_range_m, 1) == 93.8


def test_derive_default_grid():
    derived = derive(RadarConfig().validate(), 4.0)
    assert abs(derived.range_bin_size_m - 0.3664) < 1e-4
    assert abs(derived.frame_duration_s - 0.090) < 1e-12
    assert abs(derived.doppler_bin_hz - 11.11) < 1e-2
    assert abs(derived.doppler_bin_m_per_s
               - derived.doppler_bin_hz * 3e8 / (2 * 60.25e9)) < 1e-12


@pytest.mark.parametrize("v_max", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_derive_rejects_non_finite_or_non_positive_v_max(v_max):
    with pytest.raises(ValidationError, match="v_max_m_per_s must be finite and > 0"):
        derive(RadarConfig().validate(), v_max)


def test_dp_constraint_default_is_one_bin():
    derived = derive(RadarConfig().validate(), 4.0)
    # 4 m/s * 0.09 s / 0.3664 m = 0.982 -> ceil = 1
    assert derived.dp_constraint_bins == 1
    assert derived.v_max_m_per_s == 4.0


def test_dp_constraint_finer_grid_is_five_bins():
    # adc rate chosen so the range bin lands at 0.078 m
    target_bin = 0.078
    radar = RadarConfig(adc_rate_hz=target_bin * 256 * 2 * 9.994e12 / 3e8).validate()
    derived = derive(radar, 4.0)
    assert abs(derived.range_bin_size_m - target_bin) < 1e-9
    assert derived.dp_constraint_bins == math.ceil(4.0 * 0.09 / target_bin) == 5


def test_derive_scale_consistency():
    base = RadarConfig().validate()
    doubled = RadarConfig(adc_rate_hz=base.adc_rate_hz * 2).validate()
    assert derive(doubled, 4.0).max_range_m == 2 * derive(base, 4.0).max_range_m


def test_dp_constraint_monotonicity():
    radar = RadarConfig().validate()
    ks = [derive(radar, v).dp_constraint_bins for v in (0.5, 2.0, 4.0, 8.0, 16.0)]
    assert ks == sorted(ks)
    slow_frame = RadarConfig(chirps_per_frame=200).validate()  # doubles frame time
    assert derive(slow_frame, 4.0).dp_constraint_bins >= derive(radar, 4.0).dp_constraint_bins
    fine = RadarConfig(adc_rate_hz=radar.adc_rate_hz / 4).validate()  # smaller bins
    assert derive(fine, 4.0).dp_constraint_bins >= derive(radar, 4.0).dp_constraint_bins


def test_v_max_must_be_positive():
    with pytest.raises(ValidationError):
        derive(RadarConfig().validate(), 0.0)


def test_uav_broadcasts_scalars():
    uav = UavConfig(rotor_count=2, scatterers_per_rotor=3,
                    scatterer_radii_m=0.1, scatterer_reflectivities=0.2).validate()
    assert uav.scatterer_radii_m.shape == (2, 3)
    assert not uav.scatterer_radii_m.flags.writeable


def test_uav_rejects_bad_shapes_and_values():
    with pytest.raises(ValidationError, match="broadcast"):
        UavConfig(rotor_count=2, scatterers_per_rotor=2,
                  scatterer_radii_m=np.ones((3, 3))).validate()
    with pytest.raises(ValidationError, match="radii"):
        UavConfig(scatterer_radii_m=-0.1).validate()
    with pytest.raises(ValidationError):
        UavConfig(rotor_angular_velocity_rad_per_s=0.0).validate()


def test_trajectory_contiguity_enforced():
    segs = (TrajectorySegment(0.0, 1.0, 40.0, 0.0),
            TrajectorySegment(1.5, 1.0, 40.0, 0.0))
    with pytest.raises(ValidationError, match="contiguous"):
        TrajectorySpec(segs).validate()


def test_trajectory_piecewise_evaluation():
    spec = TrajectorySpec((TrajectorySegment(0.0, 2.0, 40.0, 1.0),
                           TrajectorySegment(2.0, 2.0, 42.0, -0.5))).validate()
    assert spec.range_at(0.0) == 40.0
    assert spec.range_at(2.0) == 42.0
    assert abs(spec.range_at(3.0) - 41.5) < 1e-12
    assert spec.velocity_at(1.0) == 1.0
    assert spec.velocity_at(3.0) == -0.5
    times = np.array([0.0, 1.0, 2.5])
    assert np.allclose(spec.range_at(times), [40.0, 41.0, 41.75])


def test_trajectory_time_bounds():
    spec = hover(48.0, 2.0)
    with pytest.raises(ValidationError, match="span"):
        spec.range_at(2.5)
    with pytest.raises(ValidationError, match="span"):
        spec.velocity_at(-0.5)


def test_trajectory_range_bounds():
    with pytest.raises(ValidationError, match="range"):
        constant_velocity(1.0, -2.0, 1.0)  # goes through zero
    with pytest.raises(ValidationError, match="max range"):
        hover(100.0, 1.0).validate(max_range_m=93.8)


def test_config_file_round_trip(tmp_path):
    radar = RadarConfig(samples_per_chirp=128, frames_per_capture=7).validate()
    path = tmp_path / "radar.json"
    save_radar_config(radar, path)
    loaded = load_radar_config(path)
    assert loaded == radar


def test_config_file_reads_integer_numbers_as_floats(tmp_path):
    path = tmp_path / "radar.json"
    path.write_text('{"schema_version": 1, "radar": {"adc_rate_hz": 6250000}}')
    radar = load_radar_config(path)
    assert radar == RadarConfig() and type(radar.adc_rate_hz) is float


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "radar.json"
    path.write_text('{"schema_version": 1, "radar": {"carrier_freq_hz": 6e10, "bogus": 1}}')
    with pytest.raises(ValidationError, match="bogus"):
        load_radar_config(path)


def test_config_file_rejects_wrong_version(tmp_path):
    path = tmp_path / "radar.json"
    path.write_text('{"schema_version": 99, "radar": {}}')
    with pytest.raises(ValidationError, match="schema_version"):
        load_radar_config(path)
