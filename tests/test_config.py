import math
from dataclasses import replace

import numpy as np
import pytest

from rotorsense.config import (RadarConfig, TrajectorySegment, TrajectorySpec,
                               UavConfig, ValidationError, constant_velocity, csv_columns,
                               hover, json_document, json_field, json_fields,
                               load_radar_config, save_radar_config)
from rotorsense.tracking import motion_bins


def test_default_radar_is_valid():
    radar = RadarConfig()
    assert radar.carrier_freq_hz == 60.25e9
    assert radar.chirp_slope_hz_per_s == 9.994e12
    assert radar.chirp_duration_s == 900e-6
    assert radar.chirps_per_frame == 100
    assert radar.adc_rate_hz == 6.25e6


def test_single_chirp_frame_rejected():
    with pytest.raises(ValidationError, match="chirps_per_frame"):
        RadarConfig(chirps_per_frame=1)


def test_replace_checks_the_new_config():
    """Construction is the check, so dataclasses.replace cannot build an invalid copy."""
    with pytest.raises(ValidationError, match="radar.chirps_per_frame must be >= 2"):
        replace(RadarConfig(), chirps_per_frame=1)
    with pytest.raises(ValidationError, match="uav.scatterer_radii_m must be >= 0"):
        replace(UavConfig(), scatterer_radii_m=-0.1)
    with pytest.raises(ValidationError, match="trajectory must contain at least one segment"):
        replace(hover(48.0, 1.0), segments=())


def test_sampling_window_must_fit_in_chirp():
    # 8192 samples at 6.25 MHz is a 1.31 ms window, longer than the 0.9 ms chirp
    with pytest.raises(ValidationError, match="window"):
        RadarConfig(samples_per_chirp=8192)


def test_samples_per_chirp_power_of_two():
    with pytest.raises(ValidationError, match="power of two"):
        RadarConfig(samples_per_chirp=200)


def test_negative_rate_rejected():
    with pytest.raises(ValidationError):
        RadarConfig(adc_rate_hz=-1.0)


def test_derive_max_range_matches_published_figure():
    assert round(RadarConfig().max_range_m, 1) == 93.8


def test_derive_default_grid():
    radar = RadarConfig()
    assert abs(radar.range_bin_size_m - 0.3664) < 1e-4
    assert radar.range_bin_size_m == radar.max_range_m / radar.samples_per_chirp
    assert abs(radar.frame_duration_s - 0.090) < 1e-12


@pytest.mark.parametrize("v_max", [math.inf, -math.inf, math.nan, 0.0, -1.0, 3.0e8, 1e300,
                                   1e308])
def test_derive_rejects_non_finite_or_non_positive_v_max(v_max):
    with pytest.raises(ValidationError, match="v_max_m_per_s must be finite and > 0"):
        motion_bins(RadarConfig(), v_max)


def test_dp_constraint_default_is_one_bin():
    # 4 m/s * 0.09 s / 0.3664 m = 0.982 -> ceil = 1
    assert motion_bins(RadarConfig(), 4.0) == 1


def test_dp_constraint_finer_grid_is_five_bins():
    # adc rate chosen so the range bin lands at 0.078 m
    target_bin = 0.078
    radar = RadarConfig(adc_rate_hz=target_bin * 256 * 2 * 9.994e12 / 3e8)
    assert abs(radar.range_bin_size_m - target_bin) < 1e-9
    assert motion_bins(radar, 4.0) == math.ceil(4.0 * 0.09 / target_bin) == 5


def test_derive_scale_consistency():
    base = RadarConfig()
    doubled = RadarConfig(adc_rate_hz=base.adc_rate_hz * 2)
    assert doubled.max_range_m == 2 * base.max_range_m


def test_dp_constraint_monotonicity():
    radar = RadarConfig()
    ks = [motion_bins(radar, v) for v in (0.5, 2.0, 4.0, 8.0, 16.0)]
    assert ks == sorted(ks)
    slow_frame = RadarConfig(chirps_per_frame=200)  # doubles frame time
    assert motion_bins(slow_frame, 4.0) >= motion_bins(radar, 4.0)
    fine = RadarConfig(adc_rate_hz=radar.adc_rate_hz / 4)  # smaller bins
    assert motion_bins(fine, 4.0) >= motion_bins(radar, 4.0)


def test_v_max_must_be_positive():
    with pytest.raises(ValidationError):
        motion_bins(RadarConfig(), 0.0)


def test_uav_broadcasts_scalars():
    uav = UavConfig(rotor_count=2, scatterers_per_rotor=3,
                    scatterer_radii_m=0.1, scatterer_reflectivities=0.2)
    assert uav.scatterer_radii_m.shape == (2, 3)
    assert not uav.scatterer_radii_m.flags.writeable


def test_uav_rejects_bad_shapes_and_values():
    with pytest.raises(ValidationError, match="broadcast"):
        UavConfig(rotor_count=2, scatterers_per_rotor=2,
                  scatterer_radii_m=np.ones((3, 3)))
    with pytest.raises(ValidationError, match="radii"):
        UavConfig(scatterer_radii_m=-0.1)
    with pytest.raises(ValidationError):
        UavConfig(rotor_angular_velocity_rad_per_s=0.0)


@pytest.mark.parametrize("rate, named", [
    (math.inf, "must be finite"), (2 * math.pi * 1e308, "must be finite"),
    (math.nan, "must be > 0"),
], ids=["inf", "2pi-1e308", "nan"])
def test_uav_rotor_rate_must_be_finite_and_positive(rate, named):
    """A scenario rotation_rate_hz of 1e308 gives an infinite rate that synthesis
    once ran on, warning, until the non-finite samples were refused."""
    with pytest.raises(ValidationError, match=f"uav.rotor_angular_velocity_rad_per_s {named}"):
        UavConfig(rotor_angular_velocity_rad_per_s=rate)


def test_trajectory_contiguity_enforced():
    segs = (TrajectorySegment(0.0, 1.0, 40.0, 0.0),
            TrajectorySegment(1.5, 1.0, 40.0, 0.0))
    with pytest.raises(ValidationError, match="contiguous"):
        TrajectorySpec(segs)


def test_trajectory_piecewise_evaluation():
    spec = TrajectorySpec((TrajectorySegment(0.0, 2.0, 40.0, 1.0),
                           TrajectorySegment(2.0, 2.0, 42.0, -0.5)))
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


def test_config_file_round_trip(tmp_path):
    radar = RadarConfig(samples_per_chirp=128, frames_per_capture=7)
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


@pytest.mark.parametrize("radar, named", [
    (dict(chirps_per_frame=2**20, samples_per_chirp=32), "samples_per_chirp must be <= 16777216"),
    (dict(samples_per_chirp=2**1100), "samples_per_chirp must be <= 16777216"),
    (dict(chirp_duration_s=1e307), "frame duration"),
    (dict(chirp_slope_hz_per_s=1e308), "range bin"),
    (dict(speed_of_light_m_per_s=1e300, adc_rate_hz=1e300), "range bin"),
], ids=["frame-samples", "samples-2**1100", "frame-duration-overflow", "range-bin-underflow",
        "range-bin-overflow"])
def test_radar_grid_must_be_finite(radar, named):
    """Counts and grids that would overflow or size an impossible array are rejected."""
    with pytest.raises(ValidationError, match=named):
        RadarConfig(**radar)


def test_derive_rejects_non_finite_motion_bound():
    radar = RadarConfig(chirp_duration_s=1e305, chirps_per_frame=2)
    with pytest.raises(ValidationError, match="must be finite"):
        motion_bins(radar, 1e8)


# --- the reader contract ------------------------------------------------------

@pytest.mark.parametrize("value, kind, expected", [
    (3, "integer", 3), (3, "number", 3.0), (2.5, "number", 2.5), (-0.0, "number", -0.0),
    (10**300, "number", 1e300), ("x", "string", "x"), (False, "bool", False),
    ({"a": 1}, "object", {"a": 1}), ([1], "list", [1]), (2**70, "integer", 2**70),
])
def test_json_field_accepts_its_kind(value, kind, expected):
    got = json_field({"k": value}, "k", kind, "doc")
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("value, kind", [
    (True, "integer"), (True, "number"), (1, "bool"), (2.0, "integer"), ("3", "number"),
    (None, "number"), (math.nan, "number"), (math.inf, "number"), (-math.inf, "number"),
    (10**400, "number"), ([], "object"), ({}, "list"), (1, "string"),
])
def test_json_field_rejects_other_values(value, kind):
    with pytest.raises(ValidationError) as info:
        json_field({"k": value}, "k", kind, "doc")
    assert str(info.value) == f"doc k = {value!r} is not a JSON {kind}"


def test_json_field_missing_key_and_default():
    with pytest.raises(ValidationError, match="^doc has no key 'k'$"):
        json_field({}, "k", "number", "doc")
    assert json_field({}, "k", "number", "doc", default=None) is None
    assert json_field(["a", 2], 1, "integer", "doc list") == 2


def test_json_field_raises_the_readers_error():
    class ReaderError(ValidationError):
        pass

    with pytest.raises(ReaderError, match="doc k = 'x' is not a JSON integer"):
        json_field({"k": "x"}, "k", "integer", "doc", ReaderError)


@pytest.mark.parametrize("data, named", [
    (b"\xff{}", "unreadable doc: 'utf-8' codec"), (b'{"a": ', "unreadable doc: Expecting value"),
    ("[1]", "doc is not a JSON object"), ("null", "doc is not a JSON object"),
    ("[" * 100000 + "]" * 100000, "unreadable doc: maximum recursion depth"),
])
def test_json_document_rejects(data, named):
    with pytest.raises(ValidationError, match=named):
        json_document(data, "doc")


def test_json_document_reads_bytes_and_text():
    assert json_document(b' {"a": NaN} ', "doc")["a"] != 0
    assert json_document('{"a": 1}', "doc") == {"a": 1}


def test_json_fields_types_known_keys_and_names_every_unknown_one():
    kinds = {"a": "integer", "b": "number"}
    assert json_fields({"a": 1}, kinds, "doc") == {"a": 1}
    assert json_fields({"a": 1, "b": 2}, kinds, "doc", required=True) == {"a": 1, "b": 2.0}
    with pytest.raises(ValidationError, match="^doc has no key 'b'$"):
        json_fields({"a": 1}, kinds, "doc", required=True)
    with pytest.raises(ValidationError, match=r"^doc has unknown keys \['c', 'd'\]$"):
        json_fields({"d": 1, "a": 1, "c": 2}, kinds, "doc")


def test_csv_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2.5,\n-3,1e3,4\n")
    a, c = csv_columns(path, ("a", "c"), "table", blank=("c",))
    assert a.tolist() == [1.0, -3.0] and np.isnan(c[0]) and c[1] == 4.0
    with pytest.raises(ValidationError, match="^table line 2 c = '' is not a finite number$"):
        csv_columns(path, ("a", "c"), "table")
    with pytest.raises(ValidationError, match="^table has no 'd' column$"):
        csv_columns(path, ("a", "d"), "table")
    path.write_bytes(b"a\n\xff\n")
    with pytest.raises(ValidationError, match="^unreadable table: 'utf-8' codec"):
        csv_columns(path, ("a",), "table")
