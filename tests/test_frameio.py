import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rotorsense.config import RadarConfig
from rotorsense.echo import Frame, SceneSpec, StaticClutter, synthesize_frames
from rotorsense.frameio import (FormatError, HEADER_BYTES, _decode_frames, _header_dict,
                                radar_mismatch, read_frames, read_header, write_frames)


@pytest.fixture(scope="module")
def small_radar():
    return RadarConfig(chirps_per_frame=8, samples_per_chirp=16,
                       frames_per_capture=3)


def test_round_trip(tmp_path, small_radar):
    scene = SceneSpec(emitters=(StaticClutter(30.0, 1.0),), noise_std=0.3,
                      rng_seed=5)
    frames = synthesize_frames(scene, small_radar, 3)
    path = tmp_path / "frames.bin"
    write_frames(path, frames, small_radar)

    loaded, radar = read_frames(path)
    assert radar.chirps_per_frame == 8 and radar.samples_per_chirp == 16
    assert radar.carrier_freq_hz == small_radar.carrier_freq_hz
    assert radar.chirp_slope_hz_per_s == small_radar.chirp_slope_hz_per_s
    assert len(loaded) == 3
    for orig, back in zip(frames, loaded):
        # storage is float32; equality after the same quantization
        assert np.array_equal(back.samples.real, orig.samples.real.astype("<f4"))
        assert np.array_equal(back.samples.imag, orig.samples.imag.astype("<f4"))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_float32_round_trip_is_exact(tmp_path_factory, n_frames, data):
    radar = RadarConfig(chirps_per_frame=4, samples_per_chirp=8)
    parts = data.draw(arrays(np.float32, (n_frames, 4, 8, 2),
                             elements=st.floats(width=32, allow_nan=False)))
    samples = np.empty(parts.shape[:3], dtype=np.complex128)
    samples.real, samples.imag = parts[..., 0], parts[..., 1]
    path = tmp_path_factory.getbasetemp() / "round_trip.bin"
    write_frames(path, [Frame(s) for s in samples], radar)
    loaded, read = read_frames(path)
    assert radar_mismatch(read, radar) == []
    assert len(loaded) == n_frames
    for i, frame in enumerate(loaded):
        for back, part in ((frame.samples.real, parts[i, ..., 0]),
                           (frame.samples.imag, parts[i, ..., 1])):
            assert np.array_equal(back, part)
            assert np.array_equal(np.signbit(back), np.signbit(part))


def _reference_write(path, frames, radar):
    """The float32 (re, im) interleave writer write_frames replaced, kept as its reference."""
    header = json.dumps(_header_dict(radar), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(header.ljust(HEADER_BYTES))
        for frame in frames:
            samples = np.asarray(frame.samples)
            inter = np.empty(samples.shape + (2,), dtype="<f4")
            inter[..., 0] = samples.real
            inter[..., 1] = samples.imag
            fh.write(inter.tobytes(order="C"))


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_write_frames_bytes_equal_reference_writer(tmp_path, small_radar):
    shape = (small_radar.chirps_per_frame, small_radar.samples_per_chirp)
    rng = np.random.default_rng(7)
    samples = [scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
               for scale in (1e-300, 1e-42, 1.0, 1e30, 1e39, 1e150)]
    f4 = np.finfo(np.float32)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, f4.max, -f4.max,
                         f4.smallest_subnormal, -f4.smallest_subnormal, 2e-45, 1e39, -1e300])
    mixed = np.empty(shape, dtype=complex)
    mixed.real = np.resize(specials, shape)
    mixed.imag = np.resize(specials[::-1], shape)
    samples += [np.zeros(shape, dtype=complex), mixed, np.asfortranarray(mixed),
                np.resize(specials, shape)]  # a real array writes a zero imaginary part
    scene = SceneSpec(emitters=(StaticClutter(30.0, 1.0),), noise_std=0.3,
                      rng_seed=5)
    samples += [f.samples for f in synthesize_frames(scene, small_radar, 2)]
    frames = [Frame(s) for s in samples]
    write_frames(tmp_path / "new.bin", frames, small_radar)
    _reference_write(tmp_path / "ref.bin", frames, small_radar)
    assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()


def test_header_is_fixed_size(tmp_path, small_radar):
    path = tmp_path / "frames.bin"
    write_frames(path, [], small_radar)
    raw = path.read_bytes()
    assert len(raw) == HEADER_BYTES
    json.loads(raw.decode().strip())  # valid JSON padded with spaces


def test_bad_magic_rejected(tmp_path, small_radar):
    path = tmp_path / "frames.bin"
    write_frames(path, [], small_radar)
    data = bytearray(path.read_bytes())
    data[:30] = json.dumps({"magic": "nope"}).encode().ljust(30)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_header(path)


def test_corrupt_header_rejected(tmp_path):
    path = tmp_path / "frames.bin"
    path.write_bytes(b"\xff" * HEADER_BYTES)
    with pytest.raises(FormatError, match="unreadable"):
        read_header(path)
    short = tmp_path / "short.bin"
    short.write_bytes(b"{}")
    with pytest.raises(FormatError, match="shorter"):
        read_header(short)


def test_partial_frame_payload_rejected(tmp_path, small_radar):
    scene = SceneSpec(emitters=(), noise_std=1.0, rng_seed=0)
    frames = synthesize_frames(scene, small_radar, 1)
    path = tmp_path / "frames.bin"
    write_frames(path, frames, small_radar)
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(FormatError, match="whole number"):
        read_frames(path)


def test_missing_header_key_rejected(tmp_path, small_radar):
    path = tmp_path / "frames.bin"
    header = {"magic": "rotorsense-raw", "schema_version": 1, "L": 8}
    path.write_bytes(json.dumps(header).encode().ljust(HEADER_BYTES))
    with pytest.raises(FormatError, match="frame header has no key 'Ns'"):
        read_header(path)


@pytest.mark.parametrize("key, value", [
    ("L", 8.0), ("L", True), ("L", 1), ("Ns", 0), ("Ns", None), ("Ns", 12),
    ("Tc", -1e-4), ("fc", float("nan")), ("K", float("inf")), ("fs", "2e6"),
    ("c", None), ("c", 0.0)])
def test_malformed_header_values_rejected(tmp_path, small_radar, key, value):
    path = tmp_path / "frames.bin"
    write_frames(path, [], small_radar)
    header = json.loads(path.read_text())
    header[key] = value
    path.write_bytes(json.dumps(header).encode().ljust(HEADER_BYTES))
    with pytest.raises(FormatError, match="frame header"):
        read_header(path)


def test_header_that_is_no_object_or_has_a_mistyped_c_is_rejected(tmp_path, small_radar):
    path = tmp_path / "frames.bin"
    path.write_bytes(b"[1, 2]".ljust(HEADER_BYTES))
    with pytest.raises(FormatError, match="frame header is not a JSON object"):
        read_header(path)
    v1 = {"magic": "rotorsense-raw", "schema_version": 1, "L": 8, "Ns": 16,
          "fs": small_radar.adc_rate_hz, "Tc": small_radar.chirp_duration_s,
          "fc": small_radar.carrier_freq_hz, "K": small_radar.chirp_slope_hz_per_s, "c": "x"}
    path.write_bytes(json.dumps(v1).encode().ljust(HEADER_BYTES))
    with pytest.raises(FormatError, match="frame header c = 'x' is not a JSON number"):
        read_header(path)


@pytest.mark.parametrize("version", [True, 2.0, 3, None])
def test_unknown_schema_version_rejected(tmp_path, small_radar, version):
    path = tmp_path / "frames.bin"
    write_frames(path, [], small_radar)
    header = json.loads(path.read_text())
    header["schema_version"] = version
    path.write_bytes(json.dumps(header).encode().ljust(HEADER_BYTES))
    with pytest.raises(FormatError, match="schema_version"):
        read_header(path)


def test_int16_capture(tmp_path):
    rng = np.random.default_rng(0)
    cube = rng.integers(-2000, 2000, (2, 8, 16, 2), dtype=np.int16)
    path = tmp_path / "raw.bin"
    path.write_bytes(cube.astype("<i2").tobytes())
    layout = RadarConfig(chirps_per_frame=8, samples_per_chirp=16)
    frames, radar = read_frames(path, layout)
    assert radar is layout and len(frames) == 2
    assert np.array_equal(frames[0].samples.real, cube[0, :, :, 0].astype(float))
    assert np.array_equal(frames[1].samples.imag, cube[1, :, :, 1].astype(float))
    path.write_bytes(cube.astype("<i2").tobytes()[:-2])
    with pytest.raises(FormatError, match="whole number of 8x16 frames"):
        read_frames(path, layout)


@pytest.mark.parametrize("dtype", ["<f4", "<i2"])
def test_decode_matches_explicit_re_im_assembly(dtype):
    """The one widening conversion gives the bytes of filling re and im separately."""
    rng = np.random.default_rng(4)
    n_frames, chirps, samples = 3, 4, 5
    if dtype == "<i2":
        data = rng.integers(-32768, 32768, n_frames * chirps * samples * 2).astype(dtype)
        extremes = [-32768, 32767, 0, -1]
    else:
        data = rng.standard_normal(n_frames * chirps * samples * 2).astype(dtype)
        f4 = np.finfo(np.float32)
        extremes = [-0.0, np.inf, -np.inf, np.nan, f4.max, -f4.max, f4.smallest_subnormal]
    data[:len(extremes)] = extremes
    data[-len(extremes):] = extremes[::-1]

    pairs = data.reshape(n_frames, chirps, samples, 2)
    expected = np.empty((n_frames, chirps, samples), dtype=np.complex128)
    expected.real = pairs[..., 0]
    expected.imag = pairs[..., 1]

    frames = _decode_frames(data, chirps, samples)
    assert len(frames) == n_frames
    for i, frame in enumerate(frames):
        assert frame.samples.dtype == np.complex128
        assert frame.samples.shape == (chirps, samples)
        assert frame.samples.tobytes() == expected[i].tobytes()


def test_read_header_round_trip(tmp_path, small_radar):
    path = tmp_path / "frames.bin"
    write_frames(path, [], small_radar)
    radar = read_header(path)
    assert radar.chirps_per_frame == small_radar.chirps_per_frame
    assert radar.samples_per_chirp == small_radar.samples_per_chirp
    assert radar.carrier_freq_hz == small_radar.carrier_freq_hz
    assert radar.chirp_duration_s == small_radar.chirp_duration_s


def test_speed_of_light_round_trip(tmp_path):
    radar = RadarConfig(speed_of_light_m_per_s=299792458.0)
    path = tmp_path / "frames.bin"
    write_frames(path, [], radar)
    header = json.loads(path.read_text())
    assert header["schema_version"] == 2 and header["c"] == 299792458.0
    back = read_header(path)
    assert back.speed_of_light_m_per_s == 299792458.0
    assert back.max_range_m == radar.max_range_m
    assert radar_mismatch(back, radar) == []
    assert radar_mismatch(back, RadarConfig()) == ["c"]


def test_version_1_header_reads_with_default_speed_of_light(tmp_path, small_radar):
    header = {"magic": "rotorsense-raw", "schema_version": 1, "L": 8, "Ns": 16,
              "fs": small_radar.adc_rate_hz, "Tc": small_radar.chirp_duration_s,
              "fc": small_radar.carrier_freq_hz, "K": small_radar.chirp_slope_hz_per_s}
    cube = np.arange(2 * 8 * 16 * 2, dtype="<f4")
    path = tmp_path / "v1.bin"
    path.write_bytes(json.dumps(header).encode().ljust(HEADER_BYTES) + cube.tobytes())
    frames, radar = read_frames(path)
    assert len(frames) == 2 and frames[1].samples[0, 0] == complex(256, 257)
    assert radar.speed_of_light_m_per_s == 3.0e8
    assert radar_mismatch(radar, small_radar) == []
