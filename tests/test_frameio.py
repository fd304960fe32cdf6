import json

import numpy as np
import pytest

from rotorsense.config import RadarConfig
from rotorsense.echo import SceneSpec, StaticClutter, synthesize_frames
from rotorsense.frameio import (FormatError, HEADER_BYTES, radar_from_header,
                                read_frames, read_frames_int16, read_header,
                                write_frames)


@pytest.fixture(scope="module")
def small_radar():
    return RadarConfig(chirps_per_frame=8, samples_per_chirp=16,
                       frames_per_capture=3).validate()


def test_round_trip(tmp_path, small_radar):
    scene = SceneSpec(emitters=(StaticClutter(30.0, 1.0),), noise_std=0.3,
                      rng_seed=5).validate()
    frames = synthesize_frames(scene, small_radar, 3)
    path = tmp_path / "frames.bin"
    write_frames(path, frames, small_radar)

    loaded, header = read_frames(path)
    assert header["L"] == 8 and header["Ns"] == 16
    assert header["fc"] == small_radar.carrier_freq_hz
    assert header["K"] == small_radar.chirp_slope_hz_per_s
    assert len(loaded) == 3
    for orig, back in zip(frames, loaded):
        assert back.frame_index == orig.frame_index
        # storage is float32; equality after the same quantization
        assert np.array_equal(back.samples.real, orig.samples.real.astype("<f4"))
        assert np.array_equal(back.samples.imag, orig.samples.imag.astype("<f4"))


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
    scene = SceneSpec(emitters=(), noise_std=1.0, rng_seed=0).validate()
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
    with pytest.raises(FormatError, match="missing"):
        read_header(path)


@pytest.mark.parametrize("key, value", [
    ("L", 8.0), ("L", True), ("L", 1), ("Ns", 0), ("Ns", None), ("Ns", 12),
    ("Tc", -1e-4), ("fc", float("nan")), ("K", float("inf")), ("fs", "2e6")])
def test_malformed_header_values_rejected(tmp_path, small_radar, key, value):
    path = tmp_path / "frames.bin"
    write_frames(path, [], small_radar)
    header = json.loads(path.read_text())
    header[key] = value
    path.write_bytes(json.dumps(header).encode().ljust(HEADER_BYTES))
    with pytest.raises(FormatError, match="frame header"):
        read_header(path)


def test_int16_capture(tmp_path):
    rng = np.random.default_rng(0)
    cube = rng.integers(-2000, 2000, (2, 8, 16, 2), dtype=np.int16)
    path = tmp_path / "raw.bin"
    path.write_bytes(cube.astype("<i2").tobytes())
    frames = read_frames_int16(path, 8, 16)
    assert len(frames) == 2
    assert np.array_equal(frames[0].samples.real, cube[0, :, :, 0].astype(float))
    assert np.array_equal(frames[1].samples.imag, cube[1, :, :, 1].astype(float))
    path.write_bytes(cube.astype("<i2").tobytes()[:-2])
    with pytest.raises(FormatError, match="whole number"):
        read_frames_int16(path, 8, 16)


def test_radar_from_header_round_trip(tmp_path, small_radar):
    path = tmp_path / "frames.bin"
    write_frames(path, [], small_radar)
    radar = radar_from_header(read_header(path), frames_per_capture=3)
    assert radar.chirps_per_frame == small_radar.chirps_per_frame
    assert radar.samples_per_chirp == small_radar.samples_per_chirp
    assert radar.carrier_freq_hz == small_radar.carrier_freq_hz
    assert radar.chirp_duration_s == small_radar.chirp_duration_s
