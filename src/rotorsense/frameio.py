"""Raw frame files: float32 interleaved samples behind a fixed JSON header.

Layout: a 256-byte space-padded JSON header (magic, schema_version, L, Ns,
fs, Tc, fc, K, c), then little-endian float32 pairs (re, im) in row-major
[frame][chirp][sample] order. The frame count follows from the file size.
Schema version 2 added the speed of light c; version 1 files, which lack it,
still read, with c = 3.0e8 m/s.

Headerless int16 captures (interleaved re, im) are also readable when the
frame layout is supplied by the caller, e.g. from the command line for
recorded hardware data.
"""

from __future__ import annotations

import json

import numpy as np

from .config import SPEED_OF_LIGHT, RadarConfig, ValidationError, require_json_numbers
from .echo import Frame

FRAME_MAGIC = "rotorsense-raw"
FRAME_SCHEMA_VERSION = 2
_V1_KEYS = ("L", "Ns", "fs", "Tc", "fc", "K")
_HEADER_KEYS = {1: _V1_KEYS, 2: _V1_KEYS + ("c",)}  # required keys per schema_version
HEADER_BYTES = 256


class FormatError(ValueError):
    """Frame file violates the documented layout."""


def _header_dict(radar: RadarConfig) -> dict:
    return {
        "magic": FRAME_MAGIC,
        "schema_version": FRAME_SCHEMA_VERSION,
        "L": radar.chirps_per_frame,
        "Ns": radar.samples_per_chirp,
        "fs": radar.adc_rate_hz,
        "Tc": radar.chirp_duration_s,
        "fc": radar.carrier_freq_hz,
        "K": radar.chirp_slope_hz_per_s,
        "c": radar.speed_of_light_m_per_s,
    }


def write_frames(path, frames, radar: RadarConfig) -> None:
    header = json.dumps(_header_dict(radar), sort_keys=True).encode()
    if len(header) > HEADER_BYTES:
        raise FormatError(f"header needs {len(header)} bytes, limit {HEADER_BYTES}")
    with open(path, "wb") as fh:
        fh.write(header.ljust(HEADER_BYTES))
        for frame in frames:
            samples = np.asarray(frame.samples)
            inter = np.empty(samples.shape + (2,), dtype="<f4")
            inter[..., 0] = samples.real
            inter[..., 1] = samples.imag
            fh.write(inter.tobytes(order="C"))


def read_header(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_BYTES)
    if len(raw) < HEADER_BYTES:
        raise FormatError("file shorter than the frame header")
    try:
        header = json.loads(raw.decode().strip())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable frame header: {exc}")
    if header.get("magic") != FRAME_MAGIC:
        raise FormatError(f"bad magic {header.get('magic')!r}")
    version = header.get("schema_version")
    if type(version) is not int or version not in _HEADER_KEYS:
        raise FormatError(f"unsupported schema_version {version!r}")
    for key in _HEADER_KEYS[version]:
        if key not in header:
            raise FormatError(f"frame header is missing {key!r}")
    try:
        require_json_numbers({key: header[key] for key in _HEADER_KEYS[version]},
                             ("L", "Ns"), "frame header")
    except ValidationError as exc:
        raise FormatError(str(exc)) from None
    # The value rules are RadarConfig's; a header that breaks them is malformed.
    try:
        radar_from_header(header)
    except ValidationError as exc:
        raise FormatError(f"frame header does not describe a valid radar: {exc}")
    return header


def _decode_frames(data: np.ndarray, chirps: int, samples: int) -> list[Frame]:
    """Interleaved (re, im) payload -> complex128 frames of chirps x samples.

    The payload is widened once, to float64, and that buffer is viewed as one
    complex128 cube [frames, chirps, samples]; each frame's samples are a view
    of it.
    """
    per_frame = chirps * samples * 2
    if data.size == 0 or data.size % per_frame != 0:
        raise FormatError(
            f"{data.dtype} payload of {data.size} values is not a whole number of "
            f"{chirps}x{samples} frames")
    n_frames = data.size // per_frame
    cube = data.astype(np.float64).view(np.complex128).reshape(n_frames, chirps, samples)
    return [Frame(frame_index=i, samples=cube[i]) for i in range(n_frames)]


def read_frames(path):
    """Returns (frames, header dict)."""
    header = read_header(path)
    data = np.fromfile(path, dtype="<f4", offset=HEADER_BYTES)
    return _decode_frames(data, int(header["L"]), int(header["Ns"])), header


def read_frames_int16(path, chirps_per_frame: int, samples_per_chirp: int):
    """Headerless int16 interleaved capture with caller-supplied layout."""
    return _decode_frames(np.fromfile(path, dtype="<i2"), chirps_per_frame,
                          samples_per_chirp)


def radar_mismatch(a: RadarConfig, b: RadarConfig) -> list[str]:
    """Header keys whose values differ between two radars, in header order."""
    header_b = _header_dict(b)
    return [key for key, value in _header_dict(a).items() if header_b[key] != value]


def radar_from_header(header: dict) -> RadarConfig:
    """Best-effort RadarConfig from a frame file header; a header carries no capture length.

    A version 1 header carries no speed of light; its radar has c = 3.0e8 m/s.
    """
    return RadarConfig(
        carrier_freq_hz=float(header["fc"]),
        chirp_slope_hz_per_s=float(header["K"]),
        chirp_duration_s=float(header["Tc"]),
        chirps_per_frame=int(header["L"]),
        adc_rate_hz=float(header["fs"]),
        samples_per_chirp=int(header["Ns"]),
        speed_of_light_m_per_s=float(header.get("c", SPEED_OF_LIGHT)),
    ).validate()
