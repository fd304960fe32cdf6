"""Raw frame files: float32 interleaved samples behind a fixed JSON header.

Layout: a 256-byte space-padded JSON header (magic, schema_version, L, Ns,
fs, Tc, fc, K), then little-endian float32 pairs (re, im) in row-major
[frame][chirp][sample] order. The frame count follows from the file size.

Headerless int16 captures (interleaved re, im) are also readable when the
frame layout is supplied by the caller, e.g. from the command line for
recorded hardware data.
"""

from __future__ import annotations

import json

import numpy as np

from .config import RadarConfig, ValidationError
from .echo import Frame

FRAME_MAGIC = "rotorsense-raw"
FRAME_SCHEMA_VERSION = 1
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
    if header.get("schema_version") != FRAME_SCHEMA_VERSION:
        raise FormatError(f"unsupported schema_version {header.get('schema_version')!r}")
    for key in ("L", "Ns", "fs", "Tc", "fc", "K"):
        if key not in header:
            raise FormatError(f"frame header is missing {key!r}")
        kinds = (int,) if key in ("L", "Ns") else (int, float)
        if type(header[key]) not in kinds:
            raise FormatError(f"frame header {key} = {header[key]!r} is not a JSON "
                              f"{'integer' if key in ('L', 'Ns') else 'number'}")
    # The value rules are RadarConfig's; a header that breaks them is malformed.
    try:
        radar_from_header(header)
    except ValidationError as exc:
        raise FormatError(f"frame header does not describe a valid radar: {exc}")
    return header


def _decode_frames(data: np.ndarray, chirps: int, samples: int) -> list[Frame]:
    """Interleaved (re, im) payload -> complex128 frames of chirps x samples.

    The payload is converted once, into one complex128 cube [frames, chirps,
    samples]; each frame's samples are a view of it.
    """
    per_frame = chirps * samples * 2
    if data.size == 0 or data.size % per_frame != 0:
        raise FormatError(
            f"{data.dtype} payload of {data.size} values is not a whole number of "
            f"{chirps}x{samples} frames")
    n_frames = data.size // per_frame
    pairs = data.reshape(n_frames, chirps, samples, 2)
    cube = np.empty(pairs.shape[:3], dtype=np.complex128)
    cube.real = pairs[..., 0]
    cube.imag = pairs[..., 1]
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


def radar_from_header(header: dict, frames_per_capture: int = 1) -> RadarConfig:
    """Best-effort RadarConfig from a frame file header."""
    return RadarConfig(
        carrier_freq_hz=float(header["fc"]),
        chirp_slope_hz_per_s=float(header["K"]),
        chirp_duration_s=float(header["Tc"]),
        chirps_per_frame=int(header["L"]),
        adc_rate_hz=float(header["fs"]),
        samples_per_chirp=int(header["Ns"]),
        frames_per_capture=frames_per_capture,
    ).validate()
