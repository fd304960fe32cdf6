"""Raw frame files: float32 interleaved samples behind a fixed JSON header.

Layout: a 256-byte space-padded JSON header (magic, schema_version, L, Ns,
fs, Tc, fc, K, c), then little-endian float32 pairs (re, im) in row-major
[frame][chirp][sample] order: each frame's samples as little-endian
complex64. The frame count follows from the file size.
Schema version 2 added the speed of light c; version 1 files, which lack it,
still read, with c = 3.0e8 m/s.

read_frames is the one capture reader: it returns a capture's frames and the
radar that recorded them. A frame file's header describes its radar; a
headerless int16 capture (interleaved re, im, e.g. recorded hardware data) is
read in the layout of a radar the caller supplies. A payload is refused if it
ends in stray bytes past its last whole value (naming their count), is not
whole frames, or holds a NaN or an infinity (naming its first such frame).

A capture is held once: its frames' samples are complex64 views of the one
payload buffer, read as is from a frame file and converted once, exactly,
from an int16 capture. Nothing here widens them; rdmap widens one frame at a
time to complex128, just before its range FFT. The pipeline keeps no other
capture-sized array, so `track` holds about the file's payload.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .config import RadarConfig, ValidationError, json_document, json_field
from .echo import Frame

FRAME_MAGIC = "rotorsense-raw"
FRAME_SCHEMA_VERSION = 2
# The radar field under each header key, in header order; L and Ns are integers.
# read_header builds the radar from them; write_frames writes them.
HEADER_FIELDS = {"L": "chirps_per_frame", "Ns": "samples_per_chirp", "fs": "adc_rate_hz",
                 "Tc": "chirp_duration_s", "fc": "carrier_freq_hz", "K": "chirp_slope_hz_per_s",
                 "c": "speed_of_light_m_per_s"}
_HEADER_KEYS = {1: tuple(HEADER_FIELDS)[:-1], 2: tuple(HEADER_FIELDS)}  # required keys
HEADER_BYTES = 256


class FormatError(ValueError):
    """Frame file violates the documented layout."""


def _header_dict(radar: RadarConfig) -> dict:
    return {"magic": FRAME_MAGIC, "schema_version": FRAME_SCHEMA_VERSION,
            **{key: getattr(radar, field) for key, field in HEADER_FIELDS.items()}}


def write_frames(path, frames, radar: RadarConfig) -> None:
    header = json.dumps(_header_dict(radar), sort_keys=True).encode()
    if len(header) > HEADER_BYTES:
        raise FormatError(f"header needs {len(header)} bytes, limit {HEADER_BYTES}")
    with open(path, "wb") as fh:
        fh.write(header.ljust(HEADER_BYTES))
        for frame in frames:
            fh.write(np.ascontiguousarray(frame.samples, dtype="<c8"))


def read_header(path) -> RadarConfig:
    """The radar a frame file's header describes; a header carries no capture length.

    A version 1 header carries no speed of light; its radar has c = 3.0e8 m/s.
    """
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_BYTES)
    if len(raw) < HEADER_BYTES:
        raise FormatError("file shorter than the frame header")
    header = json_document(raw, "frame header", FormatError)
    if header.get("magic") != FRAME_MAGIC:
        raise FormatError(f"bad magic {header.get('magic')!r}")
    version = json_field(header, "schema_version", "integer", "frame header", FormatError)
    if version not in _HEADER_KEYS:
        raise FormatError(f"unsupported schema_version {version!r}")
    # A version 1 header needs no c, but one it carries is typed and read all the same.
    fields = {field: json_field(header, key, "integer" if key in ("L", "Ns") else "number",
                                "frame header", FormatError)
              for key, field in HEADER_FIELDS.items()
              if key in header or key in _HEADER_KEYS[version]}
    # The value rules are RadarConfig's; a header that breaks them is malformed.
    try:
        return RadarConfig(**fields)
    except ValidationError as exc:
        raise FormatError(f"frame header does not describe a valid radar: {exc}")


def _decode_frames(data: np.ndarray, chirps: int, samples: int) -> list[Frame]:
    """Interleaved (re, im) payload -> complex64 frames of chirps x samples, in file order.

    The payload is checked finite first. A float32 payload is then viewed,
    without a copy, as one complex64 cube [frames, chirps, samples]; an int16
    payload is first converted once to float32, which holds every int16
    exactly. Each frame's samples are a view of that cube: nothing is widened
    here, and rdmap widens one frame at a time.
    """
    per_frame = chirps * samples * 2
    if data.size == 0 or data.size % per_frame != 0:
        raise FormatError(
            f"{data.dtype} payload of {data.size} values is not a whole number of "
            f"{chirps}x{samples} frames")
    # The float64 sum of the samples is finite exactly when every sample is, and it
    # needs no payload-sized mask. Under errstate a signalling NaN does not warn.
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(np.sum(data, dtype=np.float64))
    if not finite:
        first = int(np.argmin(np.isfinite(data)))
        raise FormatError(f"frame {first // per_frame} holds a sample that is not finite")
    n_frames = data.size // per_frame
    cube = data.astype(np.float32, copy=False).view(np.complex64)
    cube = cube.reshape(n_frames, chirps, samples)
    return [Frame(cube[i]) for i in range(n_frames)]


def read_frames(path, layout: RadarConfig | None = None):
    """Returns (frames, radar): a frame file's frames and the radar its header
    describes, or, given a `layout` radar, a headerless int16 capture's frames
    in that radar's layout, and that radar."""
    if layout is None:
        radar, dtype, offset = read_header(path), np.dtype("<f4"), HEADER_BYTES
    else:
        radar, dtype, offset = layout, np.dtype("<i2"), 0
    stray = (os.path.getsize(path) - offset) % dtype.itemsize  # np.fromfile would drop them
    if stray:
        raise FormatError(f"payload has {stray} stray bytes after its last whole {dtype} value")
    data = np.fromfile(path, dtype=dtype, offset=offset)
    return _decode_frames(data, radar.chirps_per_frame, radar.samples_per_chirp), radar


def radar_mismatch(a: RadarConfig, b: RadarConfig) -> list[str]:
    """Header keys whose values differ between two radars, in header order."""
    return [key for key, field in HEADER_FIELDS.items() if getattr(a, field) != getattr(b, field)]
