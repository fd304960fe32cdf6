"""Radar, UAV and trajectory configuration.

Everything downstream (echo synthesis, Range-Doppler processing, folding,
tracking, identification) reads its physical constants from here. Each config
checks itself when it is built (dataclasses.replace checks again), so every
instance is valid and immutable; numpy-array fields are read-only so they can
be shared across pipeline stages.

Units are SI throughout (Hz, s, m, rad). The speed of light defaults to
3.0e8 m/s so that derived quantities land on round numbers (max range 93.8 m
for the default radar); pass 299792458.0 explicitly if you need the exact
constant.

json_document, json_field, json_fields and csv_columns are the one reader
contract of every input file: each raises ValidationError (exit 1), or the
reader's own subclass, naming the file, the key and the value.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

SPEED_OF_LIGHT = 3.0e8

CONFIG_SCHEMA_VERSION = 1


MAX_ELEMENTS = 2**24  # bounds a radar frame, a UAV's blade scatterers, an LSTM weight matrix


class ValidationError(ValueError):
    """An input breaks an invariant; every stage's typed error subclasses it."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


# --- the reader contract: JSON objects, their fields, CSV columns -------------

_REQUIRED = object()
_JSON_TYPES = {"integer": int, "string": str, "bool": bool, "object": dict, "list": list}


def json_document(data, where: str, error=ValidationError) -> dict:
    """The JSON object in UTF-8 text or bytes; else `error`. Too long an integer and too
    deep a nesting for Python's parser count as unreadable too."""
    try:
        doc = json.loads(data.decode() if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise error(f"unreadable {where}: {exc}") from None
    if type(doc) is not dict:
        raise error(f"{where} is not a JSON object")
    return doc


def json_field(doc, key, kind: str, where: str, error=ValidationError, default=_REQUIRED):
    """doc[key] as a JSON integer, number, string, bool, object or list, or `default` if
    missing. A bool is neither integer nor number; a number is finite, returned as float."""
    if isinstance(doc, dict) and key not in doc:
        if default is _REQUIRED:
            raise error(f"{where} has no key {key!r}")
        return default
    value = doc[key]
    if kind == "number":
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is _JSON_TYPES[kind]:
        return value
    raise error(f"{where} {key} = {value!r} is not a JSON {kind}")


def json_fields(doc: dict, kinds: dict, where: str, required: bool = False) -> dict:
    """doc's keys typed by `kinds` (every key of kinds if required); unknown keys raise."""
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise ValidationError(f"{where} has unknown keys {unknown}")
    return {key: json_field(doc, key, kinds[key], where) for key in (kinds if required else doc)}


def csv_columns(path, columns, where: str) -> list:
    """Columns of a headed CSV file as arrays of finite numbers; else a ValidationError
    names the column and the line."""
    values = [[] for _ in columns]
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for key in columns:
                if key not in (reader.fieldnames or ()):
                    raise ValidationError(f"{where} has no {key!r} column")
            for row in reader:
                for key, out in zip(columns, values):
                    try:
                        out.append(float(row[key]))
                    except (TypeError, ValueError):
                        out.append(math.nan)
                    if not math.isfinite(out[-1]):
                        raise ValidationError(f"{where} line {reader.line_num} {key} = "
                                              f"{row[key]!r} is not a finite number")
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"unreadable {where}: {exc}") from None
    return [np.array(column) for column in values]


@dataclass(frozen=True)
class RadarConfig:
    """FMCW radar waveform and sampling parameters.

    carrier_freq_hz is the chirp start frequency, chirp_slope_hz_per_s the
    frequency ramp rate. One frame is chirps_per_frame consecutive chirps;
    chirps_per_frame is also the Doppler bin count. samples_per_chirp must be
    a power of two (fixed FFT grid); the sampling window
    samples_per_chirp / adc_rate_hz has to fit inside the chirp duration.
    """

    carrier_freq_hz: float = 60.25e9
    chirp_slope_hz_per_s: float = 9.994e12
    chirp_duration_s: float = 900e-6
    chirps_per_frame: int = 100
    adc_rate_hz: float = 6.25e6
    samples_per_chirp: int = 256
    frames_per_capture: int = 40
    speed_of_light_m_per_s: float = SPEED_OF_LIGHT

    def __post_init__(self) -> None:
        for name in ("carrier_freq_hz", "chirp_slope_hz_per_s", "chirp_duration_s",
                     "adc_rate_hz", "speed_of_light_m_per_s"):
            value = getattr(self, name)
            _require(math.isfinite(value) and value > 0, f"radar.{name} must be finite and > 0")
        _require(self.chirps_per_frame >= 2,
                 "radar.chirps_per_frame must be >= 2 (Doppler FFT needs at least 2 chirps)")
        _require(self.samples_per_chirp >= 2, "radar.samples_per_chirp must be >= 2")
        _require(self.chirps_per_frame * self.samples_per_chirp <= MAX_ELEMENTS,
                 f"radar.chirps_per_frame * samples_per_chirp must be <= {MAX_ELEMENTS}")
        _require(self.samples_per_chirp & (self.samples_per_chirp - 1) == 0,
                 "radar.samples_per_chirp must be a power of two")
        _require(self.frames_per_capture >= 1, "radar.frames_per_capture must be >= 1")
        _require(self.samples_per_chirp / self.adc_rate_hz <= self.chirp_duration_s,
                 "radar sampling window samples_per_chirp/adc_rate_hz exceeds chirp_duration_s")
        _require(math.isfinite(self.frame_duration_s), "radar frame duration must be finite")
        _require(0 < self.range_bin_size_m < math.inf, "radar range bin must be finite and > 0")

    @property
    def frame_duration_s(self) -> float:
        return self.chirps_per_frame * self.chirp_duration_s

    @property
    def max_range_m(self) -> float:  # the sampled-bandwidth range limit
        return self.speed_of_light_m_per_s * self.adc_rate_hz / (2.0 * self.chirp_slope_hz_per_s)

    @property
    def range_bin_size_m(self) -> float:  # range bin k is centred at k * range_bin_size_m
        return self.max_range_m / self.samples_per_chirp

    @property
    def pulse_rate_hz(self) -> float:
        """Chirp repetition rate; the unambiguous Doppler span."""
        return 1.0 / self.chirp_duration_s


@dataclass(frozen=True)
class UavConfig:
    """UAV body plus rotating-blade scatterer geometry.

    Per-scatterer arrays are indexed [rotor, scatterer]; scalars broadcast.
    Each scatterer sits at radius scatterer_radii_m from its rotor hub and
    rotates at the shared angular velocity; blade_plane_angle_rad is the angle
    between the blade plane and the radial (line-of-sight) direction, so a
    value of pi/2 kills the radial micro-motion entirely.
    """

    rotor_count: int = 6
    scatterers_per_rotor: int = 3
    scatterer_radii_m: np.ndarray = field(default_factory=lambda: np.array(0.16))
    rotor_angular_velocity_rad_per_s: float = 2 * math.pi * 55.6
    initial_phases_rad: np.ndarray = field(default_factory=lambda: np.array(0.0))
    blade_plane_angle_rad: np.ndarray = field(default_factory=lambda: np.array(1.1))
    body_reflectivity: float = 1.0
    scatterer_reflectivities: np.ndarray = field(default_factory=lambda: np.array(0.3))

    def __post_init__(self) -> None:
        _require(self.rotor_count >= 1, "uav.rotor_count must be >= 1")
        _require(self.scatterers_per_rotor >= 1, "uav.scatterers_per_rotor must be >= 1")
        _require(self.rotor_count * self.scatterers_per_rotor <= MAX_ELEMENTS,
                 f"uav.rotor_count * scatterers_per_rotor must be <= {MAX_ELEMENTS}")
        _require(self.rotor_angular_velocity_rad_per_s > 0,
                 "uav.rotor_angular_velocity_rad_per_s must be > 0")
        _require(math.isfinite(self.rotor_angular_velocity_rad_per_s),
                 "uav.rotor_angular_velocity_rad_per_s must be finite")
        _require(self.body_reflectivity >= 0, "uav.body_reflectivity must be >= 0")
        shape = (self.rotor_count, self.scatterers_per_rotor)
        for name in ("scatterer_radii_m", "initial_phases_rad",
                     "blade_plane_angle_rad", "scatterer_reflectivities"):
            try:
                arr = np.broadcast_to(np.asarray(getattr(self, name), dtype=float), shape)
            except ValueError:
                raise ValidationError(
                    f"uav.{name} must broadcast to (rotor_count, scatterers_per_rotor)={shape}")
            _require(np.all(np.isfinite(arr)), f"uav.{name} must be finite")
            object.__setattr__(self, name, arr)  # a broadcast_to view: read-only
        _require(np.all(self.scatterer_radii_m >= 0), "uav.scatterer_radii_m must be >= 0")
        _require(np.all(self.scatterer_reflectivities >= 0),
                 "uav.scatterer_reflectivities must be >= 0")


@dataclass(frozen=True)
class TrajectorySegment:
    """One piecewise-linear leg: range start_range_m + v * (t - start_time_s)."""

    start_time_s: float
    duration_s: float
    start_range_m: float
    radial_velocity_m_per_s: float

    @property
    def end_time_s(self) -> float:
        return self.start_time_s + self.duration_s

    @property
    def end_range_m(self) -> float:
        return self.start_range_m + self.radial_velocity_m_per_s * self.duration_s


@dataclass(frozen=True)
class TrajectorySpec:
    """Contiguous piecewise constant-velocity radial trajectory."""

    segments: tuple = ()

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        _require(len(segs) >= 1, "trajectory must contain at least one segment")
        for i, seg in enumerate(segs):
            _require(seg.duration_s > 0, f"trajectory segment {i} duration must be > 0")
            if i > 0:
                _require(abs(seg.start_time_s - segs[i - 1].end_time_s) < 1e-9,
                         f"trajectory segments {i - 1} and {i} are not contiguous in time")
        for i, seg in enumerate(segs):
            for r in (seg.start_range_m, seg.end_range_m):
                _require(r > 0, f"trajectory segment {i} leaves range <= 0")
        object.__setattr__(self, "segments", segs)

    @property
    def start_time_s(self) -> float:
        return self.segments[0].start_time_s

    @property
    def end_time_s(self) -> float:
        return self.segments[-1].end_time_s

    def _legs_at(self, t):
        """t as an array, and the index of the leg each time falls in; t must lie in the span."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.start_time_s - 1e-12) or np.any(t > self.end_time_s + 1e-12):
            raise ValidationError(
                f"time outside trajectory span [{self.start_time_s}, {self.end_time_s}]")
        starts = np.array([s.start_time_s for s in self.segments])
        idx = np.searchsorted(starts, t, side="right") - 1
        return t, np.clip(idx, 0, len(self.segments) - 1)

    def range_at(self, t) -> np.ndarray:
        """Radial range at absolute time t (scalar or array). t must lie in the span."""
        t, idx = self._legs_at(t)
        r0 = np.array([s.start_range_m for s in self.segments])[idx]
        v = np.array([s.radial_velocity_m_per_s for s in self.segments])[idx]
        t0 = np.array([s.start_time_s for s in self.segments])[idx]
        return r0 + v * (t - t0)

    def velocity_at(self, t) -> np.ndarray:
        return np.array([s.radial_velocity_m_per_s for s in self.segments])[self._legs_at(t)[1]]


def hover(range_m: float, duration_s: float, start_time_s: float = 0.0) -> TrajectorySpec:
    return TrajectorySpec((TrajectorySegment(start_time_s, duration_s, range_m, 0.0),))


def constant_velocity(start_range_m: float, velocity_m_per_s: float, duration_s: float,
                      start_time_s: float = 0.0) -> TrajectorySpec:
    return TrajectorySpec((TrajectorySegment(
        start_time_s, duration_s, start_range_m, velocity_m_per_s),))


# --- structured config file (JSON, SI units, versioned) ---------------------

def save_radar_config(radar: RadarConfig, path) -> None:
    payload = {"schema_version": CONFIG_SCHEMA_VERSION, "radar": asdict(radar)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_radar_config(path) -> RadarConfig:
    """The radar of a config file: integer fields are JSON integers, the rest JSON numbers."""
    with open(path, "rb") as fh:
        payload = json_document(fh.read(), "radar config file")
    version = json_field(payload, "schema_version", "integer", "radar config file")
    _require(version == CONFIG_SCHEMA_VERSION,
             f"unsupported config schema_version {version!r}")
    kinds = {key: "integer" if type(default) is int else "number"
             for key, default in asdict(RadarConfig()).items()}
    radar = json_field(payload, "radar", "object", "radar config file")
    return RadarConfig(**json_fields(radar, kinds, "radar"))
