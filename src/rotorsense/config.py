"""Radar, UAV and trajectory configuration plus derived processing parameters.

Everything downstream (echo synthesis, Range-Doppler processing, folding,
tracking, identification) reads its physical constants from here. Configs are
validated once and then treated as immutable; numpy-array fields are marked
read-only so they can be shared across pipeline stages.

Units are SI throughout (Hz, s, m, rad). The speed of light defaults to
3.0e8 m/s so that derived quantities land on round numbers (max range 93.8 m
for the default radar); pass 299792458.0 explicitly if you need the exact
constant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

SPEED_OF_LIGHT = 3.0e8

CONFIG_SCHEMA_VERSION = 1


class ValidationError(ValueError):
    """A configuration invariant does not hold. Message names the invariant."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _readonly(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    out.flags.writeable = False
    return out


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

    def validate(self) -> "RadarConfig":
        for name in ("carrier_freq_hz", "chirp_slope_hz_per_s", "chirp_duration_s",
                     "adc_rate_hz", "speed_of_light_m_per_s"):
            value = getattr(self, name)
            _require(math.isfinite(value) and value > 0, f"radar.{name} must be finite and > 0")
        _require(self.chirps_per_frame >= 2,
                 "radar.chirps_per_frame must be >= 2 (Doppler FFT needs at least 2 chirps)")
        _require(self.samples_per_chirp >= 2, "radar.samples_per_chirp must be >= 2")
        _require(self.samples_per_chirp & (self.samples_per_chirp - 1) == 0,
                 "radar.samples_per_chirp must be a power of two")
        _require(self.frames_per_capture >= 1, "radar.frames_per_capture must be >= 1")
        _require(self.samples_per_chirp / self.adc_rate_hz <= self.chirp_duration_s,
                 "radar sampling window samples_per_chirp/adc_rate_hz exceeds chirp_duration_s")
        return self

    @property
    def frame_duration_s(self) -> float:
        return self.chirps_per_frame * self.chirp_duration_s

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

    def validate(self) -> "UavConfig":
        _require(self.rotor_count >= 1, "uav.rotor_count must be >= 1")
        _require(self.scatterers_per_rotor >= 1, "uav.scatterers_per_rotor must be >= 1")
        _require(self.rotor_angular_velocity_rad_per_s > 0,
                 "uav.rotor_angular_velocity_rad_per_s must be > 0")
        _require(self.body_reflectivity >= 0, "uav.body_reflectivity must be >= 0")
        shape = (self.rotor_count, self.scatterers_per_rotor)
        normalized = {}
        for name in ("scatterer_radii_m", "initial_phases_rad",
                     "blade_plane_angle_rad", "scatterer_reflectivities"):
            try:
                arr = np.broadcast_to(np.asarray(getattr(self, name), dtype=float), shape)
            except ValueError:
                raise ValidationError(
                    f"uav.{name} must broadcast to (rotor_count, scatterers_per_rotor)={shape}")
            _require(np.all(np.isfinite(arr)), f"uav.{name} must be finite")
            normalized[name] = _readonly(arr)
        _require(np.all(normalized["scatterer_radii_m"] >= 0),
                 "uav.scatterer_radii_m must be >= 0")
        _require(np.all(normalized["scatterer_reflectivities"] >= 0),
                 "uav.scatterer_reflectivities must be >= 0")
        return replace(self, **normalized)


@dataclass(frozen=True)
class TrajectorySegment:
    """One piecewise-linear leg: range start_range_m + v * (t - start_time_s)."""

    start_time_s: float
    duration_s: float
    start_range_m: float
    radial_velocity_m_per_s: float

    @property
    def kind(self) -> str:
        return "hover" if self.radial_velocity_m_per_s == 0 else (
            "ascent" if self.radial_velocity_m_per_s > 0 else "descent")

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

    def validate(self, max_range_m: float | None = None) -> "TrajectorySpec":
        _require(len(self.segments) >= 1, "trajectory must contain at least one segment")
        segs = tuple(self.segments)
        for i, seg in enumerate(segs):
            _require(seg.duration_s > 0, f"trajectory segment {i} duration must be > 0")
            if i > 0:
                _require(abs(seg.start_time_s - segs[i - 1].end_time_s) < 1e-9,
                         f"trajectory segments {i - 1} and {i} are not contiguous in time")
        for i, seg in enumerate(segs):
            for r in (seg.start_range_m, seg.end_range_m):
                _require(r > 0, f"trajectory segment {i} leaves range <= 0")
                if max_range_m is not None:
                    _require(r < max_range_m,
                             f"trajectory segment {i} exceeds max range {max_range_m:.3f} m")
        return replace(self, segments=segs)

    @property
    def start_time_s(self) -> float:
        return self.segments[0].start_time_s

    @property
    def end_time_s(self) -> float:
        return self.segments[-1].end_time_s

    def _segment_index(self, t: np.ndarray) -> np.ndarray:
        starts = np.array([s.start_time_s for s in self.segments])
        idx = np.searchsorted(starts, t, side="right") - 1
        return np.clip(idx, 0, len(self.segments) - 1)

    def range_at(self, t) -> np.ndarray:
        """Radial range at absolute time t (scalar or array). t must lie in the span."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.start_time_s - 1e-12) or np.any(t > self.end_time_s + 1e-12):
            raise ValidationError(
                f"time outside trajectory span [{self.start_time_s}, {self.end_time_s}]")
        idx = self._segment_index(t)
        r0 = np.array([s.start_range_m for s in self.segments])[idx]
        v = np.array([s.radial_velocity_m_per_s for s in self.segments])[idx]
        t0 = np.array([s.start_time_s for s in self.segments])[idx]
        return r0 + v * (t - t0)

    def velocity_at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(t < self.start_time_s - 1e-12) or np.any(t > self.end_time_s + 1e-12):
            raise ValidationError(
                f"time outside trajectory span [{self.start_time_s}, {self.end_time_s}]")
        idx = self._segment_index(t)
        return np.array([s.radial_velocity_m_per_s for s in self.segments])[idx]


def hover(range_m: float, duration_s: float, start_time_s: float = 0.0) -> TrajectorySpec:
    return TrajectorySpec((TrajectorySegment(start_time_s, duration_s, range_m, 0.0),)).validate()


def constant_velocity(start_range_m: float, velocity_m_per_s: float, duration_s: float,
                      start_time_s: float = 0.0) -> TrajectorySpec:
    return TrajectorySpec((TrajectorySegment(
        start_time_s, duration_s, start_range_m, velocity_m_per_s),)).validate()


@dataclass(frozen=True)
class DerivedParams:
    """Quantities computed from a RadarConfig and a maximum target speed.

    max_range_m       = c * adc_rate / (2 * chirp_slope)  -- sampled-bandwidth
                        range limit; the range-bin grid divides it evenly.
    range_bin_size_m  = max_range_m / samples_per_chirp
    frame_duration_s  = chirps_per_frame * chirp_duration_s
    doppler_bin_hz    = 1 / frame_duration_s
    dp_constraint_bins = ceil(v_max * frame_duration / range_bin_size), the
                        per-frame range-bin motion bound used by the tracker.
    """

    max_range_m: float
    range_bin_size_m: float
    frame_duration_s: float
    doppler_bin_hz: float
    doppler_bin_m_per_s: float
    dp_constraint_bins: int
    v_max_m_per_s: float


def derive(radar: RadarConfig, v_max_m_per_s: float = 4.0) -> DerivedParams:
    """Compute processing parameters for a validated radar config."""
    _require(math.isfinite(v_max_m_per_s) and v_max_m_per_s > 0,
             "v_max_m_per_s must be finite and > 0")
    c = radar.speed_of_light_m_per_s
    max_range = c * radar.adc_rate_hz / (2.0 * radar.chirp_slope_hz_per_s)
    bin_size = max_range / radar.samples_per_chirp
    t_frame = radar.frame_duration_s
    doppler_bin_hz = 1.0 / t_frame
    doppler_bin_mps = doppler_bin_hz * c / (2.0 * radar.carrier_freq_hz)
    k_bins = max(1, math.ceil(v_max_m_per_s * t_frame / bin_size))
    return DerivedParams(
        max_range_m=max_range,
        range_bin_size_m=bin_size,
        frame_duration_s=t_frame,
        doppler_bin_hz=doppler_bin_hz,
        doppler_bin_m_per_s=doppler_bin_mps,
        dp_constraint_bins=k_bins,
        v_max_m_per_s=v_max_m_per_s,
    )


# --- structured config file (JSON, SI units, versioned) ---------------------

def radar_to_dict(radar: RadarConfig) -> dict:
    return {
        "carrier_freq_hz": radar.carrier_freq_hz,
        "chirp_slope_hz_per_s": radar.chirp_slope_hz_per_s,
        "chirp_duration_s": radar.chirp_duration_s,
        "chirps_per_frame": radar.chirps_per_frame,
        "adc_rate_hz": radar.adc_rate_hz,
        "samples_per_chirp": radar.samples_per_chirp,
        "frames_per_capture": radar.frames_per_capture,
        "speed_of_light_m_per_s": radar.speed_of_light_m_per_s,
    }


def require_json_numbers(values: dict, int_keys, where: str) -> None:
    """The type rule of radar files: JSON integers for int_keys, JSON numbers for the rest.

    A bool is neither. Raises ValidationError naming where, the key and the value.
    """
    for key, value in values.items():
        kind = "integer" if key in int_keys else "number"
        _require(type(value) is int or (kind == "number" and type(value) is float),
                 f"{where} {key} = {value!r} is not a JSON {kind}")


def radar_from_dict(d: dict) -> RadarConfig:
    _require(isinstance(d, dict), f"radar config must be a JSON object, not {d!r}")
    known = set(radar_to_dict(RadarConfig()))
    unknown = set(d) - known
    _require(not unknown, f"unknown radar config keys: {sorted(unknown)}")
    ints = ("chirps_per_frame", "samples_per_chirp", "frames_per_capture")
    require_json_numbers(d, ints, "radar")
    kwargs = {k: (v if k in ints else float(v)) for k, v in d.items()}
    return RadarConfig(**kwargs).validate()


def save_radar_config(radar: RadarConfig, path) -> None:
    payload = {"schema_version": CONFIG_SCHEMA_VERSION, "radar": radar_to_dict(radar)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_radar_config(path) -> RadarConfig:
    with open(path) as fh:
        payload = json.load(fh)
    _require(isinstance(payload, dict) and "radar" in payload,
             "config file must contain a 'radar' object")
    version = payload.get("schema_version")
    _require(version == CONFIG_SCHEMA_VERSION,
             f"unsupported config schema_version {version!r}")
    return radar_from_dict(payload["radar"])
