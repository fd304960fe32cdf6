"""Complex beat-signal synthesis for UAVs, clutter and non-UAV distractors.

A frame is chirps_per_frame x samples_per_chirp complex beat samples. Sample
(l, n) of frame f sits at absolute time t = f*L*Tc + l*Tc + n/fs and carries,
per emitter, the phase 4*pi*(fc + K*tau)*R(t)/c with tau = n/fs the fast time
inside the chirp. Ranges are evaluated at the true sample time, so blade
motion inside a chirp is modeled rather than frozen per chirp (no stop-and-hop
assumption).

A UAV emitter contributes its body return plus one return per blade scatterer;
the scatterer range oscillates as r*cos(w*t + phi)*cos(theta) around the hub.
Distractors provide the negative class for identification experiments:
"static-blob" (no motion), "aperiodic-flapper" (oscillation with random-walk
phase, so no fixed rotation rate) and "slow-oscillator" (oscillation whose
rate drifts every frame).

Doppler content beyond +-1/(2*Tc) aliases; peak spacing in Doppler bins is
preserved modulo the bin count, which is exactly what spectrum folding
consumes downstream.

Noise is circularly symmetric complex Gaussian: noise_std is the total
per-sample standard deviation (each component gets noise_std/sqrt(2)). All
randomness derives from SceneSpec.rng_seed; frames use independent
per-frame substreams so captures can be synthesized in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (RadarConfig, TrajectorySpec, UavConfig, ValidationError,
                     derive)

DISTRACTOR_KINDS = ("static-blob", "aperiodic-flapper", "slow-oscillator")


class SimulationError(RuntimeError):
    """Scene cannot be synthesized (emitter out of range, bad kind, ...)."""


@dataclass(frozen=True)
class Frame:
    """One radar frame of complex beat samples, shape [chirps, samples]."""

    frame_index: int
    samples: np.ndarray


@dataclass(frozen=True)
class UavEmitter:
    uav: UavConfig
    trajectory: TrajectorySpec


@dataclass(frozen=True)
class StaticClutter:
    range_m: float
    reflectivity: float


@dataclass(frozen=True)
class Distractor:
    kind: str
    params: dict


@dataclass(frozen=True)
class SceneSpec:
    """Emitters plus the noise model; fully determines a capture given a radar."""

    emitters: tuple = ()
    noise_std: float = 0.0
    rng_seed: int = 0
    range_loss_ref_m: float | None = None  # if set, amplitudes scale by (ref/R)^2

    def validate(self) -> "SceneSpec":
        from dataclasses import replace
        if self.noise_std < 0:
            raise ValidationError("scene.noise_std must be >= 0")
        emitters = []
        for i, em in enumerate(self.emitters):
            if isinstance(em, UavEmitter):
                em = UavEmitter(em.uav.validate(), em.trajectory.validate())
            elif isinstance(em, StaticClutter):
                if not (em.range_m > 0 and em.reflectivity >= 0):
                    raise ValidationError(f"scene emitter {i}: bad static clutter parameters")
            elif isinstance(em, Distractor):
                if em.kind not in DISTRACTOR_KINDS:
                    raise SimulationError(
                        f"unknown distractor kind {em.kind!r}; known: {DISTRACTOR_KINDS}")
            else:
                raise ValidationError(f"scene emitter {i}: unknown emitter type {type(em)}")
            emitters.append(em)
        return replace(self, emitters=tuple(emitters))


def scatterer_range(uav: UavConfig, traj: TrajectorySpec, p: int, q: int, t):
    """Range of the p-th scatterer on rotor q at time t (scalar or array).

    hub_range(t) + r * cos(w*t + phi) * cos(theta); the oscillating term is
    bounded by the scatterer radius.
    """
    t = np.asarray(t, dtype=float)
    base = traj.range_at(t)
    r = uav.scatterer_radii_m[q, p]
    phi = uav.initial_phases_rad[q, p]
    theta = uav.blade_plane_angle_rad[q, p]
    w = uav.rotor_angular_velocity_rad_per_s
    return base + r * np.cos(w * t + phi) * np.cos(theta)


def _frame_times(radar: RadarConfig, frame_index: int) -> np.ndarray:
    l = np.arange(radar.chirps_per_frame)[:, None] * radar.chirp_duration_s
    n = np.arange(radar.samples_per_chirp)[None, :] / radar.adc_rate_hz
    return frame_index * radar.frame_duration_s + l + n


def _frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, frame_index)))


def _emitter_rng(seed: int, emitter_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, emitter_index)))


def _distractor_phase_path(kind: str, params: dict, radar: RadarConfig,
                           n_chirps: int, rng: np.random.Generator) -> np.ndarray:
    """Oscillation phase at each chirp boundary, chirps 0..n_chirps inclusive."""
    tc = radar.chirp_duration_s
    base_rate = float(params.get("base_rate_hz", 10.0))
    if kind == "aperiodic-flapper":
        jitter = float(params.get("phase_jitter_rad", 2.0))
        steps = 2 * math.pi * base_rate * tc + rng.normal(0.0, jitter, n_chirps)
    else:  # slow-oscillator
        drift = float(params.get("drift_per_frame", 0.3))
        per_chirp = drift / math.sqrt(radar.chirps_per_frame)
        log_rate = np.cumsum(rng.normal(0.0, per_chirp, n_chirps))
        steps = 2 * math.pi * base_rate * np.exp(log_rate) * tc
    return np.concatenate(([0.0], np.cumsum(steps)))


def _distractor_range(em: Distractor, radar: RadarConfig, scene_seed: int,
                      emitter_index: int, frame_index: int,
                      t_abs: np.ndarray) -> np.ndarray:
    p = em.params
    r0 = float(p.get("range_m", 30.0))
    if em.kind == "static-blob":
        return np.full_like(t_abs, r0)
    amp = float(p.get("amplitude_m", 0.15))
    # Phase path is regenerated from chirp 0 each call so that any frame of the
    # capture can be synthesized independently yet consistently.
    L = radar.chirps_per_frame
    n_chirps = (frame_index + 1) * L
    rng = _emitter_rng(scene_seed, emitter_index)
    psi = _distractor_phase_path(em.kind, p, radar, n_chirps, rng)
    tc = radar.chirp_duration_s
    chirp_of = np.floor(t_abs / tc).astype(int)
    chirp_of = np.clip(chirp_of, 0, n_chirps - 1)
    frac = t_abs / tc - chirp_of
    phase = psi[chirp_of] + frac * (psi[chirp_of + 1] - psi[chirp_of])
    return r0 + amp * np.cos(phase)


def _emitter_returns(em, radar: RadarConfig, scene: SceneSpec, emitter_index: int,
                     frame_index: int, t_abs: np.ndarray):
    """Yield (amplitude, range_array) contributions for one emitter."""
    if isinstance(em, UavEmitter):
        base = em.trajectory.range_at(t_abs)
        yield em.uav.body_reflectivity, base
        uav = em.uav
        w = uav.rotor_angular_velocity_rad_per_s
        proj = uav.scatterer_radii_m * np.cos(uav.blade_plane_angle_rad)
        for q in range(uav.rotor_count):
            for p in range(uav.scatterers_per_rotor):
                if uav.scatterer_reflectivities[q, p] == 0.0 and proj[q, p] == 0.0:
                    continue
                osc = proj[q, p] * np.cos(w * t_abs + uav.initial_phases_rad[q, p])
                yield uav.scatterer_reflectivities[q, p], base + osc
    elif isinstance(em, StaticClutter):
        yield em.reflectivity, np.full_like(t_abs, em.range_m)
    elif isinstance(em, Distractor):
        if em.kind not in DISTRACTOR_KINDS:
            raise SimulationError(
                f"unknown distractor kind {em.kind!r}; known: {DISTRACTOR_KINDS}")
        amp = float(em.params.get("reflectivity", 1.0))
        yield amp, _distractor_range(em, radar, scene.rng_seed, emitter_index,
                                     frame_index, t_abs)
    else:
        raise ValidationError(f"unknown emitter type {type(em)}")


_TWO_PI = 2.0 * math.pi


def _unit_phasor(phase: np.ndarray) -> np.ndarray:
    """exp(j*phase) with float64 argument reduction, float32 trig.

    Beat phases reach ~1e5 rad, so the reduction must happen at full
    precision; after wrapping, float32 cos/sin keeps ~1e-7 accuracy and is
    several times faster than complex128 exp.
    """
    wrapped = np.mod(phase, _TWO_PI).astype(np.float32)
    out = np.empty(wrapped.shape, dtype=np.complex64)
    out.real = np.cos(wrapped)
    out.imag = np.sin(wrapped)
    return out


def synthesize_frame(scene: SceneSpec, radar: RadarConfig, frame_index: int) -> Frame:
    """Synthesize one frame of the scene. Pure in (scene, radar, frame_index)."""
    L, N = radar.chirps_per_frame, radar.samples_per_chirp
    t_abs = _frame_times(radar, frame_index)
    tau = np.arange(N)[None, :] / radar.adc_rate_hz
    c = radar.speed_of_light_m_per_s
    phase_scale = 4.0 * math.pi * (radar.carrier_freq_hz + radar.chirp_slope_hz_per_s * tau) / c
    max_range = derive(radar).max_range_m

    total = np.zeros((L, N), dtype=np.complex128)
    for i, em in enumerate(scene.emitters):
        for amp, rng_m in _emitter_returns(em, radar, scene, i, frame_index, t_abs):
            if np.any(rng_m <= 0.0) or np.any(rng_m >= max_range):
                raise SimulationError(
                    f"emitter {i} ({type(em).__name__}) leaves (0, {max_range:.2f}) m "
                    f"in frame {frame_index}")
            if scene.range_loss_ref_m is not None:
                amp = amp * (scene.range_loss_ref_m / rng_m) ** 2
            total += amp * _unit_phasor(phase_scale * rng_m)

    if scene.noise_std > 0:
        rng = _frame_rng(scene.rng_seed, frame_index)
        sigma = scene.noise_std / math.sqrt(2.0)
        total += rng.normal(0.0, sigma, (L, N)) + 1j * rng.normal(0.0, sigma, (L, N))

    return Frame(frame_index=frame_index, samples=total)


def synthesize_frames(scene: SceneSpec, radar: RadarConfig,
                      n_frames: int | None = None) -> list[Frame]:
    scene.validate()
    n = radar.frames_per_capture if n_frames is None else n_frames
    return [synthesize_frame(scene, radar, f) for f in range(n)]


def synthesize_distractor_frames(kind: str, params: dict, radar: RadarConfig,
                                 n_frames: int | None = None, noise_std: float = 0.0,
                                 rng_seed: int = 0) -> list[Frame]:
    """Frames of a lone distractor; unknown kinds raise SimulationError."""
    scene = SceneSpec(emitters=(Distractor(kind=kind, params=params),),
                      noise_std=noise_std, rng_seed=rng_seed).validate()
    return synthesize_frames(scene, radar, n_frames)


def frame_mid_times(radar: RadarConfig, n_frames: int) -> np.ndarray:
    """Frame midpoints; the time base used for truth and track outputs."""
    return (np.arange(n_frames) + 0.5) * radar.frame_duration_s


def scene_truth(scene: SceneSpec, radar: RadarConfig, n_frames: int):
    """(times, ranges, velocities) of the first UAV emitter at frame midpoints."""
    for em in scene.emitters:
        if isinstance(em, UavEmitter):
            times = frame_mid_times(radar, n_frames)
            return times, em.trajectory.range_at(times), em.trajectory.velocity_at(times)
    raise ValidationError("scene contains no UAV emitter")
