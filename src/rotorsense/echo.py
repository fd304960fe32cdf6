"""Complex beat-signal synthesis for UAVs, clutter and non-UAV distractors.

A frame is chirps_per_frame x samples_per_chirp complex beat samples. Sample
(l, n) of frame f sits at absolute time t = f*L*Tc + l*Tc + n/fs and carries,
per emitter, the phase 4*pi*(fc + K*tau)*R(t)/c with tau = n/fs the fast time
inside the chirp. Ranges are evaluated at the true sample time, so blade
motion inside a chirp is modeled rather than frozen per chirp (no stop-and-hop
assumption).

A UAV emitter contributes its body return plus one return per blade scatterer;
the scatterer range oscillates as r*cos(w*t + phi)*cos(theta) around the hub
(scatterer_range). The motion is separable: with t = t0 + l*Tc + n/fs,
cos(w*t + phi) = cos(a_l)*cos(b_n) - sin(a_l)*sin(b_n), so the blade phases
of all S scatterers over a frame are one rank-2 product [S*L, 2] @ [2, N].
A blade phase is bounded by 4*pi*(fc + K*tau)/c * r*|cos(theta)|, at most
2541 rad/m times the projection with the default radar: 58 rad for
scenarios.make_uav (projection <= 0.0227 m) and 184 rad for a default
UavConfig (0.16*cos(1.1) m). It is taken straight to float32 trig,
whose rounding of about |phase|*2**-24 rad per scatterer bounds the error.
The scatterers are summed per sample and the sum is multiplied by the body
phasor, which is reduced once at the hub range. The range check is a hub
envelope: hub range +- max|r*cos(theta)| must stay inside (0, max range).
With range_loss_ref_m set, a UAV's whole return scales by (ref/hub range)^2;
the blades' centimetre excursion moves that factor by under 0.1% at 48 m.

Distractors provide the negative class for identification experiments:
"static-blob" (no motion), "aperiodic-flapper" (oscillation with random-walk
phase, so no fixed rotation rate) and "slow-oscillator" (oscillation whose
rate drifts every frame).

Doppler content beyond +-1/(2*Tc) aliases; peak spacing in Doppler bins is
preserved modulo the bin count, which is exactly what spectrum folding
consumes downstream.

Noise is circularly symmetric complex Gaussian: noise_std is the total
per-sample standard deviation (each component gets noise_std/sqrt(2)). All
randomness derives from SceneSpec.rng_seed: each frame draws its noise from
its own substream, and a moving distractor's phase path is one random walk
per emitter, drawn once for the whole capture. synthesize_frames is the one
way to synthesize a capture.

A static emitter (StaticClutter or a "static-blob" distractor) returns the
same samples in every frame, so it is synthesized once per capture: its
amplitude, range loss, range check and phasor are computed in the first frame,
and every frame adds that one array in the emitter's place in the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RadarConfig, TrajectorySpec, UavConfig, ValidationError

# The parameters each distractor kind reads; a scenario file may set no other.
_STATIC = ("range_m", "reflectivity")
_MOVING = _STATIC + ("base_rate_hz", "amplitude_m")
DISTRACTOR_PARAMS = {"static-blob": _STATIC, "aperiodic-flapper": _MOVING + ("phase_jitter_rad",),
                     "slow-oscillator": _MOVING + ("drift_per_frame",)}
DISTRACTOR_KINDS = tuple(DISTRACTOR_PARAMS)


class SimulationError(ValidationError):
    """Scene cannot be synthesized (emitter out of range, bad kind, ...)."""


@dataclass(frozen=True)
class Frame:
    """One radar frame of complex beat samples, shape [chirps, samples].

    The dtype follows the source: a frame read from a file (frameio.read_frames)
    holds complex64, a view of the capture's one buffer; a synthesized frame
    (synthesize_frames) holds complex128. rdmap.process_frames takes either.
    A frame's index is its position in the capture's list. Frame stays only
    because the benchmark's counters read `.samples`; ROADMAP items 3 and 4
    replace the list with one [frames, chirps, samples] array.
    """

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

    def __post_init__(self) -> None:
        if self.noise_std < 0:
            raise ValidationError("scene.noise_std must be >= 0")
        emitters = tuple(self.emitters)
        for i, em in enumerate(emitters):  # a UavEmitter's configs checked themselves
            if isinstance(em, StaticClutter):
                if not (em.range_m > 0 and em.reflectivity >= 0):
                    raise ValidationError(f"scene emitter {i}: bad static clutter parameters")
            elif isinstance(em, Distractor):
                if em.kind not in DISTRACTOR_KINDS:
                    raise SimulationError(
                        f"unknown distractor kind {em.kind!r}; known: {DISTRACTOR_KINDS}")
                for key in ("phase_jitter_rad", "drift_per_frame"):  # numpy normal scales
                    if np.signbit(em.params.get(key, 0.0)):
                        raise ValidationError(f"scene emitter {i}: {key} must be >= +0.0, "
                                              f"got {em.params[key]!r}")
            elif not isinstance(em, UavEmitter):
                raise ValidationError(f"scene emitter {i}: unknown emitter type {type(em)}")
        object.__setattr__(self, "emitters", emitters)


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


def _distractor_paths(scene: SceneSpec, radar: RadarConfig, n_frames: int) -> dict:
    """Phase path of each moving distractor over chirps 0..n_frames*L, by emitter index."""
    n_chirps = n_frames * radar.chirps_per_frame
    return {i: _distractor_phase_path(em.kind, em.params, radar, n_chirps,
                                      _emitter_rng(scene.rng_seed, i))
            for i, em in enumerate(scene.emitters)
            if isinstance(em, Distractor)
            and em.kind in ("aperiodic-flapper", "slow-oscillator")}


def _distractor_range(em: Distractor, radar: RadarConfig, psi: np.ndarray | None,
                      frame_index: int, t_abs: np.ndarray) -> np.ndarray:
    p = em.params
    r0 = float(p.get("range_m", 30.0))
    if em.kind == "static-blob":
        return np.full_like(t_abs, r0)
    amp = float(p.get("amplitude_m", 0.15))
    tc = radar.chirp_duration_s
    n_chirps = (frame_index + 1) * radar.chirps_per_frame
    chirp_of = np.floor(t_abs / tc).astype(int)
    chirp_of = np.clip(chirp_of, 0, n_chirps - 1)
    frac = t_abs / tc - chirp_of
    phase = psi[chirp_of] + frac * (psi[chirp_of + 1] - psi[chirp_of])
    return r0 + amp * np.cos(phase)


def _blade_projection(uav: UavConfig) -> np.ndarray:
    """Radial reach r*cos(theta) of every scatterer, flattened rotor-major."""
    return (uav.scatterer_radii_m * np.cos(uav.blade_plane_angle_rad)).ravel()


def _blade_amplitude(uav: UavConfig, radar: RadarConfig, frame_index: int,
                     phase_scale: np.ndarray) -> np.ndarray:
    """body + sum_s refl_s * exp(j*phase_scale*proj_s*cos(w*t + phi_s)), complex64 [L, N].

    With t = t0 + l*Tc + n/fs, cos(w*t + phi) = cos(a_l)*cos(b_n) - sin(a_l)*sin(b_n),
    so every scatterer's blade phase over the frame is one rank-2 product
    [S*L, 2] @ [2, N]. The scatterers are summed with einsum, whose bytes do
    not depend on the BLAS thread count.
    """
    L, N = radar.chirps_per_frame, radar.samples_per_chirp
    w = uav.rotor_angular_velocity_rad_per_s
    proj = _blade_projection(uav)[:, None]
    slow = w * (frame_index * radar.frame_duration_s
                + np.arange(L) * radar.chirp_duration_s)
    a = slow[None, :] + uav.initial_phases_rad.ravel()[:, None]   # [S, L]
    lhs = np.stack((proj * np.cos(a), -proj * np.sin(a)), axis=-1).reshape(-1, 2)
    b = w * (np.arange(N) / radar.adc_rate_hz)
    rhs = np.stack((phase_scale * np.cos(b), phase_scale * np.sin(b)))
    phase = (lhs @ rhs).astype(np.float32).reshape(proj.shape[0], L * N)
    refl = uav.scatterer_reflectivities.ravel().astype(np.float32)
    out = np.empty(L * N, dtype=np.complex64)
    out.real = np.einsum("s,sk->k", refl, np.cos(phase)) + np.float32(uav.body_reflectivity)
    out.imag = np.einsum("s,sk->k", refl, np.sin(phase))
    return out.reshape(L, N)


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


def _is_static(em) -> bool:
    return isinstance(em, StaticClutter) or (isinstance(em, Distractor)
                                             and em.kind == "static-blob")


def _frame_samples(scene: SceneSpec, radar: RadarConfig, frame_index: int,
                   paths: dict, static: dict) -> np.ndarray:
    """One frame's complex128 samples; `paths` holds the distractor phase paths.

    `static` maps each static emitter's index to its contribution, which is the
    same in every frame: the first frame computes and range-checks it, in its
    place among the emitters, and stores it; later frames add the stored array.
    """
    L, N = radar.chirps_per_frame, radar.samples_per_chirp
    t_abs = _frame_times(radar, frame_index)
    tau = np.arange(N) / radar.adc_rate_hz
    c = radar.speed_of_light_m_per_s
    phase_scale = 4.0 * math.pi * (radar.carrier_freq_hz + radar.chirp_slope_hz_per_s * tau) / c
    max_range = radar.max_range_m

    total = np.zeros((L, N), dtype=np.complex128)
    for i, em in enumerate(scene.emitters):
        if i in static:
            total += static[i]
            continue
        # Every emitter is an amplitude (scalar, or a UAV's body plus blade sum)
        # at one range per sample; `reach` bounds the blades' excursion around it.
        reach = 0.0
        if isinstance(em, UavEmitter):
            rng_m = em.trajectory.range_at(t_abs)
            reach = float(np.max(np.abs(_blade_projection(em.uav))))
            amp = _blade_amplitude(em.uav, radar, frame_index, phase_scale)
        elif isinstance(em, StaticClutter):
            amp, rng_m = em.reflectivity, np.full_like(t_abs, em.range_m)
        else:  # a Distractor of a known kind: a SceneSpec admits nothing else
            amp = float(em.params.get("reflectivity", 1.0))
            rng_m = _distractor_range(em, radar, paths.get(i), frame_index, t_abs)
        if np.any(rng_m - reach <= 0.0) or np.any(rng_m + reach >= max_range):
            raise SimulationError(
                f"emitter {i} ({type(em).__name__}) leaves (0, {max_range:.2f}) m "
                f"in frame {frame_index}")
        if scene.range_loss_ref_m is not None:
            amp = amp * (scene.range_loss_ref_m / rng_m) ** 2
        part = amp * _unit_phasor(phase_scale * rng_m)
        if _is_static(em):
            static[i] = part
        total += part

    if scene.noise_std > 0:
        rng = _frame_rng(scene.rng_seed, frame_index)
        sigma = scene.noise_std / math.sqrt(2.0)
        total.real += rng.normal(0.0, sigma, (L, N))
        total.imag += rng.normal(0.0, sigma, (L, N))
    if not np.isfinite(total).all():  # finite but extreme scene values can overflow
        raise SimulationError(f"frame {frame_index}: the scene's samples are not finite")
    return total


def synthesize_frames(scene: SceneSpec, radar: RadarConfig,
                      n_frames: int | None = None) -> list[Frame]:
    """The first n_frames frames (default: radar.frames_per_capture) of the scene."""
    n = radar.frames_per_capture if n_frames is None else n_frames
    # Extreme scene values may overflow; each frame's finiteness check refuses them.
    with np.errstate(over="ignore", invalid="ignore"):
        paths = _distractor_paths(scene, radar, n)
        static: dict = {}
        return [Frame(_frame_samples(scene, radar, f, paths, static)) for f in range(n)]


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
