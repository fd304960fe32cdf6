"""Canonical synthetic scenes with calibrated defaults.

The constants here were tuned so that, with the default radar, a hovering UAV
shows (a) its body return as the global peak of its Doppler row, (b) a blade
comb whose peaks sit well above the noise floor, and (c) folding results an
order of magnitude above noise-only rows. Scatterer phases, radii and blade
plane angles are drawn per scene from a seeded generator: symmetric layouts
cancel harmonics, so randomized geometry is both more realistic and more
robust.

These builders back the test suite, the demos and the dataset generator.
"""

from __future__ import annotations

import math

import numpy as np

from .config import TrajectorySpec, UavConfig, constant_velocity, hover
from .echo import Distractor, SceneSpec, StaticClutter, UavEmitter

BLADE_REFLECTIVITY = 0.18
BLADE_PLANE_ANGLE_RAD = 1.52   # rotor plane nearly face-on: small radial projection
BLADE_RADII_RANGE_M = (0.06, 0.25)
NOISE_STD = 4.0
DATASET_NOISE_STD = 2.0  # identification corpus: comb peaks ~6 dB clearer
ROTATION_RATE_HZ = 55.6


def make_uav(seed: int = 0, rotation_rate_hz: float = ROTATION_RATE_HZ,
             rotor_count: int = 6, scatterers_per_rotor: int = 3,
             blade_reflectivity: float = BLADE_REFLECTIVITY,
             body_reflectivity: float = 1.0) -> UavConfig:
    """UAV with randomized blade geometry drawn from the seed."""
    # The counts size the draws, so they are checked first.
    UavConfig(rotor_count=rotor_count, scatterers_per_rotor=scatterers_per_rotor)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(17,)))
    shape = (rotor_count, scatterers_per_rotor)
    return UavConfig(
        rotor_count=rotor_count,
        scatterers_per_rotor=scatterers_per_rotor,
        scatterer_radii_m=rng.uniform(*BLADE_RADII_RANGE_M, shape),
        rotor_angular_velocity_rad_per_s=2 * math.pi * rotation_rate_hz,
        initial_phases_rad=rng.uniform(0.0, 2 * math.pi, shape),
        blade_plane_angle_rad=BLADE_PLANE_ANGLE_RAD + rng.uniform(-0.04, 0.04, shape),
        body_reflectivity=body_reflectivity,
        scatterer_reflectivities=blade_reflectivity,
    )


def uav_scene(trajectory: TrajectorySpec, seed: int = 0,
              rotation_rate_hz: float = ROTATION_RATE_HZ,
              noise_std: float = NOISE_STD, clutter=()) -> SceneSpec:
    emitters = (UavEmitter(make_uav(seed, rotation_rate_hz), trajectory),) + tuple(clutter)
    return SceneSpec(emitters=emitters, noise_std=noise_std, rng_seed=seed)


def hover_scene(range_m: float = 48.0, duration_s: float = 3.7, seed: int = 0,
                **kwargs) -> SceneSpec:
    return uav_scene(hover(range_m, duration_s), seed=seed, **kwargs)


def ascent_scene(start_range_m: float = 40.0, velocity_m_per_s: float = 1.5,
                 duration_s: float = 3.7, seed: int = 0, **kwargs) -> SceneSpec:
    return uav_scene(constant_velocity(start_range_m, velocity_m_per_s, duration_s),
                     seed=seed, **kwargs)


def background_scene(seed: int = 0, noise_std: float = NOISE_STD,
                     clutter=()) -> SceneSpec:
    """No UAV; used to estimate the background profile."""
    return SceneSpec(emitters=tuple(clutter), noise_std=noise_std, rng_seed=seed)


def default_clutter() -> tuple:
    return (StaticClutter(range_m=12.0, reflectivity=2.0),
            StaticClutter(range_m=26.0, reflectivity=1.2))


def distractor_scene(kind: str, seed: int = 0, range_m: float = 48.0,
                     reflectivity: float = 1.3, noise_std: float = NOISE_STD,
                     base_rate_hz: float = 40.0) -> SceneSpec:
    params = {"range_m": range_m, "reflectivity": reflectivity,
              "base_rate_hz": base_rate_hz}
    if kind == "aperiodic-flapper":
        params.update({"amplitude_m": 0.03, "phase_jitter_rad": 2.0})
    elif kind == "slow-oscillator":
        params.update({"amplitude_m": 0.02, "drift_per_frame": 0.35})
    return SceneSpec(emitters=(Distractor(kind=kind, params=params),),
                     noise_std=noise_std, rng_seed=seed)


def sample_uav_scene(rng: np.random.Generator, duration_s: float = 3.7) -> SceneSpec:
    """Randomized UAV capture for dataset generation.

    Half the draws hover: the hovering comb (body peak parked on DC) is the
    hard positive class, so it must carry half the training signal.
    """
    seed = int(rng.integers(0, 2 ** 31))
    rate = float(rng.uniform(25.0, 200.0))
    start = float(rng.uniform(25.0, 80.0))
    v = float(rng.choice([0.0, 0.0, 0.0, 0.0, 1.0, 1.5, -1.0, -1.5]))
    if v != 0.0 and not 15.0 < start + v * duration_s < 88.0:
        v = -v
    traj = hover(start, duration_s) if v == 0.0 else constant_velocity(start, v, duration_s)
    uav = make_uav(seed, rotation_rate_hz=rate,
                   rotor_count=int(rng.choice([4, 6])), scatterers_per_rotor=2,
                   blade_reflectivity=float(rng.uniform(0.16, 0.26)))
    emitters = (UavEmitter(uav, traj),)
    return SceneSpec(emitters=emitters, noise_std=DATASET_NOISE_STD, rng_seed=seed)


def sample_distractor_scene(rng: np.random.Generator) -> SceneSpec:
    seed = int(rng.integers(0, 2 ** 31))
    kind = str(rng.choice(list(("static-blob", "aperiodic-flapper", "slow-oscillator"))))
    return distractor_scene(
        kind, seed=seed,
        range_m=float(rng.uniform(25.0, 80.0)),
        reflectivity=float(rng.uniform(0.8, 2.0)),
        base_rate_hz=float(rng.uniform(15.0, 120.0)),
        noise_std=DATASET_NOISE_STD,
    )
