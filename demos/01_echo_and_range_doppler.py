"""Walkthrough: beat-signal synthesis and the Range-Doppler map.

Synthesizes a few scenes with the default 60 GHz radar and shows, with plain
prints, where targets land on the range and Doppler grids:

  * a static reflector maps to the range bin predicted by its beat frequency,
  * a moving body's Doppler peak wraps into the +-PRF/2 span,
  * rotating blades stamp a comb of peaks around the body line, spaced by the
    rotation rate.

Run: python demos/01_echo_and_range_doppler.py
"""

import numpy as np

from rotorsense import (RadarConfig, SceneSpec, StaticClutter, UavConfig, UavEmitter,
                        dc_bin, derive, process_frames, synthesize_frames)
from rotorsense.config import constant_velocity, hover
from rotorsense.rdmap import aliased_doppler_hz, beat_range_bin, doppler_axis_hz
from rotorsense import scenarios

radar = RadarConfig()
derived = derive(radar, v_max_m_per_s=4.0)
print("=== radar grid ===")
print(f"max range        : {derived.max_range_m:8.2f} m")
print(f"range bin        : {derived.range_bin_size_m:8.4f} m")
print(f"frame duration   : {derived.frame_duration_s:8.3f} s")
print(f"Doppler bin      : {derived.doppler_bin_hz:8.3f} Hz"
      f" ({derived.doppler_bin_m_per_s*100:.2f} cm/s)")

# --- 1. static reflector ------------------------------------------------------
print("\n=== static reflector at 30 m ===")
scene = SceneSpec(emitters=(StaticClutter(30.0, 1.0),))
rd = process_frames(synthesize_frames(scene, radar, 1))[0]
r_bin, d_bin = np.unravel_index(np.argmax(rd), rd.shape)
print(f"predicted range bin {beat_range_bin(radar, 30.0)}, measured argmax {r_bin}")
print(f"Doppler argmax at bin {d_bin} (DC bin is {dc_bin(radar.chirps_per_frame)})")

# --- 2. moving body wraps in Doppler -----------------------------------------
print("\n=== body-only target ascending at 1.5 m/s ===")
body = UavConfig(scatterer_radii_m=0.0, scatterer_reflectivities=0.0)
scene = SceneSpec(emitters=(UavEmitter(body, constant_velocity(48.0, 1.5, 4.0)),))
rd = process_frames(synthesize_frames(scene, radar, 1))[0]
row = rd[int(np.argmax(rd.max(axis=1)))]
axis = doppler_axis_hz(radar)
raw_hz = 2 * 1.5 * radar.carrier_freq_hz / radar.speed_of_light_m_per_s
print(f"true Doppler {raw_hz:7.1f} Hz exceeds PRF/2 = {radar.pulse_rate_hz/2:6.1f} Hz")
print(f"wrapped prediction {aliased_doppler_hz(radar, 1.5):7.1f} Hz, "
      f"measured {axis[int(np.argmax(row))]:7.1f} Hz")

# --- 3. blades stamp a comb ----------------------------------------------------
print("\n=== UAV with rotors at 55.6 rev/s, hovering at 48 m ===")
scene = scenarios.hover_scene(48.0, seed=1)
rd = process_frames(synthesize_frames(scene, radar, 1))[0]
row = rd[beat_range_bin(radar, 48.0)]
dc = dc_bin(radar.chirps_per_frame)
print(f"body peak sits at DC (bin {dc}): argmax = {int(np.argmax(row))}")
strong = np.flatnonzero(row > 0.25 * np.delete(row, dc).max())
print(f"strong Doppler bins: {strong.tolist()}")
print("adjacent spacings  :", np.diff(strong).tolist())
print(f"expected comb step : {55.6 / derived.doppler_bin_hz:.2f} bins")
print("\nThe comb survives aliasing because only peak spacing matters modulo the")
print("bin count; that spacing is what spectrum folding amplifies (see demo 02).")
