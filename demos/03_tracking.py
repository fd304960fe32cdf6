"""Walkthrough: from folding maps to a range track.

Builds two 40-frame captures (hover at 48 m and a 1.5 m/s ascent) over static
clutter, then runs the tracker stages one by one:

  1. background profile from a UAV-free capture,
  2. spectral subtraction (projects the static clutter ridge out),
  3. constrained maximum-path dynamic programming (at most K bins per frame),
  4. particle filter smoothing.

Prints the per-stage effect and the final relative range error.

Run: python demos/03_tracking.py
"""

import numpy as np

from rotorsense import RadarConfig, process_frames, synthesize_frames
from rotorsense.echo import frame_mid_times, scene_truth
from rotorsense.folding import build_folding_map
from rotorsense.rdmap import beat_range_bin
from rotorsense import scenarios, tracking

radar = RadarConfig()
v_max = 4.0  # m/s, the --v-max default
clutter = scenarios.default_clutter()
n = 40
times = frame_mid_times(radar, n)

print("=== background capture (clutter + noise, no UAV) ===")
bg_scene = scenarios.background_scene(seed=99, clutter=clutter)
bg_map = build_folding_map(process_frames(synthesize_frames(bg_scene, radar, n))).values
profile = tracking.estimate_noise_profile(bg_map)
print(f"profile peaks at bin {int(np.argmax(profile))} "
      f"(clutter at 12 m is bin {beat_range_bin(radar, 12.0)})")

for name, scene in (("hover at 48 m", scenarios.hover_scene(48.0, seed=1, clutter=clutter)),
                    ("ascent at 1.5 m/s", scenarios.ascent_scene(40.0, 1.5, seed=2,
                                                                 clutter=clutter))):
    print(f"\n=== {name} ===")
    fmap = build_folding_map(process_frames(synthesize_frames(scene, radar, n))).values
    pre_argmax = np.argmax(fmap, axis=0)
    cleaned = tracking.spectral_subtract(fmap, profile)
    post_argmax = np.argmax(cleaned, axis=0)
    print(f"columns whose argmax is the clutter ridge: "
          f"{int(np.sum(pre_argmax == pre_argmax.min()))} before, "
          f"{int(np.sum(post_argmax == pre_argmax.min()))} after subtraction")

    track = tracking.dp_max_path(cleaned, tracking.motion_bins(radar, v_max),
                                 radar.range_bin_size_m, times)
    filtered, reseeds = tracking.particle_filter(track.ranges_m, radar, v_max, rng_seed=7)

    _, truth_ranges, _ = scene_truth(scene, radar, n)
    raw_err = tracking.relative_range_error(track.ranges_m, truth_ranges)
    pf_err = tracking.relative_range_error(filtered, truth_ranges)
    print(f"DP track bins {track.range_bins[:6]} ... constraint K={track.k_bins}")
    print(f"relative range error: raw {raw_err:.3%}, filtered {pf_err:.3%} "
          f"(budget 2%), reseeds {reseeds}")
