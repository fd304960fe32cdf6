"""Range-track recovery from the range-time folding map.

Three stages. Spectral subtraction removes the static range-dependent
background: the time-averaged background profile N(r) is projected out of
every column (gain G(t) = sum_r N(r) S(r,t) / ||N||^2, then
S'(r,t) = S(r,t) - G(t) N(r)); negatives are kept, clamping would bias the
path scores. Constrained dynamic programming then finds the path g(t)
maximizing the cumulative score subject to |g(t) - g(t-1)| <= k_bins, where
motion_bins(radar, v_max) = ceil(v_max * frame duration / range bin) is the
bound the largest radial speed sets, via the forward recurrence

    theta(r, t) = max_{|k| <= K} theta(r + k, t - 1) + S'(r, t)

where a predecessor r + k outside the map scores -inf, so it never wins,
followed by predecessor backtracking.
Ties: the final-column argmax prefers the smaller range bin; predecessor ties
prefer the smaller offset |k|, then the smaller bin. Finally a sequential
importance resampling particle filter over (range, radial velocity) smooths
the bin-quantized DP track: constant-velocity prediction with Gaussian
process noise, Gaussian likelihood of the DP range, weighted-mean range as
the estimate, then systematic resampling every step: one uniform u per step
places the sorted keys (u + k) / n, k = 0..n-1, each copying the first
particle whose normalised cumulative weight exceeds it, so a particle is
copied within one of n times its weight, with less variance than a
multinomial draw. Its model is fixed by the range grid: 2000 particles,
process noise of half a range bin in range and 0.5 m/s in velocity,
measurement noise of one range bin. 2000 is the smallest of 250, 500, 1000,
2000 and 5000 whose median and 90th-percentile relative range error, over 80
sampled UAV captures over static clutter, stay within the 5000-particle
filter's own spread across eight filter seeds; 1000 falls outside on both.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import RadarConfig, ValidationError


class TrackingError(ValidationError):
    """Tracker precondition violated (empty map, zero profile, bad lengths)."""


@dataclass(frozen=True)
class Track:
    """Constrained maximum path through a folding map, one bin per frame."""

    range_bins: np.ndarray          # int bins, length T
    ranges_m: np.ndarray            # bin centers
    scores: np.ndarray              # per-step subtracted folding values
    k_bins: int
    frame_times: np.ndarray
    filtered_ranges_m: np.ndarray | None = None
    total_score: float = 0.0


PARTICLES = 2000


def estimate_noise_profile(values) -> np.ndarray:
    """Per-bin time average of a background folding map [R, T] with no target present."""
    if values.size == 0:
        raise TrackingError("background folding map is empty")
    return values.mean(axis=1)


def spectral_subtract(values, profile) -> np.ndarray:
    """Project the noise profile [R] out of every column of values [R, T]; negatives kept."""
    if profile.shape[0] != values.shape[0]:
        raise TrackingError(
            f"noise profile has {profile.shape[0]} bins, map has {values.shape[0]}")
    sq_norm = float(np.sum(profile ** 2))
    if sq_norm == 0.0:
        raise TrackingError("noise profile norm is zero")
    gains = profile @ values / sq_norm          # G(t), length T
    return values - np.outer(profile, gains)


def _check_v_max(radar: RadarConfig, v_max_m_per_s: float) -> None:
    c = radar.speed_of_light_m_per_s
    if not 0 < v_max_m_per_s < c:
        raise TrackingError(
            f"v_max_m_per_s must be finite and > 0, below the speed of light {c!r} m/s")


def motion_bins(radar: RadarConfig, v_max_m_per_s: float) -> int:
    """The DP's per-frame motion bound: ceil(v_max * frame duration / range bin), at
    least 1, for a v_max in (0, c)."""
    _check_v_max(radar, v_max_m_per_s)
    bins = v_max_m_per_s * radar.frame_duration_s / radar.range_bin_size_m
    if not math.isfinite(bins):
        raise TrackingError(
            f"v_max_m_per_s * frame duration / range bin = {bins} must be finite")
    return max(1, math.ceil(bins))


_NEG_INF = -np.inf


def dp_max_path(values, k_bins: int, range_bin_size_m: float, frame_times) -> Track:
    """Constrained maximum path through values [R, T] by DP plus backtracking."""
    if values.size == 0:
        raise TrackingError("folding map is empty")
    if k_bins < 1:
        raise TrackingError("k_bins must be >= 1")
    n_r, n_t = values.shape

    # Offsets probed in order 0, -1, +1, -2, +2, ...: with strict improvement
    # this prefers smaller |k|, then the smaller predecessor bin. No offset of
    # n_r or more has a predecessor inside the map, so the probe stops there.
    reach = min(k_bins, n_r - 1)
    offsets = [0]
    for k in range(1, reach + 1):
        offsets.extend((-k, k))

    theta = np.empty((n_r, n_t))
    pred = np.full((n_t, n_r), -1)  # pred[t, r]: the bin at t - 1 that r at t extends
    theta[:, 0] = values[:, 0]
    # The previous column between reach cells of -inf: a predecessor off the map never wins.
    padded = np.full(n_r + 2 * reach, _NEG_INF)
    for t in range(1, n_t):
        padded[reach:reach + n_r] = theta[:, t - 1]
        best = np.full(n_r, _NEG_INF)
        for k in offsets:
            cand = padded[reach + k:reach + k + n_r]
            better = cand > best
            best[better] = cand[better]
            pred[t, better] = np.flatnonzero(better) + k
        theta[:, t] = best + values[:, t]

    path = np.empty(n_t, dtype=int)
    path[-1] = int(np.argmax(theta[:, -1]))  # first max == smallest bin
    for t in range(n_t - 1, 0, -1):
        path[t - 1] = pred[t, path[t]]

    scores = values[path, np.arange(n_t)]
    ranges = path * range_bin_size_m
    return Track(range_bins=path, ranges_m=ranges, scores=scores, k_bins=k_bins,
                 frame_times=np.array(frame_times, dtype=float),
                 total_score=float(theta[path[-1], -1]))


def particle_filter(ranges_m, radar: RadarConfig, v_max_m_per_s: float, rng_seed: int):
    """Smooth observed ranges [T] with a (range, velocity) SIR particle filter on
    the radar's range grid; v_max in (0, c) bounds the initial velocities.

    Returns (filtered_ranges, reseed_count). reseed_count counts steps where
    every particle weight underflowed and the cloud was re-seeded around the
    observation. Every observed range must be finite.
    """
    obs = np.asarray(ranges_m, dtype=float)
    if obs.size == 0:
        raise TrackingError("track is empty")
    bad = np.flatnonzero(~np.isfinite(obs))
    if bad.size:
        raise TrackingError(f"observed range {bad[0]} is {float(obs[bad[0]])!r}, not finite")
    _check_v_max(radar, v_max_m_per_s)
    rng = np.random.default_rng(rng_seed)
    n = PARTICLES
    dt = radar.frame_duration_s
    measurement_noise_m = radar.range_bin_size_m
    process_noise_m = measurement_noise_m / 2.0

    r = rng.uniform(0.0, radar.max_range_m, n)
    v = rng.uniform(-v_max_m_per_s, v_max_m_per_s, n)

    estimates = np.empty(obs.shape[0])
    reseeds = 0
    for t, z in enumerate(obs):
        if t > 0:
            r += v * dt
            r += rng.normal(0.0, process_noise_m, n)
            v += rng.normal(0.0, 0.5, n)  # velocity noise, m/s
        w = r - z
        w /= measurement_noise_m
        np.square(w, out=w)
        w *= -0.5
        np.exp(w, out=w)
        total = w.sum()
        if not np.isfinite(total) or total <= 0.0:
            reseeds += 1
            r = z + rng.normal(0.0, 2.0 * measurement_noise_m, n)
            v = rng.uniform(-v_max_m_per_s, v_max_m_per_s, n)
            w = np.ones(n)
            total = float(n)
        w /= total
        estimates[t] = float(np.dot(w, r))
        idx = _systematic_indices(w, rng.random())
        r, v = r[idx], v[idx]

    return estimates, reseeds


def _systematic_indices(w, u: float) -> np.ndarray:
    """Systematic resampling of weights w [n] (>= 0, positive sum) with offset u in
    [0, 1): for k = 0..n-1, the first i whose normalised cumulative weight exceeds the
    key (u + k) / n, taken below 1. Non-decreasing, and no zero-weight index."""
    n = w.shape[0]
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    # (u + n - 1) / n rounds up to 1.0, which no cumulative weight exceeds, for u near 1.
    keys = np.minimum((u + np.arange(n)) / n, np.nextafter(1.0, 0.0))
    return np.searchsorted(cdf, keys, side="right")


def relative_range_error(track_ranges, truth_ranges) -> float:
    """Mean of |truth - track| / truth over the trace."""
    track_ranges = np.asarray(track_ranges, dtype=float)
    truth_ranges = np.asarray(truth_ranges, dtype=float)
    if track_ranges.shape != truth_ranges.shape:
        raise TrackingError(
            f"length mismatch: track {track_ranges.shape} vs truth {truth_ranges.shape}")
    if np.any(truth_ranges <= 0):
        raise TrackingError("truth ranges must be > 0")
    return float(np.mean(np.abs(truth_ranges - track_ranges) / truth_ranges))


def track_to_csv(track: Track, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_index", "time_s", "range_bin", "range_m",
                         "filtered_range_m", "score"])
        for i in range(track.range_bins.shape[0]):
            writer.writerow([
                i, repr(float(track.frame_times[i])), int(track.range_bins[i]),
                repr(float(track.ranges_m[i])),
                repr(float(track.filtered_ranges_m[i])),
                repr(float(track.scores[i])),
            ])

