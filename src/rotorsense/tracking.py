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

with out-of-range predecessors skipped, followed by predecessor backtracking.
Ties: the final-column argmax prefers the smaller range bin; predecessor ties
prefer the smaller offset |k|, then the smaller bin. Finally a sequential
importance resampling particle filter over (range, radial velocity) smooths
the bin-quantized DP track: constant-velocity prediction with Gaussian
process noise, Gaussian likelihood of the DP range, weighted-mean range as
the estimate, then multinomial resampling every step. The resampling draw is
the inverse-CDF lookup `rng.choice(n, size=n, p=w)` makes, from the same
uniforms, searched in sorted order: same indices, same stream, less time.
Its model is fixed by the range grid: 5000 particles, process noise of half
a range bin in range and 0.5 m/s in velocity, measurement noise of one range
bin.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import RadarConfig, ValidationError, csv_columns


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


PARTICLES = 5000


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
    offsets = [0]
    for k in range(1, min(k_bins, n_r - 1) + 1):
        offsets.extend((-k, k))

    theta = np.empty((n_r, n_t))
    pred = np.zeros((n_r, n_t), dtype=int)
    theta[:, 0] = values[:, 0]
    rows = np.arange(n_r)
    for t in range(1, n_t):
        best = np.full(n_r, _NEG_INF)
        best_pred = np.full(n_r, -1)
        prev = theta[:, t - 1]
        for k in offsets:
            src = rows + k
            valid = (src >= 0) & (src < n_r)
            cand = np.full(n_r, _NEG_INF)
            cand[valid] = prev[src[valid]]
            better = cand > best
            best[better] = cand[better]
            best_pred[better] = src[better]
        theta[:, t] = best + values[:, t]
        pred[:, t] = best_pred

    path = np.empty(n_t, dtype=int)
    path[-1] = int(np.argmax(theta[:, -1]))  # first max == smallest bin
    for t in range(n_t - 1, 0, -1):
        path[t - 1] = pred[path[t], t]

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
    observation.
    """
    obs = np.asarray(ranges_m, dtype=float)
    if obs.size == 0:
        raise TrackingError("track is empty")
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
        # w is exp(.) >= 0 over a finite positive total, so the checks
        # rng.choice makes on p (non-negative, sums to 1) cannot fail here.
        w /= total
        estimates[t] = float(np.dot(w, r))
        idx = _multinomial_indices(rng, w)
        r, v = r[idx], v[idx]

    return estimates, reseeds


def _multinomial_indices(rng, w) -> np.ndarray:
    """Indices equal to rng.choice(len(w), size=len(w), p=w), drawn from the same stream.

    It is numpy's own recipe for that call (cumsum, divide by the last entry,
    one random(n) draw, searchsorted side="right"), run on the uniforms in
    sorted order: a key's answer does not depend on the order of the keys,
    and sorted keys make the search several times faster.
    """
    n = w.shape[0]
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    u = rng.random(n)
    order = np.argsort(u)
    idx = np.empty(n, dtype=np.int64)
    idx[order] = np.searchsorted(cdf, u[order], side="right")
    return idx


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
    filtered = track.filtered_ranges_m
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_index", "time_s", "range_bin", "range_m",
                         "filtered_range_m", "score"])
        for i in range(track.range_bins.shape[0]):
            writer.writerow([
                i, repr(float(track.frame_times[i])), int(track.range_bins[i]),
                repr(float(track.ranges_m[i])),
                repr(float(filtered[i])) if filtered is not None else "",
                repr(float(track.scores[i])),
            ])


def read_track_csv(path):
    """Returns (times, ranges_m, filtered_ranges_m or None)."""
    times, ranges, filtered = csv_columns(
        path, ("time_s", "range_m", "filtered_range_m"), f"track CSV {path}", TrackingError,
        blank=("filtered_range_m",))
    return times, ranges, None if np.all(np.isnan(filtered)) else filtered
