"""Range-track recovery from the range-time folding map.

Three stages. Spectral subtraction removes the static range-dependent
background: the time-averaged background profile N(r) is projected out of
every column (gain G(t) = sum_r N(r) S(r,t) / ||N||^2, then
S'(r,t) = S(r,t) - G(t) N(r)); negatives are kept, clamping would bias the
path scores. Constrained dynamic programming then finds the path g(t)
maximizing the cumulative score subject to |g(t) - g(t-1)| <= k_bins,
via the forward recurrence

    theta(r, t) = max_{|k| <= K} theta(r + k, t - 1) + S'(r, t)

with out-of-range predecessors skipped, followed by predecessor backtracking.
Ties: the final-column argmax prefers the smaller range bin; predecessor ties
prefer the smaller offset |k|, then the smaller bin. Finally a sequential
importance resampling particle filter over (range, radial velocity) smooths
the bin-quantized DP track: constant-velocity prediction with Gaussian
process noise, Gaussian likelihood of the DP range, multinomial resampling
every step, weighted-mean range as the estimate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import DerivedParams
from .folding import FoldingMap


class TrackingError(ValueError):
    """Tracker precondition violated (empty map, zero profile, bad lengths)."""


@dataclass(frozen=True)
class NoiseProfile:
    """Time-averaged background folding map, one value per range bin."""

    values: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.values ** 2)))


@dataclass
class Track:
    """Constrained maximum path through a folding map, one bin per frame."""

    range_bins: np.ndarray          # int bins, length T
    ranges_m: np.ndarray            # bin centers
    scores: np.ndarray              # per-step subtracted folding values
    k_bins: int
    frame_times: np.ndarray
    filtered_ranges_m: np.ndarray | None = None
    total_score: float = 0.0


@dataclass(frozen=True)
class ParticleFilterConfig:
    particle_count: int = 5000
    process_noise_range_m: float = 0.18
    process_noise_vel_m_per_s: float = 0.5
    measurement_noise_m: float = 0.37
    rng_seed: int = 0

    def validate(self) -> "ParticleFilterConfig":
        if self.particle_count < 100:
            raise TrackingError("particle_count must be >= 100")
        if min(self.process_noise_range_m, self.process_noise_vel_m_per_s,
               self.measurement_noise_m) <= 0:
            raise TrackingError("particle filter noise stds must be > 0")
        return self


def default_pf_config(derived: DerivedParams, rng_seed: int = 0) -> ParticleFilterConfig:
    """Noise scales matched to the range grid: half a bin of process noise, one bin of measurement noise."""
    return ParticleFilterConfig(
        particle_count=5000,
        process_noise_range_m=derived.range_bin_size_m / 2.0,
        process_noise_vel_m_per_s=0.5,
        measurement_noise_m=derived.range_bin_size_m,
        rng_seed=rng_seed,
    ).validate()


def estimate_noise_profile(background: FoldingMap) -> NoiseProfile:
    """Per-bin time average of a background capture (no target present)."""
    if background.values.size == 0:
        raise TrackingError("background folding map is empty")
    return NoiseProfile(values=background.values.mean(axis=1))


def spectral_subtract(fmap: FoldingMap, noise: NoiseProfile) -> FoldingMap:
    """Project the background profile out of every column; negatives kept."""
    if noise.values.shape[0] != fmap.n_range_bins:
        raise TrackingError(
            f"noise profile has {noise.values.shape[0]} bins, map has {fmap.n_range_bins}")
    sq_norm = float(np.sum(noise.values ** 2))
    if sq_norm == 0.0:
        raise TrackingError("noise profile norm is zero")
    gains = noise.values @ fmap.values / sq_norm          # G(t), length T
    cleaned = fmap.values - np.outer(noise.values, gains)
    return FoldingMap(values=cleaned, best_sizes=fmap.best_sizes,
                      frame_times=fmap.frame_times)


_NEG_INF = -np.inf


def dp_max_path(fmap: FoldingMap, k_bins: int, range_bin_size_m: float) -> Track:
    """Constrained maximum path by dynamic programming plus backtracking."""
    if fmap.values.size == 0:
        raise TrackingError("folding map is empty")
    if k_bins < 1:
        raise TrackingError("k_bins must be >= 1")
    values = fmap.values
    n_r, n_t = values.shape

    # Offsets probed in order 0, -1, +1, -2, +2, ...: with strict improvement
    # this prefers smaller |k|, then the smaller predecessor bin.
    offsets = [0]
    for k in range(1, k_bins + 1):
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
    ranges = (path + 0.5) * range_bin_size_m
    return Track(range_bins=path, ranges_m=ranges, scores=scores, k_bins=k_bins,
                 frame_times=fmap.frame_times.copy(),
                 total_score=float(theta[path[-1], -1]))


def particle_filter(track: Track, cfg: ParticleFilterConfig,
                    derived: DerivedParams):
    """Smooth a track with a (range, velocity) SIR particle filter.

    Returns (filtered_ranges, reseed_count); also stores the filtered ranges
    on the track. reseed_count counts steps where every particle weight
    underflowed and the cloud was re-seeded around the observation.
    """
    obs = np.asarray(track.ranges_m, dtype=float)
    if obs.size == 0:
        raise TrackingError("track is empty")
    cfg.validate()
    rng = np.random.default_rng(cfg.rng_seed)
    n = cfg.particle_count
    dt = derived.frame_duration_s
    v_max = derived.v_max_m_per_s

    r = rng.uniform(0.0, derived.max_range_m, n)
    v = rng.uniform(-v_max, v_max, n)

    estimates = np.empty(obs.shape[0])
    reseeds = 0
    for t, z in enumerate(obs):
        if t > 0:
            r = r + v * dt + rng.normal(0.0, cfg.process_noise_range_m, n)
            v = v + rng.normal(0.0, cfg.process_noise_vel_m_per_s, n)
        w = np.exp(-0.5 * ((r - z) / cfg.measurement_noise_m) ** 2)
        total = w.sum()
        if not np.isfinite(total) or total <= 0.0:
            reseeds += 1
            r = z + rng.normal(0.0, 2.0 * cfg.measurement_noise_m, n)
            v = rng.uniform(-v_max, v_max, n)
            w = np.ones(n)
            total = float(n)
        w /= total
        estimates[t] = float(np.dot(w, r))
        idx = rng.choice(n, size=n, p=w)  # multinomial resampling
        r, v = r[idx], v[idx]

    track.filtered_ranges_m = estimates
    return estimates, reseeds


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
    times, ranges, filtered = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            times.append(float(row["time_s"]))
            ranges.append(float(row["range_m"]))
            filtered.append(float(row["filtered_range_m"]) if row["filtered_range_m"] else math.nan)
    filt = np.array(filtered)
    return (np.array(times), np.array(ranges),
            None if np.all(np.isnan(filt)) else filt)
