import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rotorsense import process_frames, scenarios, synthesize_frames
from rotorsense.cli import track_capture
from rotorsense.echo import StaticClutter
from rotorsense.tracking import (PARTICLES, Track, TrackingError, _multinomial_indices,
                                 dp_max_path, estimate_noise_profile, particle_filter,
                                 read_track_csv, relative_range_error,
                                 spectral_subtract, track_to_csv)

BIN = 0.36643079597758654  # default radar range bin
V_MAX = 4.0  # m/s, the --v-max default


def dp_path(values, k_bins, range_bin_size_m=BIN):
    """dp_max_path over a plain folding map, on frame positions 0, 1, 2, ..."""
    values = np.asarray(values, dtype=float)
    return dp_max_path(values, k_bins, range_bin_size_m, np.arange(values.shape[1]))


# --- noise profile ------------------------------------------------------------

def test_profile_of_constant_background():
    profile = estimate_noise_profile(np.full((6, 9), 2.5))
    assert np.all(profile == 2.5)


def test_profile_of_single_column():
    col = np.arange(5.0)
    profile = estimate_noise_profile(col[:, None])
    assert np.array_equal(profile, col)


def test_profile_matches_naive_mean():
    rng = np.random.default_rng(0)
    values = rng.uniform(0.0, 10.0, (64, 37))
    profile = estimate_noise_profile(values)
    naive = np.array([sum(values[r]) / values.shape[1] for r in range(values.shape[0])])
    assert np.max(np.abs(profile - naive) / naive) < 1e-12


def test_profile_rejects_empty():
    with pytest.raises(TrackingError, match="empty"):
        estimate_noise_profile(np.zeros((0, 0)))


# --- spectral subtraction -----------------------------------------------------

def test_subtract_collinear_columns_vanish():
    rng = np.random.default_rng(1)
    profile_vals = rng.uniform(1.0, 5.0, 32)
    scales = rng.uniform(0.5, 2.0, 10)
    fmap = np.outer(profile_vals, scales)
    cleaned = spectral_subtract(fmap, profile_vals)
    in_energy = np.sum(fmap ** 2, axis=0)
    out_energy = np.sum(cleaned ** 2, axis=0)
    assert np.all(out_energy <= 1e-10 * in_energy)


def test_subtract_orthogonal_columns_unchanged():
    profile_vals = np.zeros(8)
    profile_vals[:4] = 1.0
    col = np.zeros(8)
    col[4:] = np.array([1.0, 2.0, 3.0, 4.0])  # orthogonal to the profile
    fmap = col[:, None]
    cleaned = spectral_subtract(fmap, profile_vals)
    assert np.array_equal(cleaned, fmap)


def test_subtract_recovers_target_over_ramp():
    """Target bump beaten by a static ramp pre-subtraction, recovered after."""
    rng = np.random.default_rng(2)
    n_r, n_t, uav_bin = 64, 40, 20
    ramp = np.linspace(1.0, 12.0, n_r)  # max at the last bin
    values = ramp[:, None] * rng.uniform(0.9, 1.1, (1, n_t))
    values[uav_bin] += 6.0 + rng.uniform(-0.5, 0.5, n_t)
    pre_argmax = np.argmax(values, axis=0)
    assert np.all(pre_argmax == n_r - 1)  # ramp wins everywhere before subtraction
    cleaned = spectral_subtract(values, ramp)
    post_argmax = np.argmax(cleaned, axis=0)
    assert np.count_nonzero(post_argmax == uav_bin) >= 0.95 * n_t


def test_subtract_keeps_negatives():
    cleaned = spectral_subtract(np.array([[1.0, 4.0], [5.0, 1.0]]), np.array([1.0, 1.0]))
    assert np.any(cleaned < 0)


def test_subtract_zero_profile_errors():
    with pytest.raises(TrackingError, match="zero"):
        spectral_subtract(np.ones((4, 3)), np.zeros(4))
    with pytest.raises(TrackingError, match="bins"):
        spectral_subtract(np.ones((4, 3)), np.ones(5))


# --- dynamic programming --------------------------------------------------------

def brute_force_max_path(values, k_bins):
    """Enumerate every constrained path; returns (best_score, best_path)."""
    n_r, n_t = values.shape
    best_score, best_path = -np.inf, None
    for start in range(n_r):
        for deltas in itertools.product(range(-k_bins, k_bins + 1), repeat=n_t - 1):
            path = [start]
            ok = True
            for d in deltas:
                nxt = path[-1] + d
                if not 0 <= nxt < n_r:
                    ok = False
                    break
                path.append(nxt)
            if not ok:
                continue
            score = sum(values[path[t], t] for t in range(n_t))
            if score > best_score:
                best_score, best_path = score, path
    return best_score, np.array(best_path)


def test_dp_single_column():
    track = dp_path(np.array([[1.0], [9.0], [4.0]]), 1)
    assert list(track.range_bins) == [1]
    assert track.total_score == 9.0
    assert track.ranges_m[0] == pytest.approx(1.0 * BIN)


def test_dp_recovers_staircase():
    n = 8
    values = np.zeros((n, n))
    for t in range(n):
        values[t, t] = 10.0
    track = dp_path(values, 1)
    assert np.array_equal(track.range_bins, np.arange(n))
    assert track.total_score == 80.0


def test_dp_matches_brute_force():
    rng = np.random.default_rng(4)
    for trial in range(200):
        n_r = int(rng.integers(2, 9))
        n_t = int(rng.integers(1, 7))
        k = int(rng.integers(1, 3))
        values = rng.uniform(-5.0, 10.0, (n_r, n_t))
        track = dp_path(values, k)
        score, path = brute_force_max_path(values, k)
        assert np.array_equal(track.range_bins, path), f"trial {trial}"
        assert abs(track.total_score - score) < 1e-9


def test_dp_constraint_always_satisfied():
    rng = np.random.default_rng(5)
    for _ in range(30):
        values = rng.uniform(-1.0, 1.0, (40, 25))
        k = int(rng.integers(1, 4))
        track = dp_path(values, k)
        assert np.max(np.abs(np.diff(track.range_bins))) <= k


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.integers(1, 20), st.integers(1, 4), st.data())
def test_dp_constraint_holds_on_random_maps(n_r, n_t, k, data):
    values = data.draw(arrays(np.float64, (n_r, n_t),
                              elements=st.floats(-1e6, 1e6, allow_nan=False)))
    bins = dp_path(values, k).range_bins
    assert bins.shape == (n_t,)
    assert np.all((bins >= 0) & (bins < n_r))
    assert np.all(np.abs(np.diff(bins)) <= k)


def test_dp_k_bins_beyond_map_height_changes_nothing():
    """No offset of n_r bins or more has a predecessor inside the map."""
    values = np.random.default_rng(8).uniform(-5.0, 10.0, (6, 5))
    capped, huge = dp_path(values, 5), dp_path(values, 10**12)
    assert np.array_equal(huge.range_bins, capped.range_bins)
    assert huge.total_score == capped.total_score
    assert huge.k_bins == 10**12


def test_dp_path_invariant_under_constant_offset():
    rng = np.random.default_rng(6)
    values = rng.integers(-5, 15, (12, 9)).astype(float)
    base = dp_path(values, 2)
    shifted = dp_path(values + 7.0, 2)
    assert np.array_equal(base.range_bins, shifted.range_bins)


def test_dp_empty_map_errors():
    with pytest.raises(TrackingError, match="empty"):
        dp_path(np.zeros((0, 0)), 1)
    with pytest.raises(TrackingError, match="k_bins"):
        dp_path(np.ones((3, 3)), 0)


@pytest.mark.parametrize("k", [100, 131, 200])
def test_track_ranges_sit_on_bin_centres(radar, k):
    """An FFT puts a beat tone at range R in bin R / bin, so bin k is centred at k * bin."""
    bin_m = radar.range_bin_size_m
    background = scenarios.background_scene(noise_std=0.0,
                                            clutter=(StaticClutter(20 * bin_m, 1.0),))
    scene = scenarios.hover_scene(k * bin_m, seed=1, noise_std=0.0)
    track = track_capture(process_frames(synthesize_frames(scene, radar, 20)), radar,
                          process_frames(synthesize_frames(background, radar, 20)),
                          v_max=V_MAX).track
    assert np.all(track.range_bins == k)
    assert np.all(track.ranges_m == k * bin_m)


# --- particle filter -----------------------------------------------------------

def test_pf_noiseless_constant_velocity(radar):
    truth = 30.0 + 0.5 * np.arange(40) * 0.09
    obs = truth.copy()
    filtered, reseeds = particle_filter(obs, radar, V_MAX, 3)
    raw_rmse = np.sqrt(np.mean((obs - truth) ** 2))
    pf_rmse = np.sqrt(np.mean((filtered - truth) ** 2))
    assert raw_rmse == 0.0
    assert pf_rmse <= 0.4 * radar.range_bin_size_m  # both ~0
    assert reseeds == 0


def test_pf_suppresses_outlier_spike(radar):
    truth = np.full(40, 48.0)
    obs = truth.copy()
    obs[20] += 5 * radar.range_bin_size_m
    filtered, _ = particle_filter(obs, radar, V_MAX, 7)
    assert np.max(np.abs(filtered - truth)) < np.max(np.abs(obs - truth))


def test_pf_beats_raw_on_jitter(radar):
    improved = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        truth = np.full(40, 48.0)
        obs = truth + rng.normal(0.0, radar.range_bin_size_m, truth.size)
        filtered, _ = particle_filter(obs, radar, V_MAX, seed)
        raw_rmse = np.sqrt(np.mean((obs - truth) ** 2))
        pf_rmse = np.sqrt(np.mean((filtered - truth) ** 2))
        improved += pf_rmse < raw_rmse
    assert improved >= 17  # 85% here; the acceptance suite runs the full 100-seed version


def test_pf_deterministic(radar):
    rng = np.random.default_rng(9)
    obs = 48.0 + rng.normal(0.0, 0.4, 30)
    a, _ = particle_filter(obs, radar, V_MAX, 42)
    b, _ = particle_filter(obs, radar, V_MAX, 42)
    assert np.array_equal(a, b)


def test_pf_degenerate_weights_reseed(radar):
    # A 40 m jump leaves every particle a hundred measurement sigmas away,
    # so every weight underflows and the cloud is re-seeded at the observation.
    obs = np.array([90.0, 90.0, 50.0])
    filtered, reseeds = particle_filter(obs, radar, V_MAX, 1)
    assert reseeds >= 1
    assert abs(filtered[-1] - 50.0) < 0.5
    ref_filtered, ref_reseeds = _reference_particle_filter(obs, radar, V_MAX, 1)
    assert np.array_equal(filtered, ref_filtered)
    assert reseeds == ref_reseeds


def test_pf_empty_track_errors(radar):
    with pytest.raises(TrackingError, match="empty"):
        particle_filter(np.array([]), radar, V_MAX, 0)


@pytest.mark.parametrize("v_max", [0.0, 3e8, 1e308, float("nan")])
def test_pf_rejects_v_max_outside_zero_to_c(radar, v_max):
    """1e308 overflowed the initial velocity draw."""
    with pytest.raises(TrackingError, match="v_max_m_per_s must be finite and > 0"):
        particle_filter(np.full(3, 48.0), radar, v_max, 0)


def _resampling_weights(kind, n, rng):
    """Normalized weights [n] of one shape the resampler must handle."""
    if kind == "random":
        w = rng.random(n)
    elif kind == "zero_runs":  # flat stretches of the cdf, at either end too
        w = rng.random(n)
        for start in rng.integers(0, n, 3):
            w[start:start + int(rng.integers(1, n + 1))] = 0.0
        w[rng.integers(n)] = 1.0
    elif kind == "one_nonzero":
        w = np.zeros(n)
        w[rng.integers(n)] = 1.0
    elif kind == "equal":  # the reseed branch
        w = np.ones(n)
    else:  # "subnormal": tiny weights stay subnormal after normalization
        w = rng.random(n)
        tiny = rng.random(n) < 0.5
        w[tiny] = rng.integers(1, 2 ** 20, int(tiny.sum())) * 5e-324
    w /= w.sum()
    return w


@settings(max_examples=60, deadline=None)
@given(st.integers(1, PARTICLES),
       st.sampled_from(["random", "zero_runs", "one_nonzero", "equal", "subnormal"]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
def test_multinomial_indices_match_rng_choice(n, kind, weight_seed, seed):
    w = _resampling_weights(kind, n, np.random.default_rng(weight_seed))
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    idx = _multinomial_indices(ours, w)
    ref = theirs.choice(n, size=n, p=w)
    assert idx.dtype == ref.dtype
    assert np.array_equal(idx, ref)
    assert np.array_equal(ours.random(4), theirs.random(4))  # same stream consumed


class _FixedUniforms:
    """Stands in for a Generator whose random(n) returns the given keys."""

    def __init__(self, keys):
        self.keys = keys

    def random(self, n):
        assert n == self.keys.size
        return self.keys.copy()


def test_multinomial_indices_on_cdf_steps_and_ties():
    # Keys that land exactly on cdf values (0.0 under a leading zero weight,
    # every step of a flat run), each repeated, in shuffled order. The cdf of
    # nine 1/9 weights ends at 1.0000000000000002 before it is normalized.
    w = np.r_[0.0, 0.0, np.full(9, 1.0 / 9.0), 0.0, 0.0]
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    keys = np.random.default_rng(0).permutation(np.r_[0.0, cdf[cdf < 1.0]].repeat(2))[:w.size]
    idx = _multinomial_indices(_FixedUniforms(keys), w)
    assert np.array_equal(idx, (cdf[None, :] <= keys[:, None]).sum(axis=1))  # first cdf > key


def _reference_particle_filter(ranges_m, radar, v_max, rng_seed):
    """The filter as first written, resampling with rng.choice."""
    obs = np.asarray(ranges_m, dtype=float)
    rng = np.random.default_rng(rng_seed)
    n = PARTICLES
    dt = radar.frame_duration_s
    measurement_noise_m = radar.range_bin_size_m
    process_noise_m = measurement_noise_m / 2.0

    r = rng.uniform(0.0, radar.max_range_m, n)
    v = rng.uniform(-v_max, v_max, n)

    estimates = np.empty(obs.shape[0])
    reseeds = 0
    for t, z in enumerate(obs):
        if t > 0:
            r = r + v * dt + rng.normal(0.0, process_noise_m, n)
            v = v + rng.normal(0.0, 0.5, n)
        w = np.exp(-0.5 * ((r - z) / measurement_noise_m) ** 2)
        total = w.sum()
        if not np.isfinite(total) or total <= 0.0:
            reseeds += 1
            r = z + rng.normal(0.0, 2.0 * measurement_noise_m, n)
            v = rng.uniform(-v_max, v_max, n)
            w = np.ones(n)
            total = float(n)
        w /= total
        estimates[t] = float(np.dot(w, r))
        idx = rng.choice(n, size=n, p=w)
        r, v = r[idx], v[idx]

    return estimates, reseeds


@pytest.mark.parametrize("n_steps", [1, 40, 400])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pf_matches_rng_choice_reference(radar, n_steps, seed):
    rng = np.random.default_rng(500 + seed)
    obs = 48.0 + np.cumsum(rng.normal(0.0, 0.05, n_steps)) + rng.normal(0.0, 0.4, n_steps)
    estimates, reseeds = particle_filter(obs, radar, V_MAX, seed)
    ref_estimates, ref_reseeds = _reference_particle_filter(obs, radar, V_MAX, seed)
    assert np.array_equal(estimates, ref_estimates)
    assert reseeds == ref_reseeds


# --- relative range error -------------------------------------------------------

def test_relative_error_identical_is_zero():
    assert relative_range_error([40.0, 41.0], [40.0, 41.0]) == 0.0


def test_relative_error_example():
    err = relative_range_error(np.full(10, 40.36), np.full(10, 40.0))
    assert abs(err - 0.009) < 1e-12


def test_relative_error_guards():
    with pytest.raises(TrackingError, match="mismatch"):
        relative_range_error([1.0, 2.0], [1.0])
    with pytest.raises(TrackingError, match="> 0"):
        relative_range_error([1.0], [0.0])


# --- CSV ------------------------------------------------------------------------

def test_track_csv_round_trip(tmp_path, radar):
    obs = 48.0 + np.arange(5) * 0.1
    track = Track(range_bins=np.round(obs / BIN).astype(int), ranges_m=obs,
                  scores=np.ones_like(obs), k_bins=1,
                  frame_times=(np.arange(obs.size) + 0.5) * 0.09,
                  filtered_ranges_m=particle_filter(obs, radar, V_MAX, 0)[0])
    path = tmp_path / "track.csv"
    track_to_csv(track, path)
    times, ranges, filtered = read_track_csv(path)
    assert np.array_equal(times, track.frame_times)
    assert np.array_equal(ranges, track.ranges_m)
    assert np.array_equal(filtered, track.filtered_ranges_m)
