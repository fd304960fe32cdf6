import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rotorsense import scenarios, synthesize_frames
from rotorsense.cli import track_capture
from rotorsense.config import csv_columns
from rotorsense.echo import StaticClutter
from rotorsense.tracking import (PARTICLES, Track, TrackingError, _systematic_indices,
                                 dp_max_path, estimate_noise_profile, particle_filter,
                                 relative_range_error, spectral_subtract, track_to_csv)

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


def _reference_dp_path(values, k_bins):
    """The DP with out-of-map predecessors skipped by a validity mask per offset."""
    n_r, n_t = values.shape
    offsets = [0]
    for k in range(1, min(k_bins, n_r - 1) + 1):
        offsets.extend((-k, k))
    theta = values[:, :1].copy()
    preds = []
    for t in range(1, n_t):
        best, best_pred = np.full(n_r, -np.inf), np.full(n_r, -1)
        for k in offsets:
            src = np.arange(n_r) + k
            valid = (src >= 0) & (src < n_r)
            cand = np.full(n_r, -np.inf)
            cand[valid] = theta[src[valid], -1]
            better = cand > best
            best[better], best_pred[better] = cand[better], src[better]
        theta = np.column_stack([theta, best + values[:, t]])
        preds.append(best_pred)
    path = [int(np.argmax(theta[:, -1]))]
    for best_pred in reversed(preds):
        path.insert(0, int(best_pred[path[0]]))
    return np.array(path), float(theta[path[-1], -1])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 10), st.data())
def test_dp_matches_masked_reference_on_tied_maps(n_r, n_t, k, data):
    """Integer maps tie often: the path must follow the probe order 0, -1, +1, ..."""
    values = data.draw(arrays(np.int64, (n_r, n_t), elements=st.integers(-2, 2)))
    values = values.astype(float)
    track = dp_path(values, k)
    path, total = _reference_dp_path(values, k)
    assert np.array_equal(track.range_bins, path)
    assert track.total_score == total
    assert track.scores.tobytes() == values[path, np.arange(n_t)].tobytes()


def _probe_loop_dp(values, k_bins):
    """The DP step as one strict-improvement scan per offset, in probe order."""
    n_r, n_t = values.shape
    reach = min(k_bins, n_r - 1)
    offsets = [0]
    for k in range(1, reach + 1):
        offsets.extend((-k, k))
    theta = np.empty((n_r, n_t))
    pred = np.full((n_t, n_r), -1)
    theta[:, 0] = values[:, 0]
    padded = np.full(n_r + 2 * reach, -np.inf)
    for t in range(1, n_t):
        padded[reach:reach + n_r] = theta[:, t - 1]
        best = np.full(n_r, -np.inf)
        for k in offsets:
            cand = padded[reach + k:reach + k + n_r]
            better = cand > best
            best[better] = cand[better]
            pred[t, better] = np.flatnonzero(better) + k
        theta[:, t] = best + values[:, t]
    path = np.empty(n_t, dtype=int)
    path[-1] = int(np.argmax(theta[:, -1]))
    for t in range(n_t - 1, 0, -1):
        path[t - 1] = pred[t, path[t]]
    return path, float(theta[path[-1], -1])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 30), st.integers(1, 14), st.integers(1, 4),
       st.data())
def test_dp_gather_matches_the_probe_loop_on_integer_maps(n_r, n_t, k, spread, data):
    """One gather and one argmax per frame pick the predecessor the probe loop picks,
    ties included: small integer ranges make most candidates tie."""
    values = data.draw(arrays(np.int64, (n_r, n_t), elements=st.integers(-spread, spread)))
    values = values.astype(float)
    track = dp_path(values, k)
    path, total = _probe_loop_dp(values, k)
    assert track.range_bins.tobytes() == path.tobytes()
    assert track.total_score == total


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dp_refuses_non_finite_values(bad):
    values = np.zeros((4, 5))
    values[2, 3] = bad
    with pytest.raises(TrackingError, match="not finite"):
        dp_path(values, 1)


def test_dp_ties_prefer_smaller_offset_then_smaller_bin():
    flat = np.zeros((5, 3))
    flat[2, 2] = 1.0  # every predecessor ties: offset 0 wins, so the path stays on bin 2
    assert list(dp_path(flat, 2).range_bins) == [2, 2, 2]
    pair = np.zeros((5, 2))
    pair[[1, 3], 0] = 1.0  # bins 1 and 3 tie one step from bin 2: the smaller bin wins
    pair[2, 1] = 1.0
    assert list(dp_path(pair, 1).range_bins) == [1, 2]
    edge = np.zeros((3, 2))
    edge[:, 0] = 0.0, 0.0, 5.0  # bin -1 is off the map, not a wrapped bin 2
    edge[0, 1] = 10.0
    assert list(dp_path(edge, 1).range_bins) == [0, 0]


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
    track = track_capture(synthesize_frames(scene, radar, 20), radar,
                          synthesize_frames(background, radar, 20), v_max=V_MAX).track
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_pf_rejects_non_finite_observations(radar, bad):
    """A NaN used to come back as a NaN estimate, counted as a reseed."""
    with pytest.raises(TrackingError, match=f"observed range 2 is {bad!r}, not finite"):
        particle_filter([48.0, 48.1, bad, 48.0, bad], radar, V_MAX, 0)


def test_pf_count_keeps_the_5000_particle_accuracy(radar, monkeypatch):
    """At PARTICLES, the median PF/raw RMSE ratio over 40 jittered hover and
    constant-velocity tracks stays within 0.016 of the 5000-particle filter's on the
    same tracks and seeds. 0.016 is the widest spread of that median across eight
    filter seeds at 5000 particles, on five 40-track sets of the particle-count sweep
    recorded in CHANGES.md."""
    times = np.arange(40) * radar.frame_duration_s
    tracks = []
    for i in range(40):
        rng = np.random.default_rng(71_000 + i)
        v = 0.0 if i % 2 == 0 else rng.choice([-1.5, -1.0, 1.0, 1.5])
        truth = rng.uniform(25.0, 80.0) + v * times
        tracks.append((truth + rng.normal(0.0, radar.range_bin_size_m, truth.size), truth))

    def median_ratio():
        ratios = []
        for i, (obs, truth) in enumerate(tracks):
            filtered, _ = particle_filter(obs, radar, V_MAX, 40_000 + i)
            ratios.append(np.sqrt(np.mean((filtered - truth) ** 2) / np.mean((obs - truth) ** 2)))
        return float(np.median(ratios))

    chosen = median_ratio()
    monkeypatch.setattr("rotorsense.tracking.PARTICLES", 5000)
    assert chosen <= median_ratio() + 0.016


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


def _definition_indices(w, u):
    """For each k, the first i with cdf[i] > (u + k) / n, the key taken below 1."""
    n = w.shape[0]
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    idx, i = [], 0
    for k in range(n):  # the keys rise with k, so each search starts at the last answer
        key = min((u + k) / n, np.nextafter(1.0, 0.0))
        while not cdf[i] > key:
            i += 1
        idx.append(i)
    return np.array(idx), cdf


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5000),
       st.sampled_from(["random", "zero_runs", "one_nonzero", "equal", "subnormal"]),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0, exclude_max=True))
@example(5000, "zero_runs", 3, np.nextafter(1.0, 0.0))  # (u + n - 1) / n rounds to 1.0
@example(9, "equal", 0, 0.0)  # every key on a cdf step
def test_systematic_indices_follow_the_definition(n, kind, weight_seed, u):
    w = _resampling_weights(kind, n, np.random.default_rng(weight_seed))
    idx = _systematic_indices(w, u)
    ref, cdf = _definition_indices(w, u)
    assert np.array_equal(idx, ref)
    assert np.all(np.diff(idx) >= 0)
    assert np.all(w[idx] > 0)
    copies = np.bincount(idx, minlength=n)
    # A key within rounding of a cdf step may land on either side of it.
    assert np.all(np.abs(copies - n * np.diff(cdf, prepend=0.0)) <= 1 + 1e-9)


def _reference_particle_filter(ranges_m, radar, v_max, rng_seed):
    """The filter written plainly, with systematic resampling."""
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
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        keys = (rng.random() + np.arange(n)) / n
        idx = np.searchsorted(cdf, keys, side="right")
        r, v = r[idx], v[idx]

    return estimates, reseeds


@pytest.mark.parametrize("n_steps", [1, 40, 400])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pf_matches_plain_reference(radar, n_steps, seed):
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
    columns = csv_columns(path, ("frame_index", "time_s", "range_bin", "range_m",
                                 "filtered_range_m", "score"), "track CSV")
    expected = (np.arange(obs.size), track.frame_times, track.range_bins, track.ranges_m,
                track.filtered_ranges_m, track.scores)
    for column, want in zip(columns, expected, strict=True):
        assert np.array_equal(column, want)
