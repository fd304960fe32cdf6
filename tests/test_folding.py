import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotorsense.echo import SceneSpec, synthesize_frames
from rotorsense.folding import (FoldingError, build_folding_map, fold_columns,
                                folding_result, folding_value)
from rotorsense.rdmap import process_frames

from conftest import UAV_RANGE_BIN


def naive_folding_value(d, j):
    """Literal transcription of the column-mean maximum, 1-indexed."""
    length = len(d)
    m_rows = length // j
    best = None
    for k in range(1, j + 1):
        total = 0.0
        for m in range(1, m_rows + 1):
            total += d[(k - 1) + (m - 1) * j]
        value = total / m_rows
        if best is None or value > best:
            best = value
    return best


def fig_comb():
    """20-bin row with unit peaks every 5 bins (positions 5, 10, 15, 20, 1-indexed)."""
    d = np.zeros(20)
    d[[4, 9, 14, 19]] = 1.0
    return d


def test_comb_alignment_at_true_period():
    assert folding_value(fig_comb(), 5) == 1.0


def test_comb_misaligned_size_dilutes():
    assert folding_value(fig_comb(), 4) <= 0.25


def test_constant_vector_folds_to_itself():
    d = np.full(64, 3.7)
    for j in range(2, 33):
        assert folding_value(d, j) == pytest.approx(3.7, abs=1e-12)


def test_matches_naive_oracle_bit_for_bit():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        length = int(rng.integers(8, 128))
        d = rng.uniform(0.0, 100.0, length)
        j = int(rng.integers(2, length // 2 + 1))
        assert folding_value(d, j) == naive_folding_value(d, j)


def test_folding_size_bounds():
    d = np.ones(20)
    with pytest.raises(FoldingError, match="< 2"):
        folding_value(d, 1)
    with pytest.raises(FoldingError, match="rows"):
        folding_value(d, 11)  # floor(20/11) = 1 row


def test_folding_result_comb_tie_breaks_to_fundamental():
    outcome = folding_result(fig_comb(), 2, 20)
    # sizes 5 and 10 both align perfectly after the floor(L/2) cap; smallest wins
    assert outcome.folding_result == 1.0
    assert outcome.best_folding_size == 5
    assert outcome.sizes[0] == 2 and outcome.sizes[-1] == 10
    assert folding_value(fig_comb(), 10) == 1.0


def test_folding_result_empty_range_errors():
    with pytest.raises(FoldingError, match="empty"):
        folding_result(np.ones(8), 5, 20)  # cap floor(8/2)=4 < j_min
    with pytest.raises(FoldingError, match="j_min"):
        folding_result(np.ones(20), 1, 20)


def test_zero_vector_folds_to_zero():
    assert folding_result(np.zeros(100)).folding_result == 0.0


def test_noise_vs_comb_monte_carlo():
    """Comb rows at unit per-peak SNR separate from pure noise by a wide margin."""
    rng = np.random.default_rng(7)
    n_trials = 1000
    p_noise = np.empty(n_trials)
    p_comb = np.empty(n_trials)
    for i in range(n_trials):
        noise = np.abs(rng.normal(size=100) + 1j * rng.normal(size=100)) / np.sqrt(2)
        p_noise[i] = folding_result(noise).folding_result
        comb = noise.copy()
        comb[4::5] += 1.0  # peak amplitude = complex noise std (0 dB per peak)
        p_comb[i] = folding_result(comb).folding_result
    assert p_noise.mean() < p_comb.mean()
    pooled = np.sqrt((p_noise.var() + p_comb.var()) / 2.0)
    separation = (p_comb.mean() - p_noise.mean()) / pooled
    assert separation >= 5.0


def test_shift_covariance_when_size_divides_length():
    rng = np.random.default_rng(3)
    d = rng.uniform(0.0, 10.0, 100)
    for j in (2, 4, 5, 10, 20):
        base = folding_value(d, j)
        for shift in (1, 7, 53):
            assert folding_value(np.roll(d, shift), j) == pytest.approx(base, rel=1e-12)


def test_monotone_snr_response():
    rng = np.random.default_rng(11)
    noise = np.abs(rng.normal(size=100))
    results = []
    for amp in (1.0, 2.0, 4.0):
        comb = noise.copy()
        comb[2::5] += amp
        results.append(folding_result(comb).folding_result)
    assert results[0] < results[1] < results[2]


def test_dc_contamination_never_decreases():
    rng = np.random.default_rng(13)
    for _ in range(20):
        comb = np.abs(rng.normal(size=100))
        comb[3::5] += 2.0
        spiked = comb.copy()
        spiked[50] += 30.0
        assert folding_result(spiked).folding_result >= folding_result(comb).folding_result


def test_result_bounded_below_by_prefix_mean():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = rng.uniform(0.0, 5.0, 100)
        for j in (2, 7, 20):
            m = 100 // j
            assert folding_value(d, j) >= d[:m * j].mean() - 1e-12


def test_build_single_map_matches_per_row(radar, hover_capture):
    _, _, cube, _, _ = hover_capture
    # process_frames returns a transposed view; fold its copy in C order too
    assert not cube[0].flags.c_contiguous
    for layout in (cube, np.ascontiguousarray(cube)):
        fmap = build_folding_map(layout)
        assert fmap.values.shape == (256, 40)
        for t in range(40):
            for r in range(256):
                outcome = folding_result(cube[t, r])
                assert fmap.values[r, t] == outcome.folding_result


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(4, 64), st.booleans(),
       st.data())
def test_build_matches_oracle_and_breaks_ties_small(n_t, n_r, n_l, doppler_major, data):
    """Integer magnitudes make equal folding values at several sizes common."""
    shape = (n_t, n_l, n_r) if doppler_major else (n_t, n_r, n_l)
    flat = data.draw(st.lists(st.integers(0, 3), min_size=n_t * n_r * n_l,
                              max_size=n_t * n_r * n_l))
    cube = np.array(flat, dtype=float).reshape(shape)
    if doppler_major:
        cube = cube.transpose(0, 2, 1)  # the layout process_frames returns
    fmap = build_folding_map(cube)
    sizes = range(2, min(20, n_l // 2) + 1)
    for t in range(n_t):
        for r in range(n_r):
            row = cube[t, r]
            oracle = [naive_folding_value(row, j) for j in sizes]
            best = max(oracle)
            outcome = folding_result(row)
            assert fmap.values[r, t] == outcome.folding_result == best
            assert outcome.best_folding_size == sizes[oracle.index(best)]


@pytest.mark.parametrize("doppler_major", [True, False], ids=["rdmap-layout", "c-order"])
def test_build_folds_across_block_edges(doppler_major):
    """13 frames of the default 256 x 100 map fill two 5-frame blocks and part of a
    third; each frame's values are its own fold, byte for byte."""
    rng = np.random.default_rng(13)
    maps = rng.integers(0, 4, (13, 100, 256)).astype(float)  # ties are common
    cube = maps.transpose(0, 2, 1)  # the layout process_frames returns
    if not doppler_major:
        cube = np.ascontiguousarray(cube)
    per_frame = np.stack([fold_columns(cube[t].T)[1].max(axis=0) for t in range(13)], axis=1)
    assert build_folding_map(cube).values.tobytes() == per_frame.tobytes()
    block = cube[3:8].transpose(0, 2, 1)
    assert (fold_columns(block, axis=-2)[1].tobytes()
            == fold_columns(block, axis=1)[1].tobytes()
            == fold_columns(block.transpose(1, 0, 2))[1].tobytes())


def test_build_rejects_mismatched_shapes():
    with pytest.raises(FoldingError, match="no Range-Doppler maps"):
        build_folding_map([])


def test_hover_fold_map_argmax_tracks_uav(hover_capture):
    _, _, _, fmap, _ = hover_capture
    argmax_bins = np.argmax(fmap.values, axis=0)
    assert np.all(np.abs(argmax_bins - UAV_RANGE_BIN) <= 1)


def test_noise_only_map_has_no_argmax_persistence(radar):
    scene = SceneSpec(emitters=(), noise_std=1.0, rng_seed=31)
    fmap = build_folding_map(process_frames(synthesize_frames(scene, radar, 100)))
    argmax_bins = np.argmax(fmap.values, axis=0)
    changes = np.count_nonzero(np.diff(argmax_bins) != 0)
    assert changes >= 0.5 * (len(argmax_bins) - 1)
