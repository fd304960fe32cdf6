import numpy as np
import pytest

from rotorsense import Frame, RadarConfig, process_frames, synthesize_frames
from rotorsense.echo import scene_truth
from rotorsense.folding import build_folding_map
from rotorsense import scenarios
from rotorsense.lstm import LstmDetector


@pytest.fixture(scope="session")
def radar():
    return RadarConfig()


def _capture(scene, radar, n_frames):
    frames = synthesize_frames(scene, radar, n_frames)
    cube = process_frames(frames)
    fmap = build_folding_map(cube)
    return frames, cube, fmap


@pytest.fixture(scope="session")
def hover_capture(radar):
    """40-frame hover at 48 m, UAV only; (scene, frames, cube, fmap, truth)."""
    scene = scenarios.hover_scene(48.0, seed=1)
    frames, cube, fmap = _capture(scene, radar, 40)
    truth = scene_truth(scene, radar, 40)
    return scene, frames, cube, fmap, truth


@pytest.fixture(scope="session")
def ascent_capture(radar):
    """40-frame ascent at 1.5 m/s from 40 m, UAV only."""
    scene = scenarios.ascent_scene(40.0, 1.5, seed=2)
    frames, cube, fmap = _capture(scene, radar, 40)
    truth = scene_truth(scene, radar, 40)
    return scene, frames, cube, fmap, truth


@pytest.fixture(scope="session")
def tracking_scenes(radar):
    """Hover / ascent captures over static clutter plus a matching background.

    Returns {"hover": (scene, frames, cube, fmap, truth), "ascent": ...,
    "background": (frames, cube, fmap)}; the clutter ridge makes spectral
    subtraction do real work before the DP search.
    """
    clutter = scenarios.default_clutter()
    out = {}
    for name, scene in (("hover", scenarios.hover_scene(48.0, seed=1, clutter=clutter)),
                        ("ascent", scenarios.ascent_scene(40.0, 1.5, seed=2, clutter=clutter))):
        frames, cube, fmap = _capture(scene, radar, 40)
        out[name] = (scene, frames, cube, fmap, scene_truth(scene, radar, 40))
    out["background"] = _capture(
        scenarios.background_scene(seed=99, clutter=clutter), radar, 40)
    return out


def float64_detector(input_dim, hidden_size, seed):
    """A detector whose parameters are cast to float64, so it computes in float64: for
    checks whose tolerance assumes float64 (central differences, reference recurrences)."""
    det = LstmDetector(input_dim, hidden_size, seed)
    det.params = {name: p.astype(np.float64) for name, p in det.params.items()}
    return det


UAV_RANGE_BIN = 131  # 48 m with the default radar grid


def comb_spacing_estimate(row, exclude=None, rel=0.15):
    """Modal spacing of local maxima above rel * max; None if too few peaks."""
    row = np.asarray(row, dtype=float).copy()
    if exclude is not None:
        lo, hi = exclude
        row[lo:hi + 1] = 0.0
    thr = row.max() * rel
    peaks = [i for i in range(1, len(row) - 1)
             if row[i] >= thr and row[i] >= row[i - 1] and row[i] >= row[i + 1]]
    if len(peaks) < 3:
        return None
    diffs = np.diff(peaks)
    diffs = diffs[diffs <= 25]
    if diffs.size == 0:
        return None
    vals, counts = np.unique(diffs, return_counts=True)
    return float(vals[np.argmax(counts)])


def drawn_frames(n_frames, chirps, samples, seed):
    """Complex frames spanning 1e-300..1e150 in magnitude, one scale per frame."""
    rng = np.random.default_rng(seed)
    shape = (chirps, samples)
    scales = 10.0 ** rng.integers(-300, 150, n_frames)
    return [Frame(s * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
            for s in scales]
