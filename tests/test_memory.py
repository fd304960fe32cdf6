"""Memory held by the capture path, measured with tracemalloc, which sees numpy's
buffers in every thread: a long capture's folding map and its diagram never hold
the capture's Range-Doppler maps, and simulate never holds the capture it writes."""

import tracemalloc

import numpy as np
import pytest

from rotorsense import workers
from rotorsense.cli import capture_folding_map, main
from rotorsense.echo import Frame
from rotorsense.rdmap import doppler_rows

GRID = (100, 256)  # the default radar's chirps x samples
N_FRAMES = 130     # 26 runs of maps (folding.frame_runs)


def _traced_peak(fn) -> int:
    """Bytes fn allocates at its peak, above what was allocated before it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def capture():
    """N_FRAMES default frames as a file read returns them: complex64 views of one buffer."""
    parts = np.random.default_rng(3).standard_normal((N_FRAMES,) + GRID + (2,), np.float32)
    return [Frame(samples) for samples in parts.view(np.complex64)[..., 0]]


# One float64 magnitude cube [frames, range bins, Doppler bins] of the capture: 26.6 MB.
CUBE_BYTES = N_FRAMES * GRID[0] * GRID[1] * 8


def test_folding_map_holds_one_run_of_maps(capture):
    """The capture's maps are made 5 frames at a time, and each run's cube is folded
    before the next is made: 2.9 MB at the peak, with one run's maps (1 MiB) alive."""
    peak = _traced_peak(lambda: capture_folding_map(capture))
    assert peak < CUBE_BYTES / 4, f"{peak} bytes"


def test_doppler_rows_make_no_maps(capture):
    """Per frame one range FFT buffer and one column: the diagram plus one frame's buffer."""
    peak = _traced_peak(lambda: doppler_rows(capture, np.arange(N_FRAMES) % GRID[1]))
    assert peak < CUBE_BYTES / 4, f"{peak} bytes"


def test_simulate_holds_one_block_of_frames(tmp_path, monkeypatch):
    """simulate writes each frame as its block is made: its peak is one block of
    complex128 frames, whatever the capture's length. On one worker a block holds
    66-67 of a 200-frame capture's frames (workers.split_frames), about two thirds of
    the capture's complex64 samples; holding every frame would exceed them."""
    monkeypatch.setattr(workers, "worker_count", lambda: 1)
    scenario = tmp_path / "clutter.json"
    scenario.write_text('{"schema_version": 1, "emitters": [{"kind": "static-clutter", '
                        '"range_m": 12.0, "reflectivity": 2.0}]}')
    n_frames = 200
    argv = ["simulate", "--scenario", str(scenario), "--frames", str(n_frames),
            "--out", str(tmp_path / "out")]
    peak = _traced_peak(lambda: main(argv))
    assert (tmp_path / "out" / "frames.bin").stat().st_size > n_frames * GRID[0] * GRID[1] * 8
    assert peak < n_frames * GRID[0] * GRID[1] * 8, f"{peak} bytes"
