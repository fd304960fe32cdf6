"""Frame-parallel chunks: the split rule, the pool, errors that reach the caller,
concurrent callers, and the stages that never start a pool."""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from rotorsense import cli, folding, lstm, workers
from rotorsense.config import RadarConfig, hover
from rotorsense.echo import Frame, SceneSpec, StaticClutter, UavEmitter, synthesize_frames
from rotorsense.folding import build_folding_map
from rotorsense.rdmap import ProcessingError, doppler_rows, process_frames
from rotorsense.scenarios import make_uav

GRID = (100, 256)  # the default radar's chirps x samples
THREAD_TIMEOUT_S = 60


def _set_workers(mp, count, frames_per_worker=None, elements=1):
    """Patches the worker count and, if given, the split threshold in frames."""
    mp.setattr(workers, "worker_count", lambda: count)
    if frames_per_worker is not None:
        mp.setattr(workers, "_MIN_CHUNK_ELEMENTS", frames_per_worker * elements)


def _chunks(n_frames, elements=1):
    """The (start, stop, caller ran it) of each chunk run_chunks hands out."""
    caller, calls, lock = threading.current_thread(), [], threading.Lock()

    def work(start, stop):
        with lock:
            calls.append((start, stop, threading.current_thread() is caller))

    workers.run_chunks(work, n_frames, elements)
    return sorted(calls)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("n_frames", [1, 2, 5, 6, 7, 12, 13])
def test_chunks_are_contiguous_and_the_caller_runs_the_first(count, n_frames):
    with pytest.MonkeyPatch.context() as mp:
        _set_workers(mp, count, frames_per_worker=2)
        calls = _chunks(n_frames)
    expected = max(1, min(count, n_frames // 2))
    assert len(calls) == expected
    assert [c[0] for c in calls] == [0] + [c[1] for c in calls[:-1]]
    assert calls[-1][1] == n_frames
    assert all(stop > start for start, stop, _ in calls)
    assert [c[2] for c in calls] == [True] + [False] * (expected - 1)


def test_threshold_splits_at_64_default_frames_per_worker(monkeypatch):
    """127 default-grid frames stay serial on two workers; 128 split in halves."""
    _set_workers(monkeypatch, 2)
    elements = GRID[0] * GRID[1]
    assert _chunks(127, elements) == [(0, 127, True)]
    assert _chunks(128, elements) == [(0, 64, True), (64, 128, False)]
    assert len(_chunks(1000, elements)) == 2  # never more chunks than workers


def test_serial_call_creates_no_pool(monkeypatch):
    def no_pool(threads):
        raise AssertionError("a serial call asked for the pool")

    monkeypatch.setattr(workers, "_pool", no_pool)
    _set_workers(monkeypatch, 4, frames_per_worker=8, elements=12)
    frames = [Frame(np.ones((4, 3), dtype=complex))] * 15
    assert process_frames(frames).shape == (15, 3, 4)
    assert build_folding_map(np.ones((15, 3, 4))).values.shape == (3, 15)
    assert cli.capture_folding_map(frames).values.shape == (3, 15)
    assert doppler_rows(frames, [0] * 15).shape == (15, 4)
    # 64 frames, past run_chunks' threshold for 4 workers: maps and rows are still
    # made in the caller, and the one run of maps is folded there too
    frames = frames * 5
    assert process_frames(frames[:64]).shape == (64, 3, 4)
    assert doppler_rows(frames[:64], [1] * 64).shape == (64, 4)
    assert cli.capture_folding_map(frames).values.shape == (3, 75)
    # runs of 2 frames: every run is folded in the caller too, at any worker count
    monkeypatch.setattr(folding, "_BLOCK_BYTES", 2 * 12 * 8)
    for count in (2, 3, 4):
        _set_workers(monkeypatch, count)
        assert len(folding.frame_runs(frames[:9])) == 5
        assert cli.capture_folding_map(frames[:9]).values.shape == (3, 9)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e308], ids=["nan", "inf", "overflow"])
def test_bad_frame_in_a_later_chunk_is_named(monkeypatch, value):
    """On 3 workers, in one run and in a later run of 2 frames, both folded in the
    caller, the capture's frame 7 is named."""
    _set_workers(monkeypatch, 3)
    frames = [Frame(np.ones((4, 8), dtype=complex)) for _ in range(9)]
    frames[7] = Frame(np.full((4, 8), value, dtype=complex))
    with pytest.raises(ProcessingError, match="^frame 7: non-finite Range-Doppler map"):
        cli.capture_folding_map(frames)
    monkeypatch.setattr(folding, "_BLOCK_BYTES", 2 * 32 * 8)  # runs of 2 frames
    with pytest.raises(ProcessingError, match="^frame 7: non-finite Range-Doppler map"):
        cli.capture_folding_map(frames)


def test_no_runtime_warning_escapes_a_worker(monkeypatch):
    """On 2 workers, samples near 1e308 overflow the FFTs of frame 4 after the runs
    of 2 frames before it were folded: no numpy warning reaches the caller."""
    _set_workers(monkeypatch, 2)
    shape = (100, 16)
    monkeypatch.setattr(folding, "_BLOCK_BYTES", 2 * shape[0] * shape[1] * 8)  # runs of 2
    frames = [Frame(np.full(shape, 0.5 + 0.5j)) for _ in range(6)]
    frames[4] = Frame(np.full(shape, complex(1e308, -1e308)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ProcessingError, match="^frame 4: non-finite"):
            cli.capture_folding_map(frames)
    assert [str(w.message) for w in caught] == []


_TRACK_THEN_THREADS = """
import sys, threading
from rotorsense.cli import main
frames, model, out = sys.argv[1:]
codes = [main(["track", "--frames", frames, "--out", out]),
         main(["identify", "--frames", frames, "--model", model, "--out", out])]
print(*codes, "concurrent.futures" in sys.modules, threading.active_count())
"""


def test_track_and_identify_start_no_thread(tmp_path):
    """In a fresh process, track and identify --frames on a 40-frame capture never
    import concurrent.futures, so they start no pool, and leave one thread."""
    scenario = tmp_path / "clutter.json"
    scenario.write_text('{"schema_version": 1, "noise_std": 4.0, "emitters": [{"kind": '
                        '"static-clutter", "range_m": 12.0, "reflectivity": 2.0}]}')
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    model = tmp_path / "model.npz"
    lstm.save_model(lstm.LstmDetector(input_dim=100, hidden_size=4, seed=0), model)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [str(tmp_path / "frames.bin"), str(model), str(tmp_path / "out")]
    run = subprocess.run([sys.executable, "-c", _TRACK_THEN_THREADS, *argv], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "0 0 False 1"


def test_worker_count_is_the_affinity_capped():
    count = workers.worker_count()
    assert 1 <= count <= workers._MAX_WORKERS
    assert count == min(len(os.sched_getaffinity(0)), workers._MAX_WORKERS)


def _in_thread(fn):
    """Runs fn in a fresh thread under a timeout; returns its result."""
    out = {}
    thread = threading.Thread(target=lambda: out.setdefault("result", fn()))
    thread.start()
    thread.join(THREAD_TIMEOUT_S)
    assert not thread.is_alive(), "run_chunks did not return"
    return out["result"]


def test_worker_exception_reaches_the_caller_and_the_pool_runs_on(monkeypatch):
    _set_workers(monkeypatch, 3, frames_per_worker=1)
    raised = KeyError("chunk 2")

    def work(start, stop):
        if start == 6:
            raise raised

    with pytest.raises(KeyError) as info:
        workers.run_chunks(work, 9, 1)
    assert info.value is raised
    assert _in_thread(lambda: _chunks(9)) == [(0, 3, True), (3, 6, False), (6, 9, False)]


def test_concurrent_callers_on_more_workers_than_cores(monkeypatch):
    """Four callers, each synthesizing its captures one frame per worker on the shared
    pool of 4 workers, with a short switch interval: every capture still equals the
    serial one byte for byte."""
    radar = RadarConfig(chirps_per_frame=8, samples_per_chirp=16)
    scene = SceneSpec(emitters=(StaticClutter(12.0, 2.0),
                                UavEmitter(make_uav(seed=1), hover(48.0, 1.0))),
                      noise_std=4.0, rng_seed=5)
    with pytest.MonkeyPatch.context() as mp:
        _set_workers(mp, 1)
        serial = b"".join(f.samples.tobytes() for f in synthesize_frames(scene, radar, 9))
    _set_workers(monkeypatch, 4, frames_per_worker=1)  # frames 1..8 in 4 chunks of 2
    asked, pool = [], workers._pool
    monkeypatch.setattr(workers, "_pool", lambda threads: asked.append(threads) or pool(threads))

    def caller():
        return [b"".join(f.samples.tobytes() for f in synthesize_frames(scene, radar, 9))
                for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = []
        for _ in range(4):
            out = []
            thread = threading.Thread(target=lambda out=out: out.extend(caller()))
            callers.append((thread, out))
            thread.start()
        for thread, _ in callers:
            thread.join(THREAD_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert set(asked) == {3}, "the captures did not split"
    for thread, out in callers:
        assert not thread.is_alive()
        assert out == [serial] * 10
