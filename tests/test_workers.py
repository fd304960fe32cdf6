"""Frame-parallel chunks and folding behind the caller: the split rule, outputs
independent of the worker count, and errors that name the capture's first bad frame
whichever thread was folding meanwhile."""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rotorsense import cli, folding, workers
from rotorsense.echo import Frame
from rotorsense.folding import build_folding_map, fold_columns
from rotorsense.rdmap import ProcessingError, doppler_rows, process_frames

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


def test_worker_count_is_the_affinity_capped():
    count = workers.worker_count()
    assert 1 <= count <= workers._MAX_WORKERS
    assert count == min(len(os.sched_getaffinity(0)), workers._MAX_WORKERS)


def _frames(n_frames, chirps, samples, seed):
    """Complex frames spanning 1e-300..1e150 in magnitude, one scale per frame."""
    rng = np.random.default_rng(seed)
    shape = (chirps, samples)
    scales = 10.0 ** rng.integers(-300, 150, n_frames)
    return [Frame(s * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
            for s in scales]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 13), st.integers(4, 9), st.integers(1, 7), st.integers(0, 2**32 - 1))
@example(1, 4, 3, 0)     # one frame
@example(2, 5, 2, 1)     # fewer frames than 3 workers
@example(7, 6, 5, 2)     # not divisible by 2 or 3
@example(3, 4, 4, 3)     # below the threshold of 2 workers
@example(4, 4, 4, 4)     # at it
def test_outputs_do_not_depend_on_the_worker_count(n_frames, chirps, samples, seed):
    """Runs of capture_folding_map hold 3 frames, so run edges fall inside the capture
    and, on 2 or 3 workers, every run but the last is folded on a pool thread."""
    frames = _frames(n_frames, chirps, samples, seed)
    results = {}
    for count in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            _set_workers(mp, count)
            mp.setattr(folding, "_BLOCK_BYTES", 3 * chirps * samples * 8)
            results[count] = cli.capture_folding_map(frames).values.tobytes()
    assert results[2] == results[1]
    assert results[3] == results[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 13), st.integers(4, 12), st.integers(1, 12), st.sampled_from([1, 2, 3]),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(13, 7, 6, 2, 5, 0)      # odd chirps: runs of 5 maps, the last of 3
@example(9, 8, 9, 3, 2, 1)       # even chirps, odd samples: a last run of one frame
@example(1, 4, 1, 1, 1, 2)
def test_folding_map_equals_folding_the_cube(n_frames, chirps, samples, count, block_maps,
                                             seed):
    """capture_folding_map makes the maps of a run of frames at a time and folds each
    run's cube as it comes, the one before on a worker while the caller makes the next;
    its map is the fold of process_frames' whole cube by fold_columns, byte for byte,
    for any run size and worker count."""
    frames = _frames(n_frames, chirps, samples, seed)
    cube = process_frames(frames)
    with pytest.MonkeyPatch.context() as mp:
        _set_workers(mp, count)
        mp.setattr(folding, "_BLOCK_BYTES", block_maps * chirps * samples * 8)
        values = cli.capture_folding_map(frames).values
    expected = fold_columns(cube.transpose(0, 2, 1), axis=1)[1].max(axis=0).T
    assert values.tobytes() == expected.tobytes()


def _capture_with_bad(n_frames, bad, value):
    shape = (4, 8)
    frames = [Frame(np.ones(shape, dtype=complex)) for _ in range(n_frames)]
    for t in bad:
        frames[t] = Frame(np.full(shape, value, dtype=complex))
    return frames


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e308], ids=["nan", "inf", "overflow"])
def test_bad_frame_in_a_later_chunk_is_named(monkeypatch, value):
    """In one run, and in a later run of 2 frames made while a worker folds the run
    before it, the capture's frame 7 is named."""
    _set_workers(monkeypatch, 3)
    frames = _capture_with_bad(9, [7], value)
    with pytest.raises(ProcessingError, match="^frame 7: non-finite Range-Doppler map"):
        cli.capture_folding_map(frames)
    monkeypatch.setattr(folding, "_BLOCK_BYTES", 2 * 32 * 8)  # runs of 2 frames
    with pytest.raises(ProcessingError, match="^frame 7: non-finite Range-Doppler map"):
        cli.capture_folding_map(frames)


def test_no_runtime_warning_escapes_a_worker(monkeypatch):
    """Samples near 1e308 overflow the FFTs of frame 4, in the caller, while a worker
    folds the runs before it: no numpy warning reaches the caller."""
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


def test_track_exits_one_naming_a_later_chunks_overflowing_frame(monkeypatch, tmp_path,
                                                                 capsys):
    """A file's samples are finite float32, so the overflow is put in after the read."""
    radar = cli.RadarConfig()
    path = tmp_path / "frames.bin"
    shape = (radar.chirps_per_frame, radar.samples_per_chirp)
    cli.frameio.write_frames(path, [Frame(np.ones(shape, dtype=complex))] * 6, radar)
    read = cli.frameio.read_frames

    def read_overflowing(*args):
        frames, header_radar = read(*args)
        frames[5] = Frame(np.full(shape, 1e306, dtype=complex))
        return frames, header_radar

    monkeypatch.setattr(cli.frameio, "read_frames", read_overflowing)
    _set_workers(monkeypatch, 2)
    monkeypatch.setattr(folding, "_BLOCK_BYTES", 2 * shape[0] * shape[1] * 8)  # runs of 2
    assert cli.main(["track", "--frames", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "frame 5: non-finite Range-Doppler map" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_run_behind_keeps_order_and_holds_at_most_three_items(monkeypatch):
    """Every call but the last runs on a pool thread while the caller draws the next
    item; an item lives from its draw to the end of its call, and at most three are
    alive when an item is made, however slow the calls."""
    _set_workers(monkeypatch, 2)
    callers, alive, most, lock = [], set(), [0], threading.Lock()

    def items():
        for k in range(7):
            with lock:
                alive.add(k)
                most[0] = max(most[0], len(alive))
            yield k

    def work(k):
        time.sleep(0.01)
        with lock:
            alive.discard(k)
        return k, threading.current_thread() is callers[0]

    def run():
        callers.append(threading.current_thread())
        return workers.run_behind(work, items())

    out = _in_thread(run)
    assert [k for k, _ in out] == list(range(7))
    assert [in_caller for _, in_caller in out] == [False] * 6 + [True]
    assert most[0] == 3 and not alive


def test_run_behind_on_one_worker_runs_in_the_caller(monkeypatch):
    def no_pool(threads):
        raise AssertionError("one worker asked for the pool")

    monkeypatch.setattr(workers, "_pool", no_pool)
    _set_workers(monkeypatch, 1)
    caller = threading.current_thread()
    out = workers.run_behind(lambda k: (k, threading.current_thread() is caller), range(4))
    assert out == [(k, True) for k in range(4)]
    _set_workers(monkeypatch, 2)
    assert workers.run_behind(lambda k: k, [5]) == [5]  # a lone item asks for no pool
    assert workers.run_behind(lambda k: k, []) == []


def test_run_behind_errors_reach_the_caller_after_the_running_call(monkeypatch):
    _set_workers(monkeypatch, 2)
    ended, raised = [], KeyError("draw 3")

    def items():
        yield from range(3)
        raise raised

    def work(k):
        time.sleep(0.01)
        ended.append(k)

    with pytest.raises(KeyError) as info:
        workers.run_behind(work, items())
    assert info.value is raised and ended == [0, 1]

    def failing(k):
        if k == 1:
            raise raised
        return k

    with pytest.raises(KeyError) as info:
        workers.run_behind(failing, range(5))
    assert info.value is raised
    assert _in_thread(lambda: workers.run_behind(lambda k: -k, range(3))) == [0, -1, -2]


def test_concurrent_callers_on_more_workers_than_cores(monkeypatch):
    """Four callers, each folding its captures' runs on the shared pool of 4 workers,
    with a short switch interval: every result still equals the serial one byte for
    byte."""
    frames = _frames(11, 8, 16, seed=5)
    with pytest.MonkeyPatch.context() as mp:
        _set_workers(mp, 1)
        cube = process_frames(frames)
        serial = cube.tobytes() + build_folding_map(cube).values.tobytes()
    _set_workers(monkeypatch, 4)
    monkeypatch.setattr(folding, "_BLOCK_BYTES", 3 * 8 * 16 * 8)  # runs of 3 frames

    def caller():
        results = []
        for _ in range(10):
            results.append(process_frames(frames).tobytes()
                           + cli.capture_folding_map(frames).values.tobytes())
        return results

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
    for thread, out in callers:
        assert not thread.is_alive()
        assert out == [serial] * 10
