"""Frame-parallel work: contiguous chunks of a capture's frames on the host's cores.

echo.synthesize_frames (after its first frame) computes each frame's samples
from that frame alone, so run_chunks splits a capture into contiguous chunks
of frames, one per worker. The caller runs the first chunk and a persistent
pool of workers - 1 threads runs the others. numpy's trig, noise draws and
reductions release the interpreter lock, so the chunks run in parallel; every
frame keeps the arithmetic of a serial call, so outputs do not depend on the
worker count. simulate sizes its blocks of frames by the same rule
(split_frames).

No other stage uses a thread: the Range-Doppler maps, their folding and a
diagram's Doppler rows are made in the caller (rdmap, folding), so track and
identify never start a pool.

The worker count is the number of cores the process may run on
(os.sched_getaffinity), at most _MAX_WORKERS; nothing sets it. A capture is
split only as far as each worker gets _MIN_CHUNK_ELEMENTS frame elements
(chirps x samples); a smaller capture runs serially, in the caller, and
creates no pool.

np.errstate holds per thread: a chunk that silences numpy's floating-point
warnings enters it itself, in whichever thread runs it. A chunk writes its
results into arrays the caller allocated; its own scratch is freed when it
ends. A chunk calls nothing the benchmark's tracer wraps (the layer functions
as cli sees them), since a tracer keeps one span stack, for the calling
thread. No pool task waits for another, so callers in several threads share
the pools without deadlock.
"""

from __future__ import annotations

import os
import threading

_MAX_WORKERS = 4
# 64 frames of the default 100 x 256 grid per worker; it sizes echo synthesis's
# chunks and simulate's blocks. Measured on a 2-core host when the Range-Doppler
# maps still split by it, the maps plus their folding at 2 workers against 1: on
# idle cores 0.72x at 16 frames and 0.73x at 400; right after a 512 x 512 float32
# matrix product, whose OpenBLAS threads keep spinning on the other core for a
# while (as after LSTM training), 1.05x at 16-64 frames, 1.00x at 128 and 0.93x
# at 400. A 40-frame capture classified after training, threaded, read +2%
# verdict time end to end.
_MIN_CHUNK_ELEMENTS = 64 * 100 * 256

_pools: dict = {}  # ThreadPoolExecutor by thread count
_pools_lock = threading.Lock()


def worker_count() -> int:
    """Cores this process may run on, at most _MAX_WORKERS."""
    if not hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return min(os.cpu_count() or 1, _MAX_WORKERS)
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS)


def split_frames(frame_elements: int) -> int:
    """The fewest frames of frame_elements elements that run_chunks splits over every worker."""
    return -(-worker_count() * _MIN_CHUNK_ELEMENTS // frame_elements)


def _pool(threads: int):
    # Imported here: concurrent.futures pulls in logging, ~6 ms and 0.6 MiB that
    # track, identify and a run whose captures all stay serial never need.
    from concurrent.futures import ThreadPoolExecutor

    with _pools_lock:
        if threads not in _pools:
            _pools[threads] = ThreadPoolExecutor(threads, "rotorsense-chunk")
        return _pools[threads]


def run_chunks(work, n_frames: int, frame_elements: int) -> None:
    """Calls work(start, stop) on contiguous chunks that cover frames 0..n_frames - 1.

    Every chunk has finished when this returns or raises. If chunks raised, the
    exception of the first chunk in frame order propagates unchanged; a chunk
    that stops at its first bad frame thus reports the capture's first one.
    """
    workers = max(1, min(worker_count(), n_frames * frame_elements // _MIN_CHUNK_ELEMENTS))
    if workers == 1:
        work(0, n_frames)
        return
    bounds = [n_frames * i // workers for i in range(workers + 1)]
    pool = _pool(workers - 1)
    futures = [pool.submit(work, start, stop) for start, stop in zip(bounds[1:-1], bounds[2:])]
    try:
        work(bounds[0], bounds[1])
    finally:
        for future in futures:
            future.exception()  # waits without raising
    for future in futures:
        future.result()
