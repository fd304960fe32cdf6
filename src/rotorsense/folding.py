"""Spectrum folding: periodicity scores for Doppler rows, and their range-time map.

Folding a length-L Doppler row with size j reshapes the first M*j entries
(M = floor(L/j)) into an M x j matrix and takes the largest column mean. When
the row carries a peak comb whose spacing equals j bins, the peaks stack in
one column and the folding value jumps; for any other j the column means stay
near the row average. The folding result is the best folding value over the
method's fixed size range J_MIN..J_MAX = 2..20, with ties broken toward the
smallest size, i.e. the fundamental period rather than its multiples.

Leftover entries beyond M*j are dropped. Rows are folded as-is, including the
DC bin; DC handling belongs to the identification preprocessing.

Every folding value comes from one kernel, fold_columns. It takes rows with
the fold (Doppler) axis first, [L, ...], or at a given axis, and folds all
their columns at once: per size j it adds the M slabs of the folded rows one
after another, first to last. Each column sum is therefore the plain
left-to-right float sum of its entries, so a batched value is bit-identical to
folding one row alone and to a naive per-entry loop.

Folding results of every range bin of every frame of a magnitude cube form the
range-time folding map that the tracker consumes; the cube is folded a block
of frames at a time, each block about 1 MiB. Like rdmap.process_frames,
build_folding_map splits the frames into contiguous chunks, one per core the
process may run on (at most 4), through workers.run_chunks, and only as far as
each worker gets 64 frames of the default 100 x 256 map: below that a 2-core
host gained nothing once LSTM training had left its BLAS threads spinning
(workers._MIN_CHUNK_ELEMENTS holds the measurement). Each chunk folds its own
blocks, and the map's bytes do not depend on the split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ValidationError
from .workers import run_chunks

J_MIN, J_MAX = 2, 20  # the folding sizes every map and segment filter traverses
# Frames per fold_columns call in build_folding_map, by bytes: 5 frames of the
# default 256 x 100 map. On 400 such frames (2-core host, 2 MiB L2) the map took
# 69 ms at 1 frame per call, 48-50 ms at 4-6 and 70-74 ms at 16 or more.
_BLOCK_BYTES = 1 << 20


class FoldingError(ValidationError):
    """Folding size out of range or an empty magnitude cube."""


@dataclass(frozen=True)
class FoldOutcome:
    """Best folding value over the traversed sizes for one Doppler row."""

    folding_result: float
    best_folding_size: int
    sizes: np.ndarray       # traversed folding sizes
    per_size_values: np.ndarray


@dataclass(frozen=True)
class FoldingMap:
    """Folding results over range bins x frames."""

    values: np.ndarray  # [n_range_bins, n_frames]


def _size_range(length: int, j_min: int, j_max: int) -> np.ndarray:
    if j_min < 2:
        raise FoldingError(f"j_min {j_min} < 2")
    capped = min(j_max, length // 2)  # keeps at least 2 folded rows
    if capped < j_min:
        raise FoldingError(f"empty folding size range [{j_min}, {j_max}]: length {length} "
                           "leaves fewer than 2 rows")
    return np.arange(j_min, capped + 1)


def fold_columns(rows, j_min: int = J_MIN, j_max: int = J_MAX, axis: int = 0):
    """Folding values of every column of rows along `axis` at each size in [j_min, j_max].

    The rows hold the fold (Doppler) axis at `axis`, first by default: [L, ...].
    Returns (sizes, values): values[i] is the folding value of each column at
    sizes[i], shaped like rows without the fold axis. The reduction runs over
    the slab axis, whose stride always exceeds that of the j axis, so numpy
    adds whole slabs elementwise in slab order for any layout and never sums a
    column pairwise. The rows are made C-contiguous first only for speed: each
    slab is then one block of memory per leading index, and a strided input
    folds several times slower.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    axis = range(rows.ndim)[axis]  # a negative axis counts from the last
    lead, length, rest = rows.shape[:axis], rows.shape[axis], rows.shape[axis + 1:]
    sizes = _size_range(length, j_min, j_max)
    values = np.empty(sizes.shape + lead + rest)
    for i, j in enumerate(sizes):
        m = length // j
        slabs = rows[(slice(None),) * axis + (slice(m * j),)].reshape(lead + (m, j) + rest)
        values[i] = np.add.reduce(slabs, axis=axis).max(axis=axis) / m
    return sizes, values


def folding_value(d: np.ndarray, j: int) -> float:
    """Largest column mean of the row folded with size j."""
    return float(fold_columns(d, j, j)[1][0])


def folding_result(d: np.ndarray, j_min: int = J_MIN, j_max: int = J_MAX) -> FoldOutcome:
    """Best folding value over sizes [j_min, j_max]; smallest size wins ties."""
    sizes, values = fold_columns(d, j_min, j_max)
    best = int(np.argmax(values))  # first max == smallest size
    return FoldOutcome(folding_result=float(values[best]),
                       best_folding_size=int(sizes[best]),
                       sizes=sizes, per_size_values=values)


def build_folding_map(cube) -> FoldingMap:
    """Fold every Doppler row of a magnitude cube [frames, range bins, Doppler bins].

    values[r, t] is the folding result of range bin r in frame t over J_MIN..J_MAX.

    The frames are folded a block at a time: one fold_columns call along axis
    1 of the block [frames, Doppler bins, range bins], by its slab order as if
    each frame were folded alone. A block holds about _BLOCK_BYTES of maps, so
    each size's passes over it stay in cache while the per-call cost is shared
    by several frames. For the cube rdmap.process_frames returns, whose frames
    are stored Doppler-major, a block is a contiguous view and needs no copy.
    Chunks of frames fold in parallel (workers.run_chunks), each a block at a
    time from its first frame.
    """
    cube = np.asarray(cube, dtype=float)
    if cube.size == 0:
        raise FoldingError("no Range-Doppler maps given")
    n_t, n_r, _ = cube.shape
    step = max(1, _BLOCK_BYTES // cube[0].nbytes)

    values = np.empty((n_r, n_t))

    def fold(start: int, stop: int) -> None:
        for t in range(start, stop, step):
            block = cube[t:min(t + step, stop)].transpose(0, 2, 1)
            values[:, t:t + len(block)] = fold_columns(block, axis=1)[1].max(axis=0).T

    run_chunks(fold, n_t, cube[0].size)
    return FoldingMap(values)
