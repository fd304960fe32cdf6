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

Folding results of every range bin of every frame of a capture form the
range-time folding map that the tracker consumes. build_folding_map folds a
magnitude cube, or a capture's cubes one after another as its caller makes
them: frame_runs cuts a capture into runs of about 1 MiB of maps, and each
run's maps (rdmap.process_frames) are folded before the next run's are made,
so the capture's maps are never held together. Each cube is folded by one
fold_columns call, so a run's size also keeps each size's passes over its
maps in cache. The map's bytes do not depend on the runs: each frame is
folded as if alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ValidationError

J_MIN, J_MAX = 2, 20  # the folding sizes every map and segment filter traverses
# Maps per run of frame_runs, and so per fold_columns call, by bytes: 5 frames of
# the default 256 x 100 map. On 400 such frames (2-core host, 2 MiB L2) folding
# took 69 ms at 1 frame per fold_columns call, 48-50 ms at 4-6 and 70-74 ms at 16
# or more.
_BLOCK_BYTES = 1 << 20
# Rows kept per frame. On the 400-frame long capture of perfbench and the three
# demo scenes, every frame's tracked bin ranked among its 4 largest folding results.
KEPT_ROWS = 8


class FoldingError(ValidationError):
    """Folding size out of range or a capture without frames."""


@dataclass(frozen=True)
class FoldOutcome:
    """Best folding value over the traversed sizes for one Doppler row."""

    folding_result: float
    best_folding_size: int
    sizes: np.ndarray       # traversed folding sizes
    per_size_values: np.ndarray


@dataclass(frozen=True)
class FoldingMap:
    """Folding results over range bins x frames, and each frame's best-folding rows.

    kept is (bins, rows): per frame the KEPT_ROWS range bins of largest folding
    result, [n_frames, k], and the map's Doppler rows there, [n_frames, k,
    n_doppler_bins]. A track follows high folding results, so a diagram reads
    most of its rows from them instead of transforming the frames again
    (rdmap.doppler_rows).
    """

    values: np.ndarray  # [n_range_bins, n_frames]
    kept: tuple[np.ndarray, np.ndarray]


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


def frame_runs(frames) -> list[tuple[int, int]]:
    """The (start, stop) runs of the capture's frames, about _BLOCK_BYTES of maps each,
    whose maps build_folding_map takes one cube at a time, in frame order."""
    if not frames:
        return [(0, 0)]  # process_frames then names the empty capture
    step = max(1, _BLOCK_BYTES // (frames[0].samples.size * 8))
    return [(t, min(t + step, len(frames))) for t in range(0, len(frames), step)]


def _fold_cube(cube) -> tuple:
    """Folding results [frames, range bins] of a cube [frames, range bins, Doppler bins],
    with each frame's kept bins and rows.

    One fold_columns call along the Doppler axis of the maps' Doppler-major
    view, the layout rdmap.process_frames writes, so a process_frames cube
    needs no copy: by its slab order each frame is folded as if alone.
    """
    maps = np.asarray(cube, dtype=float).transpose(0, 2, 1)
    values = fold_columns(maps, axis=1)[1].max(axis=0)
    k = min(KEPT_ROWS, values.shape[1])
    bins = np.argpartition(values, -k, axis=1)[:, -k:]
    rows = np.take_along_axis(maps, bins[:, None, :], axis=2).transpose(0, 2, 1)
    return values, bins, np.ascontiguousarray(rows)


def build_folding_map(maps) -> FoldingMap:
    """Fold every Doppler row of every frame's Range-Doppler map.

    maps is a magnitude cube [frames, range bins, Doppler bins], or an iterable
    of such cubes that hold consecutive frames in frame order, such as
    rdmap.process_frames of each of frame_runs. values[r, t] is the
    folding result of range bin r in frame t over J_MIN..J_MAX.

    Each cube is folded as it is drawn, so a generator that makes each cube
    as it is drawn holds one cube at a time.
    """
    cubes = [maps] if isinstance(maps, np.ndarray) else maps
    folded = [part for part in map(_fold_cube, cubes) if len(part[0])]
    if not folded:
        raise FoldingError("no Range-Doppler maps given")
    values, bins, rows = (np.concatenate(field) for field in zip(*folded))
    return FoldingMap(np.ascontiguousarray(values.T), (bins, rows))
