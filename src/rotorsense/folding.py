"""Spectrum folding: periodicity scores for Doppler rows, and their range-time map.

Folding a length-L Doppler row with size j reshapes the first M*j entries
(M = floor(L/j)) into an M x j matrix and takes the largest column mean. When
the row carries a peak comb whose spacing equals j bins, the peaks stack in
one column and the folding value jumps; for any other j the column means stay
near the row average. The folding result is the best folding value over a
fixed size range (default 2..20), with ties broken toward the smallest size,
i.e. the fundamental period rather than its multiples.

Leftover entries beyond M*j are dropped. Rows are folded as-is, including the
DC bin; DC handling belongs to the identification preprocessing.

Folding results of every range bin of every frame of a magnitude cube form the
range-time folding map that the tracker consumes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class FoldingError(ValueError):
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
    """Folding results over range bins x frames, plus the winning sizes."""

    values: np.ndarray      # [n_range_bins, n_frames]
    best_sizes: np.ndarray  # [n_range_bins, n_frames]
    frame_times: np.ndarray

    @property
    def n_range_bins(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def _check_size(length: int, j: int) -> int:
    if j < 2:
        raise FoldingError(f"folding size {j} < 2")
    m = length // j
    if m < 2:
        raise FoldingError(f"folding size {j} leaves {m} < 2 rows for length {length}")
    return m


def _column_sums(rows: np.ndarray, j: int):
    """Column sums of the folded [M, j] view, batched over leading axis.

    Rows are accumulated one by one so each column sum is the plain
    left-to-right float sum of its entries; folding_value is therefore
    bit-identical to a naive per-entry loop.
    """
    m = rows.shape[-1] // j
    cols = rows[..., :m * j].reshape(rows.shape[:-1] + (m, j))
    sums = cols[..., 0, :].copy()
    for i in range(1, m):
        sums += cols[..., i, :]
    return sums, m


def folding_value(d: np.ndarray, j: int) -> float:
    """Largest column mean of the row folded with size j."""
    d = np.asarray(d, dtype=float)
    m = _check_size(d.shape[0], j)
    sums, _ = _column_sums(d, j)
    return float(sums.max() / m)


def _size_range(length: int, j_min: int, j_max: int) -> np.ndarray:
    if j_min < 2:
        raise FoldingError(f"j_min {j_min} < 2")
    capped = min(j_max, length // 2)  # keeps at least 2 folded rows
    if capped < j_min:
        raise FoldingError(f"empty folding size range [{j_min}, {j_max}] for length {length}")
    return np.arange(j_min, capped + 1)


def folding_result(d: np.ndarray, j_min: int = 2, j_max: int = 20) -> FoldOutcome:
    """Best folding value over sizes [j_min, j_max]; smallest size wins ties."""
    d = np.asarray(d, dtype=float)
    sizes = _size_range(d.shape[0], j_min, j_max)
    values = np.empty(sizes.shape[0])
    for i, j in enumerate(sizes):
        values[i] = folding_value(d, int(j))
    best = int(np.argmax(values))  # first max == smallest size
    return FoldOutcome(folding_result=float(values[best]),
                       best_folding_size=int(sizes[best]),
                       sizes=sizes, per_size_values=values)


def build_folding_map(cube, j_min: int = 2, j_max: int = 20,
                      frame_times=None) -> FoldingMap:
    """Fold every Doppler row of a magnitude cube [frames, range bins, Doppler bins].

    values[r, t] is the folding result of range bin r in frame t; best_sizes
    holds the winning folding size. frame_times defaults to the frame
    positions 0, 1, 2, ...
    """
    cube = np.asarray(cube, dtype=float)
    if cube.size == 0:
        raise FoldingError("no Range-Doppler maps given")
    n_t, n_r, n_l = cube.shape
    sizes = _size_range(n_l, j_min, j_max)

    values = np.empty((n_r, n_t))
    best = np.empty((n_r, n_t), dtype=int)
    per_size = np.empty((sizes.shape[0], n_r))
    for t in range(n_t):
        for i, j in enumerate(sizes):
            sums, m_rows = _column_sums(cube[t], int(j))
            per_size[i] = sums.max(axis=-1) / m_rows
        idx = np.argmax(per_size, axis=0)
        values[:, t] = per_size[idx, np.arange(n_r)]
        best[:, t] = sizes[idx]

    if frame_times is None:
        frame_times = np.arange(n_t)
    return FoldingMap(values=values, best_sizes=best,
                      frame_times=np.asarray(frame_times, dtype=float))


def folding_map_to_csv(fmap: FoldingMap, path) -> None:
    """Matrix dump; header row carries the frame timestamps."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["range_bin"] + [repr(float(t)) for t in fmap.frame_times])
        for r in range(fmap.n_range_bins):
            writer.writerow([r] + [repr(float(v)) for v in fmap.values[r]])
