"""Doppler-time diagrams, their preprocessing, segmentation and classification.

The Doppler rows of a magnitude cube at the tracked range bins, one per
frame, form a Doppler-time diagram: a plain [frames, Doppler bins] array.
Before classification the diagram is normalized in two steps:

DC removal     -- frames whose global peak sits away from the zero-Doppler bin
                  carry no body return at DC, so their DC bins estimate the DC
                  noise floor; that average is subtracted from every frame's
                  DC bin (clamped at zero) and returned with the diagram. If
                  no frame qualifies (hover: the body peak is at DC
                  everywhere) nothing is subtracted and None is returned.
feature align  -- each row is shifted by s bins so its body-velocity peak
                  (the global maximum; of equal maxima the one nearest DC,
                  then the lower bin) lands exactly on the DC bin, stripping
                  the body-velocity dependence. A vacated bin gap places
                  past the surviving edge holds that edge value times
                  (m - gap) / m, m = |s| + 1: a linear taper down towards
                  zero. Peak-to-peak comb spacings survive the shift unchanged.

The diagram is then cut into fixed-length windows (3.6 s worth of frames),
each a Segment, and windows whose maximum per-column folding result stays
below a threshold are flagged as featureless. segment_batch stacks segments,
each max-normalized in its own dtype, into the LSTM's [segments, frames,
Doppler bins] input. Dataset records stay float32: a float32 quotient equals
the float64 one rounded to float32, so widening them would change no bit.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import RadarConfig, ValidationError, json_document, json_field
from .folding import fold_columns
from .lstm import LstmDetector
from .rdmap import dc_bin

LABELS = ("other", "uav")  # class index order; "uav" is the positive class

SEGMENT_SECONDS = 3.6
DC_EPSILON_BINS = 2     # a frame's peak farther than this from DC qualifies
THRESHOLD_SIGMAS = 5.0  # calibrated threshold = mean + 5 sigma of noise maxima
GUARD_BINS = 4          # range bins masked on each side of an excluded bin
SEGMENT_MAGIC = b"RSSEG1\n"
SEGMENT_SCHEMA_VERSION = 1


class IdentifyError(ValidationError):
    """Identification precondition violated."""


@dataclass
class Segment:
    """Fixed-length window of a Doppler-time diagram."""

    values: np.ndarray  # [window frames, doppler bins]
    label: str = "unlabeled"
    max_folding_result: float = 0.0
    passed_filter: bool = True
    provenance: dict = field(default_factory=dict)


def segment_window_frames(radar: RadarConfig) -> int:
    return int(round(SEGMENT_SECONDS / radar.frame_duration_s))


def diagram_at_bins(cube, range_bins) -> np.ndarray:
    """Row t of the [F, L] diagram is the Doppler row of frame t of the magnitude
    cube at range_bins[t]; the bins come from a track or from simulation truth."""
    cube = np.asarray(cube, dtype=float)
    bins = np.array(range_bins, dtype=int)
    n_frames, n_range = cube.shape[:2]
    if n_frames != bins.shape[0]:
        raise IdentifyError(f"bin count {bins.shape[0]} does not match {n_frames} frames")
    if np.any((bins < 0) | (bins >= n_range)):
        raise IdentifyError(f"range bin out of bounds [0, {n_range})")
    return cube[np.arange(n_frames), bins]


def dc_removal(diagram) -> tuple[np.ndarray, float | None]:
    """Subtract the qualifying-frame mean from every DC bin, clamped at zero.

    A frame qualifies when its global argmax lies more than DC_EPSILON_BINS
    away from the DC bin, i.e. the body-velocity peak is not parked on DC.
    Returns (diagram, subtracted); subtracted is None when no frame qualifies.
    """
    cols = np.array(diagram, dtype=float)
    if cols.shape[0] == 0:
        raise IdentifyError("empty Doppler-time diagram")
    dc = dc_bin(cols.shape[1])
    qualifying = np.abs(np.argmax(cols, axis=1) - dc) > DC_EPSILON_BINS
    if not np.any(qualifying):
        return cols, None
    avg = float(cols[qualifying, dc].mean())
    cols[:, dc] = np.maximum(cols[:, dc] - avg, 0.0)
    return cols, avg


def feature_alignment(diagram) -> np.ndarray:
    """Shift every row of the [F, L] diagram so the body-velocity peak sits on the DC bin."""
    cols = np.array(diagram, dtype=float)
    n_bins = cols.shape[1]
    dc = dc_bin(n_bins)
    bins = np.arange(n_bins)
    # The bins in tie-rule order, nearest DC first and the lower of two alike:
    # a row's peak is the first of its maxima in this order.
    toward_dc = np.argsort(2 * np.abs(bins - dc) + (bins > dc), kind="stable")
    peaks = toward_dc[np.argmax(cols[:, toward_dc], axis=1)]
    for t, shift in enumerate(dc - peaks):
        # Bin b copies b - shift; off the map, the surviving edge times (m - gap) / m.
        src = bins - shift
        kept = src.clip(0, n_bins - 1)
        m = abs(shift) + 1
        cols[t] = cols[t, kept] * ((m - np.abs(src - kept)) / m)
    return cols


def segment_split_filter(diagram, frame_times, window_frames: int,
                         threshold: float) -> list[Segment]:
    """Cut the [F, L] diagram into non-overlapping windows; flag windows below the
    folding threshold. frame_times[t] is frame t's time, recorded as each window's start.

    The tail remainder shorter than one window is dropped. Returns [] when the
    diagram is shorter than one window.
    """
    if window_frames < 2:
        raise IdentifyError("window_frames must be >= 2")
    n_win = len(diagram) // window_frames
    blocks = diagram[:n_win * window_frames].reshape(n_win, window_frames, diagram.shape[1])
    # One [L, windows, frames] fold; by its slab order as if each window were folded alone.
    max_folds = fold_columns(blocks.transpose(2, 0, 1))[1].max(axis=(0, 2))
    return [Segment(values=block.copy(), max_folding_result=float(max_fold),
                    passed_filter=bool(max_fold >= threshold),
                    provenance={"window": k,
                                "start_time_s": float(frame_times[k * window_frames])})
            for k, (block, max_fold) in enumerate(zip(blocks, max_folds))]


def calibrate_threshold(noise_max_folds) -> float:
    """Threshold = mean + THRESHOLD_SIGMAS * std of noise-only segment max folding results."""
    vals = np.asarray(noise_max_folds, dtype=float)
    if vals.size == 0:
        raise IdentifyError("no noise folding samples to calibrate from")
    return float(vals.mean() + THRESHOLD_SIGMAS * vals.std())


def noise_window_max_folds(values, window_frames: int, exclude_bins=None) -> np.ndarray:
    """Noise-only per-window maxima of a folding map [R, T], for threshold calibration.

    exclude_bins (e.g. a track) masks those bins plus GUARD_BINS on each side.
    """
    if window_frames < 1:  # a frame longer than two segments rounds the window to 0
        raise IdentifyError(f"window_frames {window_frames} must be >= 1")
    excluded = np.asarray([] if exclude_bins is None else exclude_bins, dtype=int)
    keep = np.all(np.abs(np.arange(values.shape[0])[:, None] - excluded) > GUARD_BINS, axis=1)
    rows = values[keep]
    n_win = values.shape[1] // window_frames
    if n_win == 0 or rows.shape[0] == 0:
        raise IdentifyError("not enough noise-only data to calibrate a threshold")
    trimmed = rows[:, :n_win * window_frames].reshape(rows.shape[0], n_win, window_frames)
    return trimmed.max(axis=2).ravel()


def normalize_segment(values: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(values)))
    return values / peak if peak > 0 else values.copy()


def segment_batch(segments) -> np.ndarray:
    """The LSTM input [n, W, L]: the segments' values, each max-normalized."""
    shapes = sorted({s.values.shape for s in segments})
    if len(shapes) > 1:
        raise IdentifyError(f"segments of different shapes {shapes} do not form one batch")
    return np.stack([normalize_segment(s.values) for s in segments])


def training_tensors(segments, source: str) -> tuple[np.ndarray, np.ndarray]:
    """The segments labelled "uav" or "other" as (x [n, W, L], y [n] LABELS indices);
    source names the segments in the error when none is labelled."""
    labeled = [s for s in segments if s.label in LABELS]
    if not labeled:
        raise IdentifyError(f"{source} contains no labeled segments")
    return segment_batch(labeled), np.array([LABELS.index(s.label) for s in labeled])


# --- classification and metrics ----------------------------------------------

def binary_metrics(tp: int, fp: int, fn: int, tn: int) -> dict:
    """Accuracy, precision, recall, F1 from a confusion table.

    Undefined ratios (empty denominator) are reported as 0.0 with a flag
    naming the degenerate quantity.
    """
    total = tp + fp + fn + tn
    if total == 0:
        raise IdentifyError("empty confusion table")
    flags = []
    accuracy = (tp + tn) / total
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, flags = 0.0, flags + ["precision_undefined"]
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, flags = 0.0, flags + ["recall_undefined"]
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, flags = 0.0, flags + ["f1_undefined"]
    out = {"accuracy": accuracy, "precision": precision, "recall": recall,
           "f1": f1, "tp": tp, "fp": fp, "fn": fn, "tn": tn}
    if flags:
        out["flags"] = flags
    return out


def classify(detector: LstmDetector, segments):
    """Predicted labels for the segments, plus metrics where truth is known.

    Returns (labels, metrics); metrics is None unless at least one segment
    carries a known label.
    """
    segments = list(segments)
    if not segments:
        raise IdentifyError("no segments to classify")
    pred = np.argmax(detector.forward_batch(segment_batch(segments)), axis=1)
    labels = [LABELS[i] for i in pred]
    truth = np.array([s.label for s in segments])
    uav, other, said_uav = truth == "uav", truth == "other", pred == LABELS.index("uav")
    if not np.any(uav | other):
        return labels, None
    return labels, binary_metrics(int(np.sum(uav & said_uav)), int(np.sum(other & said_uav)),
                                  int(np.sum(uav & ~said_uav)), int(np.sum(other & ~said_uav)))


# --- dataset file: one record per segment ------------------------------------

def save_segments(path, segments) -> None:
    with open(path, "wb") as fh:
        fh.write(SEGMENT_MAGIC)
        fh.write(struct.pack("<I", SEGMENT_SCHEMA_VERSION))
        for seg in segments:
            values = np.asarray(seg.values, dtype=np.float32)
            header = {
                "W": int(values.shape[0]),
                "L": int(values.shape[1]),
                "label": seg.label,
                "provenance": seg.provenance,
                "max_folding_result": float(seg.max_folding_result),
                "passed_filter": bool(seg.passed_filter),
            }
            blob = json.dumps(header, sort_keys=True).encode()
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(values.tobytes(order="C"))


def load_segments(path) -> list[Segment]:
    segments = []
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(SEGMENT_MAGIC))
        if magic != SEGMENT_MAGIC:
            raise IdentifyError(f"not a segment dataset file: bad magic {magic!r}")
        raw = fh.read(4)
        if len(raw) < 4:
            raise IdentifyError("truncated dataset header: no schema_version")
        (version,) = struct.unpack("<I", raw)
        if version != SEGMENT_SCHEMA_VERSION:
            raise IdentifyError(f"unsupported dataset schema_version {version}")
        while True:
            raw = fh.read(4)
            if not raw:
                break
            if len(raw) < 4:
                raise IdentifyError("truncated dataset record header")
            (hlen,) = struct.unpack("<I", raw)
            record = f"dataset record {len(segments)}"
            header = json_document(fh.read(hlen), f"{record} header", IdentifyError)

            def get(key, kind, *default):
                return json_field(header, key, kind, record, IdentifyError, *default)

            w, l = get("W", "integer"), get("L", "integer")
            for key, n in (("W", w), ("L", l)):
                if n < 1:
                    raise IdentifyError(f"{record} {key} = {n} is not positive")
            if w * l * 4 > size - fh.tell():
                raise IdentifyError("truncated dataset record payload")
            values = np.frombuffer(fh.read(w * l * 4), dtype=np.float32).reshape(w, l)
            if not np.isfinite(values).all():
                raise IdentifyError(f"{record} holds a value that is not finite")
            segments.append(Segment(
                values=values,
                label=get("label", "string", "unlabeled"),
                max_folding_result=get("max_folding_result", "number", 0.0),
                passed_filter=get("passed_filter", "bool", True),
                provenance=get("provenance", "object", {}),
            ))
    return segments
