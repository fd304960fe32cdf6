import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotorsense.folding import build_folding_map, folding_result
from rotorsense.identify import (LABELS, SEGMENT_MAGIC, IdentifyError,
                                 Segment, binary_metrics, calibrate_threshold, classify,
                                 dc_removal, diagram_at_bins, feature_alignment,
                                 load_segments, noise_window_max_folds, normalize_segment,
                                 save_segments, segment_batch, segment_split_filter,
                                 segment_window_frames)
from rotorsense.lstm import LstmDetector
from rotorsense.rdmap import dc_bin, process_frames
from rotorsense.tracking import Track, dp_max_path, motion_bins
from rotorsense.echo import frame_mid_times
from rotorsense import scenarios

from conftest import UAV_RANGE_BIN

L = 100
DC = 50


def diagram_of(columns):
    return np.asarray(columns, dtype=float)


def comb_column(center, spacing=5, amp=3.0, base=0.1):
    col = np.full(L, base)
    for k in range(-(center // spacing), (L - 1 - center) // spacing + 1):
        col[center + k * spacing] = amp
    col[center] = amp * 2  # body peak
    return col


# --- extraction ----------------------------------------------------------------

def test_single_frame_track_single_column(hover_capture):
    _, _, cube, fmap, _ = hover_capture
    track = Track(range_bins=np.array([UAV_RANGE_BIN]), ranges_m=np.array([48.0]),
                  scores=np.array([1.0]), k_bins=1, frame_times=np.array([0.045]))
    diagram = diagram_at_bins(cube[:1], track.range_bins)
    assert diagram.shape == (1, 100)
    assert np.array_equal(diagram[0], cube[0, UAV_RANGE_BIN])


def test_extract_length_mismatch_errors(hover_capture):
    _, _, cube, _, _ = hover_capture
    track = Track(range_bins=np.array([UAV_RANGE_BIN]), ranges_m=np.array([48.0]),
                  scores=np.array([1.0]), k_bins=1, frame_times=np.array([0.045]))
    with pytest.raises(IdentifyError, match="does not match"):
        diagram_at_bins(cube[:3], track.range_bins)


def test_tracked_hover_columns_carry_comb(hover_capture, radar):
    _, _, cube, fmap, _ = hover_capture
    track = dp_max_path(fmap.values, motion_bins(radar, 4.0), radar.range_bin_size_m,
                        frame_mid_times(radar, fmap.values.shape[1]))
    diagram = diagram_at_bins(cube, track.range_bins)
    noise_fold = np.median(fmap.values[UAV_RANGE_BIN + 40])
    for col in diagram:
        assert folding_result(col).folding_result > 5 * noise_fold


def test_off_by_one_bin_keeps_attenuated_comb(radar):
    """Tracking error of one bin attenuates the comb without losing it.

    The target straddles range bins (beat position 131.3) so the neighbor bin
    still receives leakage; a dead-centered target would null it out.
    """
    from rotorsense import synthesize_frames
    range_m = 131.3 * radar.range_bin_size_m
    scene = scenarios.hover_scene(range_m, seed=6)
    cube = process_frames(synthesize_frames(scene, radar, 10))
    on = diagram_at_bins(cube, [131] * 10)
    off = diagram_at_bins(cube, [132] * 10)
    noise = diagram_at_bins(cube, [171] * 10)
    on_f = np.mean([folding_result(c).folding_result for c in on])
    off_f = np.mean([folding_result(c).folding_result for c in off])
    noise_f = np.mean([folding_result(c).folding_result for c in noise])
    assert off_f < 0.9 * on_f
    assert off_f > 3 * noise_f


# --- DC removal ------------------------------------------------------------------

def test_dc_removal_hover_unchanged_flagged():
    cols = np.stack([comb_column(DC) for _ in range(6)])  # peak parked at DC
    out, subtracted = dc_removal(diagram_of(cols))
    assert np.array_equal(out, cols)
    assert subtracted is None


def test_dc_removal_subtracts_injected_offset():
    # spacing 7 keeps the comb off the DC bin, so DC holds only noise + offset
    rng = np.random.default_rng(0)
    cols = np.stack([comb_column(20, spacing=7) + rng.uniform(0, 0.02, L)
                     for _ in range(10)])
    offset = 1.7
    cols[:, DC] += offset
    before = cols[:, DC].copy()
    out, subtracted = dc_removal(diagram_of(cols))
    reduction = before - out[:, DC]
    # removed amount = offset plus the small DC baseline (0.1 + noise)
    assert np.all(np.abs(reduction - offset) < 0.15)
    assert subtracted is not None


def test_dc_removal_zero_diagram():
    out, _ = dc_removal(diagram_of(np.zeros((4, L))))
    assert np.all(out == 0)


def test_dc_removal_clamps_at_zero():
    cols = np.stack([comb_column(20) for _ in range(4)])
    cols[0, DC] = 0.05
    cols[1:, DC] = 3.0
    out, _ = dc_removal(diagram_of(cols))
    assert np.all(out[:, DC] >= 0.0)


def test_dc_removal_empty_errors():
    with pytest.raises(IdentifyError, match="empty"):
        dc_removal(diagram_of(np.zeros((0, L))))


# --- feature alignment ------------------------------------------------------------

def test_alignment_peak_already_at_dc_unchanged():
    col = comb_column(DC)
    out = feature_alignment(diagram_of(col[None]))
    assert np.array_equal(out[0], col)


def test_alignment_shifts_peak_to_dc_preserving_spacing():
    col = comb_column(DC + 7)
    out = feature_alignment(diagram_of(col[None]))
    shifted = out[0]
    assert int(np.argmax(shifted)) == DC
    peaks = np.flatnonzero(shifted > 2.9)
    src_peaks = np.flatnonzero(col > 2.9)
    kept = src_peaks - 7
    kept = kept[(kept >= 0) & (kept < L)]
    assert np.array_equal(peaks, kept)
    assert np.all(np.diff(peaks) % 5 == 0)


def test_alignment_all_equal_column_unchanged():
    col = np.full(L, 2.0)
    out = feature_alignment(diagram_of(col[None]))
    assert np.array_equal(out[0], col)


def test_alignment_vacated_bins_taper_to_zero():
    col = np.zeros(L)
    col[DC - 10] = 5.0
    col[0] = 1.0  # edge value that gets tapered into the vacated region
    out = feature_alignment(diagram_of(col[None]))
    shifted = out[0]
    assert int(np.argmax(shifted)) == DC
    fill = shifted[:10]
    assert fill[0] < fill[-1] < 1.0
    assert np.all(np.diff(fill) >= 0)


def test_alignment_argmax_always_dc_random_columns():
    rng = np.random.default_rng(1)
    cols = rng.uniform(0.0, 4.0, (200, L))
    out = feature_alignment(diagram_of(cols))
    for col in out:
        assert col[DC] == col.max()


# --- segmentation ------------------------------------------------------------------

def test_segment_split_counts():
    cols = np.stack([comb_column(DC) for _ in range(80)])
    times = np.arange(80.0)
    segments = segment_split_filter(diagram_of(cols), times, 40, threshold=0.0)
    assert len(segments) == 2
    assert segments[0].values.shape == (40, L)
    assert segment_split_filter(diagram_of(cols[:39]), times, 40, 0.0) == []
    with pytest.raises(IdentifyError, match=">= 2"):
        segment_split_filter(diagram_of(cols), times, 1, 0.0)


def test_segment_filter_thresholding(radar):
    rng = np.random.default_rng(2)
    noise_cols = np.abs(rng.normal(size=(120, L)))
    noise_diagram = diagram_of(noise_cols)
    times = np.arange(120.0)
    noise_segments = segment_split_filter(noise_diagram, times, 40, threshold=0.0)
    threshold = calibrate_threshold([s.max_folding_result for s in noise_segments])
    fresh = np.abs(rng.normal(size=(80, L)))
    filtered = segment_split_filter(diagram_of(fresh), times, 40, threshold)
    assert sum(s.passed_filter for s in filtered) == 0
    comb_cols = np.stack([comb_column(DC) for _ in range(80)])
    passed = segment_split_filter(diagram_of(comb_cols), times, 40, threshold)
    assert all(s.passed_filter for s in passed)
    for cols, segments in ((noise_cols, noise_segments), (fresh, filtered),
                           (comb_cols, passed)):
        for k, seg in enumerate(segments):
            per_column = [folding_result(col).folding_result
                          for col in cols[40 * k:40 * (k + 1)]]
            assert seg.max_folding_result == max(per_column)


def test_uav_capture_segments_pass(hover_capture, radar):
    _, _, cube, fmap, truth = hover_capture
    window = segment_window_frames(radar)
    assert window == 40
    noise = noise_window_max_folds(fmap.values, window, exclude_bins=[UAV_RANGE_BIN])
    threshold = calibrate_threshold(noise)
    diagram, _ = dc_removal(diagram_at_bins(cube, [UAV_RANGE_BIN] * 40))
    segments = segment_split_filter(feature_alignment(diagram), np.arange(40), window,
                                    threshold)
    assert len(segments) == 1
    assert all(s.passed_filter for s in segments)


def test_calibrate_threshold_formula():
    vals = np.array([1.0, 2.0, 3.0])
    assert calibrate_threshold(vals) == pytest.approx(
        vals.mean() + 5.0 * vals.std())
    with pytest.raises(IdentifyError):
        calibrate_threshold([])


# --- metrics -----------------------------------------------------------------------

def test_metrics_all_correct():
    m = binary_metrics(tp=4, fp=0, fn=0, tn=6)
    assert m["accuracy"] == m["precision"] == m["recall"] == m["f1"] == 1.0


def test_metrics_worked_example():
    m = binary_metrics(tp=3, fp=1, fn=1, tn=5)
    assert m["accuracy"] == 0.8
    assert m["precision"] == 0.75
    assert m["recall"] == 0.75
    assert m["f1"] == 0.75


def test_metrics_degenerate_all_negative():
    m = binary_metrics(tp=0, fp=0, fn=3, tn=5)
    assert m["precision"] == 0.0
    assert "precision_undefined" in m["flags"]
    assert m["f1"] == 0.0
    with pytest.raises(IdentifyError, match="empty"):
        binary_metrics(0, 0, 0, 0)


def test_classify_labels_and_metrics():
    det = LstmDetector(input_dim=L, hidden_size=4, seed=0)
    rng = np.random.default_rng(3)
    segments = [Segment(values=rng.uniform(0, 1, (6, L)), label=lab)
                for lab in ("uav", "other", "uav", "unlabeled")]
    labels, metrics = classify(det, segments)
    assert len(labels) == 4 and set(labels) <= {"uav", "other"}
    assert metrics is not None
    assert metrics["tp"] + metrics["fp"] + metrics["fn"] + metrics["tn"] == 3
    with pytest.raises(IdentifyError, match="no segments"):
        classify(det, [])


class StubDetector:
    """forward_batch scores whose argmax is the given class index per segment."""

    def __init__(self, predictions):
        self.predictions = predictions

    def forward_batch(self, batch):
        assert batch.shape[0] == len(self.predictions)
        return np.eye(len(LABELS))[self.predictions]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("uav", "other", "unlabeled")),
                          st.sampled_from((0, 1))), min_size=1, max_size=30))
def test_classify_counts_match_per_segment_loop(cases):
    segments = [Segment(values=np.ones((3, 4)), label=label) for label, _ in cases]
    predictions = [pred for _, pred in cases]
    labels, metrics = classify(StubDetector(predictions), segments)
    assert labels == [LABELS[pred] for pred in predictions]
    counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for label, pred in cases:
        if label not in LABELS:
            continue
        truth = LABELS.index(label)
        if truth == 1 and pred == 1:
            counts["tp"] += 1
        elif truth == 0 and pred == 1:
            counts["fp"] += 1
        elif truth == 1 and pred == 0:
            counts["fn"] += 1
        else:
            counts["tn"] += 1
    if sum(counts.values()) == 0:
        assert metrics is None
    else:
        assert {key: metrics[key] for key in counts} == counts
        assert all(type(metrics[key]) is int for key in counts)


def test_normalize_segment():
    seg = np.array([[0.0, 2.0], [4.0, 1.0]])
    out = normalize_segment(seg)
    assert out.max() == 1.0
    assert np.array_equal(normalize_segment(np.zeros((2, 2))), np.zeros((2, 2)))


# --- dataset file --------------------------------------------------------------------

def test_segment_file_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    segments = [
        Segment(values=rng.uniform(0, 5, (8, 12)).astype(np.float32).astype(float),
                label="uav", max_folding_result=3.5, passed_filter=True,
                provenance={"scene": "uav", "window": 0}),
        Segment(values=rng.uniform(0, 5, (8, 12)).astype(np.float32).astype(float),
                label="other", max_folding_result=0.5, passed_filter=False,
                provenance={"scene": "static-blob"}),
    ]
    path = tmp_path / "segments.bin"
    save_segments(path, segments)
    loaded = load_segments(path)
    assert len(loaded) == 2
    for orig, back in zip(segments, loaded):
        assert np.array_equal(back.values, orig.values)
        assert back.label == orig.label
        assert back.passed_filter == orig.passed_filter
        assert back.provenance == orig.provenance


def test_segment_file_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTSEG\n\x01\x00\x00\x00")
    with pytest.raises(IdentifyError, match="magic"):
        load_segments(path)


def test_segment_file_truncated(tmp_path):
    seg = Segment(values=np.ones((4, 6)))
    path = tmp_path / "trunc.bin"
    save_segments(path, [seg])
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(IdentifyError, match="truncated"):
        load_segments(path)
    path.write_bytes(data[:len(SEGMENT_MAGIC)])
    with pytest.raises(IdentifyError, match="truncated"):
        load_segments(path)


def test_segment_file_record_larger_than_the_file(tmp_path):
    """W * L beyond the file's end is a truncated payload, whatever its size."""
    save_segments(tmp_path / "one.bin", [Segment(values=np.ones((4, 6)))])
    data = (tmp_path / "one.bin").read_bytes()
    start = len(SEGMENT_MAGIC) + 4  # the first record's header length
    header_len = int.from_bytes(data[start:start + 4], "little")
    header = data[start + 4:start + 4 + header_len]
    for w in (5, 10**30):
        bigger = header.replace(b'"W": 4', b'"W": %d' % w)
        (tmp_path / "big.bin").write_bytes(data[:start] + len(bigger).to_bytes(4, "little")
                                           + bigger + data[start + 4 + header_len:])
        with pytest.raises(IdentifyError, match="truncated dataset record payload"):
            load_segments(tmp_path / "big.bin")


def test_segment_batch_rejects_mixed_shapes():
    with pytest.raises(IdentifyError, match=r"different shapes \[\(4, 6\), \(5, 6\)\]"):
        segment_batch([Segment(values=np.ones((5, 6))), Segment(values=np.ones((4, 6)))])


def test_noise_window_of_zero_frames_errors():
    with pytest.raises(IdentifyError, match="window_frames 0 must be >= 1"):
        noise_window_max_folds(np.ones((8, 10)), 0)
