"""Walkthrough: Doppler-time segments and the LSTM detector, desk scale.

Generates a small balanced corpus of UAV and distractor captures, preprocesses
each into one aligned 3.6 s Doppler-time segment with the same recipe as
`rotorsense dataset gen` (DC removal, feature alignment, folding filter),
trains the two-layer LSTM briefly and reports the held-out confusion metrics.
It runs in about ten seconds on a 2-core machine; the full acceptance
experiment uses 200 + 200 segments.

Run: python demos/04_identification.py
"""

import numpy as np

from rotorsense import RadarConfig
from rotorsense.cli import background_threshold, scene_segment
from rotorsense.identify import LABELS, classify, segment_batch, segment_window_frames
from rotorsense.lstm import LstmDetector, lstm_train
from rotorsense import scenarios

radar = RadarConfig()
window = segment_window_frames(radar)
rng = np.random.default_rng(2024)

print(f"segment window: {window} frames = {window * radar.frame_duration_s:.1f} s")

print("calibrating the folding threshold from a noise-only capture ...")
threshold = background_threshold(radar, window, seed=1)
print(f"threshold (noise mean + 5 sigma): {threshold:.2f}")


print("synthesizing 18 UAV + 18 distractor captures ...")
segments = []
for i in range(18):
    segments.append(scene_segment(scenarios.sample_uav_scene(rng), radar, window, threshold))
    segments.append(scene_segment(scenarios.sample_distractor_scene(rng), radar, window,
                                  threshold))

passed = sum(s.passed_filter for s in segments)
print(f"{passed}/{len(segments)} segments pass the folding filter "
      "(strong blobs legitimately pass; the detector must reject them)")

order = rng.permutation(len(segments))
split = int(0.7 * len(segments))
train_idx, test_idx = order[:split], order[split:]
x = segment_batch(segments)
y = np.array([LABELS.index(segments[i].label) for i in range(len(segments))])

print("training the detector (two stacked recurrent layers, hidden 128) ...")
detector = LstmDetector(input_dim=x.shape[2], seed=0)
_, history = lstm_train(detector, x[train_idx], y[train_idx], epochs=40,
                        batch_size=10, learning_rate=5e-5, rng_seed=0)
print(f"train loss: {history[0]['train_loss']:.3f} -> {history[-1]['train_loss']:.3f}")

labels, metrics = classify(detector, [segments[i] for i in test_idx])
print("\nheld-out metrics:")
for key in ("accuracy", "precision", "recall", "f1"):
    print(f"  {key:9s}: {metrics[key]:.3f}")
print("(a desk-scale taste; the acceptance suite runs 200+200 segments)")
