"""Range-Doppler processing: fast-time FFT, slow-time FFT, magnitude cube.

A frame's Range-Doppler map is a float64 magnitude array [range bins, Doppler
bins]; a capture's maps stack into one cube [frames, range bins, Doppler bins]
whose first axis is the frame order.

Both FFTs use the unit-norm (1/sqrt(N)) convention so energy is preserved
through each transform and downstream folding thresholds do not depend on the
grid sizes. The Doppler axis is center-shifted: DC sits at bin L // 2, a
convention shared by every module that touches Doppler spectra.
"""

from __future__ import annotations

import csv

import numpy as np

from .config import RadarConfig
from .echo import Frame


class ProcessingError(ValueError):
    """Input violates a processing precondition (non-finite samples, no frames)."""


def dc_bin(n_doppler_bins: int) -> int:
    """Index of the zero-Doppler bin after center shift."""
    return n_doppler_bins // 2


def range_fft(frame: Frame) -> np.ndarray:
    """Per-chirp FFT along fast time; returns complex [chirps, range bins].

    Range bin b spans beat frequencies [b, b+1) * fs / samples_per_chirp.
    """
    samples = frame.samples
    if not np.all(np.isfinite(samples)):
        raise ProcessingError(f"frame {frame.frame_index} contains non-finite samples")
    return np.fft.fft(samples, axis=1) / np.sqrt(samples.shape[1])


def doppler_fft(range_matrix: np.ndarray) -> np.ndarray:
    """Per-range-bin FFT along slow time, center-shifted; magnitude [range, Doppler].

    A body at radial velocity v peaks at Doppler frequency 2*v*fc/c, folded
    into the +-1/(2*Tc) unambiguous span.
    """
    if not np.all(np.isfinite(range_matrix)):
        raise ProcessingError("range matrix contains non-finite values")
    mat = np.asarray(range_matrix)
    spec = np.fft.fft(mat, axis=0) / np.sqrt(mat.shape[0])
    spec = np.fft.fftshift(spec, axes=0)
    return np.abs(spec).T


def compute_map(frame: Frame) -> np.ndarray:
    return doppler_fft(range_fft(frame))


def process_frames(frames) -> np.ndarray:
    """Magnitude cube [frames, range bins, Doppler bins], in the given frame order.

    Each frame is stored Doppler-major, the order the Doppler FFT yields it,
    so filling the cube copies contiguous memory instead of transposing; the
    returned cube is a transposed view of that buffer.
    """
    frames = list(frames)
    if not frames:
        raise ProcessingError("no frames given")
    buf = np.empty((len(frames),) + frames[0].samples.shape)
    for t, frame in enumerate(frames):
        buf[t] = compute_map(frame).T
    return buf.transpose(0, 2, 1)


def doppler_axis_hz(radar: RadarConfig) -> np.ndarray:
    """Center-shifted Doppler frequency of each bin."""
    return np.fft.fftshift(np.fft.fftfreq(radar.chirps_per_frame, d=radar.chirp_duration_s))


def beat_range_bin(radar: RadarConfig, range_m: float) -> int:
    """Range bin hit by a point target: round(2*K*R/c * Ns/fs)."""
    beat_hz = 2.0 * radar.chirp_slope_hz_per_s * range_m / radar.speed_of_light_m_per_s
    return int(round(beat_hz * radar.samples_per_chirp / radar.adc_rate_hz))


def aliased_doppler_hz(radar: RadarConfig, velocity_m_per_s: float) -> float:
    """Doppler frequency of a body at v, wrapped into [-PRF/2, PRF/2)."""
    prf = radar.pulse_rate_hz
    f = 2.0 * velocity_m_per_s * radar.carrier_freq_hz / radar.speed_of_light_m_per_s
    return (f + prf / 2.0) % prf - prf / 2.0


def map_to_csv(rd_map: np.ndarray, path) -> None:
    """Dump (range_bin, doppler_bin, magnitude) rows of one map for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["range_bin", "doppler_bin", "magnitude"])
        n_r, n_l = rd_map.shape
        for r in range(n_r):
            for d in range(n_l):
                writer.writerow([r, d, repr(float(rd_map[r, d]))])
