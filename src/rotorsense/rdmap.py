"""Range-Doppler processing: fast-time FFT, slow-time FFT, magnitude cube.

A frame's Range-Doppler map is a float64 magnitude array [range bins, Doppler
bins]; a capture's maps stack into one cube [frames, range bins, Doppler bins]
whose first axis is the frame order. process_frames is the one way to build
it.

Both FFTs use the unit-norm (1/sqrt(N)) convention so energy is preserved
through each transform and downstream folding thresholds do not depend on the
grid sizes. Range bin b is centred at beat frequency b * fs / samples_per_chirp,
so at range b * RadarConfig.range_bin_size_m.
The Doppler axis is center-shifted: DC sits at bin L // 2, a convention shared
by every module that touches Doppler spectra. A body at radial velocity v peaks
at Doppler frequency 2*v*fc/c, folded into the +-1/(2*Tc) unambiguous span.
"""

from __future__ import annotations

import numpy as np

from .config import RadarConfig, ValidationError


class ProcessingError(ValidationError):
    """Input violates a processing precondition (non-finite samples, no frames)."""


def dc_bin(n_doppler_bins: int) -> int:
    """Index of the zero-Doppler bin after center shift."""
    return n_doppler_bins // 2


def process_frames(frames) -> np.ndarray:
    """Magnitude cube [frames, range bins, Doppler bins], in the given frame order.

    Per frame: the range FFT along fast time, fft(axis=1) / sqrt(N); the Doppler
    FFT along slow time, fft(axis=0) / sqrt(L), center-shifted; the magnitude.
    Each map is written Doppler-major, the order the FFTs yield it, so the
    returned cube is a transposed view of that buffer.

    Bin 0 of each FFT sums its inputs, so a non-finite sample, or a value either
    FFT overflows to inf, leaves the magnitude map non-finite: one check per map
    covers both transforms, and numpy's warnings on the way are silenced.
    """
    frames = list(frames)
    if not frames:
        raise ProcessingError("no frames given")
    buf = np.empty((len(frames),) + frames[0].samples.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, frame in enumerate(frames):
            spec = np.fft.fft(frame.samples, axis=1) / np.sqrt(frame.samples.shape[1])
            spec = np.fft.fft(spec, axis=0) / np.sqrt(spec.shape[0])
            np.abs(np.fft.fftshift(spec, axes=0), out=buf[t])
            if not np.all(np.isfinite(buf[t])):
                raise ProcessingError(f"frame {t}: non-finite Range-Doppler map "
                                      "(non-finite samples or FFT overflow)")
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


