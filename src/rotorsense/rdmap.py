"""Range-Doppler processing: fast-time FFT, slow-time FFT, magnitude maps.

A frame's Range-Doppler map is a float64 magnitude array [range bins, Doppler
bins]; the maps of consecutive frames stack into a cube [frames, range bins,
Doppler bins] whose first axis is the frame order. process_frames is the one
way to make maps. The pipeline calls it on a run of frames at a time
(folding.frame_runs) and folds each cube as it comes, so a capture's maps are
never held together. doppler_rows reads one Doppler row per frame without
making its map: after the range FFT it transforms only the one range bin's
slow-time column, and each row keeps the bytes of the same row of the frame's
map.

Both run in the caller, one frame after another in one row-padded buffer.

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


def _widened(chirps: int, samples: int) -> np.ndarray:
    """A complex128 frame buffer whose rows are 4 elements longer than a frame's.

    The FFTs work in a view of each row's first `samples` values: a default
    frame's rows, 256 complex128 values, would otherwise sit exactly 4 KiB
    apart, and the Doppler FFT's column reads would keep evicting each other
    from the cache (padded, that FFT took 117 instead of 179 us per default
    frame on a 2-core host).
    """
    return np.empty((chirps, samples + 4), dtype=np.complex128)[:, :samples]


def _range_fft(spec: np.ndarray, samples) -> None:
    """spec = the frame's samples widened to complex128, then FFT'd along fast time.

    The widening happens here, one frame at a time: a complex64 capture read
    from a file is never held twice, and no FFT sees complex64, which numpy
    would transform in single precision.
    """
    spec[...] = samples
    np.fft.fft(spec, axis=1, out=spec, norm="ortho")


def _shifted_abs(spec: np.ndarray, out: np.ndarray) -> None:
    """out = |spec| center-shifted along axis 0: DC, row 0, lands at row len // 2."""
    half = len(spec) // 2
    np.abs(spec[:len(spec) - half], out=out[half:])
    np.abs(spec[len(spec) - half:], out=out[:half])


def _grid(frames) -> tuple[int, int]:
    if not frames:
        raise ProcessingError("no frames given")
    return frames[0].samples.shape


def process_frames(frames, first: int = 0) -> np.ndarray:
    """Magnitude cube [frames, range bins, Doppler bins], in the given frame order.

    first is the capture index of frames[0]: the pipeline passes a run of a
    capture's frames at a time, and an error names the frame by its index in
    the capture.

    Per frame: the range FFT along fast time (_range_fft), the Doppler FFT
    along slow time, in place in one row-padded buffer (_widened; the FFTs'
    `out=` argument needs numpy 2.0), then the center-shifted magnitude. Each
    map is written Doppler-major, the order the FFTs yield it, so the returned
    cube is a transposed view of the maps' buffer.

    Both FFTs scale inside numpy (norm="ortho"): it computes the factor
    reciprocal(sqrt(n)) in float64 and multiplies the real and the imaginary
    part of every output by it, the bytes of an FFT followed by multiplying
    the buffer's float64 view by 1 / sqrt(n). tests/test_rdmap.py checks the
    maps against that two-step chain on drawn grids, Bluestein lengths and
    scales included. Dividing by sqrt(n) instead would round differently and
    change magnitude bits.

    Bin 0 of each FFT sums its inputs, so a non-finite sample, or a value either
    FFT overflows to inf, leaves the magnitude map non-finite: one check per map
    covers both transforms, numpy's warnings on the way are silenced, and the
    first bad map stops the loop and names its frame in the capture.
    """
    frames = list(frames)
    chirps, samples = _grid(frames)
    buf = np.empty((len(frames), chirps, samples))
    spec = _widened(chirps, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, frame in enumerate(frames):
            _range_fft(spec, frame.samples)
            np.fft.fft(spec, axis=0, out=spec, norm="ortho")
            _shifted_abs(spec, buf[t])
            if not np.all(np.isfinite(buf[t])):
                raise ProcessingError(f"frame {first + t}: non-finite Range-Doppler map "
                                      "(non-finite samples or FFT overflow)")
    return buf.transpose(0, 2, 1)


def doppler_rows(frames, range_bins, kept=None) -> np.ndarray:
    """The Doppler-time diagram [frames, Doppler bins]: row t is frame t's Doppler row
    at range_bins[t], one bin per frame, from a track or from simulation truth.

    kept, if given, is (bins, rows): rows of the frames' maps already made at a
    few range bins each, [frames, k] and [frames, k, Doppler bins], as
    folding.build_folding_map keeps them. A frame whose bin is among its kept
    bins takes that row, the bytes of its map's row.

    Each other frame: the range FFT of the whole frame, as process_frames runs
    it, then the Doppler FFT of the one slow-time column at the frame's bin,
    center-shifted, and its magnitude. Each row has the bytes of the same row
    of the frame's map (a property test checks it on drawn grids), but no map
    is made. The first row that is not finite stops the loop and names its
    frame. A bin count other than the frame count, or a bin outside the range
    axis, raises ProcessingError before any FFT.
    """
    frames = list(frames)
    bins = np.array(range_bins, dtype=int)
    chirps, samples = _grid(frames)
    if bins.shape != (len(frames),):
        raise ProcessingError(f"bin count {bins.size} does not match {len(frames)} frames")
    if np.any((bins < 0) | (bins >= samples)):
        raise ProcessingError(f"range bin out of bounds [0, {samples})")
    rows = np.empty((len(frames), chirps))
    todo = np.arange(len(frames))
    if kept is not None:
        kept_bins, kept_rows = kept
        hits = kept_bins == bins[:, None]
        found = hits.any(axis=1)
        rows[found] = kept_rows[found, hits[found].argmax(axis=1)]
        todo = np.flatnonzero(~found)
    spec = _widened(chirps, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in todo:
            _range_fft(spec, frames[t].samples)
            _shifted_abs(np.fft.fft(spec[:, bins[t]], norm="ortho"), rows[t])
            if not np.all(np.isfinite(rows[t])):
                raise ProcessingError(f"frame {t}: non-finite Doppler row "
                                      "(non-finite samples or FFT overflow)")
    return rows


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


