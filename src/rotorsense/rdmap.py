"""Range-Doppler processing: fast-time FFT, slow-time FFT, magnitude cube.

A frame's Range-Doppler map is a float64 magnitude array [range bins, Doppler
bins]; a capture's maps stack into one cube [frames, range bins, Doppler bins]
whose first axis is the frame order. process_frames is the one way to build
it.

Each map depends on its own frame only, so process_frames splits a capture into
contiguous chunks of frames, one per core the process may run on (at most 4),
through workers.run_chunks; the maps' bytes do not depend on the split. A
capture splits only as far as each worker gets 64 frames of the default
100 x 256 grid: on a 2-core host 2 workers took the maps and their folding in
0.73x the serial time at 400 frames, but a capture classified right after LSTM
training, whose BLAS threads still spin on the other core, gained nothing
below 128 frames (workers._MIN_CHUNK_ELEMENTS holds the measurement).

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
from .workers import run_chunks


class ProcessingError(ValidationError):
    """Input violates a processing precondition (non-finite samples, no frames)."""


def dc_bin(n_doppler_bins: int) -> int:
    """Index of the zero-Doppler bin after center shift."""
    return n_doppler_bins // 2


def process_frames(frames) -> np.ndarray:
    """Magnitude cube [frames, range bins, Doppler bins], in the given frame order.

    Per frame: the samples widened to complex128; the range FFT along fast
    time, fft(axis=1) / sqrt(N); the Doppler FFT along slow time, fft(axis=0)
    / sqrt(L), center-shifted; the magnitude. The widening happens here, one
    frame at a time, into one complex128 buffer per worker that both FFTs work
    in (their `out=` argument needs numpy 2.0): a complex64 capture read from
    a file is never held twice, and no FFT sees complex64, which numpy would
    transform in single precision. The buffer's rows are 4 elements longer
    than a frame's and the FFTs work in a view of their first N: a default
    frame's rows, 256 complex128 values, would otherwise sit exactly 4 KiB
    apart, and the Doppler FFT's column reads would keep evicting each other
    from the cache (padded, that FFT took 117 instead of 179 us per default
    frame on a 2-core host). Each map is written Doppler-major, the order the
    FFTs yield it, so the returned cube is a transposed view of the maps'
    buffer. Each worker runs its chunk of frames under its own np.errstate,
    which holds per thread.

    Both FFTs scale inside numpy (norm="ortho"): it computes the factor
    reciprocal(sqrt(n)) in float64 and multiplies the real and the imaginary
    part of every output by it, the bytes of an FFT followed by multiplying
    the buffer's float64 view by 1 / sqrt(n). tests/test_rdmap.py checks the
    maps against that two-step chain on drawn grids, Bluestein lengths and
    scales included. Dividing by sqrt(n) instead would round differently and
    change magnitude bits.

    Bin 0 of each FFT sums its inputs, so a non-finite sample, or a value either
    FFT overflows to inf, leaves the magnitude map non-finite: one check per map
    covers both transforms, and numpy's warnings on the way are silenced. A
    chunk stops at its first bad map, and the first chunk in frame order that
    stopped is reported, so the error names the capture's first bad frame.
    """
    frames = list(frames)
    if not frames:
        raise ProcessingError("no frames given")
    shape = frames[0].samples.shape
    chirps, samples = shape
    half = chirps // 2
    buf = np.empty((len(frames),) + shape)

    def maps(start: int, stop: int) -> None:
        spec = np.empty((chirps, samples + 4), dtype=np.complex128)[:, :samples]
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(start, stop):
                spec[...] = frames[t].samples
                np.fft.fft(spec, axis=1, out=spec, norm="ortho")
                np.fft.fft(spec, axis=0, out=spec, norm="ortho")
                # fftshift along Doppler: DC, row 0, lands at row chirps // 2
                np.abs(spec[:chirps - half], out=buf[t, half:])
                np.abs(spec[chirps - half:], out=buf[t, :half])
                if not np.all(np.isfinite(buf[t])):
                    raise ProcessingError(f"frame {t}: non-finite Range-Doppler map "
                                          "(non-finite samples or FFT overflow)")

    run_chunks(maps, len(frames), chirps * samples)
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


