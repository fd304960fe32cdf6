import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rotorsense.config import UavConfig, constant_velocity, hover
from rotorsense.echo import Frame, SceneSpec, StaticClutter, UavEmitter, synthesize_frames
from rotorsense.folding import folding_result
from rotorsense.identify import IdentifyError, diagram_at_bins
from rotorsense.rdmap import (ProcessingError, aliased_doppler_hz, beat_range_bin,
                              dc_bin, doppler_axis_hz, process_frames)
from rotorsense import scenarios

from conftest import UAV_RANGE_BIN, comb_spacing_estimate


def _reference_map(samples):
    """The per-frame chain process_frames replaced, kept as its reference.

    A range FFT along fast time and a center-shifted Doppler FFT along slow
    time, each unit-norm and each checking its own input for finiteness; the
    magnitude map comes back [range bins, Doppler bins].
    """
    if not np.all(np.isfinite(samples)):
        raise ProcessingError("frame contains non-finite samples")
    range_matrix = np.fft.fft(samples, axis=1) / np.sqrt(samples.shape[1])
    if not np.all(np.isfinite(range_matrix)):
        raise ProcessingError("range matrix contains non-finite values")
    spec = np.fft.fft(range_matrix, axis=0) / np.sqrt(range_matrix.shape[0])
    return np.abs(np.fft.fftshift(spec, axes=0)).T


def _first_map(scene, radar):
    return process_frames(synthesize_frames(scene, radar, 1))[0]


def _point_map(radar, range_m):
    return _first_map(SceneSpec(emitters=(StaticClutter(range_m, 1.0),)), radar)


def test_static_point_range_bin(radar):
    # beat frequency 2 K R / c maps 30 m to bin 82 on the default grid
    assert beat_range_bin(radar, 30.0) == 82
    rd = _point_map(radar, 30.0)
    assert int(np.argmax(rd[:, dc_bin(radar.chirps_per_frame)])) == 82
    assert int(np.argmax(rd.max(axis=1))) == 82


def test_zero_input_zero_output(radar):
    frame = Frame(np.zeros((radar.chirps_per_frame, radar.samples_per_chirp), dtype=complex))
    assert np.all(process_frames([frame]) == 0)


def test_two_points_match_single_point_runs(radar):
    dc = dc_bin(radar.chirps_per_frame)
    lone_a = int(np.argmax(_point_map(radar, 22.0)[:, dc]))
    lone_b = int(np.argmax(_point_map(radar, 61.0)[:, dc]))
    both = SceneSpec(emitters=(StaticClutter(22.0, 1.0), StaticClutter(61.0, 1.0)))
    top_two = set(np.argsort(_first_map(both, radar)[:, dc])[-2:])
    assert top_two == {lone_a, lone_b}


def test_non_finite_input_rejected(radar):
    shape = (radar.chirps_per_frame, radar.samples_per_chirp)
    samples = np.zeros(shape, dtype=complex)
    samples[3, 5] = np.nan
    with pytest.raises(ProcessingError, match="frame 1: non-finite"):
        process_frames([Frame(np.zeros(shape, dtype=complex)), Frame(samples)])


def _scaled_frames(shape, seed):
    """Random frames from 1e-300 to 1e150, zeros, +-float32 max and subnormals."""
    rng = np.random.default_rng(seed)
    frames = []
    for scale in (1e-300, 1e-40, 1e-3, 1.0, 4.0, 1e30, 1e150):
        frames.append(scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    f4max = float(np.finfo(np.float32).max)
    extremes = np.zeros(shape, dtype=complex)
    extremes.real[::2] = f4max
    extremes.imag[1::2] = -f4max
    tiny = np.full(shape, complex(np.finfo(float).smallest_subnormal,
                                  -float(np.finfo(np.float32).smallest_subnormal)))
    tiny[::3] = 0.0
    return frames + [np.zeros(shape, dtype=complex), extremes, tiny,
                     np.full(shape, complex(-f4max, f4max))]


def test_process_frames_bytes_equal_reference_chain(radar, hover_capture):
    shape = (radar.chirps_per_frame, radar.samples_per_chirp)
    samples = _scaled_frames(shape, seed=11) + [f.samples for f in hover_capture[1][:3]]
    cube = process_frames([Frame(s) for s in samples])
    assert cube.shape == (len(samples), shape[1], shape[0])
    for t, s in enumerate(samples):
        assert cube[t].tobytes() == _reference_map(s).tobytes(), f"frame {t}"


F4 = np.finfo(np.float32)
_FLOAT32 = (st.floats(width=32, allow_nan=False, allow_infinity=False)
            | st.sampled_from([F4.max, -F4.max, F4.smallest_subnormal, -F4.tiny, -0.0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9), st.data())
def test_complex64_frames_give_the_bytes_of_their_complex128_copies(n_frames, chirps,
                                                                    samples, data):
    """process_frames widens a complex64 frame, as a file read returns it, before its
    range FFT: numpy's FFTs on complex64 run in single precision and change the bits.
    Odd and even chirp counts cover both halves of the Doppler shift, which the
    reference chain takes from np.fft.fftshift."""
    parts = data.draw(arrays(np.float32, (n_frames, chirps, samples, 2), elements=_FLOAT32))
    narrow = parts.view(np.complex64)[..., 0]
    cube = process_frames([Frame(s) for s in narrow])
    wide = [s.astype(np.complex128) for s in narrow]
    assert cube.tobytes() == process_frames([Frame(s) for s in wide]).tobytes()
    for t, s in enumerate(wide):
        assert cube[t].tobytes() == _reference_map(s).tobytes(), f"frame {t}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # from the reference chain
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "complex-inf", "range-overflow"])
def test_non_finite_or_overflowing_frame_names_its_position(radar, bad):
    shape = (radar.chirps_per_frame, radar.samples_per_chirp)
    samples = np.ones(shape, dtype=complex)
    if bad == "range-overflow":
        # finite samples whose fast-time sum, 256 * 1e306, exceeds float64
        samples *= 1e306
    else:
        samples[7, 9] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                         "complex-inf": complex(0.0, np.inf)}[bad]
    with pytest.raises(ProcessingError):
        _reference_map(samples)
    good = Frame(np.ones(shape, dtype=complex))
    with pytest.raises(ProcessingError, match="frame 2: non-finite"):
        process_frames([good, good, Frame(samples), good])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # from the reference chain
def test_doppler_overflow_is_rejected(radar):
    """A finite range FFT whose Doppler FFT overflows leaves inf in the map; it is rejected.

    The reference chain checked only the Doppler FFT's input and let such a map through.
    """
    shape = (radar.chirps_per_frame, radar.samples_per_chirp)
    # fast-time sum 256 * 7e305 = 1.79e308 stays finite; the slow-time sum of the
    # normalized range bin 0, 100 * 1.12e307, does not
    samples = np.full(shape, 7e305, dtype=complex)
    assert not np.all(np.isfinite(_reference_map(samples)))
    with pytest.raises(ProcessingError, match="frame 0: non-finite"):
        process_frames([Frame(samples)])


def test_static_point_doppler_at_dc(radar):
    rd = _point_map(radar, 30.0)
    row = rd[82]
    assert int(np.argmax(row)) == dc_bin(radar.chirps_per_frame)


def test_body_doppler_peak_aliases(radar):
    # 1.5 m/s -> 602.5 Hz, beyond PRF/2, aliases to -508.6 Hz
    predicted_hz = aliased_doppler_hz(radar, 1.5)
    assert abs(predicted_hz - (-508.6)) < 0.1
    uav = UavConfig(scatterer_radii_m=0.0, scatterer_reflectivities=0.0)
    scene = SceneSpec(emitters=(UavEmitter(uav, constant_velocity(48.0, 1.5, 4.0)),))
    rd = _first_map(scene, radar)
    row = rd[int(np.argmax(rd.max(axis=1)))]
    axis = doppler_axis_hz(radar)
    measured_hz = axis[int(np.argmax(row))]
    assert abs(measured_hz - predicted_hz) <= 11.2  # one Doppler bin


def test_uav_comb_spacing_five_bins(radar, hover_capture):
    _, _, cube, _, _ = hover_capture
    avg_row = np.mean([rd[UAV_RANGE_BIN] for rd in cube[:10]], axis=0)
    dc = dc_bin(radar.chirps_per_frame)
    spacing = comb_spacing_estimate(avg_row, exclude=(dc - 2, dc + 2))
    assert spacing is not None and abs(spacing - 5) <= 1


def test_comb_spacing_tracks_rotation_rate(radar):
    """Peak spacing equals round(rate / doppler bin) across the traversal range.

    Rates are sampled so the wrapped harmonic combs stay aligned on the
    100-bin circular Doppler axis (spacings that divide it, plus the low
    spacings whose harmonics fit in one wrap); spacings like 15 alias onto
    their gcd with the bin count by construction.
    """
    dc = dc_bin(radar.chirps_per_frame)
    for rate, expected in ((22.3, 2), (33.3, 3), (55.6, 5), (111.1, 10), (222.2, 20)):
        uav = scenarios.make_uav(seed=4, rotation_rate_hz=rate)
        scene = SceneSpec(emitters=(UavEmitter(uav, hover(48.0, 1.0)),),
                          noise_std=scenarios.NOISE_STD, rng_seed=40)
        rows = process_frames(synthesize_frames(scene, radar, 8))[:, UAV_RANGE_BIN]
        spacing = comb_spacing_estimate(np.mean(rows, axis=0), exclude=(dc - 2, dc + 2))
        assert spacing is not None and abs(spacing - expected) <= 1, \
            f"rate {rate}: got {spacing}, expected {expected}"


def test_doppler_rows_partition_map(radar, hover_capture):
    _, frames, cube, _, _ = hover_capture
    rd = _reference_map(frames[0].samples)
    rebuilt = np.stack([cube[0, r] for r in range(cube.shape[1])])
    assert np.array_equal(rebuilt, rd)


def test_doppler_row_bounds(radar, hover_capture):
    cube = hover_capture[2][:1]
    with pytest.raises(IdentifyError, match="out of bounds"):
        diagram_at_bins(cube, [cube.shape[1]])
    with pytest.raises(IdentifyError, match="out of bounds"):
        diagram_at_bins(cube, [-1])


def test_uav_row_has_comb_neighbor_does_not(radar, hover_capture):
    _, _, cube, _, _ = hover_capture
    rd = cube[0]
    uav_fold = folding_result(rd[UAV_RANGE_BIN]).folding_result
    empty_fold = folding_result(rd[UAV_RANGE_BIN + 40]).folding_result
    assert uav_fold > 5 * empty_fold


def test_parseval_through_both_ffts(radar):
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(100, 256)) + 1j * rng.normal(size=(100, 256))
    in_energy = np.sum(np.abs(samples) ** 2)
    out_energy = np.sum(process_frames([Frame(samples)])[0] ** 2)
    assert abs(out_energy - in_energy) / in_energy < 1e-6


def test_body_argmax_invariant_under_blades(radar):
    traj = constant_velocity(48.0, 1.5, 4.0)
    body = UavConfig(scatterer_radii_m=0.0, scatterer_reflectivities=0.0)
    bladed = scenarios.make_uav(seed=5)
    rd_body = _first_map(SceneSpec(emitters=(UavEmitter(body, traj),)), radar)
    rd_blade = _first_map(SceneSpec(emitters=(UavEmitter(bladed, traj),)), radar)
    assert np.unravel_index(np.argmax(rd_body), rd_body.shape) \
        == np.unravel_index(np.argmax(rd_blade), rd_blade.shape)
