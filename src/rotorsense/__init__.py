"""rotorsense: FMCW radar toolkit for UAV detection by rotor micro-motion.

Pipeline: synthesize beat-signal frames (echo), turn them into one
Range-Doppler magnitude cube [frames, range bins, Doppler bins] (rdmap), score
the periodicity of every Doppler row of the cube by spectrum folding into a
range-time map (folding), recover the range track by spectral subtraction +
constrained dynamic programming + particle filtering (tracking), then read the
cube along the track into a Doppler-time diagram and classify its aligned
segments with a from-scratch LSTM (identify, lstm). The cli module ties the
stages into reproducible commands and holds the one capture recipe
(track_capture) and the one dataset recipe.
"""

from .config import (DerivedParams, RadarConfig, TrajectorySegment,
                     TrajectorySpec, UavConfig, ValidationError,
                     constant_velocity, derive, hover)
from .echo import (Distractor, Frame, SceneSpec, SimulationError, StaticClutter,
                   UavEmitter, scatterer_range, synthesize_frame, synthesize_frames)
from .folding import (FoldingMap, FoldOutcome, build_folding_map, folding_result,
                      folding_value)
from .rdmap import compute_map, dc_bin, doppler_fft, process_frames, range_fft

__version__ = "0.1.0"
