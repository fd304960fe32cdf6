"""rotorsense: FMCW radar toolkit for UAV detection by rotor micro-motion.

Pipeline: synthesize beat-signal frames (echo.synthesize_frames), turn each
into a Range-Doppler magnitude map [range bins, Doppler bins] (rdmap), score
the periodicity of every Doppler row of every map by spectrum folding into a
range-time map (folding.build_folding_map, which folds a capture's maps a run
of frames at a time as rdmap.process_frames makes them), recover the range
track by spectral subtraction + constrained dynamic programming + particle
filtering (tracking), then read the frames' Doppler rows along the track into
a Doppler-time diagram (rdmap.doppler_rows) and classify its aligned segments
with a from-scratch LSTM (identify, lstm). No pipeline stage holds a
capture's maps together.
The cli module ties the stages into reproducible commands and holds the one
capture recipe (track_capture) and the one dataset recipe.
"""

from .config import (RadarConfig, TrajectorySegment, TrajectorySpec, UavConfig,
                     ValidationError, constant_velocity, hover)
from .echo import (Distractor, Frame, SceneSpec, SimulationError, StaticClutter,
                   UavEmitter, scatterer_range, synthesize_frames)
from .folding import (FoldingMap, FoldOutcome, build_folding_map, folding_result,
                      folding_value)
from .rdmap import dc_bin, process_frames

__version__ = "0.1.0"
