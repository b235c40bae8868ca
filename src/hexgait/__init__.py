"""Imitation gait learning from synthetic event-camera footage.

Pipeline: accumulate (x, y, t) event arrays into 40 ms binary frames,
stored as the keys of their set pixels, denoise and compress them with
Boolean AND/OR pooling by counting set pixels per tile, train a six-neuron
leaky integrate-and-fire network against a geometry-derived Gaussian leg
labeler, then replay rearranged (spliced) footage through the frozen
network to drive central-pattern-generator leg cycles.
"""

from .errors import (ConfigError, DataError, DimensionError, EmptyFrameError,
                     EmptyStreamError, EventBoundsError, EventFileError,
                     HexgaitError)
from .events import (EventArray, accumulate_frames, crop_events, load_events,
                     save_events)
from .frames import (BinaryFrame, FrameStream, Point, andpool, centroid,
                     frame_and, frame_not, frame_or, orpool, popcount, tile_pool)
from .gait import GaitTrace, is_tripod, label_sequence, sequence_accuracy, spikes_to_gait
from .neurons import (N_LEGS, NeuronParams, NeuronState, SpikeRaster, WeightMap,
                      inject, run_network, step_network, step_neuron)
from .scene import (GaitSchedule, HexapodGeometry, ground_truth_raster,
                    render_expert_sequence, splice_segments)
from .training import (GaussianPriors, TrainSchedule, calibrate_priors,
                       classify_angle, estimate_leg, train)
from .energy import EnergyModel, energy_report

__version__ = "0.1.0"
