"""Geometry-supervised training: Gaussian leg estimator + weight adjusting.

During training only, each movement frame is labeled by where the moving
pixels sit relative to the fixed body centre: the nearest of six prior
directions, each a leg's anchor direction reversed, so geometry sets no
prior beyond `config.ANCHOR_DEG`. The labeled neuron's input weights are
potentiated at the active pixels and depressed elsewhere. Both magnitudes
decay exponentially with simulated time, so training freezes on its own.
"""
from __future__ import annotations

import math

import numpy as np

from .config import N_LEGS, HexapodGeometry, NeuronParams, Record, TrainSchedule
from .errors import DataError
from .frames import FrameStream, as_stream, cell_centroid, pooled_streams
from .neurons import NetworkState, SpikeRaster, WeightMap, step_state

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap into (-pi, pi]."""
    a = math.fmod(a + math.pi, TWO_PI)
    if a <= 0.0:
        a += TWO_PI
    return a - math.pi


def classify_angle(theta: float, priors: tuple) -> int:
    """Most probable leg for direction theta: of Gaussians of one width,
    the one with the nearest wrapped mean. Distances within 1e-12 rad tie,
    so rounding in wrap_angle cannot split a tie; ties break to the lowest
    label."""
    dists = [abs(wrap_angle(theta - m)) for m in priors]
    best = min(dists)
    return next(leg for leg, d in enumerate(dists, start=1) if d <= best + 1e-12)


def _estimate(leg_cells: np.ndarray, width: int, height: int,
              priors: tuple):
    """Label + direction of a leg frame against the fixed body centre.

    `leg_cells` are the set cells of andpool(I0, 10) on its width x height
    grid. The camera is fixed and centred on the body, so theta runs from
    their centroid to `HexapodGeometry.body_center`, the point the priors
    aim at. Returns (leg, theta).
    """
    cx, cy = HexapodGeometry.body_center
    lx, ly = cell_centroid(leg_cells, width, height)
    theta = math.atan2(cy - ly, cx - lx)
    return classify_angle(theta, priors), theta


def estimate_leg(history, priors: tuple) -> int:
    """Label the leg moving in the last frame of `history` (raw frames)."""
    if not len(history):
        raise ValueError("history must contain at least the current frame")
    leg = pooled_streams(as_stream(history[-1:]))
    return _estimate(leg.keys, leg.width, leg.height, priors)[0]


def calibrate_priors(geom: HexapodGeometry) -> tuple:
    """Prior means, leg 1 first: a leg's tip lies on its anchor's ray out of
    the body centre, so tip-to-centre is the anchor direction reversed."""
    return tuple(wrap_angle(geom.anchor_angle(leg) + math.pi)
                 for leg in range(1, N_LEGS + 1))


class TrainResult(Record):
    weights: WeightMap
    raster: SpikeRaster
    log: list = None  # a new empty list by default
    skipped: int = 0  # always 0; read by perfbench and report.txt's skip line

    def __post_init__(self):
        object.__setattr__(self, "log", [] if self.log is None else self.log)


def train(stream: FrameStream, priors: tuple, sched: TrainSchedule,
          params: NeuronParams, repeats: int = 1) -> TrainResult:
    """Run the weight-adjusting loop over `repeats` plays of the stream.

    Weights start at zero. Returns the trained weights, the raster emitted
    during training, and a per-update log with lines
    `t_sec leg theta_rad p m popcount_i10`.
    """
    n = len(stream)
    if n == 0:
        raise DataError("cannot train on an empty stream")
    leg = pooled_streams(stream)
    weights = WeightMap.zeros(leg.width, leg.height)
    rows = weights.w.reshape(weights.n_neurons, -1)  # a view: updates land in weights
    leg_cells = leg.per_frame()
    state = NetworkState.resting(params, weights.n_neurons)
    raster_steps = []
    log = []
    labels = {}  # frame index -> (label, theta): a label depends on its frame alone
    for gt in range(repeats * n):
        k = gt % n
        cells = leg_cells[k]
        now = gt * params.dt
        spiked = step_state(state, rows, cells, params, now)
        if spiked:
            raster_steps.append((now, spiked))
        if not cells.size:
            continue
        if k not in labels:
            labels[k] = _estimate(cells, leg.width, leg.height, priors)
        label, theta = labels[k]
        p = sched.potentiation(now)
        m = sched.depression(now)
        w = rows[label - 1]
        potentiated = w[cells] + p
        w -= m
        w[cells] = potentiated
        np.clip(w, 0.0, sched.w_max, out=w)
        log.append(f"{now:.3f} {label} {theta:.6f} {p:.9g} {m:.9g} {cells.size}")
    raster = SpikeRaster(dt=params.dt, steps=tuple(raster_steps), n_steps=repeats * n)
    return TrainResult(weights=weights, raster=raster, log=log)
