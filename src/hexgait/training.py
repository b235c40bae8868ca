"""Geometry-supervised training: Gaussian leg estimator + weight adjusting.

During training only, each movement frame is labeled by where the moving
pixels sit relative to the body, and the labeled neuron's input weights
are potentiated at the active pixels and depressed elsewhere. Both the
potentiation and depression magnitudes decay exponentially with simulated
time, so training freezes on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EmptyFrameError, EmptyStreamError
from .frames import FrameStream, as_stream, cell_centroid, pooled_streams
from .neurons import (N_LEGS, NetworkState, NeuronParams, SpikeRaster,
                      WeightMap, step_state)
from .scene import HexapodGeometry

TWO_PI = 2.0 * math.pi

DEFAULT_PRIOR_STD = math.radians(15.0)


def wrap_angle(a: float) -> float:
    """Wrap into (-pi, pi]."""
    a = math.fmod(a + math.pi, TWO_PI)
    if a <= 0.0:
        a += TWO_PI
    return a - math.pi


@dataclass(frozen=True)
class GaussianPriors:
    """Per-leg angular Gaussians of equal prior mass: mean direction, width."""

    means: tuple
    stds: tuple

    def __post_init__(self):
        means = tuple(float(m) for m in self.means)
        stds = tuple(float(s) for s in self.stds)
        if not (len(means) == len(stds) == N_LEGS):
            raise ValueError(f"priors need {N_LEGS} entries per field")
        if any(s <= 0 for s in stds):
            raise ValueError("prior stds must be positive")
        for i in range(N_LEGS):
            for j in range(i + 1, N_LEGS):
                if abs(wrap_angle(means[i] - means[j])) < 1e-9:
                    raise ValueError(f"prior means {i + 1} and {j + 1} coincide")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)


@dataclass(frozen=True)
class TrainSchedule:
    """Exponentially decaying potentiation/depression schedule."""

    alpha: float = 0.01      # 1/s, potentiation decay rate 
    beta: float = 0.01       # 1/s, depression decay rate   
    omega: float = 0.05      # potentiation scale           
    sigma_d: float = 0.0005  # depression scale             
    w_max: float = 0.35      # weight ceiling               

    def __post_init__(self):
        for name in ("alpha", "beta", "omega", "sigma_d", "w_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    def potentiation(self, t_sec: float) -> float:
        return self.omega * math.exp(-self.alpha * t_sec)

    def depression(self, t_sec: float) -> float:
        return self.sigma_d * math.exp(-self.beta * t_sec)


def classify_angle(theta: float, priors: GaussianPriors) -> int:
    """Most probable leg for direction theta; ties break to the lowest label."""
    best_leg, best_score = 1, -math.inf
    for leg in range(1, N_LEGS + 1):
        mu = priors.means[leg - 1]
        sigma = priors.stds[leg - 1]
        d = wrap_angle(theta - mu)
        score = (1.0 / sigma) * math.exp(-0.5 * (d / sigma) ** 2)
        if score > best_score + 1e-15:
            best_leg, best_score = leg, score
    return best_leg


HISTORY = 11  # frames feeding the body map, current included


def _estimate(body_count: np.ndarray, leg_cells: np.ndarray, width: int,
              height: int, priors: GaussianPriors):
    """Label + direction of the current leg frame against the body map.

    `leg_cells` are the set cells of the current andpool(I0, 10) on its
    width x height grid. `body_count` counts, per cell of the grid of half
    that size, the frames of the history window whose
    orpool(andpool(I0, 2), 10) sets it. Returns (leg, theta).
    """
    if not leg_cells.size:
        raise EmptyFrameError("no movement: current pooled leg frame is empty")
    rows, cols = np.divmod(leg_cells, width)
    body = body_count > 0
    body[(rows // 2) * (width // 2) + cols // 2] = False  # minus orpool(leg, 2)
    body_cells = np.flatnonzero(body)
    if not body_cells.size:
        raise EmptyFrameError("degenerate scene: body map empty after leg masking")
    c = cell_centroid(body_cells, width // 2, height // 2)
    l = cell_centroid(leg_cells, width, height)
    theta = math.atan2(c.y - l.y, c.x - l.x)
    return classify_angle(theta, priors), theta


def estimate_leg(history, priors: GaussianPriors) -> int:
    """Label the leg moving in the last frame of `history` (<= 11 raw frames)."""
    stream = as_stream(history)
    if not len(stream):
        raise ValueError("history must contain at least the current frame")
    leg, body = pooled_streams(stream)
    size = body.width * body.height
    return _estimate(np.bincount(body.keys % size, minlength=size),
                     leg.per_frame()[-1], leg.width, leg.height, priors)[0]


def calibrate_priors(geom: HexapodGeometry, std: float = DEFAULT_PRIOR_STD) -> GaussianPriors:
    """Prior means from geometry: direction from each leg tip to the body center."""
    means = []
    for leg in range(1, N_LEGS + 1):
        anchor = geom.leg_anchors[leg - 1]
        phi = geom.anchor_angle(leg)
        tip_x = anchor.x + geom.leg_length * math.cos(phi)
        tip_y = anchor.y + geom.leg_length * math.sin(phi)
        means.append(math.atan2(geom.body_center.y - tip_y,
                                geom.body_center.x - tip_x))
    return GaussianPriors(means=tuple(means), stds=(std,) * N_LEGS)


@dataclass
class TrainResult:
    weights: WeightMap
    raster: SpikeRaster
    log: list = field(default_factory=list)
    skipped: int = 0
    duration_s: float = 0.0


def train(stream: FrameStream, priors: GaussianPriors, sched: TrainSchedule,
          params: NeuronParams, repeats: int = 1,
          weights: WeightMap = None) -> TrainResult:
    """Run the weight-adjusting loop over `repeats` plays of the stream.

    Weights start at zero unless a map is passed in. Returns the trained
    weights, the raster emitted during training, and a per-update log with
    lines `t_sec leg theta_rad p m popcount_i10`.
    """
    n = len(stream)
    if n == 0:
        raise EmptyStreamError("cannot train on an empty stream")
    leg, body = pooled_streams(stream)
    if weights is None:
        weights = WeightMap.zeros(leg.width, leg.height)
    elif weights.w.shape[1:] != (leg.height, leg.width):
        raise DimensionError(
            f"weight grid {weights.w.shape[1:]} != frame {(leg.height, leg.width)}")
    else:
        weights = weights.copy()
    rows = weights.w.reshape(weights.n_neurons, -1)  # a view: updates land in weights
    leg_cells, body_cells = leg.per_frame(), body.per_frame()
    state = NetworkState.resting(params, weights.n_neurons)
    body_count = np.zeros(body.width * body.height, dtype=np.int64)
    raster_steps = []
    log = []
    skipped = 0
    labels = {}  # frame index -> (label, theta), or None for a skipped update
    for gt in range(repeats * n):
        k = gt % n
        cells = leg_cells[k]
        now = gt * params.dt
        spiked = step_state(state, rows, cells, params, now)
        if spiked:
            raster_steps.append((now, spiked))
        body_count[body_cells[k]] += 1  # the window is frames gt-10..gt, mod n
        if gt >= HISTORY:
            body_count[body_cells[(gt - HISTORY) % n]] -= 1
        if not cells.size:
            continue
        if k in labels:
            labelled = labels[k]
        else:
            try:
                labelled = _estimate(body_count, cells, leg.width, leg.height, priors)
            except EmptyFrameError:
                labelled = None
            if gt >= HISTORY:  # the window, frames gt-10..gt mod n, is k's alone now
                labels[k] = labelled
        if labelled is None:
            skipped += 1
            continue
        label, theta = labelled
        p = sched.potentiation(now)
        m = sched.depression(now)
        w = rows[label - 1]
        potentiated = w[cells] + p
        w -= m
        w[cells] = potentiated
        np.clip(w, 0.0, sched.w_max, out=w)
        log.append(f"{now:.3f} {label} {theta:.6f} {p:.9g} {m:.9g} {cells.size}")
    gt = repeats * n
    raster = SpikeRaster(dt=params.dt, steps=tuple(raster_steps), n_steps=gt)
    return TrainResult(weights=weights, raster=raster, log=log,
                       skipped=skipped, duration_s=gt * params.dt)
