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

from .errors import EmptyFrameError, EmptyStreamError
from .frames import (BinaryFrame, FrameStream, andpool, centroid, frame_and,
                     frame_not, orpool, popcount, tile_pool)
from .neurons import (N_LEGS, NeuronParams, SpikeRaster, WeightMap,
                      fresh_states, step_network)
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
    """Per-leg angular Gaussians: mean direction, width, prior mass."""

    means: tuple
    stds: tuple
    weights: tuple = tuple([1.0] * N_LEGS)

    def __post_init__(self):
        means = tuple(float(m) for m in self.means)
        stds = tuple(float(s) for s in self.stds)
        weights = tuple(float(w) for w in self.weights)
        if not (len(means) == len(stds) == len(weights) == N_LEGS):
            raise ValueError(f"priors need {N_LEGS} entries per field")
        if any(s <= 0 for s in stds):
            raise ValueError("prior stds must be positive")
        if any(w <= 0 for w in weights):
            raise ValueError("prior masses must be positive")
        for i in range(N_LEGS):
            for j in range(i + 1, N_LEGS):
                if abs(wrap_angle(means[i] - means[j])) < 1e-9:
                    raise ValueError(f"prior means {i + 1} and {j + 1} coincide")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        object.__setattr__(self, "weights", weights)


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
        score = (priors.weights[leg - 1] / sigma) * math.exp(-0.5 * (d / sigma) ** 2)
        if score > best_score + 1e-15:
            best_leg, best_score = leg, score
    return best_leg


def _estimate_from_pooled(body_union: BinaryFrame, i10: BinaryFrame,
                          priors: GaussianPriors):
    """Label + direction from the pooled body map and the current leg frame.

    `body_union` is the OR over the history window of
    orpool(andpool(I0, 2), 10); `i10` is the current andpool(I0, 10).
    Returns (leg, theta).
    """
    if not i10.any():
        raise EmptyFrameError("no movement: current pooled leg frame is empty")
    leg_mask = orpool(i10, 2)  # 60x60 leg frame onto the 30x30 body grid
    body = frame_and(frame_not(leg_mask), body_union)
    if not body.any():
        raise EmptyFrameError("degenerate scene: body map empty after leg masking")
    c = centroid(body)
    l = centroid(i10)
    theta = math.atan2(c.y - l.y, c.x - l.x)
    return classify_angle(theta, priors), theta


def estimate_leg(history, priors: GaussianPriors) -> int:
    """Label the leg moving in the last frame of `history` (<= 11 raw frames)."""
    history = list(history)
    if not history:
        raise ValueError("history must contain at least the current frame")
    current = history[-1]
    i10 = andpool(current, 10)
    body_union = None
    for frame in history:
        b = orpool(andpool(frame, 2), 10)
        body_union = b if body_union is None else BinaryFrame(
            body_union.bits | b.bits, b.scale)
    leg, _ = _estimate_from_pooled(body_union, i10, priors)
    return leg


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


HISTORY = 11  # frames feeding the body map, current included


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
    pooled = list(zip(*tile_pool(stream)))
    i10_w, i10_h = pooled[0][0].width, pooled[0][0].height
    if weights is None:
        weights = WeightMap.zeros(i10_w, i10_h)
    else:
        weights = weights.copy()
    states = fresh_states(params)
    raster_steps = []
    log = []
    skipped = 0
    gt = 0
    for _ in range(repeats):
        for t in range(n):
            i10, _ = pooled[gt % n]
            now = gt * params.dt
            states, spiked = step_network(states, weights, i10, params, now)
            if spiked:
                raster_steps.append((now, frozenset(spiked)))
            if i10.any():
                body_union_bits = None
                for i in range(min(HISTORY, gt + 1)):
                    b = pooled[(gt - i) % n][1]
                    body_union_bits = b.bits if body_union_bits is None \
                        else body_union_bits | b.bits
                body_union = BinaryFrame(body_union_bits, pooled[0][1].scale)
                try:
                    leg, theta = _estimate_from_pooled(body_union, i10, priors)
                except EmptyFrameError:
                    skipped += 1
                    gt += 1
                    continue
                p = sched.potentiation(now)
                m = sched.depression(now)
                w = weights.w[leg - 1]
                w[i10.bits] += p
                w[~i10.bits] -= m
                np.clip(w, 0.0, sched.w_max, out=w)
                log.append(f"{now:.3f} {leg} {theta:.6f} {p:.9g} {m:.9g} {popcount(i10)}")
            gt += 1
    raster = SpikeRaster(dt=params.dt, steps=tuple(raster_steps), n_steps=gt)
    return TrainResult(weights=weights, raster=raster, log=log,
                       skipped=skipped, duration_s=gt * params.dt)
