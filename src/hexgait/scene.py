"""Synthetic expert-hexapod scene: rendering, splicing, ground truth.

The scene is planar: a circular body at the frame center with six legs,
three per side. A moving leg emits two kinds of clustered events per
active frame:

* a fixed "foot site" of full 10x10 pixel blocks at the leg tip, which
  is what survives the 10x10 AND pool and feeds the network, and
* sparse 2x2 clusters along the swinging leg shaft, which survive the
  2x2 AND pool and give the leg estimator a body-side anchor.

Salt noise is added as isolated single pixels; a 2x2 AND pool removes it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .frames import FrameStream, Point
from .neurons import SpikeRaster, N_LEGS

# Anchor directions (degrees, image coords): legs 1-3 on the left side,
# legs 4-6 on the right. Adjacent directions are 45 degrees apart.
DEFAULT_ANCHOR_DEG = (135.0, 180.0, -135.0, 45.0, 0.0, -45.0)


def _unit(angle: float):
    return math.cos(angle), math.sin(angle)


@dataclass(frozen=True)
class HexapodGeometry:
    """Planar hexapod layout in normalized [0,1]^2 coordinates."""

    body_center: Point = Point(0.5, 0.5)
    body_radius: float = 0.18
    leg_anchors: tuple = ()
    leg_length: float = 0.17
    sweep_angle: float = math.radians(30.0)

    def __post_init__(self):
        anchors = tuple(self.leg_anchors)
        if not anchors:
            anchors = tuple(
                Point(self.body_center.x + self.body_radius * math.cos(math.radians(a)),
                      self.body_center.y + self.body_radius * math.sin(math.radians(a)))
                for a in DEFAULT_ANCHOR_DEG)
        if len(anchors) != N_LEGS:
            raise ValueError(f"need exactly {N_LEGS} leg anchors, got {len(anchors)}")
        min_sep = self.body_radius / 2
        for i in range(N_LEGS):
            for j in range(i + 1, N_LEGS):
                d = math.hypot(anchors[i].x - anchors[j].x,
                               anchors[i].y - anchors[j].y)
                if d < min_sep:
                    raise ValueError(
                        f"anchors {i + 1} and {j + 1} too close ({d:.4f} < {min_sep:.4f})")
        object.__setattr__(self, "leg_anchors", anchors)

    def anchor_angle(self, leg: int) -> float:
        """Outward direction of leg `leg` (1..6) from the body center."""
        a = self.leg_anchors[leg - 1]
        return math.atan2(a.y - self.body_center.y, a.x - self.body_center.x)


@dataclass(frozen=True)
class GaitSchedule:
    """Ordered (step index, set of leg labels) entries."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((int(i), frozenset(legs)) for i, legs in self.entries)
        if not entries:
            raise ValueError("schedule needs at least one step")
        for i, legs in entries:
            if not legs:
                raise ValueError(f"schedule step {i} references no legs")
            bad = [l for l in legs if not 1 <= l <= N_LEGS]
            if bad:
                raise ValueError(f"schedule step {i}: leg labels {bad} outside 1..{N_LEGS}")
        indices = [i for i, _ in entries]
        if indices != sorted(indices):
            raise ValueError("schedule entries must be ordered by step index")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def sequential(cls) -> "GaitSchedule":
        return cls(tuple((i, {i + 1}) for i in range(N_LEGS)))

    @classmethod
    def tripod(cls, repeats: int = 1) -> "GaitSchedule":
        steps = []
        for r in range(repeats):
            steps.append((2 * r, {1, 3, 5}))
            steps.append((2 * r + 1, {2, 4, 6}))
        return cls(tuple(steps))

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class RenderParams:
    """Knobs for the synthetic renderer (all pixel units at raw scale)."""

    tip_blocks: int = 3          # full 10x10 blocks at the foot site
    block: int = 10              # AND-pool kernel the foot site must survive
    shaft_clusters: int = 5      # 2x2 clusters along the moving shaft
    gap_frames: int = 11         # still frames after each cycle (>= estimator history)
    active_frames: int = 8       # cycle frames dense enough to light the foot site


def _foot_blocks(geom: HexapodGeometry, leg: int, width: int, height: int,
                 params: RenderParams):
    """Grid-aligned 10x10 block indices of the fixed foot site of one leg."""
    phi = geom.anchor_angle(leg)
    ax = geom.leg_anchors[leg - 1].x * (width - 1)
    ay = geom.leg_anchors[leg - 1].y * (height - 1)
    leg_px = geom.leg_length * min(width, height)
    ux, uy = _unit(phi)
    blocks = []
    r = leg_px - params.block * 0.5
    # March inward until tip_blocks distinct grid blocks are collected, so
    # every leg presents the same number of pooled pixels to the network.
    while len(blocks) < params.tip_blocks and r > 0:
        px, py = ax + r * ux, ay + r * uy
        bx, by = int(px) // params.block, int(py) // params.block
        bx = min(max(bx, 0), width // params.block - 1)
        by = min(max(by, 0), height // params.block - 1)
        if (bx, by) not in blocks:
            blocks.append((bx, by))
        r -= params.block * 0.5
    return blocks


def _shaft_points(geom: HexapodGeometry, leg: int, width: int, height: int,
                  sweep_offset: float, params: RenderParams):
    """2x2-aligned cluster origins along the shaft at the current sweep angle."""
    phi = geom.anchor_angle(leg) + sweep_offset
    ax = geom.leg_anchors[leg - 1].x * (width - 1)
    ay = geom.leg_anchors[leg - 1].y * (height - 1)
    leg_px = geom.leg_length * min(width, height)
    ux, uy = _unit(phi)
    pts = []
    fracs = np.linspace(0.15, 0.55, params.shaft_clusters)
    for f in fracs:
        px, py = ax + f * leg_px * ux, ay + f * leg_px * uy
        cx = min(max(int(px) // 2 * 2, 0), width - 2)
        cy = min(max(int(py) // 2 * 2, 0), height - 2)
        pts.append((cx, cy))
    return pts


def _draw_leg(bits: np.ndarray, geom: HexapodGeometry, leg: int,
              sweep_offset: float, params: RenderParams,
              foot_active: bool = True) -> None:
    h, w = bits.shape
    if foot_active:
        for bx, by in _foot_blocks(geom, leg, w, h, params):
            bits[by * params.block:(by + 1) * params.block,
                 bx * params.block:(bx + 1) * params.block] = True
    for cx, cy in _shaft_points(geom, leg, w, h, sweep_offset, params):
        bits[cy:cy + 2, cx:cx + 2] = True


def sweep_offset(geom: HexapodGeometry, j: int, frames_per_cycle: int) -> float:
    """Sweep-angle offset of oscillation frame j (one full sine period)."""
    return (geom.sweep_angle / 2.0) * math.sin(2.0 * math.pi * j / frames_per_cycle)


def render_expert_sequence(geom: HexapodGeometry, schedule: GaitSchedule,
                           frames_per_cycle: int, width: int, height: int,
                           noise_density: float = 0.0, seed: int = 0,
                           window_ms: float = 40.0,
                           params: RenderParams = RenderParams()) -> FrameStream:
    """Render the expert's gait as a raw binary frame stream.

    Each schedule step is one oscillation of its legs over
    `frames_per_cycle` frames followed by `gap_frames` still frames.
    Noise uses a counter-based per-frame substream, so the output is
    deterministic and frame-order independent for a given seed.
    """
    if frames_per_cycle < 2:
        raise ValueError(f"frames_per_cycle must be >= 2, got {frames_per_cycle}")
    if not (0.0 <= noise_density < 1.0):
        raise ValueError(f"noise_density must be in [0,1), got {noise_density}")
    seg_len = frames_per_cycle + params.gap_frames
    fs, ys, xs = [], [], []
    for step_idx, (_, legs) in enumerate(schedule.entries):
        for j in range(seg_len):
            bits = np.zeros((height, width), dtype=bool)
            if j < frames_per_cycle:
                off = sweep_offset(geom, j, frames_per_cycle)
                # The foot site only lights while the sweep is fast (early
                # cycle); the slower shaft clusters persist all cycle.
                foot = j < min(params.active_frames, frames_per_cycle)
                for leg in sorted(legs):
                    _draw_leg(bits, geom, leg, off, params, foot_active=foot)
            k = step_idx * seg_len + j
            if noise_density > 0.0:
                rng = np.random.default_rng([seed, k])
                bits |= rng.random((height, width)) < noise_density
            y, x = np.divmod(np.flatnonzero(bits), width)
            fs.append(np.full(y.size, k))
            ys.append(y)
            xs.append(x)
    return FrameStream.from_pixels(np.concatenate(fs), np.concatenate(ys),
                                   np.concatenate(xs), len(fs), width, height,
                                   window_ms)


def leg_region_mask(geom: HexapodGeometry, leg: int, frames_per_cycle: int,
                    width: int, height: int,
                    params: RenderParams = RenderParams()) -> np.ndarray:
    """Union of every pixel leg `leg` can set over one noise-free cycle."""
    bits = np.zeros((height, width), dtype=bool)
    for j in range(frames_per_cycle):
        _draw_leg(bits, geom, leg, sweep_offset(geom, j, frames_per_cycle), params)
    return bits


def segment_boundaries(schedule: GaitSchedule, frames_per_cycle: int,
                       params: RenderParams = RenderParams()):
    """Per-leg (start, stop) frame ranges of a sequential training stream."""
    seg_len = frames_per_cycle + params.gap_frames
    bounds = {}
    for step_idx, (_, legs) in enumerate(schedule.entries):
        if len(legs) != 1:
            raise ValueError("boundaries require a one-leg-at-a-time schedule")
        (leg,) = legs
        if leg in bounds:
            raise ValueError(f"leg {leg} appears twice in the training schedule")
        bounds[leg] = (step_idx * seg_len, (step_idx + 1) * seg_len)
    missing = set(range(1, N_LEGS + 1)) - set(bounds)
    if missing:
        raise ValueError(f"training schedule missing legs {sorted(missing)}")
    return tuple(bounds[leg] for leg in range(1, N_LEGS + 1))


def splice_segments(stream: FrameStream, boundaries, new_schedule: GaitSchedule) -> FrameStream:
    """Rearrange per-leg segments into a new gait; simultaneous legs OR.

    `boundaries[leg-1]` is the (start, stop) frame range of leg `leg` in the
    training stream. Ranges must partition the stream. Segments in one step
    are combined frame-by-frame with bitwise OR, padded with empty frames to
    the longest segment of the step.
    """
    boundaries = tuple((int(a), int(b)) for a, b in boundaries)
    if len(boundaries) != N_LEGS:
        raise DataError(f"need {N_LEGS} boundary ranges, got {len(boundaries)}")
    covered = sorted(boundaries)
    pos = 0
    for a, b in covered:
        if a != pos or b <= a:
            raise DataError(f"boundaries {boundaries} do not partition the stream")
        pos = b
    if pos != len(stream):
        raise DataError(
            f"boundaries cover {pos} frames but stream has {len(stream)}")
    frame, y, x = stream.pixels()
    pieces = []
    start = 0
    for _, legs in new_schedule.entries:
        segs = [boundaries[l - 1] for l in sorted(legs)]
        for a, b in segs:
            lo, hi = np.searchsorted(frame, (a, b))
            pieces.append((frame[lo:hi] - a + start, y[lo:hi], x[lo:hi]))
        start += max(b - a for a, b in segs)
    return FrameStream.from_pixels(
        *(np.concatenate(col) for col in zip(*pieces)), start, stream.width,
        stream.height, stream.window_ms, stream.scale)


def ground_truth_raster(schedule: GaitSchedule, frames_per_cycle: int,
                        dt: float = 0.04,
                        params: RenderParams = RenderParams()) -> SpikeRaster:
    """Reference raster: one spike per moving leg per cycle.

    The canonical spike offset is the frame of peak leg displacement
    (quarter period of the sweep oscillation). Used only for scoring.
    """
    seg_len = frames_per_cycle + params.gap_frames
    peak = min(frames_per_cycle, params.active_frames) // 2
    steps = []
    for step_idx, (_, legs) in enumerate(schedule.entries):
        t = (step_idx * seg_len + peak) * dt
        steps.append((t, frozenset(legs)))
    return SpikeRaster(dt=dt, steps=tuple(steps),
                       n_steps=len(schedule) * seg_len)
