"""Synthetic expert-hexapod scene: rendering and splicing.

The scene is planar: a circular body at the frame center with six legs,
three per side. A moving leg emits two kinds of clustered events per
active frame:

* a fixed "foot site" of full 10x10 pixel blocks at the leg tip, which
  is what survives the 10x10 AND pool and feeds the network, and
* sparse 2x2 clusters along the swinging leg shaft, which survive the
  2x2 AND pool and give the leg estimator a body-side anchor.

Salt noise is added as isolated single pixels; a 2x2 AND pool removes it.
Frames are built as flat pixel indices, never as dense grids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from .frames import FrameStream, Point
from .neurons import N_LEGS

# Side of a foot-site block: the I10 AND-pool kernel of
# frames.pooled_streams, which the foot site must survive.
BLOCK = 10

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
    shaft_clusters: int = 5      # 2x2 clusters along the moving shaft
    gap_frames: int = 11         # still frames after each cycle (>= estimator history)
    active_frames: int = 8       # cycle frames dense enough to light the foot site

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0, got {getattr(self, f.name)}")


def _foot_blocks(geom: HexapodGeometry, leg: int, width: int, height: int,
                 params: RenderParams):
    """Grid-aligned 10x10 block indices of the fixed foot site of one leg."""
    phi = geom.anchor_angle(leg)
    ax = geom.leg_anchors[leg - 1].x * (width - 1)
    ay = geom.leg_anchors[leg - 1].y * (height - 1)
    leg_px = geom.leg_length * min(width, height)
    ux, uy = _unit(phi)
    blocks = []
    r = leg_px - BLOCK * 0.5
    # March inward until tip_blocks distinct grid blocks are collected, so
    # every leg presents the same number of pooled pixels to the network.
    while len(blocks) < params.tip_blocks and r > 0:
        px, py = ax + r * ux, ay + r * uy
        bx, by = int(px) // BLOCK, int(py) // BLOCK
        bx = min(max(bx, 0), width // BLOCK - 1)
        by = min(max(by, 0), height // BLOCK - 1)
        if (bx, by) not in blocks:
            blocks.append((bx, by))
        r -= BLOCK * 0.5
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


def _leg_pixels(geom: HexapodGeometry, leg: int, sweep_offset: float,
                width: int, height: int, params: RenderParams,
                foot_active: bool = True) -> np.ndarray:
    """Flat indices y * width + x of the pixels one leg sets (may repeat)."""
    parts = [np.empty(0, dtype=np.int64)]
    if foot_active:
        block = (np.arange(BLOCK)[:, None] * width + np.arange(BLOCK)).ravel()
        parts.extend(by * BLOCK * width + bx * BLOCK + block
                     for bx, by in _foot_blocks(geom, leg, width, height, params))
    cluster = np.array([0, 1, width, width + 1])
    parts.extend(cy * width + cx + cluster
                 for cx, cy in _shaft_points(geom, leg, width, height,
                                             sweep_offset, params))
    return np.concatenate(parts)


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
    Salt noise sets each pixel of a frame independently with probability
    `noise_density`, drawn sparsely: a Binomial(width * height, p) count,
    then that many distinct positions, uniformly. Noise uses a
    counter-based per-frame substream, so the output is deterministic
    and frame k's noise depends on the seed and k only.
    """
    if frames_per_cycle < 2:
        raise ValueError(f"frames_per_cycle must be >= 2, got {frames_per_cycle}")
    if not (0.0 <= noise_density < 1.0):
        raise ValueError(f"noise_density must be in [0,1), got {noise_density}")
    seg_len = frames_per_cycle + params.gap_frames
    area = width * height
    keys = []
    for step_idx, (_, legs) in enumerate(schedule.entries):
        for j in range(seg_len):
            k = step_idx * seg_len + j
            parts = [np.empty(0, dtype=np.int64)]
            if j < frames_per_cycle:
                off = sweep_offset(geom, j, frames_per_cycle)
                # The foot site only lights while the sweep is fast (early
                # cycle); the slower shaft clusters persist all cycle.
                foot = j < min(params.active_frames, frames_per_cycle)
                parts.extend(_leg_pixels(geom, leg, off, width, height, params,
                                         foot_active=foot)
                             for leg in sorted(legs))
            if noise_density > 0.0:
                rng = np.random.default_rng([seed, k])
                parts.append(rng.choice(area, rng.binomial(area, noise_density),
                                        replace=False, shuffle=False))
            keys.append(np.concatenate(parts) + k * area)
    return FrameStream.from_keys(np.concatenate(keys), len(keys), width, height,
                                 window_ms)


def leg_region_mask(geom: HexapodGeometry, leg: int, frames_per_cycle: int,
                    width: int, height: int,
                    params: RenderParams = RenderParams()) -> np.ndarray:
    """Union of every pixel leg `leg` can set over one noise-free cycle."""
    bits = np.zeros((height, width), dtype=bool)
    for j in range(frames_per_cycle):
        bits.flat[_leg_pixels(geom, leg, sweep_offset(geom, j, frames_per_cycle),
                              width, height, params)] = True
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
    area = stream.width * stream.height
    pieces = []
    start = 0
    for _, legs in new_schedule.entries:
        segs = [boundaries[l - 1] for l in sorted(legs)]
        for a, b in segs:
            lo, hi = np.searchsorted(stream.keys, (a * area, b * area))
            pieces.append(stream.keys[lo:hi] + (start - a) * area)
        start += max(b - a for a, b in segs)
    return FrameStream.from_keys(np.concatenate(pieces), start, stream.width,
                                 stream.height, stream.window_ms, stream.scale)
