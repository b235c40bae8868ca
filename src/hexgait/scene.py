"""Synthetic expert-hexapod scene: rendering and splicing.

The scene is planar: a circular body at the frame center with six legs,
three per side. A moving leg lights a fixed "foot site" of full 10x10
pixel blocks at its tip in the first active frames of each cycle, which
is what survives the 10x10 AND pool and feeds the network.

Salt noise sets single pixels independently, drawn by `noise.salt` as
geometric gaps from a hash of (seed, frame); the 10x10 AND pool removes
it. Frames are built as flat pixel keys in one buffer, never as dense grids.
"""
from __future__ import annotations

import re

import numpy as np

from .atomic import quoted, text_lines, write_atomic
from .config import BLOCK, N_LEGS, HexapodGeometry, Record, RenderParams, foot_blocks
from .errors import DataError
from .frames import FrameStream
from .noise import salt


class GaitSchedule(Record):
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


# A step or leg number holds at most 19 significant digits, as a weight
# header's numbers do, and is read without its leading zeros, so a long
# number names its line instead of meeting CPython's 4300-digit limit. A
# number matches one way only, so a long list of legs cannot backtrack.
_NUMBER = rb"0*(?:[1-9][0-9]{0,18}|0)"
_SCHEDULE_LINE = re.compile(rb"step[ \t]+(%b)[ \t]+(%b(?:,%b)*)"
                            rb"|(?:frames_per_cycle|gap_frames)=[0-9]+" % ((_NUMBER,) * 3))


def _number(digits: bytes) -> int:
    return int(digits.lstrip(b"0") or b"0")


def save_schedule(path, schedule: GaitSchedule, frames_per_cycle: int,
                  gap_frames: int) -> None:
    """Write the schedule file of `schedule`, which load_schedule reads."""
    write_atomic(path, [f"frames_per_cycle={frames_per_cycle}\n",
                        f"gap_frames={gap_frames}\n"]
                 + [f"step {i} {','.join(map(str, sorted(legs)))}\n"
                    for i, legs in schedule.entries])


def load_schedule(path) -> GaitSchedule:
    """The GaitSchedule of a file as save_schedule writes it, its numbers of
    at most 19 significant ASCII digits, read by `atomic.text_lines`. A
    DataError names a bad line or the fault."""
    entries = []
    with open(path, "rb") as fh:
        for lineno, text in text_lines(fh):
            if not (match := _SCHEDULE_LINE.fullmatch(text)):
                raise DataError(f"bad schedule file {path}: line {lineno}: {quoted(text)}")
            if match[1]:
                entries.append((_number(match[1]), set(map(_number, match[2].split(b",")))))
    try:
        return GaitSchedule(tuple(entries))
    except ValueError as exc:
        raise DataError(f"bad schedule file {path}: {exc}") from exc


def _leg_pixels(geom: HexapodGeometry, leg: int, width: int, height: int,
                params: RenderParams) -> np.ndarray:
    """Flat indices y * width + x of the foot-site pixels of one leg."""
    bx, by = np.array(foot_blocks(geom, leg, width, height, params),
                      dtype=np.int64).reshape(-1, 2).T
    block = (np.arange(BLOCK)[:, None] * width + np.arange(BLOCK)).ravel()
    return (BLOCK * (by * width + bx)[:, None] + block).ravel()


def render_expert_sequence(geom: HexapodGeometry, schedule: GaitSchedule,
                           frames_per_cycle: int, width: int, height: int,
                           noise_density: float = 0.0, seed: int = 0,
                           params: RenderParams = RenderParams()) -> FrameStream:
    """Render the expert's gait as a raw binary frame stream.

    Each schedule step is one cycle of its legs over `frames_per_cycle`
    frames followed by `gap_frames` still frames; the foot sites of the
    step's legs light the first min(active_frames, frames_per_cycle)
    frames of the cycle.

    Salt noise sets each pixel of a frame independently with probability
    `noise_density`, drawn sparsely by `noise.salt` as geometric gaps
    between set pixels, from a counter-based hash keyed by (seed, k). So
    the output is deterministic and frame k's noise depends on the seed
    and k only.
    """
    if frames_per_cycle < 2:
        raise ValueError(f"frames_per_cycle must be >= 2, got {frames_per_cycle}")
    if not (0.0 <= noise_density < 1.0):
        raise ValueError(f"noise_density must be in [0,1), got {noise_density}")
    seg_len = frames_per_cycle + params.gap_frames
    active = min(params.active_frames, frames_per_cycle)
    area = width * height
    keys = bytearray()
    for step_idx, (_, legs) in enumerate(schedule.entries):
        feet = np.concatenate([_leg_pixels(geom, leg, width, height, params)
                               for leg in sorted(legs)])
        for j in range(seg_len):
            k = step_idx * seg_len + j
            if j < active:
                keys.extend(feet + k * area)
            if noise_density > 0.0:
                keys.extend(salt(area, noise_density, seed, k) + k * area)
    return FrameStream.from_keys(np.frombuffer(keys, dtype=np.int64),
                                 len(schedule.entries) * seg_len, width, height)


def leg_region_mask(geom: HexapodGeometry, leg: int, frames_per_cycle: int,
                    width: int, height: int,
                    params: RenderParams = RenderParams()) -> np.ndarray:
    """Pixels leg `leg` sets in a noise-free active frame: its foot site,
    or none when a cycle has no active frame."""
    bits = np.zeros((height, width), dtype=bool)
    if min(params.active_frames, frames_per_cycle):
        bits.flat[_leg_pixels(geom, leg, width, height, params)] = True
    return bits


def segment_boundaries(schedule: GaitSchedule, frames_per_cycle: int,
                       params: RenderParams = RenderParams()):
    """Per-leg (start, stop) frame ranges of the training stream, which
    must follow `GaitSchedule.sequential()`: leg k owns segment k - 1."""
    if schedule != GaitSchedule.sequential():
        raise ValueError("boundaries require the sequential training schedule")
    seg_len = frames_per_cycle + params.gap_frames
    return tuple((k * seg_len, (k + 1) * seg_len) for k in range(N_LEGS))


def splice_segments(stream: FrameStream, boundaries, new_schedule: GaitSchedule) -> FrameStream:
    """Rearrange per-leg segments into a new gait; simultaneous legs OR.

    `boundaries[leg-1]` is the (start, stop) frame range of leg `leg` in the
    training stream. Ranges must partition the stream. Segments in one step
    are combined frame-by-frame with bitwise OR, padded with empty frames to
    the longest segment of the step.
    """
    boundaries = tuple((int(a), int(b)) for a, b in boundaries)
    if len(boundaries) != N_LEGS:
        raise ValueError(f"need {N_LEGS} boundary ranges, got {len(boundaries)}")
    covered = sorted(boundaries)
    pos = 0
    for a, b in covered:
        if a != pos or b <= a:
            raise ValueError(f"boundaries {boundaries} do not partition the stream")
        pos = b
    if pos != len(stream):
        raise ValueError(
            f"boundaries cover {pos} frames but stream has {len(stream)}")
    area = stream.width * stream.height
    pieces = []  # (a view of one segment's keys, its shift)
    start = 0
    for _, legs in new_schedule.entries:
        segs = [boundaries[l - 1] for l in sorted(legs)]
        for a, b in segs:
            lo, hi = np.searchsorted(stream.keys, (a * area, b * area))
            pieces.append((stream.keys[lo:hi], (start - a) * area))
        start += max(b - a for a, b in segs)
    keys = np.empty(sum(piece.size for piece, _ in pieces), dtype=np.int64)
    pos = 0
    for piece, shift in pieces:
        np.add(piece, shift, out=keys[pos:pos + piece.size])
        pos += piece.size
    return FrameStream.from_keys(keys, start, stream.width, stream.height)
