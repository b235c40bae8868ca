"""Binary frames and Boolean pooling primitives.

A BinaryFrame is an immutable 2-D bit grid; pooling reduces it with
non-overlapping k x k AND/OR tiles (binary min/max pooling). A
FrameStream stores a whole recording sparsely, as the keys of its set
pixels, and `pooled_streams` derives both pooled views of every frame
from those keys by counting set pixels per tile. The dense `andpool` and
`orpool` are its reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, DimensionError, EmptyFrameError


@dataclass(frozen=True)
class Point:
    """Normalized image coordinate, both axes in [0, 1]."""

    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError(f"point ({self.x}, {self.y}) outside [0,1]^2")


@dataclass(frozen=True, eq=False)
class BinaryFrame:
    """Immutable boolean grid.

    `scale` is the pooling factor relative to the raw sensor frame
    (1 for raw, 2 after a 2x2 pool, 10 after a 10x10 pool, ...).
    """

    bits: np.ndarray
    scale: int = 1

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 2:
            raise DimensionError(f"frame must be 2-D, got shape {bits.shape}")
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        bits = np.ascontiguousarray(bits)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @classmethod
    def zeros(cls, width: int, height: int, scale: int = 1) -> "BinaryFrame":
        return cls(np.zeros((height, width), dtype=bool), scale)

    def any(self) -> bool:
        return bool(self.bits.any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryFrame):
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.scale, self.bits.shape, self.bits.tobytes()))


# Longest stream accepted: one hour of 40 ms frames. Its I10 stack alone
# takes 324 MB, so a wild timestamp is rejected before anything is sized
# by it.
MAX_FRAMES = 90_000


def _check_frame_count(n_frames: int) -> None:
    if n_frames > MAX_FRAMES:
        raise DataError(
            f"stream spans {n_frames} frames, more than the limit of {MAX_FRAMES}")


def _sort_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array, which is sorted in place.

    Sort plus a neighbour compare: np.unique is several times slower on
    the few hundred thousand keys of a recording. Sorting in place saves
    a copy of every key; callers hand over an array they own.
    """
    keys.sort()
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


@dataclass(frozen=True, eq=False)
class FrameStream:
    """Ordered binary frames sharing one size, window and pooling scale.

    Only the set pixels are stored: `keys` holds their sorted, distinct
    flat indices (frame * height + y) * width + x. Frame k covers real
    time [k * window_ms, (k+1) * window_ms). Dense frames are built on
    request (`frames`, indexing).
    """

    keys: np.ndarray
    n_frames: int
    width: int
    height: int
    window_ms: float
    scale: int = 1

    def __post_init__(self):
        if self.window_ms <= 0:
            raise ValueError(f"window_ms must be > 0, got {self.window_ms}")
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if min(self.n_frames, self.width, self.height) < 0:
            raise ValueError("frame count and dimensions must be >= 0")
        _check_frame_count(self.n_frames)
        keys = np.asarray(self.keys, dtype=np.int64)
        if keys.ndim != 1:
            raise DimensionError(f"keys must be 1-D, got shape {keys.shape}")
        if keys.size and (keys[0] < 0 or keys[-1] >= len(self) * self.height * self.width
                          or (keys[1:] <= keys[:-1]).any()):
            raise ValueError("keys must be sorted, distinct and inside the stream")
        keys.setflags(write=False)
        object.__setattr__(self, "keys", keys)

    @classmethod
    def from_keys(cls, keys, n_frames: int, width: int, height: int,
                  window_ms: float, scale: int = 1) -> "FrameStream":
        """Stream with the flat pixel keys `keys` set, in any order;
        repeated keys OR together.

        Takes ownership of `keys`: an int64 array is sorted in place, so
        pass one that nothing else reads.
        """
        return cls(_sort_unique(np.asarray(keys, dtype=np.int64)), n_frames,
                   width, height, window_ms, scale)

    @classmethod
    def from_frames(cls, frames, window_ms: float, scale: int = 1) -> "FrameStream":
        """Stream of dense BinaryFrames of one size and scale."""
        frames = tuple(frames)
        for f in frames:
            if f.scale != scale:
                raise DimensionError(f"frame scale {f.scale} != stream scale {scale}")
            if f.bits.shape != frames[0].bits.shape:
                raise DimensionError("frames in a stream must share dimensions")
        if not frames:
            return cls(np.empty(0, dtype=np.int64), 0, 0, 0, window_ms, scale)
        bits = np.stack([f.bits for f in frames])
        return cls(np.flatnonzero(bits), len(frames), frames[0].width,
                   frames[0].height, window_ms, scale)

    def pixels(self):
        """(frame, y, x) arrays of every set pixel, ordered by frame, y, x."""
        rows, x = np.divmod(self.keys, self.width)
        frame, y = np.divmod(rows, self.height)
        return frame, y, x

    def per_frame(self) -> list:
        """Sorted flat indices y * width + x of the set pixels of each frame."""
        if not len(self):
            return []
        frame, flat = np.divmod(self.keys, self.height * self.width)
        return np.split(flat, np.searchsorted(frame, np.arange(1, len(self))))

    @cached_property
    def frames(self) -> tuple:
        """Dense BinaryFrames, built on first request."""
        bits = np.zeros(len(self) * self.height * self.width, dtype=bool)
        bits[self.keys] = True
        return tuple(BinaryFrame(b, self.scale)
                     for b in bits.reshape(len(self), self.height, self.width))

    def __len__(self) -> int:
        return self.n_frames

    def __getitem__(self, i):
        return self.frames[i]


def as_stream(frames) -> FrameStream:
    """`frames` if it is a FrameStream, else the stream of that sequence of
    dense BinaryFrames (one size and scale; the window is nominal)."""
    if isinstance(frames, FrameStream):
        return frames
    frames = tuple(frames)
    return FrameStream.from_frames(frames, 1.0, frames[0].scale if frames else 1)


def _check_divisible(frame: BinaryFrame, k: int) -> None:
    if k < 1:
        raise ValueError(f"kernel size must be >= 1, got {k}")
    if frame.width % k or frame.height % k:
        raise DimensionError(
            f"frame {frame.width}x{frame.height} not divisible by kernel {k}")


def andpool(frame: BinaryFrame, k: int) -> BinaryFrame:
    """AND over non-overlapping k x k tiles (erosion-like, denoises)."""
    _check_divisible(frame, k)
    h, w = frame.height // k, frame.width // k
    tiled = frame.bits.reshape(h, k, w, k)
    return BinaryFrame(tiled.all(axis=(1, 3)), frame.scale * k)


def orpool(frame: BinaryFrame, k: int) -> BinaryFrame:
    """OR over non-overlapping k x k tiles (dilation-like, enhances)."""
    _check_divisible(frame, k)
    h, w = frame.height // k, frame.width // k
    tiled = frame.bits.reshape(h, k, w, k)
    return BinaryFrame(tiled.any(axis=(1, 3)), frame.scale * k)


def _tile_keys(keys: np.ndarray, width: int, k: int) -> np.ndarray:
    """Flat keys on the grid of k x k tiles of the tile holding each pixel.

    `keys` are flat pixel keys (row * width + x) of a stack whose height
    and width are multiples of k, so rows // k is frame * (height // k) +
    y // k. The tile keys are built in place, with one temporary.
    """
    tiles = keys // (width * k)  # rows // k
    tiles *= width // k
    x = keys % width
    x //= k
    tiles += x
    return tiles


def _full_tiles(tiles: np.ndarray, k: int) -> np.ndarray:
    """Sorted keys of the tiles listed k * k times, i.e. with every pixel set.

    Pixel keys are distinct, so no tile is listed more than k * k times:
    after sorting, a run of that length starts exactly where an entry
    equals the one k * k - 1 places further on. `tiles` is sorted in place.
    """
    tiles.sort()
    m = k * k - 1
    if m == 0:
        return tiles
    head = tiles[:max(tiles.size - m, 0)]
    return head[head == tiles[m:]]


def pooled_streams(stream: FrameStream, body: bool = True):
    """(I10, body map) of every frame of `stream`, as FrameStreams.

    I10 is andpool(frame, 10): the 10 x 10 tiles with all 100 pixels set.
    The body map is orpool(andpool(frame, 2), 10): a tile is set when any
    of its 2 x 2 sub-tiles has all 4 pixels set. Both come from sorting
    tile keys of the set pixels, so the cost follows the events, not the
    frame area. The body map is None unless `body`.
    """
    n, h, w = len(stream), stream.height, stream.width
    k = 20 if body else 10
    if h % k or w % k:
        raise DimensionError(f"frame {w}x{h} not divisible by kernel {k}")
    i10 = _full_tiles(_tile_keys(stream.keys, w, 10), 10)
    leg = FrameStream(i10, n, w // 10, h // 10, stream.window_ms, stream.scale * 10)
    if not body:
        return leg, None
    i2 = _full_tiles(_tile_keys(stream.keys, w, 2), 2)
    i20 = _sort_unique(_tile_keys(i2, w // 2, 10))
    return leg, FrameStream(i20, n, w // 20, h // 20, stream.window_ms,
                            stream.scale * 20)


def frame_not(a: BinaryFrame) -> BinaryFrame:
    return BinaryFrame(~a.bits, a.scale)


def popcount(frame: BinaryFrame) -> int:
    """Number of set bits."""
    return int(frame.bits.sum())


def centroid(frame: BinaryFrame) -> Point:
    """Mean of set-bit coordinates, normalized to [0,1] per axis.

    Each axis is divided by (dimension - 1) so a single-bit frame maps the
    bit's pixel coordinates exactly; resolution-independent by design.
    """
    return cell_centroid(np.flatnonzero(frame.bits), frame.width, frame.height)


def cell_centroid(cells: np.ndarray, width: int, height: int) -> Point:
    """`centroid` of the width x height frame whose set bits have the flat
    indices `cells` (y * width + x)."""
    if cells.size == 0:
        raise EmptyFrameError("centroid of an empty frame is undefined")
    rows, cols = np.divmod(cells, width)
    x = float(cols.mean()) / (width - 1) if width > 1 else 0.0
    y = float(rows.mean()) / (height - 1) if height > 1 else 0.0
    return Point(x, y)
