"""Binary frames and Boolean pooling primitives.

A BinaryFrame is an immutable 2-D bit grid; pooling reduces it with
non-overlapping k x k AND/OR tiles (binary min/max pooling). A
FrameStream stores a whole recording sparsely, as the keys of its set
pixels, and `pooled_streams` derives the 10 x 10 AND pool of every frame
from the runs of 10 consecutive keys that fill a tile row. The dense
`andpool` is its reference.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .config import MAX_FRAMES, Record
from .errors import DataError


class BinaryFrame(Record):
    """Immutable boolean grid."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError(f"frame must be 2-D, got shape {bits.shape}")
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
    def zeros(cls, width: int, height: int) -> "BinaryFrame":
        return cls(np.zeros((height, width), dtype=bool))

    def any(self) -> bool:
        return bool(self.bits.any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryFrame):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)


def _check_frame_count(n_frames: int) -> None:
    if n_frames > MAX_FRAMES:
        raise DataError(
            f"stream spans {n_frames} frames, more than the limit of {MAX_FRAMES}")


# Keys handled at a time by _sort_unique and pooled_streams.
_POOL_BLOCK = 1 << 16


def _sort_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array, which is sorted in place.

    Sort plus a neighbour compare: np.unique is several times slower on
    the few hundred thousand keys of a recording. Sorting in place saves
    a copy of every key, and `keys` itself is returned when no key
    repeats. Otherwise the distinct keys are compacted to the front of
    `keys` a block at a time, with no copy of every key, and a prefix
    view of `keys` is returned; callers hand over an array they own.
    """
    keys.sort()
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    if keep.all():
        return keys
    size = 0
    for lo in range(0, keys.size, _POOL_BLOCK):
        new = keys[lo:lo + _POOL_BLOCK][keep[lo:lo + _POOL_BLOCK]]
        keys[size:size + new.size] = new
        size += new.size
    return keys[:size]


class FrameStream(Record, eq=False):
    """Ordered binary frames of one size.

    Only the set pixels are stored: `keys` holds their sorted, distinct
    flat indices (frame * height + y) * width + x. `frames` builds the
    dense frames on request. A stream carries no time: `events.save_events`
    and `events.load_frames` take the window that maps frames to time.
    """

    keys: np.ndarray
    n_frames: int
    width: int
    height: int

    def __post_init__(self):
        if min(self.n_frames, self.width, self.height) < 0:
            raise ValueError("frame count and dimensions must be >= 0")
        _check_frame_count(self.n_frames)
        keys = np.asarray(self.keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
        if keys.size and (keys[0] < 0 or keys[-1] >= len(self) * self.height * self.width
                          or (keys[1:] <= keys[:-1]).any()):
            raise ValueError("keys must be sorted, distinct and inside the stream")
        keys.setflags(write=False)
        object.__setattr__(self, "keys", keys)

    @classmethod
    def from_keys(cls, keys, n_frames: int, width: int, height: int) -> "FrameStream":
        """Stream with the flat pixel keys `keys` set, in any order;
        repeated keys OR together.

        Takes ownership of `keys`: an int64 array is sorted in place, so
        pass one that nothing else reads.
        """
        return cls(_sort_unique(np.asarray(keys, dtype=np.int64)), n_frames,
                   width, height)

    @classmethod
    def from_frames(cls, frames) -> "FrameStream":
        """Stream of dense BinaryFrames of one size."""
        frames = tuple(frames)
        for f in frames:
            if f.bits.shape != frames[0].bits.shape:
                raise ValueError("frames in a stream must share dimensions")
        if not frames:
            return cls(np.empty(0, dtype=np.int64), 0, 0, 0)
        bits = np.stack([f.bits for f in frames])
        return cls(np.flatnonzero(bits), len(frames), frames[0].width,
                   frames[0].height)

    def per_frame(self) -> list:
        """Sorted flat indices y * width + x of the set pixels of each frame."""
        if not len(self):
            return []
        frame, flat = np.divmod(self.keys, self.height * self.width)
        return np.split(flat, np.searchsorted(frame, np.arange(1, len(self))))

    def repeated(self, times: int) -> "FrameStream":
        """The stream played `times` times in a row: play k is this one's
        keys shifted by k streams' worth of pixels."""
        period = len(self) * self.height * self.width
        keys = (self.keys + period * np.arange(times)[:, None]).ravel()
        return FrameStream(keys, len(self) * times, self.width, self.height)

    @cached_property
    def frames(self) -> tuple:
        """Dense BinaryFrames, built on first request."""
        bits = np.zeros(len(self) * self.height * self.width, dtype=bool)
        bits[self.keys] = True
        return tuple(BinaryFrame(b)
                     for b in bits.reshape(len(self), self.height, self.width))

    def __len__(self) -> int:
        return self.n_frames


def as_stream(frames) -> FrameStream:
    """`frames` if it is a FrameStream, else the stream of that sequence of
    dense BinaryFrames of one size."""
    if isinstance(frames, FrameStream):
        return frames
    return FrameStream.from_frames(frames)


def _check_divisible(frame: BinaryFrame, k: int) -> None:
    if k < 1:
        raise ValueError(f"kernel size must be >= 1, got {k}")
    if frame.width % k or frame.height % k:
        raise ValueError(
            f"frame {frame.width}x{frame.height} not divisible by kernel {k}")


def andpool(frame: BinaryFrame, k: int) -> BinaryFrame:
    """AND over non-overlapping k x k tiles (erosion-like, denoises)."""
    _check_divisible(frame, k)
    h, w = frame.height // k, frame.width // k
    tiled = frame.bits.reshape(h, k, w, k)
    return BinaryFrame(tiled.all(axis=(1, 3)))


def orpool(frame: BinaryFrame, k: int) -> BinaryFrame:
    """OR over non-overlapping k x k tiles (dilation-like, enhances)."""
    _check_divisible(frame, k)
    h, w = frame.height // k, frame.width // k
    tiled = frame.bits.reshape(h, k, w, k)
    return BinaryFrame(tiled.any(axis=(1, 3)))


def pooled_streams(stream: FrameStream) -> FrameStream:
    """I10 = andpool(frame, 10) of every frame of `stream`, as a FrameStream:
    the 10 x 10 tiles with all 100 pixels set.

    Keys are sorted and distinct, and the width is a multiple of 10, so a
    full tile row is a run of 10 consecutive keys from a multiple of 10:
    keys[i] % 10 == 0 and keys[i + 9] == keys[i] + 9. A tile is full when
    exactly 10 run starts fall in it, so only the run starts are sorted,
    and the cost follows the events, not the frame area. The keys are
    scanned a block at a time, a run free to end in the next block, so
    the temporaries stay the size of a block.
    """
    n, h, w = len(stream), stream.height, stream.width
    if h % 10 or w % 10:
        raise ValueError(f"frame {w}x{h} not divisible by kernel 10")
    keys, starts = stream.keys, []
    for lo in range(0, keys.size, _POOL_BLOCK):
        last = keys[lo + 9:lo + 9 + _POOL_BLOCK]  # keys[i + 9], up to the stream's end
        head = keys[lo:lo + last.size]
        runs = head[last - head == 9]
        starts.append(runs[runs % 10 == 0])
    rows = np.concatenate(starts) if starts else np.empty(0, dtype=np.int64)
    # The tile of each run start: its row // 10 is frame * (h // 10) + y // 10.
    tiles = rows // (w * 10) * (w // 10) + rows % w // 10
    tiles.sort()
    head = tiles[:max(tiles.size - 9, 0)]  # a tile listed 10 times starts a run of 10
    return FrameStream(head[head == tiles[9:]], n, w // 10, h // 10)


def frame_not(a: BinaryFrame) -> BinaryFrame:
    return BinaryFrame(~a.bits)


def popcount(frame: BinaryFrame) -> int:
    """Number of set bits."""
    return int(frame.bits.sum())


def cell_centroid(cells: np.ndarray, width: int, height: int) -> tuple:
    """Mean coordinate (x, y) of the set bits of a width x height frame,
    given by their flat indices `cells` (y * width + x), normalized to
    [0,1] per axis.

    Each axis is divided by (dimension - 1) so a single-bit frame maps the
    bit's pixel coordinates exactly; resolution-independent by design.
    """
    if cells.size == 0:
        raise ValueError("centroid of an empty frame is undefined")
    rows, cols = np.divmod(cells, width)
    x = float(cols.mean()) / (width - 1) if width > 1 else 0.0
    y = float(rows.mean()) / (height - 1) if height > 1 else 0.0
    return x, y
