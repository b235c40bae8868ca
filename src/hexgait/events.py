"""Event streams: file I/O, cropping, accumulation into binary frames.

Events are held as one struct of arrays, `EventArray`, with int64 `x`,
`y` and `t` columns. The on-disk format is plain text, one `x,y,t_us`
triple per line, `#` comments, and a sidecar header line `!sensor WxH`.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .atomic import write_atomic
from .errors import DataError, EventBoundsError, EventFileError
from .frames import FrameStream

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class EventArray:
    """Asynchronous pixel events: column, row, timestamp in microseconds.

    Three int64 arrays of one length, every value >= 0.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        cols = [np.asarray(c, dtype=np.int64) for c in (self.x, self.y, self.t)]
        if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
            raise ValueError("x, y and t must be 1-D arrays of one length")
        if cols[0].size and min(int(c.min()) for c in cols) < 0:
            raise ValueError("event fields must be >= 0")
        for name, c in zip("xyt", cols):
            object.__setattr__(self, name, c)

    def __len__(self) -> int:
        return self.t.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventArray):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in
                   zip((self.x, self.y, self.t), (other.x, other.y, other.t)))


def accumulate_frames(events: EventArray, window_ms: float, width: int,
                      height: int) -> FrameStream:
    """OR-accumulate events into binary frames of `window_ms` each.

    Frame count is ceil((t_max + 1) / window_us) for nonempty input, 0 for
    empty input. Any event in window k sets its pixel's bit in frame k.
    """
    if window_ms <= 0:
        raise ValueError(f"window_ms must be > 0, got {window_ms}")
    if not len(events):
        return FrameStream.from_pixels([], [], [], 0, width, height, window_ms)
    x, y = events.x, events.y
    outside = np.flatnonzero((x >= width) | (y >= height))
    if outside.size:
        i = int(outside[0])
        raise EventBoundsError(
            i, f"event {i} at ({x[i]},{y[i]}) outside {width}x{height} sensor")
    frame = events.t // int(round(window_ms * 1000))
    return FrameStream.from_pixels(frame, y, x, int(frame.max()) + 1, width,
                                   height, window_ms)


def frames_to_events(stream: FrameStream) -> EventArray:
    """Invert accumulation: one event per set pixel, mid-window timestamp."""
    window_us = int(round(stream.window_ms * 1000))
    frame, y, x = stream.pixels()
    return EventArray(x, y, frame * window_us + window_us // 2)


def crop_events(events: EventArray, left: int, top: int, width: int,
                height: int) -> EventArray:
    """Keep events inside the crop region and rebase coordinates to it."""
    x, y = events.x, events.y
    keep = (x >= left) & (x < left + width) & (y >= top) & (y < top + height)
    return EventArray(x[keep] - left, y[keep] - top, events.t[keep])


def centered_crop(sensor_w: int, sensor_h: int, width: int, height: int):
    """(left, top) of a centered width x height region of the sensor."""
    if width > sensor_w or height > sensor_h:
        raise DataError(
            f"sensor {sensor_w}x{sensor_h} is smaller than the {width}x{height} frame")
    return (sensor_w - width) // 2, (sensor_h - height) // 2


def save_events(path, events: EventArray, sensor_w: int, sensor_h: int) -> None:
    values = np.column_stack((events.x, events.y, events.t)).ravel().tolist()
    write_atomic(path, f"!sensor {sensor_w}x{sensor_h}\n"
                 + ("%d,%d,%d\n" * len(events)) % tuple(values))


def _sensor(line: str):
    """(W, H) of a `!sensor WxH` line; IndexError or ValueError if malformed."""
    dims = line.split(None, 1)[1]
    w, h = dims.lower().split("x")
    return int(w), int(h)


def _parse_bulk(path):
    """(rows, sensor) of an event file by np.loadtxt, or None.

    Handles the usual layout: comments, blank lines and `!sensor` headers
    before the first event, then only events and comments. None, or an
    IndexError or ValueError, means the line parser has to decide.
    """
    # np.loadtxt opens a str path through numpy.lib._datasource, which
    # decompresses by suffix and fetches URL-shaped names. So files so named
    # take the line parser, and the path handed over is absolute.
    if str(path).lower().endswith((".gz", ".bz2", ".xz", ".lzma")):
        return None
    sensor = None
    with open(path) as fh:
        for skip, raw in enumerate(fh):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if not line.startswith("!sensor"):
                break
            sensor = _sensor(line)
        else:
            skip = None
    if sensor is None:
        return None
    if skip is None:
        return np.empty((0, 3), dtype=np.int64), sensor
    # Given a path, numpy reads the file in C chunks, not one str per line.
    rows = np.loadtxt(os.path.abspath(path), delimiter=",", comments="#",
                      dtype=np.int64, ndmin=2, skiprows=skip)
    if rows.shape[1] != 3 or not rows.size or rows.min() < 0:
        return None
    return rows, sensor


def _parse_lines(path):
    """(rows, sensor) of an event file, one line at a time.

    The reference parser: it accepts whatever `int()` does and raises
    EventFileError naming the first bad line.
    """
    rows = []
    sensor = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("!sensor"):
                try:
                    sensor = _sensor(line)
                except (IndexError, ValueError):
                    raise EventFileError(lineno, f"line {lineno}: bad sensor header {line!r}")
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise EventFileError(lineno, f"line {lineno}: expected x,y,t_us, got {line!r}")
            try:
                row = [int(p) for p in parts]
                if not all(0 <= v <= _INT64_MAX for v in row):
                    raise ValueError(row)
            except ValueError:
                raise EventFileError(lineno, f"line {lineno}: bad event {line!r}")
            rows.append(row)
    if sensor is None:
        raise EventFileError(0, "missing !sensor WxH header")
    return np.array(rows, dtype=np.int64).reshape(-1, 3), sensor


def load_events(path):
    """Read an event file. Returns (events, sensor_w, sensor_h).

    The body is parsed in bulk; any line the bulk parse rejects, or a
    negative value, sends the whole file through the line parser, which
    raises EventFileError with the line number. A file that is not text
    in the locale's encoding is a DataError. Events are sorted by
    timestamp on ingest; the format permits non-strict ordering.
    """
    try:
        try:
            parsed = _parse_bulk(path)
        except (IndexError, ValueError):
            parsed = None
        rows, (w, h) = parsed or _parse_lines(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"bad event file {path}: {exc}") from exc
    if (rows[1:, 2] < rows[:-1, 2]).any():
        rows = rows[np.argsort(rows[:, 2], kind="stable")]
    return EventArray(rows[:, 0], rows[:, 1], rows[:, 2]), w, h
