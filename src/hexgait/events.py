"""Event streams on disk: the event file, written from and read into
`FrameStream` keys.

In memory an event stream is only ever a stream's keys. `save_events`
writes one event per key, stamped mid-window; `load_frames` reads a file
back into keys, every event checked against the file's sensor and then
centre-cropped. The block decoder alone reads the file, whose format is:
1. A comment runs from `#` to the end of its line and may hold any byte.
2. Outside comments, a line holds only printable ASCII and tabs, and may
   end in CR+LF; a last line without a newline gets one.
3. Blank and comment lines may come before the header. The first other
   line is `!sensor WxH`: W and H ASCII digits up to int64, `x` or `X`
   between them. Else `line N: bad sensor header '<text>'` if the line
   begins `!sensor`, or `missing !sensor WxH header`.
4. After it, each line is blank, a comment, or `x,y,t`: 1 to 16 ASCII
   digits per field, spaces or tabs around fields. Else `line N:
   expected x,y,t_us, got '<text>'`, its text as `atomic.quoted` shows it.
"""
from __future__ import annotations

import re

import numpy as np

from .atomic import quoted, text_lines, write_atomic
from .config import MAX_FRAMES, _window_us
from .errors import DataError
from .frames import FrameStream, _check_frame_count

_INT64_MAX = np.iinfo(np.int64).max


def _frame_keys(x, y, t, window_us: int, sensor, crop, width: int, height: int,
                first: int):
    """(keys, n_frames) of the event columns x, y and t, keys None if
    n_frames is over the cap. An event off the sensor (W, H) is a
    DataError, numbered from `first`; the others are rebased to the
    width x height region at `crop` = (left, top), and those inside it kept."""
    # Two maxima, not a mask: a mask is built only to name an event off it.
    if x.max(initial=0) >= sensor[0] or y.max(initial=0) >= sensor[1]:
        i = int(np.flatnonzero((x >= sensor[0]) | (y >= sensor[1]))[0])
        raise DataError(f"event {first + i} at ({x[i]},{y[i]}) outside "
                        f"{sensor[0]}x{sensor[1]} sensor")
    left, top = crop
    # Rebased in int64, where a coordinate before the crop reads as a huge
    # unsigned one.
    x, y = x - left, y - top
    rows = np.flatnonzero((x.view(np.uint64) < width) & (y.view(np.uint64) < height))
    x, y, t = x[rows], y[rows], t[rows]
    keys = t // window_us  # frame index
    n_frames = int(keys.max()) + 1 if keys.size else 0
    if n_frames > MAX_FRAMES:  # before a wild frame index overflows a key
        return None, n_frames
    keys *= height
    keys += y
    keys *= width
    keys += x
    return keys, n_frames


def centered_crop(sensor_w: int, sensor_h: int, width: int, height: int):
    """(left, top) of a centered width x height region of the sensor."""
    if width > sensor_w or height > sensor_h:
        raise DataError(
            f"sensor {sensor_w}x{sensor_h} is smaller than the {width}x{height} frame")
    return (sensor_w - width) // 2, (sensor_h - height) // 2


_SAVE_BLOCK = 8192  # events formatted per chunk of an event file


def save_events(path, keys, width: int, height: int, window_ms: float) -> None:
    """Write the event file of the keys of a width x height stream: one
    event per key, stamped mid-window, on a width x height sensor.

    No integer is formatted per event. Python formats tables of strings
    once per call: `"v,"` for v below 1000, then the same zero-padded to
    3 digits, and the thousands of the longer side, whose count follows
    max(width, height) // 1000, not the side. Each block of keys is split
    into its x, y and frame columns by `divmod`. A coordinate's text is
    gathered from the first table, its thousands put in front only where
    they are nonzero. Each run of keys in one frame shares one stamp
    text. numpy gathers the references into an (n, 3) object array, and
    one join writes the block. Only one block's columns and text are
    alive at a time.
    """
    window_us = _window_us(window_ms)  # before a temp file is opened
    below = np.array([f"{v}," for v in range(1000)] + [f"{v:03d}," for v in range(1000)],
                     dtype=object)
    thousands = np.array([str(k) for k in range(max(width, height) // 1000 + 1)],
                         dtype=object)

    def coordinates(v, out):
        """The texts `"v,"` of coordinates v, into object column `out`."""
        high, low = np.divmod(v, 1000)
        big = np.flatnonzero(high)
        low[big] += 1000  # zero-padded after its thousands
        below.take(low, out=out)
        out[big] = thousands.take(high[big]) + out[big]

    def chunks():
        yield f"!sensor {width}x{height}\n"
        for lo in range(0, len(keys), _SAVE_BLOCK):
            frame, x = np.divmod(keys[lo:lo + _SAVE_BLOCK], width)  # frame holds rows
            frame, y = np.divmod(frame, height, out=(frame, None))
            text = np.empty((len(frame), 3), dtype=object)
            coordinates(x, text[:, 0])
            coordinates(y, text[:, 1])
            starts = np.empty(len(frame), dtype=bool)  # where a run of one frame starts
            starts[:1] = True
            np.not_equal(frame[1:], frame[:-1], out=starts[1:])
            stamps = np.array([f"{f * window_us + window_us // 2}\n"
                               for f in frame[starts].tolist()], dtype=object)
            run = np.cumsum(starts)
            run -= 1
            stamps.take(run, out=text[:, 2])
            yield "".join(text.ravel().tolist())

    write_atomic(path, chunks())


_BLOCK = 1 << 16  # bytes of an event file read at a time by the block decoder
_HEADER = re.compile(rb"!sensor[ \t]+0*([0-9]{1,19})[xX]0*([0-9]{1,19})")
_TEXT = bytes(range(32, 127)) + b"\t\n\r"  # printable ASCII, tab, line ends
_COMMENT = re.compile(rb"#[^\n]*")
_SPLIT_FIELD = re.compile(rb"[0-9][ \t]+[0-9]")
_BLANK_LINES = re.compile(rb"\n+")
_PAD = bytes(16)


def _sensor(text: bytes):
    """(W, H) of a `!sensor WxH` header text; None if it is anything else
    or beyond int64, where crop offsets no longer fit a column."""
    match = _HEADER.fullmatch(text)
    dims = match and tuple(map(int, match.groups()))
    return dims if dims and max(dims) <= _INT64_MAX else None


def _bare(block: bytes):
    """`block`, whole lines, with comments, blank lines and the spaces,
    tabs and CRs around fields removed; None if, outside its comments, it
    is not printable ASCII and tabs with every CR before an LF, or if
    whitespace splits a field."""
    # A comment leaves its "#", so that a CR before it is no CRLF.
    block = _COMMENT.sub(b"#", block)
    if (block.translate(None, _TEXT) or block.count(b"\r") != block.count(b"\r\n")
            or _SPLIT_FIELD.search(block)):
        return None
    return _BLANK_LINES.sub(b"\n", block.translate(None, b" \t\r#")).lstrip(b"\n")


def _split(block: bytes):
    """(words, ends, lens) of bare lines of 3 fields of 1 to 16 digits, or
    None if `block` is anything else.

    words[i] is the little-endian uint64 of bytes i to i + 7 of 16 pad
    bytes then `block`. ends[i, j] is the offset in `block` of the comma
    or newline after field j of line i, so that field's last 16 bytes
    make words[ends[i, j]] and words[8:][ends[i, j]]; lens[i, j] is its
    digit count.
    """
    padded = _PAD + block
    body = np.frombuffer(padded, dtype=np.uint8, offset=16)
    ends = np.flatnonzero(body < 48)  # below "0": commas and newlines, if bare
    if ends.size % 3 or body.max(initial=48) > 57:
        return None
    lens = np.empty_like(ends)
    np.subtract(ends[1:], ends[:-1], out=lens[1:])
    lens[:1] = ends[:1] + 1
    lens -= 1
    ends, lens = ends.reshape(-1, 3), lens.reshape(-1, 3)
    if not (body.take(ends).tobytes() == b",,\n" * len(ends)
            and lens.min(initial=1) >= 1 and lens.max(initial=16) <= 16):
        return None
    words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    return words, ends, lens


# For a field of n = 0 to 16 digits, masks of the first and the last 8 of
# its 16 bytes as little-endian words: 0x0F on its digits, 0 before them.
_NIBBLES = 0x0F0F0F0F0F0F0F0F
_HIGH_DIGITS = np.array([(_NIBBLES << 8 * (16 - n)) % 2**64 for n in range(17)],
                        dtype=np.uint64)
_LOW_DIGITS = np.array([(_NIBBLES << 8 * max(8 - n, 0)) % 2**64 for n in range(17)],
                       dtype=np.uint64)


def _digits8(words: np.ndarray) -> np.ndarray:
    """Values of uint64 words of 8 digit bytes 0 to 9, the first the most
    significant, in place: three multiply-shift steps (SWAR; Langdale and
    Lemire 2019, "Parsing gigabytes of JSON per second")."""
    words *= 2561  # 10 * 2**8 + 1: byte pairs to values 0..99
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 6553601  # 100 * 2**16 + 1: pairs of those to 0..9999
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 42949672960001  # 10**4 * 2**32 + 1: pairs of those to 0..10**8 - 1
    words >>= 32
    return words


def _decode(words, ends, lens) -> np.ndarray:
    """int64 values of the fields at `ends` of `lens` digits (see _split).
    The bytes before a field are masked to 0, so they read as leading
    zeros; the first 8 of 16 are read only if a field is longer."""
    values = words[8:].take(ends)  # `take` gathers the unaligned words faster than []
    values &= _LOW_DIGITS.take(lens)
    _digits8(values)
    if lens.max(initial=0) > 8:
        high = words.take(ends)
        high &= _HIGH_DIGITS.take(lens)
        values += _digits8(high) * 100_000_000
    return values.view(np.int64)


def _columns(block: bytes):
    """(x, y, t) of a block of lines, all three fields decoded in one
    pass; None unless they are bare lines, or become so by `_bare`.
    A function of its own, so that `_split`'s temporaries die on return."""
    parts = _split(block)
    if parts is None and (block := _bare(block)) is not None:
        parts = _split(block)
    return None if parts is None else _decode(*parts).T


def _decoded(path):
    """Yields an event file's sensor (W, H) from its header, then the
    (x, y, t) of each block of about _BLOCK bytes of its events, in file
    order. A DataError names the first line outside the format of the
    module docstring, or the missing header."""
    with open(path, "rb") as fh:
        lineno, text = next(text_lines(fh), (1, b""))
        if (sensor := _sensor(text)) is None:
            if text.startswith(b"!sensor"):
                raise DataError(f"line {lineno}: bad sensor header {quoted(text)}")
            raise DataError("missing !sensor WxH header")
        yield sensor
        offset = fh.tell()
        for block in _line_blocks(fh):
            columns = _columns(block)
            if columns is None:
                raise _bad_line(fh, offset, block)
            yield columns
            del columns  # before the next block is decoded
            offset += len(block)


def _line_blocks(fh):
    """Blocks of whole lines of the rest of binary file `fh`, read _BLOCK
    bytes at a time; a last line without a newline gets one. A line
    longer than a block is joined from its pieces once."""
    pieces = []
    while block := fh.read(_BLOCK):
        cut = block.rfind(b"\n") + 1
        if cut:
            pieces.append(memoryview(block)[:cut])
            yield b"".join(pieces)
            pieces = [block[cut:]]
        else:
            pieces.append(block)
    if rest := b"".join(pieces):
        yield rest + b"\n"


def _bad_line(fh, offset: int, block: bytes) -> DataError:
    """The error naming the first line of `block`, at byte `offset` of
    binary file `fh`, that `_columns` does not take. Only here are lines
    counted: the newlines before the block, read _BLOCK bytes at a time."""
    fh.seek(0)
    lineno = 1
    for start in range(0, offset, _BLOCK):
        lineno += fh.read(min(_BLOCK, offset - start)).count(b"\n")
    for lineno, text in text_lines(block.split(b"\n"), lineno):
        # The "#" keeps a CR left at the end of the text from reading as a CRLF.
        if _columns(text + b"#\n") is None:
            return DataError(f"line {lineno}: expected x,y,t_us, got {quoted(text)}")


def load_frames(path, window_ms: float, width: int, height: int) -> FrameStream:
    """The frames of an event file, centre-cropped to width x height.

    An event at (x, y, t_us), rebased to the crop, sets pixel (x, y) of
    frame t_us // window_us: each frame is the OR of its window's events,
    and there are ceil((t_max + 1) / window_us) frames for t_max the
    latest kept event, none if no event is kept.

    The block decoder only reads: it yields the sensor and then the
    decoded columns of the file a block at a time, and raises a DataError
    naming the first line that is not in the format. Each block's events
    are checked against the sensor and then cropped here; the block is
    checked against the frame cap and its keys are appended to one
    buffer, so memory follows the kept events, not the size of the file.
    A sensor or bounds error is raised only once the rest of the file has
    been read, so a malformed line anywhere is reported first: which error
    a file gets must not depend on where its blocks end, and the tests
    check this from 1-byte blocks up. Events are numbered in file order,
    so a bounds error names the event's place in the file. Each of these
    errors reads `bad event file P: ` and then the problem.
    """
    window_us = _window_us(window_ms)
    try:
        return _read_frames(path, window_us, width, height)
    except DataError as exc:
        raise DataError(f"bad event file {path}: {exc}") from exc


def _read_frames(path, window_us: int, width: int, height: int) -> FrameStream:
    """load_frames at a window of window_us, its errors not yet naming the file."""
    blocks = _decoded(path)
    sensor = next(blocks)
    keys = bytearray()
    n_frames = first = 0
    try:
        crop = centered_crop(*sensor, width, height)
        for x, y, t in blocks:
            block_keys, n = _frame_keys(x, y, t, window_us, sensor, crop, width,
                                        height, first)
            first += x.size
            n_frames = max(n_frames, n)
            if n_frames <= MAX_FRAMES:
                keys.extend(block_keys)
            # Free this block's decoded columns before the next block is
            # decoded, so the two are never alive at once: the heap is
            # then not grown and trimmed again for each block.
            del x, y, t
    except DataError:  # after any malformed line, wherever blocks end
        for _ in blocks:
            pass
        raise
    _check_frame_count(n_frames)  # after every bounds check
    return FrameStream.from_keys(np.frombuffer(keys, dtype=np.int64), n_frames,
                                 width, height)
