"""The two fast paths against their references.

Tile-count pooling (`tile_pool`) against the dense `andpool`/`orpool`,
and the bulk event-file parse against the line parser.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hexgait import events
from hexgait.errors import DataError, DimensionError, EventFileError
from hexgait.events import EventArray, accumulate_frames, load_events
from hexgait.frames import (MAX_FRAMES, BinaryFrame, FrameStream, andpool,
                            orpool, tile_pool)


def _frame(rng, w, h, p_tile, density):
    """Full 10x10 tiles, full 2x2 tiles and salt, each at its own rate."""
    bits = rng.random((h, w)) < density
    bits |= np.kron(rng.random((h // 2, w // 2)) < p_tile, np.ones((2, 2), bool))
    bits |= np.kron(rng.random((h // 10, w // 10)) < p_tile, np.ones((10, 10), bool))
    return BinaryFrame(bits)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 4), st.floats(0, 1), st.floats(0, 1))
def test_tile_pool_matches_dense_pools(seed, tw, th, n, p_tile, density):
    rng = np.random.default_rng(seed)
    frames = [_frame(rng, 20 * tw, 20 * th, p_tile, density) for _ in range(n)]
    i10, body = tile_pool(FrameStream.from_frames(frames, 40.0))
    assert i10 == [andpool(f, 10) for f in frames]
    assert body == [orpool(andpool(f, 2), 10) for f in frames]
    leg_only, none = tile_pool(FrameStream.from_frames(frames, 40.0), body=False)
    assert leg_only == i10 and none is None


def test_tile_pool_divisibility():
    stream = FrameStream.from_frames([BinaryFrame.zeros(30, 20)], 40.0)
    assert tile_pool(stream, body=False)[0] == [BinaryFrame.zeros(3, 2, 10)]
    with pytest.raises(DimensionError, match="30x20.*20"):
        tile_pool(stream)


def test_stream_length_is_capped():
    one_line = EventArray([1], [1], [99_999_999_999])
    with pytest.raises(DataError, match="limit"):
        accumulate_frames(one_line, 40, 600, 600)
    with pytest.raises(DataError, match="limit"):
        FrameStream(np.empty(0, dtype=np.int64), MAX_FRAMES + 1, 600, 600, 40.0)


# Field tokens: mostly plain digits, plus what int() and np.loadtxt disagree
# on (signs, underscores, full-width and other Unicode digits) and what
# both reject.
_GOOD = st.integers(0, 10**6).map(str)
_ODD = st.sampled_from([
    "+5", "1_000", "１２", "٥", " 7 ", "\t8", "-3", "-0", "",
    "1.0", "0x1", "1e3", "99999999999999999999", "9223372036854775807", "2 3"])
_FIELD = st.one_of(_GOOD, _GOOD, _GOOD, _ODD)
_EVENT = st.lists(_FIELD, min_size=2, max_size=4).map(",".join)
_OTHER = st.sampled_from([
    "", "   ", "\t", "# comment", "   # indented comment", "!sensor 8x8",
    "!sensor 10X12 # inline", "!sensor bad", "!sensor", "1,2,3 # inline !"])
# Lines the bulk parse takes: it must agree with the line parser on these.
_PLAIN = st.one_of(
    st.tuples(_GOOD, _GOOD, _GOOD).map(",".join),
    st.tuples(_GOOD, _GOOD, _GOOD).map(lambda f: f" {f[0]} ,\t{f[1]}, {f[2]} # c"),
    st.sampled_from(["", "# comment", "1,2,3#"]))
# A negative value parses in bulk but is an error for the line parser.
_NEGATIVE = st.tuples(_GOOD, st.integers(-9, -1).map(str), _GOOD).map(",".join)
_LINES = st.one_of(
    st.lists(_PLAIN, max_size=12),
    st.tuples(st.lists(_PLAIN, max_size=8), _NEGATIVE, st.lists(_PLAIN, max_size=4))
    .map(lambda parts: parts[0] + [parts[1]] + parts[2]),
    st.lists(st.one_of(_PLAIN, _PLAIN, _EVENT, _OTHER), max_size=12))
_HEAD = st.sampled_from(["!sensor 600x600", "# made by hand\n!sensor 16x9", ""])


def _reference(path):
    """load_events as the line parser alone would return it."""
    rows, (w, h) = events._parse_lines(path)
    rows = rows[np.argsort(rows[:, 2], kind="stable")]
    return EventArray(rows[:, 0], rows[:, 1], rows[:, 2]), w, h


def _outcome(fn, path):
    try:
        return fn(path)
    except EventFileError as exc:
        return ("error", exc.line_number, str(exc))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_HEAD, _LINES, st.sampled_from(["\n", "\r\n"]))
def test_bulk_load_equals_line_parser(tmp_path, head, lines, newline):
    path = tmp_path / "events.txt"
    path.write_bytes(newline.join([head] + lines).encode() + b"\n")
    assert _outcome(load_events, path) == _outcome(_reference, path)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                          st.integers(0, 10**9)), max_size=40))
def test_plain_files_never_reach_the_line_parser(tmp_path, triples):
    path = tmp_path / "events.txt"
    path.write_text("# recorded\n!sensor 800x800\n"
                    + "".join(f"{x},{y},{t}  # ok\n" for x, y, t in triples))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(events, "_parse_lines", None)
        loaded, w, h = load_events(path)
    assert (w, h) == (800, 800)
    assert loaded == _reference(path)[0]
