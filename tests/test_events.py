import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import reference_event_text
from hexgait.cli import _ingest_events, main
from hexgait.config import MAX_FRAMES, _MAX_WINDOW_US, _window_us
from hexgait.errors import DataError
from hexgait.events import _SAVE_BLOCK, centered_crop, load_frames, save_events
from hexgait.frames import FrameStream
from hexgait.neurons import WeightMap, save_weights


def load_triples(tmp_path, triples, window_ms, width, height, sensor=None):
    """load_frames of an event file of (x, y, t) triples, in the given
    order, on a `sensor` = (W, H) sensor, width x height by default."""
    sensor_w, sensor_h = sensor or (width, height)
    path = tmp_path / "ev.txt"
    path.write_text(f"!sensor {sensor_w}x{sensor_h}\n"
                    + "".join(f"{x},{y},{t}\n" for x, y, t in triples))
    return load_frames(path, window_ms, width, height)


def test_empty_stream(tmp_path):
    assert len(load_triples(tmp_path, [], 40, 10, 10)) == 0


def test_single_event(tmp_path):
    stream = load_triples(tmp_path, [(5, 7, 10_000)], 40, 16, 16)
    assert len(stream) == 1
    assert stream.frames[0].bits[7, 5]
    assert stream.frames[0].bits.sum() == 1


def test_window_under_one_microsecond_rejected(tmp_path):
    # Timestamps are whole microseconds: such a window would divide by 0,
    # or stamp every event t = 0. Past (10**16 - 1) // MAX_FRAMES us, the
    # timestamps of a long stream would outgrow a field's 16 digits, and
    # far past it overflow int64. A writer rejects
    # the window before it opens a temp file, so it leaves no file behind.
    stream = load_triples(tmp_path, [(1, 1, 5)], 0.001, 4, 4)
    path = tmp_path / "out" / "events.txt"
    path.parent.mkdir()
    for window_ms in (0.0, 0.0001, 0.0005, float("inf"), float("nan"), 5e13, 1e16):
        with pytest.raises(ValueError, match="at least 1 us"):
            load_triples(tmp_path, [(1, 1, 5)], window_ms, 4, 4)
        with pytest.raises(ValueError, match="at least 1 us"):
            save_events(path, stream.keys, 4, 4, window_ms)
        assert os.listdir(path.parent) == []
    assert len(stream) == 6
    save_events(path, stream.keys, 4, 4, 0.001)
    assert path.read_text() == "!sensor 4x4\n1,1,5\n"


def test_out_of_bounds_reports_index(tmp_path):
    with pytest.raises(DataError, match="event 1 at"):
        load_triples(tmp_path, [(0, 0, 0), (20, 0, 10)], 40, 16, 16)


@st.composite
def streams(draw):
    """A FrameStream of up to 6 frames whose last frame has a set pixel:
    an empty frame after the last event leaves no trace in an event file."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    n_frames = draw(st.integers(0, 6))
    size = n_frames * width * height
    keys = set()
    if n_frames:
        keys = draw(st.sets(st.integers(0, size - 1), max_size=40))
        keys.add(draw(st.integers(size - width * height, size - 1)))  # the last frame
    return FrameStream(np.array(sorted(keys), dtype=np.int64), n_frames, width, height)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(streams(), st.sampled_from([0.001, 0.002, 0.013, 33.3335, 40.0]))
def test_event_file_roundtrip(tmp_path, stream, window_ms):
    """One mid-window event per key reads back as the same keys and frame
    count, also for windows of 1 or an odd number of us."""
    path = tmp_path / "ev.txt"
    save_events(path, stream.keys, stream.width, stream.height, window_ms)
    loaded = load_frames(path, window_ms, stream.width, stream.height)
    assert np.array_equal(loaded.keys, stream.keys)
    assert loaded.n_frames == stream.n_frames


# Sides below 10**4, whose coordinates reach every entry of the writer's
# 2,000-string table, and sides of 10**6 and more.
_SIDES = st.one_of(st.integers(1, 9999), st.integers(10**6, 10**7))


@st.composite
def written_keys(draw):
    """(keys, width, height): sorted, distinct keys of up to 4 frames, any
    of them empty and the frames between them too. A frame holds a few
    drawn pixels and 0, 5 or about a block of random ones, so a frame can
    straddle the writer's blocks of _SAVE_BLOCK keys."""
    width, height = draw(_SIDES), draw(_SIDES)
    area = width * height
    frames = draw(st.sets(st.integers(0, min(MAX_FRAMES, (2**63 - 1) // area) - 1),
                          max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [np.empty(0, dtype=np.int64)]
    for frame in frames:
        pixels = draw(st.lists(st.tuples(st.integers(0, width - 1),
                                         st.integers(0, height - 1)), max_size=3))
        parts.append(np.array([(frame * height + y) * width + x for x, y in pixels],
                              dtype=np.int64))
        n = draw(st.sampled_from([0, 5, _SAVE_BLOCK - 3, _SAVE_BLOCK + 1]))
        parts.append(frame * area + rng.integers(0, area, n))
    return np.unique(np.concatenate(parts)), width, height


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(written_keys(), st.integers(1, _MAX_WINDOW_US))
@example((np.array([1007, 2000 * 1007 + 999]), 2000, 1100), 40_000)
@example((np.array([], dtype=np.int64), 1, 1), 1)
def test_save_events_writes_the_reference_text(tmp_path, stream, window_us):
    """The writer's file is the reference's, byte for byte, for any side,
    block layout and window, the stamps up to 16 digits."""
    keys, width, height = stream
    path = tmp_path / "ev.txt"
    save_events(path, keys, width, height, window_us / 1000)
    assert path.read_text() == reference_event_text(keys, width, height, window_us)


def test_save_events_tables_follow_the_side_over_1000(tmp_path):
    """Two keys of a frame with a side of 10**6: the writer's tables grow
    with the side / 1000, not the side. A table over the whole side would
    take about 60 MB."""
    path = tmp_path / "ev.txt"
    for width, height in ((10, 10**6), (10**6, 10)):
        x = np.array([min(1007, width - 1), width - 1])
        y = np.array([min(1007, height - 1), height - 1])
        keys = y * width + x
        save_events(path, keys, width, height, 40)  # warm up numpy's lazy imports
        tracemalloc.start()
        try:
            save_events(path, keys, width, height, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_text() == reference_event_text(keys, width, height, 40_000)
        assert peak < 2**20, f"{peak / 2**20:.2f} MiB"


def test_event_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("!sensor 10x10\n1,2\n")
    with pytest.raises(DataError, match="line 2:"):
        load_frames(path, 40, 10, 10)
    path.write_bytes(b"!sensor 10x10\n1,2,3 caf\xe9\n")  # non-ASCII outside a comment
    with pytest.raises(DataError, match=r"line 2: .* got '1,2,3 caf\\xe9'"):
        load_frames(path, 40, 10, 10)
    path.write_text("1,2,3\n")
    with pytest.raises(DataError, match="missing !sensor"):
        load_frames(path, 40, 10, 10)  # missing header


def test_event_file_comments_and_sorting(tmp_path):
    """Comments, which may hold any byte, are skipped, and events out of
    time order give sorted keys."""
    path = tmp_path / "ev.txt"
    path.write_bytes(b"# caf\xc3\xa9\n!sensor 8x8\n3,3,500\n1,1,100  # caf\xe9\xff\n")
    stream = load_frames(path, 0.1, 8, 8)  # frames 5 and 1
    assert stream.keys.tolist() == [64 + 8 + 1, 5 * 64 + 3 * 8 + 3]
    assert stream.n_frames == 6


def test_malformed_line_is_reported_before_a_bounds_or_sensor_error(tmp_path):
    """Which error a file gets does not depend on where its blocks end,
    also when the malformed line is some blocks past the event out of
    bounds."""
    path = tmp_path / "ev.txt"
    path.write_text("!sensor 8x8\n9,1,5\n" + "1,1,5\n" * 20_000 + "1,2\n")
    for size in (8, 16):  # an event out of bounds; a sensor smaller than the frame
        with pytest.raises(DataError, match="line 20003:"):
            load_frames(path, 40, size, size)


def test_largest_window_round_trips(tmp_path):
    """At the largest window, the last stamp of the longest stream fits a
    field's 16 digits, so the file loads back; one us more is rejected."""
    window_ms = _MAX_WINDOW_US / 1000
    stream = FrameStream(np.array([0, 4 * MAX_FRAMES - 1]), MAX_FRAMES, 2, 2)
    path = tmp_path / "ev.txt"
    save_events(path, stream.keys, 2, 2, window_ms)
    assert path.read_text().splitlines()[-1] == "1,1,9999944444434444"
    loaded = load_frames(path, window_ms, 2, 2)
    assert np.array_equal(loaded.keys, stream.keys)
    assert loaded.n_frames == MAX_FRAMES
    with pytest.raises(ValueError, match="at most"):
        _window_us((_MAX_WINDOW_US + 1) / 1000)


def test_one_sensor_header_per_file(tmp_path, capsys):
    """The first line that is not blank or a comment is the one header; a
    later `!sensor` line is a malformed event line, not a second header
    that re-crops every event. A header's sizes are plain digits."""
    path = tmp_path / "ev.txt"
    path.write_text("!sensor 600x600\n1,1,0\n!sensor 800x800\n700,700,5\n")
    assert main(["--out", str(tmp_path / "out"), "energy", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"data error: bad event file {path}: line 3: expected x,y,t_us, "
        "got '!sensor 800x800'\n")
    for header in ("!sensor +8x8", "!sensor 8 x 8", "!sensor 8_0x8"):
        path.write_text(f"# recorded\n{header}\n1,1,0\n")
        message = f"line 2: bad sensor header '{header}'"
        with pytest.raises(DataError, match=re.escape(message)):
            load_frames(path, 40, 8, 8)


def test_a_cr_ends_a_line_only_before_its_lf(tmp_path):
    """A CR is half a CR+LF, also at the end of a file, where a last line
    without a newline gets one; a CR before a comment is a lone CR."""
    path = tmp_path / "ev.txt"
    path.write_bytes(b"!sensor 8x8\r\n1,2,3 # c\r\n3,4,5\r")
    assert load_frames(path, 40, 8, 8).keys.tolist() == [2 * 8 + 1, 4 * 8 + 3]
    path.write_bytes(b"!sensor 8x8\n1,2,3\r# c\n")
    message = r"line 2: expected x,y,t_us, got '1,2,3\r'"
    with pytest.raises(DataError, match=re.escape(message)):
        load_frames(path, 40, 8, 8)


def test_crop(tmp_path):
    triples = [(100, 100, 0), (700, 400, 1), (1279, 799, 2)]
    left, top = centered_crop(1280, 800, 600, 600)
    assert (left, top) == (340, 100)
    stream = load_triples(tmp_path, triples, 40, 600, 600, sensor=(1280, 800))
    assert stream.keys.tolist() == [300 * 600 + 360]
    assert stream.n_frames == 1


def test_event_off_a_sensor_larger_than_the_frame_exits_3(tmp_path, capsys):
    """Every event is checked against its file's sensor, whatever the
    sensor's size; events are numbered in file order, not time order."""
    weights = tmp_path / "weights.txt"
    save_weights(weights, WeightMap.zeros(60, 60))
    out = tmp_path / "out"
    for triples, error in (
            ([(100, 100, 0), (800, 10, 40000)], "event 1 at (800,10)"),
            ([(300, 300, 80000), (5000, 150, 20000), (800, 10, 5)],
             "event 1 at (5000,150)")):
        message = f"{error} outside 800x800 sensor"
        with pytest.raises(DataError, match=re.escape(message)):
            load_triples(tmp_path, triples, 40, 600, 600, sensor=(800, 800))
        path = str(tmp_path / "ev.txt")
        for argv in (["energy", path], ["test", str(weights), path]):
            assert main(["--out", str(out), *argv]) == 3, argv
            assert capsys.readouterr().err == (
                f"data error: bad event file {path}: {message}\n")
    assert not (out / "test_raster.txt").exists()


def _ingest_peak(cfg, path):
    """(stream, allocation peak) of the CLI's ingest of an event file."""
    _ingest_events(cfg, path)  # warm up numpy's lazy imports and caches
    tracemalloc.start()
    try:
        stream = _ingest_events(cfg, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return stream, peak


def _salt_file(path, n, sensor):
    """An event file of n uniform salt events on a sensor x sensor sensor."""
    rng = np.random.default_rng(0)
    rows = np.column_stack([rng.integers(0, sensor, n), rng.integers(0, sensor, n),
                            np.sort(rng.integers(0, 432 * 40_000, n))])
    np.savetxt(path, rows, fmt="%d", delimiter=",", header=f"!sensor {sensor}x{sensor}",
               comments="")


def test_ingest_memory_per_event(tmp_path, cfg):
    """Allocation peak of the CLI's event-file ingest per input event.

    100k salt events on an 800x800 sensor, 56% inside the 600x600 crop.
    The file is decoded 64 KiB at a time, so the peak is the keys of the
    kept events, 8 B each, their deduplicated copy (salt repeats a few
    pixels) and one block's temporaries. It measured 11.5 B per event here
    (6.6 on the 657k-event replay-noisy benchmark input, where no key
    repeats). Parsing the whole file first into 16-byte records measured
    19.7 (18.8); holding all records while a whole-array crop copied the
    kept columns, 26.0 (27.1); with int64 rows, int64 column copies and a
    sorted copy of the keys, 38.5 (40.2).
    """
    n = 100_000
    path = tmp_path / "noisy.txt"
    _salt_file(path, n, 800)
    stream, peak = _ingest_peak(cfg, path)
    assert len(stream.keys) > n // 2
    assert peak <= 16 * n, f"{peak / n:.1f} B per event"


def test_ingest_memory_follows_kept_events(tmp_path, cfg):
    """The ingest peak follows the kept events, not the file.

    100k salt events on a 1900x1900 sensor, 10% inside the 600x600 crop.
    Past one block's temporaries (well under 1 MiB), only the kept events
    take memory, 16 B each at most: a key and its deduplicated copy. It
    measured 6.5 B per input event here; a whole-file parse into 16-byte
    records measured 17.1.
    """
    n = 100_000
    path = tmp_path / "sparse.txt"
    _salt_file(path, n, 1900)
    stream, peak = _ingest_peak(cfg, path)
    kept = len(stream.keys)
    assert n // 20 < kept < n // 5
    assert peak <= 16 * kept + (1 << 20), f"{peak / n:.1f} B per event"


def test_bad_last_line_memory_per_event(tmp_path):
    """Allocation peak of an ingest that ends at a malformed last line.

    100k salt events on an 800x800 sensor, then one `+1,1,1` line, which
    is outside the format. The blocks before it are ingested as in
    `test_ingest_memory_per_event`, and the line is counted by a second
    read of the file, a block at a time. It measured 14.6 B per event
    here; reading the whole file into one int64 array first, at 24 B per
    event, measured 64.0.
    """
    n = 100_000
    path = tmp_path / "signed.txt"
    _salt_file(path, n, 800)
    with open(path, "a") as fh:
        fh.write("+1,1,1\n")
    warm = tmp_path / "warm.txt"
    warm.write_text("!sensor 800x800\n1,1,1\n")
    load_frames(warm, 40, 600, 600)  # warm up numpy's lazy imports
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=r"line 100002: expected x,y,t_us, got '\+1"):
            load_frames(path, 40, 600, 600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n, f"{peak / n:.1f} B per event"


def test_save_events_memory_per_event(tmp_path):
    """Allocation peak of writing an event file, per event written.

    100k keys of a 432-frame stream. The peak is the string tables and
    one block's: its x, y and frame columns, its (n, 3) object array of
    text references, the list of them and the joined text, about 0.9 MB
    whatever the event count. A full (n, 3) int64 `column_stack` of the
    columns before the blocks measured 34.4 B per event (29.2 at 200k).
    """
    rng = np.random.default_rng(0)
    stream = FrameStream.from_keys(rng.integers(0, 432 * 600 * 600, 100_000), 432,
                                   600, 600)
    n = len(stream.keys)
    path = tmp_path / "events.txt"
    save_events(path, stream.keys, 600, 600, 40)  # warm up numpy's lazy imports
    tracemalloc.start()
    try:
        save_events(path, stream.keys, 600, 600, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(load_frames(path, 40, 600, 600).keys, stream.keys)
    assert peak <= 20 * n, f"{peak / n:.1f} B per event"


def test_load_frames_under_a_trace_function(tmp_path):
    """A Python trace function (a debugger, a coverage or line tracer) holds
    every local of a traced frame; the keys are the same under one."""
    path = tmp_path / "events.txt"
    path.write_text("!sensor 8x8\n1,2,40000\n3,4,5\n")

    def trace(frame, event, arg):
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        stream = load_frames(path, 40, 8, 8)
    finally:
        sys.settrace(previous)
    assert stream.keys.tolist() == [4 * 8 + 3, 64 + 2 * 8 + 1]
