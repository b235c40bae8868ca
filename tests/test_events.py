import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hexgait.cli import _ingest_events
from hexgait.errors import EventBoundsError, EventFileError
from hexgait.events import (EventArray, accumulate_frames, centered_crop,
                            crop_events, frames_to_events, load_events,
                            load_frames, save_events)


def events_of(triples):
    """EventArray of (x, y, t) triples, in the given order."""
    cols = np.array(triples, dtype=np.int64).reshape(-1, 3)
    return EventArray(cols[:, 0], cols[:, 1], cols[:, 2])


def brute_bucket(events, window_us, width, height):
    """Direct bucketing oracle for accumulate_frames."""
    if not len(events):
        return []
    n = int(events.t.max()) // window_us + 1
    frames = [np.zeros((height, width), dtype=bool) for _ in range(n)]
    for x, y, t in zip(events.x.tolist(), events.y.tolist(), events.t.tolist()):
        frames[t // window_us][y, x] = True
    return frames


def test_empty_stream():
    assert len(accumulate_frames(events_of([]), 40, 10, 10)) == 0


def test_single_event():
    stream = accumulate_frames(events_of([(5, 7, 10_000)]), 40, 16, 16)
    assert len(stream) == 1
    assert stream.frames[0].bits[7, 5]
    assert stream.frames[0].bits.sum() == 1


def test_window_under_one_microsecond_rejected():
    # Timestamps are whole microseconds: such a window would divide by 0,
    # or stamp every event t = 0. Past INT64_MAX // MAX_FRAMES us, the
    # timestamps of a long stream would overflow int64.
    stream = accumulate_frames(events_of([(1, 1, 5)]), 0.001, 4, 4)
    for window_ms in (0.0, 0.0001, 0.0005, float("inf"), float("nan"), 5e13, 1e16):
        with pytest.raises(ValueError, match="at least 1 us"):
            accumulate_frames(events_of([(1, 1, 5)]), window_ms, 4, 4)
        with pytest.raises(ValueError, match="at least 1 us"):
            frames_to_events(stream, window_ms)
    assert len(stream) == 6
    assert frames_to_events(stream, 0.001) == events_of([(1, 1, 5)])


def test_window_boundary():
    events = events_of([(3, 3, 0), (3, 3, 39_999), (3, 3, 40_000)])
    stream = accumulate_frames(events, 40, 8, 8)
    expected = brute_bucket(events, 40_000, 8, 8)
    assert len(stream) == len(expected) == 2
    for frame, exp in zip(stream.frames, expected):
        assert np.array_equal(frame.bits, exp)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15),
                          st.integers(0, 200_000)), max_size=60),
       st.randoms())
def test_accumulate_matches_oracle_and_order_invariance(triples, rnd):
    events = events_of(triples)
    stream = accumulate_frames(events, 40, 16, 16)
    expected = brute_bucket(events, 40_000, 16, 16)
    assert len(stream) == len(expected)
    for frame, exp in zip(stream.frames, expected):
        assert np.array_equal(frame.bits, exp)
    shuffled = list(triples)
    rnd.shuffle(shuffled)
    stream2 = accumulate_frames(events_of(shuffled), 40, 16, 16)
    assert stream.frames == stream2.frames


def test_out_of_bounds_reports_index():
    events = events_of([(0, 0, 0), (20, 0, 10)])
    with pytest.raises(EventBoundsError, match="event 1 at"):
        accumulate_frames(events, 40, 16, 16)


def test_event_file_roundtrip(tmp_path):
    events = events_of([(1, 2, 30), (5, 5, 99_000)])
    path = tmp_path / "ev.txt"
    save_events(path, events, 600, 600)
    loaded, w, h = load_events(path)
    assert (w, h) == (600, 600)
    assert loaded == events


def test_event_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("!sensor 10x10\n1,2\n")
    with pytest.raises(EventFileError, match="line 2:"):
        load_events(path)
    path.write_text("1,2,3\n")
    with pytest.raises(EventFileError):
        load_events(path)  # missing header


def test_event_file_comments_and_sorting(tmp_path):
    path = tmp_path / "ev.txt"
    path.write_text("# comment\n!sensor 8x8\n3,3,500\n1,1,100  # inline\n")
    events, _, _ = load_events(path)
    assert events.t.tolist() == [100, 500]


def test_malformed_line_is_reported_before_a_bounds_or_sensor_error(tmp_path):
    """As by a parse of the whole file first, also when the malformed line
    is some blocks past the event out of bounds."""
    path = tmp_path / "ev.txt"
    path.write_text("!sensor 8x8\n9,1,5\n" + "1,1,5\n" * 20_000 + "1,2\n")
    for size in (8, 16):  # an event out of bounds; a sensor smaller than the frame
        with pytest.raises(EventFileError, match="line 20003:"):
            load_frames(path, 40, size, size)


def test_crop():
    events = events_of([(100, 100, 0), (700, 400, 1), (1279, 799, 2)])
    left, top = centered_crop(1280, 800, 600, 600)
    assert (left, top) == (340, 100)
    cropped = crop_events(events, left, top, 600, 600)
    assert cropped == events_of([(360, 300, 1)])


def test_frames_to_events_roundtrip():
    rng = np.random.default_rng(2)
    events = EventArray(rng.integers(0, 16, 30), rng.integers(0, 16, 30),
                        rng.integers(0, 200_000, 30))
    stream = accumulate_frames(events, 40, 16, 16)
    rebuilt = accumulate_frames(frames_to_events(stream, 40.0), 40, 16, 16)
    assert stream.frames == rebuilt.frames


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.integers(0, 39), st.integers(0, 29),
                          st.integers(0, 200_000)), max_size=40))
def test_crop_and_accumulate_leave_their_input_unchanged(tmp_path, triples):
    """Both build their output in arrays of their own, also from the
    narrow, strided columns of a parsed file."""
    path = tmp_path / "ev.txt"
    save_events(path, events_of(triples), 40, 30)
    events, _, _ = load_events(path)
    before = EventArray(events.x.copy(), events.y.copy(), events.t.copy())
    cropped = crop_events(events, 10, 5, 20, 20)
    assert events == before
    accumulate_frames(events, 40, 40, 30)
    assert events == before
    kept = cropped.x.copy(), cropped.y.copy(), cropped.t.copy()
    accumulate_frames(cropped, 40, 20, 20)
    assert cropped == EventArray(*kept)


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
    events = EventArray(rng.integers(0, sensor, n), rng.integers(0, sensor, n),
                        np.sort(rng.integers(0, 432 * 40_000, n)))
    save_events(path, events, sensor, sensor)


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


def test_save_events_memory_per_event(tmp_path):
    """Allocation peak of writing an event file, per event written.

    100k events. The peak is one block's: its Python ints, their tuple
    and its text, about 1.2 MB whatever the event count. It measured
    12.3 B per event here (6.2 at 200k events). A full (n, 3) int64
    `column_stack` of the columns before the blocks measured 34.4 (29.2).
    """
    rng = np.random.default_rng(0)
    n = 100_000
    events = EventArray(rng.integers(0, 600, n), rng.integers(0, 600, n),
                        np.sort(rng.integers(0, 432 * 40_000, n)))
    path = tmp_path / "events.txt"
    save_events(path, events, 600, 600)  # warm up numpy's lazy imports and caches
    tracemalloc.start()
    try:
        save_events(path, events, 600, 600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert load_events(path)[0] == events
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
