"""The fast paths against their references.

Row-run pooling (`pooled_streams`) in blocks of several sizes against
the dense `andpool`; the event reader (the block decoder and
`load_frames`) against the line-by-line reference of the file format
and a crop and bucketing of whole arrays (`reference_events` and
`reference_frames` of conftest), all through one harness, `_read`, in
blocks from 1 byte up, since which error a file gets must not depend
on where its blocks end; the repeated I10 of one tripod period against
the I10 of the whole splice; the array-state network step
(`step_state`) against the scalar `step_network` of conftest; the
frozen replay of a pooled stream against that of its dense frames; the
one-template weight writer against per-value formatting; `train`
against the dense step-by-step `reference_train` of conftest; and the
scene against the scalar `reference_salt` and the dense
`reference_render` and `reference_splice` of conftest.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (reference_events, reference_foot_site, reference_frames,
                      reference_render, reference_salt, reference_splice, reference_train,
                      step_network)
from hexgait import events, frames as frames_module, noise
from hexgait.errors import DataError
from hexgait.events import load_frames
from hexgait.frames import (MAX_FRAMES, BinaryFrame, FrameStream, andpool,
                            pooled_streams)
from hexgait.neurons import (NetworkState, NeuronParams, NeuronState, WeightMap,
                             run_network, save_weights, step_state)
from hexgait.scene import (GaitSchedule, HexapodGeometry, RenderParams, leg_region_mask,
                           render_expert_sequence, segment_boundaries,
                           splice_segments)
from hexgait.training import TrainSchedule, train


def _frame(rng, w, h, p_tile, density):
    """Full 10x10 tiles, full 2x2 tiles and salt, each at its own rate."""
    bits = rng.random((h, w)) < density
    bits |= np.kron(rng.random((h // 2, w // 2)) < p_tile, np.ones((2, 2), bool))
    bits |= np.kron(rng.random((h // 10, w // 10)) < p_tile, np.ones((10, 10), bool))
    return BinaryFrame(bits)


# Runs (frame, y, x, length) of set pixels in a row, cut at its right end;
# frame -1 is the last.
_RUNS = st.lists(st.tuples(st.integers(-1, 3), st.integers(0, 79), st.integers(0, 79),
                           st.integers(1, 20)), max_size=12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8),
       st.integers(0, 4), st.floats(0, 1), st.floats(0, 1), _RUNS)
@example(seed=0, tw=2, th=1, n=1, p_tile=0, density=0,  # 10 pixels over two tiles
         runs=[(0, y, 0, 10) for y in range(1, 10)] + [(0, 0, 5, 10)])
@example(seed=0, tw=1, th=1, n=1, p_tile=0, density=0,  # 9 full rows, 9 pixels
         runs=[(0, y, 0, 10) for y in range(9)] + [(0, 9, 0, 9)])
@example(seed=0, tw=2, th=1, n=1, p_tile=0, density=0,  # a row of 20 pixels
         runs=[(0, 0, 0, 20)])
@example(seed=0, tw=3, th=2, n=3, p_tile=0, density=0.05,  # the stream's last tile
         runs=[(-1, y, 20, 10) for y in range(10, 20)])
@example(seed=0, tw=1, th=3, n=2, p_tile=0.3, density=0.2,  # 10 pixels wide
         runs=[(1, y, 0, 10) for y in range(10, 20)])
def test_tile_pool_matches_dense_pools(seed, tw, th, n, p_tile, density, runs):
    """Pooled in blocks of the default size, of 9 keys (every run of 10
    keys crosses a block end) and of more than one frame's pixels (a block
    holds several frames)."""
    rng = np.random.default_rng(seed)
    w, h = 10 * tw, 10 * th
    bits = [_frame(rng, w, h, p_tile, density).bits.copy() for _ in range(n)]
    for f, y, x, length in runs if n else ():
        bits[f % n][y % h, x % w:x % w + length] = True
    frames = [BinaryFrame(b) for b in bits]
    stream = FrameStream.from_frames(frames)
    keys = stream.keys.copy()
    expected = tuple(andpool(f, 10) for f in frames)
    for block in (frames_module._POOL_BLOCK, 9, w * h + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(frames_module, "_POOL_BLOCK", block)
            assert pooled_streams(stream).frames == expected, block
    assert np.array_equal(stream.keys, keys)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2 * 3 * 4 - 1), max_size=60), st.integers(1, 9))
def test_from_keys_equals_np_unique(keys, block):
    """Repeated keys are compacted `block` keys at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frames_module, "_POOL_BLOCK", block)
        stream = FrameStream.from_keys(np.array(keys, dtype=np.int64), 2, 4, 3)
    assert np.array_equal(stream.keys, np.unique(np.array(keys, dtype=np.int64)))


def test_tile_pool_divisibility():
    stream = FrameStream.from_frames([BinaryFrame.zeros(30, 20)])
    assert pooled_streams(stream).frames == (BinaryFrame.zeros(3, 2),)
    with pytest.raises(ValueError, match="35x20.*10"):
        pooled_streams(FrameStream.from_frames([BinaryFrame.zeros(35, 20)]))


def test_stream_length_is_capped(tmp_path):
    one_line = tmp_path / "events.txt"
    one_line.write_text("!sensor 600x600\n1,1,99999999999\n")
    with pytest.raises(DataError, match="limit"):
        load_frames(one_line, 40, 600, 600)
    with pytest.raises(DataError, match="limit"):
        FrameStream(np.empty(0, dtype=np.int64), MAX_FRAMES + 1, 600, 600)


# Field tokens: mostly plain digits, plus what the format rejects and int()
# would take (signs, underscores, full-width and other Unicode digits, odd
# whitespace, line breaks, BOM and NUL) and what both reject.
_GOOD = st.integers(0, 10**6).map(str)
_ODD = st.sampled_from([
    "+5", "1_000", "１２", "٥", " 7 ", "\t8", "-3", "-0", "",
    "1.0", "0x1", "1e3", "99999999999999999999", "9223372036854775807", "2 3",
    "4\r5", "\r6", "\f7", "8\v", "\ufeff9", "1\x00", "\x00"])
_FIELD = st.one_of(_GOOD, _GOOD, _GOOD, _ODD)
_EVENT = st.lists(_FIELD, min_size=2, max_size=4).map(",".join)
_OTHER = st.sampled_from([
    "", "   ", "\t", "# comment", "   # indented comment", "!sensor 8x8",
    "!sensor 10X12 # inline", "!sensor bad", "!sensor", "1,2,3 # inline !",
    "\f", "\v", "\f\v # page", "\ufeff!sensor 8x8", "\ufeff1,2,3", "\x00",
    "1,2,3\r4,5,6", "# caf\udce9 (latin-1, not UTF-8)", "!sensor +8x8",
    "!sensor 8 x 8", "!sensor 8_0x8", "# caf\u00e9 \u2603 (UTF-8)", "1,2,3\r# c",
    "1,2,3\r"])

_SHORT = st.integers(0, 999).map(str)
_WS = st.sampled_from(["", "", " ", "\t", " \t"])


def _shaped(widths):
    """Lines of the format's shape, blank, a comment or an event: each
    event's t of a width drawn from `widths`, and its x and y mostly
    short, so that events land on the sensor; spaces and tabs around
    fields, and a trailing comment."""
    digits = st.builds(lambda n, digits: str(digits)[:n], st.sampled_from(widths),
                       st.integers(10**16, 10**17 - 1))
    xy = st.builds("{}{}{}".format, _WS, st.one_of(digits, _SHORT, _SHORT), _WS)
    t = st.builds("{}{}{}".format, _WS, digits, _WS)
    return st.one_of(
        st.builds("{},{},{}{}".format, xy, xy, t, st.sampled_from(["", " # c", "# 1,2", "#"])),
        st.sampled_from(["", "  ", "# c", "\t# c"]))


# Fields of 1 to 16 digits are in the format; 17, drawn less often, are not.
_PLAIN = _shaped(range(1, 17))
_SHAPED = _shaped([*range(1, 17)] * 3 + [17])
# A negative value is outside the format.
_NEGATIVE = st.tuples(_GOOD, st.integers(-9, -1).map(str), _GOOD).map(",".join)
_SOUP = st.lists(st.one_of(_SHAPED, _SHAPED, _EVENT, _OTHER, _NEGATIVE), max_size=12)
_SENSORS = ["!sensor 600x600", "# made by hand\n!sensor 16x9",
            "# \udcff\n!sensor 600x600", "!sensor 1000x1000"]
_HEAD = st.sampled_from(_SENSORS + ["", "\ufeff!sensor 600x600"])
_SIZE = st.sampled_from([9, 600, 1000])
_BLOCKS = st.one_of(st.integers(1, 64), st.just(events._BLOCK))


def _decoder_events(path):
    """reference_events by the block decoder: its blocks' columns joined."""
    sensor, *blocks = events._decoded(path)
    return (sensor, *np.hstack([np.empty((3, 0), np.int64), *blocks]))


def _outcome(read, *args):
    """read(*args) as lists, the sensor and the x, y and t of events in
    file order, or a stream's keys and frame count; or the message of
    its DataError, as the CLI reports it."""
    try:
        result = read(*args)
    except DataError as exc:
        return str(exc)
    if isinstance(result, FrameStream):
        return result.keys.tolist(), result.n_frames
    sensor, *columns = result
    return sensor, [c.tolist() for c in columns]


def _read(path, window_ms, width, height, block=events._BLOCK):
    """(reader, reference): the `_outcome` of event file `path`'s events
    and of its frames, by the block decoder and `load_frames` reading
    `block` bytes at a time, and by `reference_events` and
    `reference_frames`."""
    args = (path, window_ms, width, height)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(events, "_BLOCK", block)
        reader = _outcome(_decoder_events, path), _outcome(load_frames, *args)
    return reader, (_outcome(reference_events, path), _outcome(reference_frames, *args))


def _read_lines(tmp_path, head, lines, newline, final_newline, size, block):
    """The reader's outcome of a file of `head` and `lines`, asserted
    equal to the reference's; lone surrogates in the text stand for
    bytes that are not UTF-8."""
    text = newline.join([head] + lines) + (newline if final_newline else "")
    path = tmp_path / "events.txt"
    path.write_bytes(text.encode(errors="surrogateescape"))
    reader, reference = _read(path, 40, size, size, block)
    assert reader == reference
    return reader


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=_HEAD, lines=_SOUP, newline=st.sampled_from(["\n", "\r\n", "\r"]),
       final_newline=st.booleans(), size=_SIZE, block=_BLOCKS)
@example(head="!sensor 800x800", lines=["1,2,3", "!sensor 600x600", "700,1,5"],
         newline="\n", final_newline=True, size=600,
         block=events._BLOCK)  # one header: a second `!sensor` is no event
def test_any_file_reads_as_the_reference(tmp_path, head, lines, newline, final_newline,
                                         size, block):
    """The events and frames of any file, or its error, are those of the
    line-by-line reference, in blocks of any size."""
    _read_lines(tmp_path, head, lines, newline, final_newline, size, block)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=st.sampled_from(_SENSORS), lines=st.lists(_PLAIN, max_size=10),
       newline=st.sampled_from(["\n", "\r\n"]), final_newline=st.booleans(),
       size=_SIZE, block=_BLOCKS)
@example(head="!sensor 1000x1000", lines=["1,2,3", "4,5,123456789", "6,7,87654321"],
         newline="\n", final_newline=True, size=1000, block=8)  # 9 digits, then 8
@example(head="!sensor 1000x1000",
         lines=["7,8,987654321012 # c", "912345678901,9123456789012,91234567890123",
                "912345678901234\t, 9123456789012345,0"],
         newline="\r\n", final_newline=False, size=600, block=5)  # 12 to 16 digits
@example(head="!sensor 600x600", lines=["3,3,0", "3,3,39999", "3,3,40000"],
         newline="\n", final_newline=True, size=600,
         block=events._BLOCK)  # a 40 ms window's edges: frames 0, 0 and 1
def test_files_in_the_format_load_as_the_reference(tmp_path, head, lines, newline,
                                                   final_newline, size, block):
    """A file in the format loads, with the reference's events and
    frames: fields of every width from 1 to 16 digits, comments and
    whitespace."""
    reader = _read_lines(tmp_path, head, lines, newline, final_newline, size, block)
    assert not isinstance(reader[0], str), reader[0]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=st.sampled_from(_SENSORS), lines=st.lists(_SHAPED, max_size=10),
       newline=st.sampled_from(["\n", "\r\n"]), final_newline=st.booleans(),
       size=_SIZE, block=st.integers(1, 64))
def test_lines_cut_at_any_block_edge_read_as_the_reference(
        tmp_path, head, lines, newline, final_newline, size, block):
    """Blocks of 1 to 64 bytes cut lines, CRLFs and comments anywhere,
    and carry the tail of each block over to the next; a line with a
    field of 17 digits is named by its number, counted a block at a
    time, as the line-by-line reference names it."""
    _read_lines(tmp_path, head, lines, newline, final_newline, size, block)


def test_compressed_suffixes_and_url_shaped_names_load_as_plain_text(
        tmp_path, monkeypatch):
    """An opener that decompresses by suffix or fetches URLs would not."""
    def no_network(*args, **kwargs):
        raise AssertionError("event files are never fetched")

    monkeypatch.setattr("urllib.request.urlopen", no_network)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "host").mkdir(parents=True)
    text = "# recorded\n!sensor 800x800\n3,4,40000\n1,2,5\n"
    names = ["ev.gz", "ev.bz2", "ev.xz", "ev.lzma", "http://host/ev.txt"]
    columns = (800, 800), [[3, 1], [4, 2], [40000, 5]]
    frames = [2 * 800 + 1, 800 * 800 + 4 * 800 + 3], 2
    for name in names:
        (tmp_path / name).write_text(text)
        assert _read(name, 40, 800, 800) == ((columns, frames),) * 2, name


# Event lines in the format: bare, with spaces and tabs around fields,
# with a trailing comment, and ending in CR+LF.
_STYLES = ["{},{},{}\n", " {}\t, {} ,\t{}\t\n", "{},{},{} # c\n", "{},{},{}\r\n"]
# 10 us windows: t = 899_999 is in the last frame MAX_FRAMES allow, 900_000
# in the first beyond. An event takes one of these stamps twice as often
# as any one stamp from 0 to 120, so that most files still load.
_WINDOW_MS = 0.01
_TIMES = st.sampled_from([*range(121), *[899_999, 900_000, 10**7] * 2])
# A coordinate relative to the crop: most are inside it, the frame being
# 1 to 5 pixels wide, and some up to 3 pixels outside. A sensor narrower
# than the frame and events pushed off the sensor are drawn rarely too.
_PLACE = st.one_of(st.integers(0, 1), st.integers(0, 4), st.integers(-3, 7))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(width=st.integers(1, 5), height=st.integers(1, 5),
       extra_w=st.sampled_from([0, 0, 1, 4, 2**32] * 3 + [-1]),
       extra_h=st.sampled_from([0, 0, 1, 3, 4, 5]),
       triples=st.lists(st.tuples(_PLACE, _PLACE, _TIMES), min_size=1, max_size=30),
       duplicate=st.booleans(), ordered=st.booleans(),
       off_sensor=st.sampled_from([False] * 3 + [True]),
       style=st.sampled_from(_STYLES), block=st.integers(1, 40))
@example(width=2, height=2, extra_w=0, extra_h=0, triples=[], duplicate=False,
         ordered=True, off_sensor=False, style=_STYLES[0], block=1)  # header only
@example(width=2, height=2, extra_w=4, extra_h=3, triples=[(-1, 0, 5), (2, 1, 7)],
         duplicate=True, ordered=False, off_sensor=False, style=_STYLES[1],
         block=1)  # all cropped
@example(width=2, height=2, extra_w=1, extra_h=0, triples=[(0, 0, 5), (3, 1, 7)],
         duplicate=False, ordered=True, off_sensor=True, style=_STYLES[0],
         block=4)  # one event just past the sensor's edge
@example(width=2, height=2, extra_w=0, extra_h=0, triples=[(1, 1, 899_999)],
         duplicate=False, ordered=True, off_sensor=False, style=_STYLES[2],
         block=40)  # kept in the last frame: exactly MAX_FRAMES frames
@example(width=3, height=2, extra_w=1, extra_h=4, triples=[(0, 0, 5), (2, 1, 7), (1, -1, 9)],
         duplicate=False, ordered=True, off_sensor=False, style=_STYLES[3],
         block=3)  # top = 2
def test_load_frames_equals_the_whole_array_chain(
        tmp_path, width, height, extra_w, extra_h, triples, duplicate, ordered,
        off_sensor, style, block):
    """Equal keys and frame count, or the same error and message, also in
    a file out of time order: both number events in file order. Events
    are placed relative to the crop region, and kept on the sensor unless
    `off_sensor`; blocks of a few bytes hit their edges."""
    sensor_w, sensor_h = width + extra_w, height + extra_h
    left, top = max(extra_w, 0) // 2, extra_h // 2
    right, bottom = sensor_w - 1 + off_sensor, sensor_h - 1 + off_sensor
    rows = [(max(min(left + x, right), 0), max(min(top + y, bottom), 0), t)
            for x, y, t in triples]
    rows += rows if duplicate else []
    if ordered:
        rows.sort(key=lambda r: r[2])
    body = "".join(style.format(*row) for row in rows)
    path = tmp_path / "events.txt"
    path.write_text(f"!sensor {sensor_w}x{sensor_h}\n{body}")
    reader, reference = _read(path, _WINDOW_MS, width, height, block)
    assert reader == reference


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(10, 20), st.integers(10, 20),
       st.floats(0, 0.1), st.integers(2, 8), st.integers(0, 3), st.integers(1, 4))
def test_repeated_tripod_period_equals_the_whole_splice(seed, tw, th, noise, fpc,
                                                       gap, repeats):
    """`repro` pools one tripod period and repeats its I10 stream; that is
    the I10 stream of the splice over all repeats, key for key."""
    params = RenderParams(gap_frames=gap)
    sched = GaitSchedule.sequential()
    stream = render_expert_sequence(HexapodGeometry(), sched, fpc, 10 * tw, 10 * th,
                                    noise, seed, params)
    bounds = segment_boundaries(sched, fpc, params)
    period = pooled_streams(splice_segments(stream, bounds, GaitSchedule.tripod(1)))
    whole = pooled_streams(splice_segments(stream, bounds, GaitSchedule.tripod(repeats)))
    repeated = period.repeated(repeats)
    assert len(repeated) == len(whole)
    assert np.array_equal(repeated.keys, whole.keys)


@settings(max_examples=100, deadline=None)
@given(area=st.integers(1, 360_000),
       p=st.one_of(st.sampled_from([5e-324, 1e-300, 0.999999]), st.floats(5e-324, 0.999999)),
       seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**200)),
       k=st.integers(0, MAX_FRAMES), sigmas=st.sampled_from([0, noise._CHUNK_SIGMAS]))
@example(area=10_000, p=0.01, seed=2**64 + 1, k=3, sigmas=6)  # the seed's second word
@example(area=10_000, p=0.5, seed=0, k=1, sigmas=0)  # a frame of two chunks
def test_salt_equals_the_scalar_reference(area, p, seed, k, sigmas):
    """The same pixels whatever the chunk: with no sigma margin, a chunk of
    area * p + 16 uniforms often ends short of the frame."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise, "_CHUNK_SIGMAS", sigmas)
        pixels = noise.salt(area, p, seed, k)
    assert pixels.dtype == np.int64
    assert pixels.tolist() == reference_salt(area, p, seed, k)


@st.composite
def _cycles(draw):
    """frames_per_cycle, drawn RenderParams, and any partition of the
    sequential stream into six segments, in a drawn leg order."""
    fpc = draw(st.integers(2, 6))
    params = draw(st.builds(RenderParams, tip_blocks=st.integers(0, 4),
                            gap_frames=st.integers(0, 3), active_frames=st.integers(0, 8)))
    n = 6 * (fpc + params.gap_frames)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=5, max_size=5)))
    segments = list(zip([0, *cuts], [*cuts, n]))
    return fpc, params, tuple(segments[i] for i in draw(st.permutations(range(6))))


_SCHEDULES = st.one_of(
    st.just(GaitSchedule.sequential()), st.builds(GaitSchedule.tripod, st.integers(1, 2)),
    st.lists(st.frozensets(st.integers(1, 6), min_size=1), min_size=1, max_size=4)
    .map(lambda steps: GaitSchedule(tuple(enumerate(steps)))))
_UNEVEN = ((0, 1), (5, 12), (1, 5), (12, 13), (13, 30), (30, 36))


@settings(max_examples=60, deadline=None)
@given(tw=st.integers(1, 20), th=st.integers(1, 20), cycle=_cycles(), sched=_SCHEDULES,
       p=st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0, 0.5)),
       seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**200)),
       splice=_SCHEDULES)
@example(tw=12, th=10, cycle=(4, RenderParams(gap_frames=2, active_frames=3), _UNEVEN),
         sched=GaitSchedule.sequential(), p=0.001, seed=2**64 + 1,
         splice=GaitSchedule.tripod(1))  # segments of 1 to 17 frames; idle cycle frames
def test_scene_equals_the_dense_reference(tw, th, cycle, sched, p, seed, splice):
    """The render, each leg's region and the splice of the sequential
    stream equal their dense references, frame count and keys."""
    fpc, params, bounds = cycle
    geom, width, height = HexapodGeometry(), 10 * tw, 10 * th
    stream = render_expert_sequence(geom, sched, fpc, width, height, p, seed, params)
    dense = reference_render(geom, sched, fpc, width, height, p, seed, params)
    assert len(stream) == len(dense)
    assert np.array_equal(stream.keys, np.flatnonzero(dense))
    for leg in range(1, 7):
        assert np.array_equal(leg_region_mask(geom, leg, fpc, width, height, params),
                              reference_foot_site(geom, leg, fpc, width, height, params))
    sequential = render_expert_sequence(geom, GaitSchedule.sequential(), fpc, width,
                                        height, p, seed, params)
    frames = np.zeros((len(sequential), height, width), dtype=bool)
    frames.flat[sequential.keys] = True
    spliced = splice_segments(sequential, bounds, splice)
    expected = reference_splice(frames, bounds, splice)
    assert len(spliced) == len(expected)
    assert np.array_equal(spliced.keys, np.flatnonzero(expected))


_PARAMS = st.builds(
    lambda tau_v, tau_ge, v_rest, exc, thresh, refractory, dt: NeuronParams(
        tau_v=tau_v, tau_ge=tau_ge, v_rest=v_rest, v_exc=v_rest + exc,
        v_thresh=v_rest + thresh, refractory=refractory, dt=dt),
    st.floats(0.05, 10), st.floats(0.01, 5), st.floats(-80, -40),
    st.floats(1, 60), st.floats(0.5, 30), st.floats(0.01, 3), st.floats(0.005, 0.2))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 6), st.integers(1, 60), _PARAMS,
       st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
def test_array_state_matches_scalar_reference(seed, n, h, w, steps, params, scale):
    rng = np.random.default_rng(seed)
    weights = WeightMap(rng.random((n, h, w)) * scale)
    densities = rng.choice([0.0, 0.0, 0.1, 0.5, 1.0], size=steps)
    frames = [BinaryFrame(rng.random((h, w)) < d) for d in densities]
    states = (NeuronState.resting(params),) * n
    state = NetworkState.resting(params, n)
    rows = weights.w.reshape(n, -1)
    spikes = []
    for k, frame in enumerate(frames):
        now = k * params.dt
        states, expected = step_network(states, weights, frame, params, now)
        assert step_state(state, rows, np.flatnonzero(frame.bits), params, now) == expected
        for field in ("v", "g_e", "refractory_until"):
            reference = np.array([getattr(s, field) for s in states])
            assert getattr(state, field).tobytes() == reference.tobytes(), field
        if expected:
            spikes.append((now, frozenset(expected)))
    _, raster = run_network(frames, weights, params)
    assert raster.steps == tuple(spikes)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 30), st.floats(0, 1), _PARAMS,
       st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
def test_run_network_on_pooled_stream_matches_dense_frames(seed, tw, th, n, p_tile,
                                                           params, scale):
    rng = np.random.default_rng(seed)
    frames = [_frame(rng, 20 * tw, 20 * th, p_tile, 0.05) for _ in range(n)]
    stream = FrameStream.from_frames(frames)
    weights = WeightMap(rng.random((6, 2 * th, 2 * tw)) * scale)
    i10 = pooled_streams(stream)
    state, raster = run_network(i10, weights, params)
    dense_state, dense_raster = run_network(list(i10.frames), weights, params)
    assert raster == dense_raster and raster.n_steps == n
    for field in ("v", "g_e", "refractory_until"):
        assert getattr(state, field).tobytes() == getattr(dense_state, field).tobytes()


def _tile_frame(w, h, tiles):
    """A w x h frame of the full 10x10 tiles at I10 cells (row, col)."""
    bits = np.zeros((h, w), dtype=bool)
    for row, col in tiles:
        bits[10 * row:10 * row + 10, 10 * col:10 * col + 10] = True
    return BinaryFrame(bits)


def _scene(seed, tw, th, noise, fpc):
    """The frames of a rendered sequential-leg scene."""
    return render_expert_sequence(HexapodGeometry(), GaitSchedule.sequential(), fpc,
                                  10 * tw, 10 * th, noise, seed, RenderParams()).frames


def _tile_stream(seed, tw, th, kinds, p_tile):
    """One frame per kind: 0 blank, 1 a lone full tile, 2 random full
    tiles (`_frame`). A leg lights the same I10 cells on every frame of a
    scene, so only tiles that move show depression."""
    rng = np.random.default_rng(seed)
    w, h = 10 * tw, 10 * th
    frames = []
    for kind in kinds:
        if kind == 0:
            frames.append(BinaryFrame.zeros(w, h))
        elif kind == 1:
            frames.append(_tile_frame(w, h, [(rng.integers(th), rng.integers(tw))]))
        else:
            frames.append(_frame(rng, w, h, p_tile, 0.02))
    return tuple(frames)


# Scenes of 100x100 to 200x200 pixels under salt noise up to 0.1, and
# streams of random tiles on grids of 2x2 to 8x8 cells.
_SCENES = st.builds(_scene, st.integers(0, 2**32 - 1), st.integers(10, 20),
                    st.integers(10, 20), st.floats(0, 0.1), st.integers(2, 6))
_TILE_STREAMS = st.builds(_tile_stream, st.integers(0, 2**32 - 1), st.integers(2, 8),
                          st.integers(2, 8),
                          st.lists(st.sampled_from([0, 1, 2, 2]), min_size=3, max_size=30),
                          st.floats(0.2, 0.6))
# The default schedule; one whose first update reaches w_max; one that
# decays fast, so that depression shows before any weight saturates.
_FAST = TrainSchedule(alpha=5.0, beta=1.0, sigma_d=0.01)
_TRAIN_SCHEDULES = st.sampled_from([TrainSchedule(), TrainSchedule(omega=0.5), _FAST])
_A, _B = [(4, 8), (5, 8)], [(5, 8), (5, 9)]  # overlapping cells of one label
_BLANK = BinaryFrame.zeros(600, 600)


@settings(max_examples=60, deadline=None)
@given(frames=st.one_of(_SCENES, _TILE_STREAMS), sched=_TRAIN_SCHEDULES,
       params=st.one_of(st.just(NeuronParams()), _PARAMS), repeats=st.integers(1, 3))
@example(frames=tuple(_tile_frame(100, 100, cells) for cells in (_A, _B, [], _A, _B)),
         sched=_FAST, params=NeuronParams(),
         repeats=3)  # one label's weights potentiated and depressed, none at w_max
@example(frames=_scene(0, 60, 60, 0.001, 25)[:8] + (
    _BLANK, _tile_frame(600, 600, [(30, 20)]), *(_BLANK,) * 13,
    _tile_frame(600, 600, [(10, 40)])), sched=TrainSchedule(omega=0.5),
    params=NeuronParams(), repeats=3)  # leg frames, blank frames and lone tiles
@example(frames=(_BLANK,) * 20, sched=TrainSchedule(), params=NeuronParams(),
         repeats=1)  # no update, no spike
def test_train_equals_the_dense_reference(priors, frames, sched, params, repeats):
    """The same weights, log and raster: time runs on across repeats,
    the network steps before the update, and weights stay in [0, w_max]."""
    result = train(FrameStream.from_frames(frames), priors, sched, params, repeats)
    expected = reference_train(frames, priors, sched, params, repeats)
    assert result.log == expected.log
    assert np.array_equal(result.weights.w, expected.weights.w)
    assert result.raster == expected.raster


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1.7976931348623157e308, float("inf"), float("-inf"),
                                float("nan"), 1e16, 1e-5, 0.1, 123456789012.5])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5), st.data())
def test_save_weights_equals_per_value_formatting(tmp_path, n, h, w, data):
    values = data.draw(st.lists(st.one_of(st.floats(), _EDGE_FLOATS),
                                min_size=n * h * w, max_size=n * h * w))
    weights = WeightMap(np.array(values, dtype=np.float64).reshape(n, h, w))
    path = tmp_path / "weights.txt"
    save_weights(path, weights)
    lines = [f"{n} {h} {w}"] + [" ".join(format(v, ".12g") for v in row)
                                for grid in weights.w for row in grid]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
