"""The fast paths against their references.

Tile-count pooling (`pooled_streams`) against the dense `andpool`/`orpool`,
the bulk event-file parse against the line parser, the array-state
network step (`step_state`) against the scalar `step_network`, the frozen
replay of a pooled stream against that of its dense frames, and the
one-template weight writer against per-value formatting.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hexgait import events
from hexgait.errors import DataError, DimensionError, EventFileError
from hexgait.events import EventArray, accumulate_frames, load_events
from hexgait.frames import (MAX_FRAMES, BinaryFrame, FrameStream, andpool,
                            orpool, pooled_streams)
from hexgait.neurons import (NetworkState, NeuronParams, NeuronState, WeightMap,
                             run_network, save_weights, step_network, step_state)


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
    stream = FrameStream.from_frames(frames, 40.0)
    keys = stream.keys.copy()
    i10, body = pooled_streams(stream)
    assert i10.frames == tuple(andpool(f, 10) for f in frames)
    assert body.frames == tuple(orpool(andpool(f, 2), 10) for f in frames)
    leg_only, none = pooled_streams(stream, body=False)
    assert leg_only.frames == i10.frames and none is None
    assert np.array_equal(stream.keys, keys)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2 * 3 * 4 - 1), max_size=60))
def test_from_keys_equals_np_unique(keys):
    stream = FrameStream.from_keys(np.array(keys, dtype=np.int64), 2, 4, 3, 40.0)
    assert np.array_equal(stream.keys, np.unique(np.array(keys, dtype=np.int64)))


def test_tile_pool_divisibility():
    stream = FrameStream.from_frames([BinaryFrame.zeros(30, 20)], 40.0)
    i10, _ = pooled_streams(stream, body=False)
    assert i10.frames == (BinaryFrame.zeros(3, 2, 10),)
    with pytest.raises(DimensionError, match="30x20.*20"):
        pooled_streams(stream)


def test_stream_length_is_capped():
    one_line = EventArray([1], [1], [99_999_999_999])
    with pytest.raises(DataError, match="limit"):
        accumulate_frames(one_line, 40, 600, 600)
    with pytest.raises(DataError, match="limit"):
        FrameStream(np.empty(0, dtype=np.int64), MAX_FRAMES + 1, 600, 600, 40.0)


# Field tokens: mostly plain digits, plus what int() and np.loadtxt disagree
# on (signs, underscores, full-width and other Unicode digits, odd
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
    "1,2,3\r4,5,6", "# caf\udce9 (latin-1, not UTF-8)"])
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
_HEAD = st.sampled_from(["!sensor 600x600", "# made by hand\n!sensor 16x9", "",
                         "\ufeff!sensor 600x600", "# \udcff\n!sensor 600x600"])


def _reference(path):
    """load_events as the line parser alone would return it."""
    rows, (w, h) = events._parse_lines(path)
    rows = rows[np.argsort(rows["t"], kind="stable")]
    return EventArray(rows["x"], rows["y"], rows["t"]), w, h


def _outcome(fn, path):
    try:
        return fn(path)
    except EventFileError as exc:
        return ("error", exc.line_number, str(exc))
    except (DataError, UnicodeDecodeError) as exc:
        return ("undecodable", str(exc.__cause__ or exc))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_HEAD, _LINES, st.sampled_from(["\n", "\r\n", "\r"]))
def test_bulk_load_equals_line_parser(tmp_path, head, lines, newline):
    path = tmp_path / "events.txt"
    # Lone surrogates in the text stand for bytes that are not UTF-8.
    text = newline.join([head] + lines) + "\n"
    path.write_bytes(text.encode(errors="surrogateescape"))
    assert _outcome(load_events, path) == _outcome(_reference, path)


def test_compressed_suffixes_and_url_shaped_names_load_as_plain_text(
        tmp_path, monkeypatch):
    """numpy's file opener decompresses by suffix and fetches URLs."""
    def no_network(*args, **kwargs):
        raise AssertionError("event files are never fetched")

    monkeypatch.setattr("urllib.request.urlopen", no_network)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "host").mkdir(parents=True)
    text = "# recorded\n!sensor 800x800\n3,4,40000\n1,2,5\n"
    names = ["ev.gz", "ev.bz2", "ev.xz", "ev.lzma", "http://host/ev.txt"]
    for name in names:
        (tmp_path / name).write_text(text)
        loaded = load_events(name)
        assert loaded == _reference(name), name
        assert loaded[0] == EventArray([1, 3], [2, 4], [5, 40000]), name


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
    stream = FrameStream.from_frames(frames, 40.0)
    weights = WeightMap(rng.random((6, 2 * th, 2 * tw)) * scale)
    i10, _ = pooled_streams(stream, body=False)
    state, raster = run_network(i10, weights, params)
    dense_state, dense_raster = run_network(list(i10.frames), weights, params)
    assert raster == dense_raster and raster.n_steps == n
    for field in ("v", "g_e", "refractory_until"):
        assert getattr(state, field).tobytes() == getattr(dense_state, field).tobytes()


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
