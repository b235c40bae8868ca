import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import centroid, random_frame
from hexgait import frames as frames_module
from hexgait.frames import (BinaryFrame, FrameStream, _sort_unique, andpool,
                            frame_not, orpool, pooled_streams, popcount)


def test_andpool_all_ones():
    f = BinaryFrame(np.ones((20, 20), dtype=bool))
    out = andpool(f, 10)
    assert out.bits.shape == (2, 2) and out.bits.all()


def test_andpool_single_zero_annihilates_tile():
    bits = np.ones((20, 20), dtype=bool)
    bits[3, 14] = False
    out = andpool(BinaryFrame(bits), 10)
    assert not out.bits[0, 1]
    assert out.bits.sum() == 3


def test_andpool_600_to_60():
    rng = np.random.default_rng(0)
    f = random_frame(rng, 600, 600, density=0.3)
    out = andpool(f, 10)
    assert (out.width, out.height) == (60, 60)


def test_andpool_kills_isolated_noise():
    # Isolated single pixels never fill a 2x2 tile.
    rng = np.random.default_rng(7)
    bits = np.zeros((64, 64), dtype=bool)
    ys, xs = rng.integers(0, 32, 20) * 2, rng.integers(0, 32, 20) * 2
    bits[ys, xs] = True  # one pixel per 2x2 tile at most
    assert not andpool(BinaryFrame(bits), 2).bits.any()


def test_orpool_trivial():
    assert not orpool(BinaryFrame.zeros(40, 40), 4).bits.any()
    bits = np.zeros((20, 20), dtype=bool)
    bits[13, 5] = True
    out = orpool(BinaryFrame(bits), 10)
    assert out.bits.sum() == 1 and out.bits[1, 0]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pool_monotonicity(seed):
    rng = np.random.default_rng(seed)
    a = random_frame(rng, 16, 16, density=0.4)
    b = BinaryFrame(a.bits | (rng.random((16, 16)) < 0.3))  # superset of a
    for pool in (andpool, orpool):
        pa, pb = pool(a, 4), pool(b, 4)
        assert not (pa.bits & ~pb.bits).any()


def test_pool_divisibility_error():
    f = BinaryFrame.zeros(21, 20)
    with pytest.raises(ValueError, match="21x20.*3"):
        andpool(f, 3)


def test_elementwise_ops():
    rng = np.random.default_rng(3)
    f = random_frame(rng, 12, 8)
    assert not (f.bits & frame_not(f).bits).any()
    assert (f.bits | frame_not(f).bits).all()


def test_mask_pipeline_disjoint_regions():
    # Leg bits and body bits disjoint: masking the leg leaves exactly the body.
    body = np.zeros((30, 30), dtype=bool)
    body[10:20, 10:20] = True
    leg = np.zeros((30, 30), dtype=bool)
    leg[2:5, 2:5] = True
    combined = BinaryFrame(body | leg)
    masked = frame_not(BinaryFrame(leg)).bits & combined.bits
    assert np.array_equal(masked, body)


def test_centroid_single_bit_and_corners():
    bits = np.zeros((60, 60), dtype=bool)
    bits[0, 0] = True
    assert centroid(BinaryFrame(bits)) == (0.0, 0.0)
    corners = np.zeros((60, 60), dtype=bool)
    for y in (0, 59):
        for x in (0, 59):
            corners[y, x] = True
    assert centroid(BinaryFrame(corners)) == (0.5, 0.5)


def test_centroid_two_bits():
    bits = np.zeros((60, 60), dtype=bool)
    bits[20, 10] = True
    bits[40, 20] = True
    x, y = centroid(BinaryFrame(bits))
    assert x == pytest.approx(15 / 59)
    assert y == pytest.approx(30 / 59)


def test_centroid_empty_raises():
    with pytest.raises(ValueError, match="empty frame"):
        centroid(BinaryFrame.zeros(10, 10))


def test_centroid_single_bit_exact_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w, h = int(rng.integers(2, 50)), int(rng.integers(2, 50))
        x, y = int(rng.integers(0, w)), int(rng.integers(0, h))
        bits = np.zeros((h, w), dtype=bool)
        bits[y, x] = True
        assert centroid(BinaryFrame(bits)) == (x / (w - 1), y / (h - 1))


def test_popcount():
    assert popcount(BinaryFrame.zeros(60, 60)) == 0
    assert popcount(BinaryFrame(np.ones((60, 60), dtype=bool))) == 3600


def test_frame_immutable():
    f = BinaryFrame.zeros(4, 4)
    with pytest.raises(ValueError):
        f.bits[0, 0] = True


def test_pooled_streams_memory_above_its_input():
    """Allocation peak of pooling a stream, above its input keys.

    About 1M keys: 100 frames of 300x300 salt at 12%, with 5 full 10x10
    tiles per frame. Keys are scanned a block of 64k keys at a time, with
    no cut at frame starts, so the peak is one block's key differences
    and mask, 9 B per key, plus the few run starts. It measured 7.4% of
    the input keys' bytes here; scanning all keys at once measured 112%.
    """
    rng = np.random.default_rng(0)
    n, side = 100, 300
    frame = np.arange(n)[:, None, None] * side * side
    tiles = rng.integers(0, (side // 10) ** 2, (n, 5))
    corner = (tiles // (side // 10)) * 10 * side + tiles % (side // 10) * 10
    pixels = (np.arange(10)[:, None] * side + np.arange(10)).ravel()
    full = (frame + corner[:, :, None] + pixels).ravel()
    salt = rng.integers(0, n * side * side, int(0.12 * n * side * side))
    keys = np.unique(np.concatenate([salt, full]))
    stream = FrameStream(keys, n, side, side)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frames_module, "_POOL_BLOCK", keys.size)
        whole = pooled_streams(stream)
    pooled_streams(stream)  # warm up
    tracemalloc.start()
    try:
        i10 = pooled_streams(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(i10.keys, whole.keys) and i10.keys.size >= n
    assert peak <= 0.25 * keys.nbytes, f"{peak / keys.nbytes:.0%} of the input"


def test_sort_unique_memory_with_repeated_keys():
    """Allocation peak of deduplicating about 1M keys of which 26 repeat.

    The distinct keys are compacted into the input a block at a time, so
    the peak is the keep mask, one byte per key, plus one block's kept
    keys: 26% of the input keys' bytes here. Copying the distinct keys
    out measured 113%.
    """
    rng = np.random.default_rng(7)
    keys = np.unique(rng.integers(0, 2**40, 1_000_000))
    keys[-26:] = keys[:26]
    rng.shuffle(keys)
    expected = np.unique(keys)
    _sort_unique(keys[:1000].copy())  # warm up
    tracemalloc.start()
    try:
        unique = _sort_unique(keys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(unique, expected)
    assert peak <= 0.5 * keys.nbytes, f"{peak / keys.nbytes:.0%} of the input"
