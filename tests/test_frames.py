import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_frame
from hexgait.errors import DimensionError, EmptyFrameError
from hexgait.frames import (BinaryFrame, andpool, centroid, frame_not, orpool,
                            popcount)


def brute_pool(bits, k, op):
    """Independent per-tile scan; the oracle for andpool/orpool."""
    h, w = bits.shape
    out = np.zeros((h // k, w // k), dtype=bool)
    for i in range(h // k):
        for j in range(w // k):
            tile = bits[i * k:(i + 1) * k, j * k:(j + 1) * k]
            out[i, j] = op(bool(b) for b in tile.flat)
    return out


@pytest.mark.parametrize("k", [2, 4, 8])
def test_pool_matches_bruteforce(k):
    rng = np.random.default_rng(11)
    for _ in range(30):
        w = k * int(rng.integers(1, 64 // k + 1))
        h = k * int(rng.integers(1, 64 // k + 1))
        f = random_frame(rng, w, h, density=float(rng.random()))
        assert np.array_equal(andpool(f, k).bits, brute_pool(f.bits, k, all))
        assert np.array_equal(orpool(f, k).bits, brute_pool(f.bits, k, any))


def test_andpool_all_ones():
    f = BinaryFrame(np.ones((20, 20), dtype=bool))
    out = andpool(f, 10)
    assert out.bits.shape == (2, 2) and out.bits.all()
    assert out.scale == 10


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
    assert (out.width, out.height, out.scale) == (60, 60, 10)


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
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]))
def test_demorgan_duality(seed, k):
    rng = np.random.default_rng(seed)
    f = random_frame(rng, k * int(rng.integers(1, 9)), k * int(rng.integers(1, 9)),
                     density=float(rng.random()))
    assert orpool(f, k) == frame_not(andpool(frame_not(f), k))


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
    with pytest.raises(DimensionError, match="21x20.*3"):
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
    c = centroid(BinaryFrame(bits))
    assert (c.x, c.y) == (0.0, 0.0)
    corners = np.zeros((60, 60), dtype=bool)
    for y in (0, 59):
        for x in (0, 59):
            corners[y, x] = True
    c = centroid(BinaryFrame(corners))
    assert (c.x, c.y) == (0.5, 0.5)


def test_centroid_two_bits():
    bits = np.zeros((60, 60), dtype=bool)
    bits[20, 10] = True
    bits[40, 20] = True
    c = centroid(BinaryFrame(bits))
    assert c.x == pytest.approx(15 / 59)
    assert c.y == pytest.approx(30 / 59)


def test_centroid_empty_raises():
    with pytest.raises(EmptyFrameError):
        centroid(BinaryFrame.zeros(10, 10))


def test_centroid_single_bit_exact_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w, h = int(rng.integers(2, 50)), int(rng.integers(2, 50))
        x, y = int(rng.integers(0, w)), int(rng.integers(0, h))
        bits = np.zeros((h, w), dtype=bool)
        bits[y, x] = True
        c = centroid(BinaryFrame(bits))
        assert c.x == x / (w - 1) and c.y == y / (h - 1)


def test_popcount():
    assert popcount(BinaryFrame.zeros(60, 60)) == 0
    assert popcount(BinaryFrame(np.ones((60, 60), dtype=bool))) == 3600


def test_frame_immutable():
    f = BinaryFrame.zeros(4, 4)
    with pytest.raises(ValueError):
        f.bits[0, 0] = True
