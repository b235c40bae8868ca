"""Tests of the salt-noise sampler: its output shape, its key, its chunks
and its law."""
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexgait import noise
from hexgait.frames import MAX_FRAMES
from hexgait.noise import salt


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 50_000),
       st.one_of(st.sampled_from([5e-324, 1.1e-308, 1e-12, 0.999]),
                 st.floats(5e-324, 0.999)),
       st.integers(0, 2**200), st.integers(0, MAX_FRAMES))
def test_salt_is_sorted_distinct_and_in_the_frame(area, p, seed, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pixels = salt(area, p, seed, k)
    assert pixels.dtype == np.int64
    assert (np.diff(pixels) > 0).all()
    assert pixels.size == 0 or (pixels[0] >= 0 and pixels[-1] < area)
    assert np.array_equal(pixels, salt(area, p, seed, k))


def test_salt_folds_in_every_word_of_the_seed():
    seeds = (0, 1, 2**64, 2**64 + 1, 2**128)
    for k in range(5):
        draws = [salt(10_000, 0.01, seed, k) for seed in seeds]
        for a, b in itertools.combinations(draws, 2):
            assert not np.array_equal(a, b)


@pytest.mark.parametrize("p", [0.05, 0.5])
def test_salt_draws_do_not_depend_on_the_chunk(p):
    # With no sigma margin, a chunk of area * p + 16 uniforms often ends
    # short of the frame, so those frames take a second chunk.
    area = 10_000
    default = [salt(area, p, 9, k) for k in range(60)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise, "_CHUNK_SIGMAS", 0)
        short = [salt(area, p, 9, k) for k in range(60)]
    assert sum(s.size >= int(area * p + 16) for s in short) >= 5
    for a, b in zip(default, short):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("p", [0.002, 0.05, 0.5])
def test_salt_is_binomial_and_uniform(p):
    """Over 2,000 frames of 1,000 pixels, the count's mean and variance lie
    within 5 sigma of Binomial(1000, p)'s, and the pixels of 20 bins of 50
    pass a chi-square test against p per pixel (20 degrees of freedom,
    5 sigma)."""
    area, n, bins = 1000, 2000, 20
    draws = [salt(area, p, 4, k) for k in range(n)]
    counts = np.array([d.size for d in draws])
    mean, var = area * p, area * p * (1 - p)
    assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / n)
    kurtosis = (1 - 6 * p * (1 - p)) / var  # excess kurtosis of the binomial
    assert abs(counts.var(ddof=1) - var) <= 5 * var * math.sqrt(2 / (n - 1) + kurtosis / n)
    observed = np.bincount(np.concatenate(draws) // (area // bins), minlength=bins)
    expected = n * (area // bins) * p
    chi2 = float(((observed - expected) ** 2).sum() / (expected * (1 - p)))
    assert chi2 <= bins + 5 * math.sqrt(2 * bins), chi2
