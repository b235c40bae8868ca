"""The law of the salt noise. `reference_salt` checks its draws but shares
its hash, so only a test of the law can show a bad hash."""
import math

import numpy as np
import pytest

from hexgait.noise import salt


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
