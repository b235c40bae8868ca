"""Salt noise: each pixel of a frame set independently with probability p.

The draw is counter-based (Salmon et al. 2011, "Parallel random numbers:
as easy as 1, 2, 3"): SplitMix64's finalizer (Steele, Lea and Flood 2014)
turns a counter keyed by (seed, frame) into uniforms, in uint64 numpy
arithmetic, so no random generator object is built and `numpy.random` is
never imported.
"""
from __future__ import annotations

import math

import numpy as np

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment
_CHUNK_SIGMAS = 6  # uniforms per chunk: the mean set pixels plus this many sigma


def _mix(z):
    """SplitMix64's finalizer, on a Python int or a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def salt(area: int, p: float, seed: int, k: int) -> np.ndarray:
    """Sorted distinct pixels of frame k, each set independently with
    probability 0 < p < 1.

    The gaps between set pixels are geometric, 1 + floor(log u / log(1 - p)),
    from uniforms u in (0, 1] that SplitMix64 makes from a counter keyed by
    (seed, k), so the noise depends on nothing else. Uniforms are drawn a
    chunk at a time until the pixels pass the frame, so the work follows
    the set pixels, not the area; the draws do not depend on the chunk.
    """
    key = _mix(k + _GAMMA & _M64)
    for shift in range(0, max(seed.bit_length(), 1), 64):  # every seed word
        key = _mix((key ^ seed >> shift & _M64) + _GAMMA & _M64)
    # A gap of area or more ends the frame, so log u is clipped at
    # area * log(1 - p): the quotient stays finite for a subnormal p.
    log_q = math.log1p(-p)
    chunk = int(area * p + _CHUNK_SIGMAS * math.sqrt(area * p) + 16)
    pixels, last, drawn = [], -1, 0
    while last < area:
        z = _mix(np.arange(drawn + 1, drawn + chunk + 1, dtype=np.uint64)
                 * np.uint64(_GAMMA) + np.uint64(key))
        u = ((z >> 11) + 1) * 2.0**-53
        gaps = np.maximum(np.log(u), area * log_q) / log_q
        run = np.cumsum(gaps.astype(np.int64) + 1) + last
        pixels.append(run)
        last, drawn = int(run[-1]), drawn + chunk
    run = np.concatenate(pixels)
    return run[:np.searchsorted(run, area)]
