"""Spike-to-gait translation and raster scoring.

One output spike triggers one full leg-oscillation cycle; spikes landing
while a cycle is in progress are absorbed. Scoring collapses rasters into
discrete spike-event sequences and compares them under the best cyclic
alignment, since the network may lock onto the looping video at any phase.
"""
from __future__ import annotations

from dataclasses import dataclass

from .neurons import N_LEGS, SpikeRaster


@dataclass(frozen=True)
class GaitTrace:
    """Per-leg oscillation intervals (cycle_start, cycle_end), seconds."""

    period: float
    cycles: tuple  # cycles[leg-1] = tuple of (start, end)

    def leg(self, leg: int):
        return self.cycles[leg - 1]


def spikes_to_gait(raster: SpikeRaster, period: float) -> GaitTrace:
    """Open one fixed-length cycle per spike; absorb spikes mid-cycle."""
    if period <= 0:
        raise ValueError(f"period must be > 0, got {period}")
    cycles = [[] for _ in range(N_LEGS)]
    busy_until = [float("-inf")] * N_LEGS
    for t, spikes in raster.steps:
        for leg in sorted(spikes):
            if t >= busy_until[leg - 1]:
                cycles[leg - 1].append((t, t + period))
                busy_until[leg - 1] = t + period
    return GaitTrace(period=period, cycles=tuple(tuple(c) for c in cycles))


def label_sequence(raster: SpikeRaster, gap_s: float = 0.5):
    """Collapse the raster into an ordered list of spike-event label sets.

    Steps whose spikes fall within `gap_s` of the previous spike merge into
    one event (a burst counts once); a silent stretch longer than `gap_s`
    starts a new event.
    """
    if gap_s <= 0:
        raise ValueError(f"gap_s must be > 0, got {gap_s}")
    events = []
    last_t = None
    for t, spikes in raster.steps:
        if last_t is not None and t - last_t <= gap_s:
            events[-1] = events[-1] | spikes
        else:
            events.append(frozenset(spikes))
        last_t = t
    return events


def sequence_accuracy(observed, expected) -> float:
    """Fraction of matching positions at the best cyclic alignment of observed.

    Positions beyond the shorter sequence count as mismatches; the
    denominator is the longer length.
    """
    observed = [frozenset(s) for s in observed]
    expected = [frozenset(s) for s in expected]
    if not observed and not expected:
        return 1.0
    if not observed or not expected:
        return 0.0
    denom = max(len(observed), len(expected))
    best = 0
    for r in range(len(observed)):
        rotated = observed[r:] + observed[:r]
        matches = sum(1 for a, b in zip(rotated, expected) if a == b)
        best = max(best, matches)
    return best / denom


def is_tripod(sequence) -> bool:
    """True iff the sequence alternates {1,3,5} and {2,4,6} throughout."""
    sequence = [frozenset(s) for s in sequence]
    if len(sequence) < 2:
        return False
    odd, even = frozenset({1, 3, 5}), frozenset({2, 4, 6})
    if sequence[0] == odd:
        expected = [odd, even]
    elif sequence[0] == even:
        expected = [even, odd]
    else:
        return False
    return all(s == expected[i % 2] for i, s in enumerate(sequence))


def format_trace(trace: GaitTrace) -> str:
    """Plain-text table: leg, cycle start, cycle end."""
    lines = ["# leg cycle_start_s cycle_end_s"]
    for leg in range(1, N_LEGS + 1):
        for start, end in trace.leg(leg):
            lines.append(f"{leg} {start:.6f} {end:.6f}")
    return "\n".join(lines) + "\n"


def format_sequence(sequence) -> str:
    """Plain-text table: event index, comma-joined sorted labels."""
    lines = ["# event legs"]
    for i, s in enumerate(sequence):
        lines.append(f"{i} {','.join(str(l) for l in sorted(s))}")
    return "\n".join(lines) + "\n"
