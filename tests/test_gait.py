import pytest

from hexgait.gait import (GaitTrace, format_sequence, format_trace, is_tripod,
                          label_sequence, sequence_accuracy, spikes_to_gait)
from hexgait.neurons import SpikeRaster


def raster(*steps, dt=0.04):
    return SpikeRaster(dt=dt, steps=tuple((t, frozenset(s)) for t, s in steps))


def test_spikes_to_gait_basic():
    trace = spikes_to_gait(raster((0.0, {1}), (2.0, {2})), period=1.0)
    assert trace.leg(1) == ((0.0, 1.0),)
    assert trace.leg(2) == ((2.0, 3.0),)
    assert trace.leg(3) == ()


def test_spikes_to_gait_absorbs_mid_cycle():
    # Second spike lands during the running cycle and is swallowed;
    # the third starts a fresh one.
    trace = spikes_to_gait(raster((0.0, {4}), (0.5, {4}), (1.2, {4})), 1.0)
    assert trace.leg(4) == ((0.0, 1.0), (1.2, 2.2))


def test_spikes_to_gait_boundary_spike_opens_new_cycle():
    trace = spikes_to_gait(raster((0.0, {1}), (1.0, {1})), 1.0)
    assert trace.leg(1) == ((0.0, 1.0), (1.0, 2.0))


def test_spikes_to_gait_rejects_bad_period():
    with pytest.raises(ValueError):
        spikes_to_gait(raster(), 0.0)


def test_label_sequence_burst_collapse():
    r = raster((0.0, {1}), (0.04, {3}), (0.08, {5}), (2.0, {2}))
    assert label_sequence(r, gap_s=0.5) == [frozenset({1, 3, 5}), frozenset({2})]


def test_label_sequence_gap_splits():
    r = raster((0.0, {1}), (0.6, {1}))
    assert label_sequence(r, gap_s=0.5) == [frozenset({1}), frozenset({1})]
    assert label_sequence(r, gap_s=0.6) == [frozenset({1})]


def test_label_sequence_empty():
    assert label_sequence(raster()) == []
    with pytest.raises(ValueError):
        label_sequence(raster(), gap_s=0.0)


def brute_accuracy(observed, expected):
    """Exhaustive alignment oracle: try every rotation by hand."""
    observed = [frozenset(s) for s in observed]
    expected = [frozenset(s) for s in expected]
    if not observed and not expected:
        return 1.0
    if not observed or not expected:
        return 0.0
    denom = max(len(observed), len(expected))
    best = 0
    for r in range(len(observed)):
        rot = observed[r:] + observed[:r]
        best = max(best, sum(a == b for a, b in zip(rot, expected)))
    return best / denom


def test_accuracy_exact_match_any_rotation():
    expected = [{1}, {2}, {3}, {4}, {5}, {6}]
    for r in range(6):
        observed = expected[r:] + expected[:r]
        assert sequence_accuracy(observed, expected) == 1.0


def test_accuracy_five_of_six():
    expected = [{1}, {2}, {3}, {4}, {5}, {6}]
    observed = [{3}, {4}, {5}, {6}, {1}, {1}]  # rotation with one wrong slot
    assert sequence_accuracy(observed, expected) == pytest.approx(5 / 6)


def test_accuracy_length_mismatch_uses_long_denominator():
    assert sequence_accuracy([{1}, {2}], [{1}, {2}, {3}, {4}]) == 0.5
    assert sequence_accuracy([{1}, {2}, {3}, {4}], [{1}, {2}]) == 0.5


def test_accuracy_empty_cases():
    assert sequence_accuracy([], []) == 1.0
    assert sequence_accuracy([{1}], []) == 0.0
    assert sequence_accuracy([], [{1}]) == 0.0


def test_accuracy_matches_oracle_randomized():
    import random
    rnd = random.Random(13)
    alphabet = [frozenset({i}) for i in range(1, 7)] + [frozenset({1, 3, 5})]
    for _ in range(200):
        obs = [rnd.choice(alphabet) for _ in range(rnd.randint(0, 8))]
        exp = [rnd.choice(alphabet) for _ in range(rnd.randint(0, 8))]
        assert sequence_accuracy(obs, exp) == brute_accuracy(obs, exp)


def test_is_tripod():
    odd, even = {1, 3, 5}, {2, 4, 6}
    assert is_tripod([odd, even, odd, even])
    assert is_tripod([even, odd])
    assert not is_tripod([odd])
    assert not is_tripod([odd, odd])
    assert not is_tripod([odd, even, odd, {2, 4}])
    assert not is_tripod([{1}, {2}])
    assert not is_tripod([])


def test_format_outputs():
    trace = GaitTrace(period=1.0, cycles=(((0.0, 1.0),),) + ((),) * 5)
    text = format_trace(trace)
    assert "1 0.000000 1.000000" in text
    seq_text = format_sequence([frozenset({3, 1}), frozenset({2})])
    assert "0 1,3" in seq_text and "1 2" in seq_text
