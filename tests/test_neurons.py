import math

import numpy as np
import pytest

from hexgait.errors import DimensionError
from hexgait.frames import BinaryFrame
from hexgait.neurons import (NeuronParams, NeuronState, SpikeRaster, WeightMap,
                             inject, load_raster, load_weights,
                             run_network, save_raster, save_weights,
                             step_neuron)

PARAMS = NeuronParams()


def test_params_validation():
    with pytest.raises(ValueError):
        NeuronParams(tau_v=-1)
    with pytest.raises(ValueError):
        NeuronParams(v_rest=-50, v_thresh=-55)
    with pytest.raises(ValueError):
        NeuronParams(v_exc=-70)


def test_inject_dot_product():
    state = NeuronState(v=PARAMS.v_rest)
    weights = np.full((6, 6), 0.1)
    bits = np.zeros((6, 6), dtype=bool)
    bits[[0, 2, 5], [1, 3, 0]] = True
    out = inject(state, weights, BinaryFrame(bits))
    assert out.g_e == pytest.approx(0.3)


def test_inject_trivial_cases():
    state = NeuronState(v=PARAMS.v_rest, g_e=0.7)
    weights = np.full((4, 4), 0.5)
    assert inject(state, weights, BinaryFrame.zeros(4, 4)).g_e == 0.7
    bits = np.ones((4, 4), dtype=bool)
    assert inject(state, np.zeros((4, 4)), BinaryFrame(bits)).g_e == 0.7


def test_inject_dimension_mismatch():
    with pytest.raises(DimensionError):
        inject(NeuronState(v=-65), np.zeros((3, 3)), BinaryFrame.zeros(4, 4))


def test_resting_fixed_point():
    state = NeuronState(v=PARAMS.v_rest)
    for k in range(100):
        state, spiked = step_neuron(state, PARAMS, k * PARAMS.dt)
        assert not spiked
    assert state.v == PARAMS.v_rest
    assert state.g_e == 0.0


def test_membrane_relaxation_matches_closed_form():
    # v(t) = v_rest + (v0 - v_rest) * exp(-t / tau_v) when g_e = 0.
    v0 = -55.0
    state = NeuronState(v=v0)
    n = int(20.0 / PARAMS.dt)
    tol = 0.01 * (PARAMS.v_thresh - PARAMS.v_rest)
    worst = 0.0
    for k in range(n):
        state, _ = step_neuron(state, PARAMS, k * PARAMS.dt)
        t = (k + 1) * PARAMS.dt
        exact = PARAMS.v_rest + (v0 - PARAMS.v_rest) * math.exp(-t / PARAMS.tau_v)
        worst = max(worst, abs(state.v - exact))
    assert worst < tol


def test_ge_euler_decay_exact_and_near_closed_form():
    g0 = 5.0
    state = NeuronState(v=PARAMS.v_rest, g_e=g0)
    n = 50
    for k in range(n):
        state, _ = step_neuron(state, PARAMS, k * PARAMS.dt)
    euler = g0 * (1.0 - PARAMS.dt / PARAMS.tau_ge) ** n
    exact = g0 * math.exp(-n * PARAMS.dt / PARAMS.tau_ge)
    assert state.g_e == pytest.approx(euler, rel=1e-12)
    assert abs(state.g_e - exact) <= 0.02 * g0


def _drive(params, g_in, steps):
    """Constant per-step injection; returns spike times."""
    state = NeuronState(v=params.v_rest)
    spikes = []
    for k in range(steps):
        now = k * params.dt
        if now >= state.refractory_until:
            state = NeuronState(state.v, state.g_e + g_in, state.refractory_until)
        state, fired = step_neuron(state, params, now)
        if fired:
            spikes.append(now)
    return spikes


def test_sparse_subthreshold_dense_spikes_then_rest():
    # Sparse single inputs stay subthreshold; a dense train crosses
    # threshold and is followed by a full refractory hold at rest.
    sparse = _drive(PARAMS, 0.0, 200)
    assert sparse == []
    state = NeuronState(v=PARAMS.v_rest)
    held_at_rest = 0
    spikes = []
    for k in range(600):
        now = k * PARAMS.dt
        if k < 50 and now >= state.refractory_until:
            state = NeuronState(state.v, state.g_e + 1.0, state.refractory_until)
        state, fired = step_neuron(state, PARAMS, now)
        if fired:
            spikes.append(now)
        if spikes and now < state.refractory_until:
            assert state.v == PARAMS.v_rest
            held_at_rest += 1
    assert spikes
    assert held_at_rest >= int(PARAMS.refractory / PARAMS.dt) - 1


def test_threshold_monotonicity():
    counts = []
    for vth in (-58.0, -52.0, -45.0, -38.0):
        p = NeuronParams(v_thresh=vth)
        counts.append(len(_drive(p, 0.5, 500)))
    assert counts == sorted(counts, reverse=True)


def test_refractory_spacing():
    spikes = _drive(PARAMS, 2.0, 2000)
    assert len(spikes) >= 2
    gaps = np.diff(spikes)
    assert (gaps >= PARAMS.refractory).all()


def test_network_zero_weights_never_spike():
    weights = WeightMap.zeros(6, 6)
    frame = BinaryFrame(np.ones((6, 6), dtype=bool))
    _, raster = run_network([frame] * 100, weights, PARAMS)
    assert raster.total_spikes() == 0
    assert raster.n_steps == 100


def test_network_neuron_independence_permutation():
    rng = np.random.default_rng(4)
    w = rng.random((6, 4, 4)) * 2.0
    frames = [BinaryFrame(rng.random((4, 4)) < 0.5) for _ in range(100)]
    _, base = run_network(frames, WeightMap(w), PARAMS)
    perm = [3, 0, 5, 1, 4, 2]
    _, permuted = run_network(frames, WeightMap(w[perm]), PARAMS)
    remap = {new + 1: old + 1 for new, old in enumerate(perm)}
    expected = tuple((t, frozenset(remap[n] for n in s)) for t, s in permuted.steps)
    assert base.steps == expected


def test_targeted_neuron_only(trained, cfg, train_stream):
    # After training, leg-2 frames drive only neuron 2.
    from hexgait.frames import andpool
    seg_len = cfg["scene"]["frames_per_cycle"] + cfg["scene"]["gap_frames"]
    leg2 = [andpool(f, 10) for f in train_stream.frames[seg_len:2 * seg_len]]
    _, raster = run_network(leg2, trained.weights, cfg.neuron_params())
    fired = set().union(*(s for _, s in raster.steps))
    assert fired == {2}


def test_weights_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    wm = WeightMap(rng.random((6, 5, 7)))
    path = tmp_path / "w.txt"
    save_weights(path, wm)
    loaded = load_weights(path)
    # Lossless to the 12 significant digits written.
    assert np.allclose(loaded.w, wm.w, rtol=1e-11, atol=0)
    save_weights(tmp_path / "w2.txt", loaded)
    assert (tmp_path / "w2.txt").read_text() == path.read_text()


def test_raster_roundtrip(tmp_path):
    raster = SpikeRaster(dt=0.04, steps=((0.08, {1, 3}), (1.0, {2})), n_steps=50)
    path = tmp_path / "r.txt"
    save_raster(path, raster)
    loaded = load_raster(path)
    assert loaded.steps == raster.steps
    assert loaded.n_steps == 50


def test_raster_requires_increasing_times():
    with pytest.raises(ValueError):
        SpikeRaster(dt=0.04, steps=((1.0, {1}), (0.5, {2})))
