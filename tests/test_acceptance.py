"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them as they go).
"""
import hashlib
import math
import time
from pathlib import Path

import numpy as np

from conftest import random_frame
from hexgait.cli import _leg_event_counts, main
from hexgait.energy import energy_report
from hexgait.frames import andpool, frame_not, orpool, popcount
from hexgait.gait import is_tripod, label_sequence, sequence_accuracy
from hexgait.neurons import (NeuronParams, NeuronState, run_network,
                             save_weights, step_neuron)
from hexgait.scene import (GaitSchedule, leg_region_mask, render_expert_sequence,
                           segment_boundaries, splice_segments)
from hexgait.training import TrainSchedule, estimate_leg, train


def _report(num: int, desc: str, ok: bool, extra: str = ""):
    tail = f" ({extra})" if extra else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}{tail}"


def _brute_pool(bits, k, op):
    h, w = bits.shape
    out = np.zeros((h // k, w // k), dtype=bool)
    for i in range(h // k):
        for j in range(w // k):
            out[i, j] = op(bits[i * k:(i + 1) * k, j * k:(j + 1) * k].flat)
    return out


def test_criterion_1_pooling_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    ok = True
    for i in range(200):
        k = int(rng.choice([2, 4, 8]))
        w = k * int(rng.integers(1, 64 // k + 1))
        h = k * int(rng.integers(1, 64 // k + 1))
        f = random_frame(rng, w, h, density=float(rng.random()))
        ok &= np.array_equal(andpool(f, k).bits, _brute_pool(f.bits, k, all))
        ok &= np.array_equal(orpool(f, k).bits, _brute_pool(f.bits, k, any))
        ok &= orpool(f, k) == frame_not(andpool(frame_not(f), k))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _report(1, "pooling matches brute-force oracle with De Morgan duality",
            ok, f"200 frames in {elapsed:.2f}s")


def test_criterion_2_filter_reproduction(train_stream, geom, cfg):
    params = cfg.render_params()
    fpc = cfg["scene"]["frames_per_cycle"]
    bounds = segment_boundaries(GaitSchedule.sequential(), fpc, params)
    contained = counts_ok = True
    n_active = 0
    for leg, (lo, hi) in enumerate(bounds, start=1):
        region = leg_region_mask(geom, leg, fpc, 600, 600, params)
        region10 = region.reshape(60, 10, 60, 10).any(axis=(1, 3))
        for frame in train_stream.frames[lo:hi]:
            i10 = andpool(frame, 10)
            c = popcount(i10)
            if c == 0:
                continue
            n_active += 1
            contained &= not (i10.bits & ~region10).any()
            counts_ok &= 1 <= c <= 5
    ok = contained and counts_ok and n_active >= 6 * 8
    _report(2, "pooled frames stay in the moving leg's region with 1-5 bits",
            ok, f"{n_active} active frames")


def test_criterion_3_neuron_numerics():
    p = NeuronParams()
    v0 = -55.0
    state = NeuronState(v=v0)
    worst_v = 0.0
    for k in range(int(20.0 / p.dt)):
        state, _ = step_neuron(state, p, k * p.dt)
        t = (k + 1) * p.dt
        exact = p.v_rest + (v0 - p.v_rest) * math.exp(-t / p.tau_v)
        worst_v = max(worst_v, abs(state.v - exact))
    v_ok = worst_v < 0.01 * (p.v_thresh - p.v_rest)
    g0, n = 5.0, int(20.0 / p.dt)
    state = NeuronState(v=p.v_rest, g_e=g0)
    worst_g = 0.0
    for k in range(n):
        state, _ = step_neuron(state, p, k * p.dt)
        exact = g0 * math.exp(-(k + 1) * p.dt / p.tau_ge)
        worst_g = max(worst_g, abs(state.g_e - exact))
    g_ok = worst_g <= 0.02 * g0
    _report(3, "Euler membrane and conductance track the closed forms",
            v_ok and g_ok, f"max dV {worst_v:.4f} mV, max dg {worst_g:.4f}")


def test_criterion_4_training_convergence(train_stream, priors, cfg):
    t0 = time.monotonic()
    expected = [{leg} for leg in range(1, 7)]
    converged_at = None
    for repeats in range(1, 11):
        result = train(train_stream, priors, cfg.train_schedule(),
                       cfg.neuron_params(), repeats=repeats)
        i10 = [andpool(f, 10) for f in train_stream.frames]
        _, raster = run_network(i10, result.weights, cfg.neuron_params())
        seq = label_sequence(raster, cfg.group_gap_s())
        if sequence_accuracy(seq, expected) == 1.0:
            converged_at = repeats
            break
    elapsed = time.monotonic() - t0
    sim_s = (converged_at or 0) * len(train_stream) * cfg.neuron_params().dt
    ok = converged_at is not None and elapsed < 30.0
    _report(4, "frozen network reproduces the sequence after <= 10 repetitions",
            ok, f"converged after {converged_at} repetition(s), "
                f"{sim_s:.1f} simulated s, {elapsed:.1f}s wall")


def test_criterion_5_tripod_generalization(trained, train_stream, cfg, tmp_path):
    wpath = tmp_path / "weights.txt"
    save_weights(wpath, trained.weights)
    before = hashlib.sha256(wpath.read_bytes()).hexdigest()
    fpc = cfg["scene"]["frames_per_cycle"]
    bounds = segment_boundaries(GaitSchedule.sequential(), fpc, cfg.render_params())
    sched = GaitSchedule.tripod(4)
    spliced = splice_segments(train_stream, bounds, sched)
    i10 = [andpool(f, 10) for f in spliced.frames]
    _, raster = run_network(i10, trained.weights, cfg.neuron_params())
    seq = label_sequence(raster, cfg.group_gap_s())
    acc = sequence_accuracy(seq, [set(l) for _, l in sched.entries])
    save_weights(wpath, trained.weights)
    after = hashlib.sha256(wpath.read_bytes()).hexdigest()
    ok = is_tripod(seq) and acc == 1.0 and before == after
    _report(5, "frozen network walks the spliced tripod schedule",
            ok, f"accuracy {acc:.3f}, tripod {is_tripod(seq)}, "
                f"weights unchanged {before == after}")


def test_criterion_6_leg_estimator(geom, priors, cfg):
    fpc = cfg["scene"]["frames_per_cycle"]
    params = cfg.render_params()
    seg_len = fpc + params.gap_frames
    results = {}
    for density in (0.0, 0.002):
        stream = render_expert_sequence(geom, GaitSchedule.sequential(), fpc,
                                        600, 600, noise_density=density,
                                        seed=0, params=params)
        hits = total = 0
        for leg in range(1, 7):
            for j in range(seg_len * (leg - 1), seg_len * leg):
                if not andpool(stream.frames[j], 10).any():
                    continue
                history = stream.frames[max(0, j - 10):j + 1]
                hits += estimate_leg(history, priors) == leg
                total += 1
        results[density] = hits / total
    ok = results[0.0] == 1.0 and results[0.002] >= 0.95
    _report(6, "leg estimator: 100% clean, >= 95% at noise 0.002",
            ok, f"clean {results[0.0]:.3f}, noisy {results[0.002]:.3f}")


def test_criterion_7_schedule_freezes(train_stream, priors, cfg):
    sched = TrainSchedule(alpha=2.0, beta=2.0)
    times = [0.04 * k for k in range(0, 400, 5)]
    mono = all(sched.potentiation(a) > sched.potentiation(b)
               and sched.depression(a) > sched.depression(b)
               for a, b in zip(times, times[1:]))
    # One repetition is 8.64 simulated s, so p < 1e-6 before repeat two.
    rep_s = len(train_stream) * cfg.neuron_params().dt
    decayed = sched.potentiation(rep_s) < 1e-6
    one = train(train_stream, priors, sched, cfg.neuron_params(), repeats=1)
    two = train(train_stream, priors, sched, cfg.neuron_params(), repeats=2)
    delta = float(np.abs(two.weights.w - one.weights.w).max())
    ok = mono and decayed and delta < 1e-6
    _report(7, "update magnitudes decay and weights freeze",
            ok, f"per-repetition change {delta:.2e}")


def test_criterion_8_energy_model(train_stream, cfg):
    i10 = [andpool(f, 10) for f in train_stream.frames]
    n_spikes, n_events = _leg_event_counts(i10)
    rep = energy_report(n_spikes, n_events, n_events, cfg.energy_model())
    sums_exactly = rep.total_j == sum(s for _, _, _, s in rep.items)
    in_band = 5e-9 <= rep.per_leg_event_j <= 20e-9
    ok = sums_exactly and in_band and not rep.flagged
    _report(8, "per-leg-event energy lands in [5, 20] nJ with exact itemization",
            ok, f"{rep.per_leg_event_j * 1e9:.2f} nJ over {n_events} events")


def test_criterion_9_repro_determinism(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        code = main(["--out", out, "repro"])
        assert code == 0
        outs.append(out)
    files = ("events.txt", "weights.txt", "train_raster.txt",
             "seq_raster.txt", "tripod_raster.txt", "tripod_trace.txt",
             "report.txt")
    identical = all(
        Path(outs[0], f).read_bytes() == Path(outs[1], f).read_bytes()
        for f in files)
    _report(9, "repeated full pipeline runs are byte-identical",
            identical, f"{len(files)} artifacts compared")
