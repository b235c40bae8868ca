import math

import numpy as np
import pytest

from hexgait.errors import EmptyFrameError
from hexgait.frames import (BinaryFrame, andpool, centroid, frame_not,
                            orpool)
from hexgait.neurons import WeightMap
from hexgait.scene import GaitSchedule, render_expert_sequence
from hexgait.training import (GaussianPriors, TrainSchedule, calibrate_priors,
                              classify_angle, estimate_leg, train, wrap_angle)

FPC = 25


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-0.1) == pytest.approx(-0.1)
    assert wrap_angle(2 * math.pi + 0.3) == pytest.approx(0.3)


def test_priors_validation():
    with pytest.raises(ValueError):
        GaussianPriors(means=(0, 1, 2), stds=(1, 1, 1))
    with pytest.raises(ValueError):
        GaussianPriors(means=(0, 1, 2, 3, 0, 5), stds=(1,) * 6)
    with pytest.raises(ValueError):
        GaussianPriors(means=tuple(range(6)), stds=(1, 1, 1, -1, 1, 1))


def test_classify_exact_means(priors):
    for leg in range(1, 7):
        assert classify_angle(priors.means[leg - 1], priors) == leg


def test_classify_tie_breaks_low():
    # Two legs symmetric about theta=0 score identically; lowest label wins.
    priors = GaussianPriors(means=(0.5, -0.5, 1.5, -1.5, 2.5, -2.5),
                            stds=(0.3,) * 6)
    assert classify_angle(0.0, priors) == 1
    assert classify_angle(2.0, priors) == 3


def test_classify_nearest_mean_with_equal_stds(priors):
    # With equal stds the classifier reduces to nearest wrapped mean.
    rng = np.random.default_rng(2)
    for theta in rng.uniform(-math.pi, math.pi, 1000):
        dists = [abs(wrap_angle(theta - m)) for m in priors.means]
        nearest = int(np.argmin(dists)) + 1
        assert classify_angle(float(theta), priors) == nearest


def test_estimate_leg_geometric_sweep(geom, priors, cfg):
    # Each leg's noise-free segment is labeled as that leg on every
    # active frame, using an 11-frame rolling history.
    params = cfg.render_params()
    stream = render_expert_sequence(geom, GaitSchedule.sequential(), FPC,
                                    600, 600, noise_density=0.0, seed=0,
                                    params=params)
    seg_len = FPC + params.gap_frames
    checked = 0
    for leg in range(1, 7):
        for j in range(seg_len * (leg - 1), seg_len * leg):
            frame = stream.frames[j]
            if not andpool(frame, 10).any():
                continue
            history = stream.frames[max(0, j - 10):j + 1]
            assert estimate_leg(history, priors) == leg
            checked += 1
    assert checked >= 6 * 8


def test_estimate_leg_errors(priors):
    with pytest.raises(ValueError):
        estimate_leg([], priors)
    with pytest.raises(EmptyFrameError):
        estimate_leg([BinaryFrame.zeros(600, 600)], priors)
    solid = BinaryFrame(np.ones((600, 600), dtype=bool))
    with pytest.raises(EmptyFrameError, match="body"):
        estimate_leg([solid], priors)


def test_calibrate_priors_idempotent_and_sided(geom):
    a = calibrate_priors(geom)
    b = calibrate_priors(geom)
    assert a.means == b.means and a.stds == b.stds
    # Tips point outward, so every mean points back toward the center:
    # left-side legs (1..3) look right-ish, right-side legs look left-ish.
    for leg in (1, 2, 3):
        assert math.cos(a.means[leg - 1]) > 0
    for leg in (4, 5, 6):
        assert math.cos(a.means[leg - 1]) < 0


def test_schedule_decay_strictly_decreasing():
    sched = TrainSchedule()
    times = [k * 0.04 for k in range(0, 500, 7)]
    ps = [sched.potentiation(t) for t in times]
    ms = [sched.depression(t) for t in times]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert all(a > b for a, b in zip(ms, ms[1:]))
    assert ps[0] == sched.omega and ms[0] == sched.sigma_d


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainSchedule(alpha=0.0)
    with pytest.raises(ValueError):
        TrainSchedule(w_max=-0.1)


def test_train_locality(trained, geom, cfg):
    # Each neuron's strong weights sit inside its own leg's pooled region.
    from hexgait.scene import leg_region_mask
    params = cfg.render_params()
    for leg in range(1, 7):
        w = trained.weights.w[leg - 1]
        region = leg_region_mask(geom, leg, FPC, 600, 600, params)
        region10 = region.reshape(60, 10, 60, 10).any(axis=(1, 3))
        strong = w > 0.5 * w.max()
        assert w.max() > 0
        assert not (strong & ~region10).any()


def test_train_bounds(trained, cfg):
    w = trained.weights.w
    assert (w >= 0).all()
    assert (w <= cfg.train_schedule().w_max + 1e-12).all()


def test_train_empty_stream_rejected(priors, cfg):
    from hexgait.frames import FrameStream
    with pytest.raises(ValueError):
        train(FrameStream.from_frames((), 40.0), priors, cfg.train_schedule(),
              cfg.neuron_params())


def test_train_blank_stream_is_noop(priors, cfg):
    from hexgait.frames import FrameStream
    blank = FrameStream.from_frames(
        tuple(BinaryFrame.zeros(600, 600) for _ in range(20)), 40.0)
    result = train(blank, priors, cfg.train_schedule(), cfg.neuron_params())
    assert not result.weights.w.any()
    assert result.log == []
    assert result.raster.total_spikes() == 0


def test_train_freezes_once_decayed(train_stream, priors, cfg):
    # With fast decay rates, one repetition exhausts the schedule and a
    # second repetition leaves the weights numerically unchanged.
    sched = TrainSchedule(alpha=2.0, beta=2.0)
    params = cfg.neuron_params()
    one = train(train_stream, priors, sched, params, repeats=1)
    two = train(train_stream, priors, sched, params, repeats=2)
    assert np.abs(two.weights.w - one.weights.w).max() < 1e-6


def test_train_deterministic(train_stream, priors, cfg):
    a = train(train_stream, priors, cfg.train_schedule(), cfg.neuron_params())
    b = train(train_stream, priors, cfg.train_schedule(), cfg.neuron_params())
    assert np.array_equal(a.weights.w, b.weights.w)
    assert a.log == b.log
    assert a.raster.steps == b.raster.steps


def test_train_time_runs_across_repeats(train_stream, priors, cfg):
    result = train(train_stream, priors, cfg.train_schedule(),
                   cfg.neuron_params(), repeats=2)
    n = len(train_stream)
    assert result.duration_s == pytest.approx(2 * n * cfg.neuron_params().dt)
    times = [float(line.split()[0]) for line in result.log]
    assert any(t >= n * cfg.neuron_params().dt for t in times)


def test_train_starts_from_given_weights(train_stream, priors, cfg):
    seed_w = WeightMap(np.full((6, 60, 60), 0.2))
    result = train(train_stream, priors, cfg.train_schedule(),
                   cfg.neuron_params(), weights=seed_w)
    # input map untouched, output differs from it
    assert (seed_w.w == 0.2).all()
    assert not np.array_equal(result.weights.w, seed_w.w)


def test_train_ignores_salt_noise(geom, priors, cfg):
    # Salt noise never fills a 2x2 or 10x10 tile, so training on the noisy
    # default streams learns exactly what it learns on the clean one.
    def run(density, seed):
        stream = render_expert_sequence(
            geom, GaitSchedule.sequential(), FPC, 600, 600,
            noise_density=density, seed=seed, params=cfg.render_params())
        return train(stream, priors, cfg.train_schedule(), cfg.neuron_params(),
                     repeats=cfg["training"]["repeats"])

    clean = run(0.0, 0)
    for seed in (0, 1):
        noisy = run(cfg["scene"]["noise_density"], seed)
        assert np.array_equal(noisy.weights.w, clean.weights.w)
        assert noisy.raster == clean.raster
        assert noisy.log == clean.log


def _lone_tile_frame(y, x):
    """One full 10x10 tile and nothing else: its body map is its own leg
    cell, so labelling it after blank frames raises EmptyFrameError."""
    bits = np.zeros((600, 600), dtype=bool)
    bits[y:y + 10, x:x + 10] = True
    return BinaryFrame(bits)


@pytest.mark.parametrize("n", [1, 3, 7, 10, 11, 12, 40, "skips"])
def test_train_repeats_equal_an_unrolled_stream(train_stream, priors, cfg, n):
    # Three plays of a stream are one play of the stream written out three
    # times: the same history windows at the same steps, so the same bits.
    # n = 1, 10 and 11 sit at the edges of the 11-frame history. "skips"
    # loops 24 frames: the last is skipped in every play, and its body cell
    # joins frame 9's window from the second play on, moving frame 9's angle.
    from hexgait.frames import FrameStream
    if n == "skips":
        blank = BinaryFrame.zeros(600, 600)
        frames = (train_stream.frames[:8] + (blank, _lone_tile_frame(300, 200))
                  + (blank,) * 13 + (_lone_tile_frame(100, 400),))
    else:
        frames = train_stream.frames[:n]
    sched = TrainSchedule(omega=0.5)
    looped = train(FrameStream.from_frames(frames, 40.0), priors, sched,
                   cfg.neuron_params(), repeats=3)
    unrolled = train(FrameStream.from_frames(frames * 3, 40.0), priors, sched,
                     cfg.neuron_params())
    assert looped.log and looped.log == unrolled.log
    assert np.array_equal(looped.weights.w, unrolled.weights.w)
    assert looped.raster == unrolled.raster
    assert looped.skipped == unrolled.skipped == (3 if n == "skips" else 0)


def _dense_estimate(history, priors):
    """(leg, theta) of the last frame from dense pools: the labeller's reference."""
    i10 = andpool(history[-1], 10)
    union = np.logical_or.reduce([orpool(andpool(f, 2), 10).bits for f in history])
    body = BinaryFrame(frame_not(orpool(i10, 2)).bits & union, 20)
    c, l = centroid(body), centroid(i10)
    theta = math.atan2(c.y - l.y, c.x - l.x)
    return classify_angle(theta, priors), theta


@pytest.mark.parametrize("n,repeats", [(216, 2), (15, 3)])
def test_train_labels_match_dense_reference(train_stream, priors, cfg, n, repeats):
    # Each update labels the leg, at the angle, that the dense pools give
    # for the last 11 frames played, the window wrapping into the previous
    # repeat; estimate_leg agrees. Fifteen frames of one leg's cycle, looped,
    # slide the window over frames whose body maps overlap.
    from hexgait.frames import FrameStream
    frames = train_stream.frames[:n]
    params = cfg.neuron_params()
    result = train(FrameStream.from_frames(frames, 40.0), priors,
                   cfg.train_schedule(), params, repeats=repeats)
    assert len(result.log) == repeats * (48 if n == 216 else 8)
    for line in result.log:
        t, leg, theta = line.split()[:3]
        gt = round(float(t) / params.dt)
        history = [frames[(gt - i) % n] for i in reversed(range(min(11, gt + 1)))]
        expected_leg, expected_theta = _dense_estimate(history, priors)
        assert (int(leg), theta) == (expected_leg, f"{expected_theta:.6f}"), line
        assert estimate_leg(history, priors) == expected_leg
