import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import centroid
from hexgait.cli import main
from hexgait.config import ANCHOR_DEG
from hexgait.errors import DataError
from hexgait.frames import BinaryFrame, FrameStream, andpool
from hexgait.scene import (GaitSchedule, HexapodGeometry, RenderParams,
                           leg_region_mask, render_expert_sequence)
from hexgait.training import (TrainSchedule, calibrate_priors, classify_angle,
                              estimate_leg, train, wrap_angle)

FPC = 25


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-0.1) == pytest.approx(-0.1)
    assert wrap_angle(2 * math.pi + 0.3) == pytest.approx(0.3)


def test_classify_exact_means(priors):
    for leg in range(1, 7):
        assert classify_angle(priors[leg - 1], priors) == leg


def test_classify_tie_breaks_low():
    # Two legs symmetric about theta=0 score identically; lowest label wins.
    priors = (0.5, -0.5, 1.5, -1.5, 2.5, -2.5)
    assert classify_angle(0.0, priors) == 1
    assert classify_angle(2.0, priors) == 3
    # Legs 1 and 2 sit 0.7 rad either side of theta. wrap_angle rounds one
    # distance up by an ulp at some theta; that must not break the tie.
    for theta in np.linspace(-3.1, 3.1, 621):
        t = float(theta)
        priors = (t + 0.7, t - 0.7, t + 1.7, t - 1.7, t + 2.7, t - 2.7)
        assert classify_angle(t, priors) == 1, t


def test_classify_nearest_mean_with_equal_stds(priors):
    # With equal stds the classifier reduces to nearest wrapped mean.
    rng = np.random.default_rng(2)
    for theta in rng.uniform(-math.pi, math.pi, 1000):
        dists = [abs(wrap_angle(theta - m)) for m in priors]
        nearest = int(np.argmin(dists)) + 1
        assert classify_angle(float(theta), priors) == nearest


def _sweep_labels(geom, params):
    """Check that each leg's noise-free segment is labeled as that leg on
    every active frame, against the priors of the geometry that drew it.
    Returns the stream."""
    priors = calibrate_priors(geom)
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
            assert estimate_leg([frame], priors) == leg
            checked += 1
    assert checked == 6 * params.active_frames
    return stream


def test_estimate_leg_geometric_sweep(geom, cfg):
    _sweep_labels(geom, cfg.render_params())


@pytest.mark.parametrize("body_radius,leg_length,tip_blocks", [
    (0.12, 0.22, 3), (0.25, 0.12, 3), (0.1, 0.1, 1), (0.3, 0.15, 4)])
def test_estimate_leg_geometric_sweep_across_geometries(body_radius, leg_length,
                                                        tip_blocks, cfg):
    geom = HexapodGeometry(body_radius, leg_length)
    params = RenderParams(tip_blocks=tip_blocks)
    stream = _sweep_labels(geom, params)
    # What default training learns: each neuron ends at w_max on its own
    # leg's foot-site I10 tiles and at 0 on every other tile.
    sched = cfg.train_schedule()
    result = train(stream, calibrate_priors(geom), sched, cfg.neuron_params(),
                   repeats=cfg["training"]["repeats"])
    for leg in range(1, 7):
        tiles = andpool(BinaryFrame(leg_region_mask(geom, leg, FPC, 600, 600, params)),
                        10).bits
        assert np.array_equal(result.weights.w[leg - 1],
                              np.where(tiles, sched.w_max, 0.0)), leg


def test_estimate_leg_errors(priors):
    with pytest.raises(ValueError):
        estimate_leg([], priors)
    with pytest.raises(ValueError, match="empty frame"):
        estimate_leg([BinaryFrame.zeros(600, 600)], priors)
    # A solid frame's leg centroid is the body centre itself: theta is
    # atan2(0, 0) = 0, and it is labelled like any other frame.
    solid = BinaryFrame(np.ones((600, 600), dtype=bool))
    assert estimate_leg([solid], priors) == classify_angle(0.0, priors)


def test_calibrate_priors_idempotent_and_sided(geom):
    a = calibrate_priors(geom)
    b = calibrate_priors(geom)
    assert a == b and len(a) == 6
    # Tips point outward, so every mean points back toward the center:
    # left-side legs (1..3) look right-ish, right-side legs look left-ish.
    for leg in (1, 2, 3):
        assert math.cos(a[leg - 1]) > 0
    for leg in (4, 5, 6):
        assert math.cos(a[leg - 1]) < 0


def _tip_to_centre(geom):
    """Prior means as the direction from each leg tip back to the body
    centre, the tip a leg length out along the anchor's direction."""
    cx, cy = geom.body_center
    means = []
    for a in ANCHOR_DEG:
        ax = cx + geom.body_radius * math.cos(math.radians(a))
        ay = cy + geom.body_radius * math.sin(math.radians(a))
        phi = math.atan2(ay - cy, ax - cx)
        tip_x = ax + geom.leg_length * math.cos(phi)
        tip_y = ay + geom.leg_length * math.sin(phi)
        means.append(math.atan2(cy - tip_y, cx - tip_x))
    return means


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 0.5), st.floats(0.01, 1.0))
def test_calibrate_priors_aim_from_each_tip_at_the_centre(body_radius, leg_length):
    # Every tip lies on its anchor's ray out of the centre, so geometry
    # sets no prior beyond ANCHOR_DEG.
    geom = HexapodGeometry(body_radius, leg_length)
    for mean, ref in zip(calibrate_priors(geom), _tip_to_centre(geom), strict=True):
        assert abs(wrap_angle(mean - ref)) <= 1e-12


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
    with pytest.raises(DataError, match="empty stream"):
        train(FrameStream.from_frames(()), priors, cfg.train_schedule(),
              cfg.neuron_params())


def test_train_blank_stream_is_noop(priors, cfg):
    blank = FrameStream.from_frames(
        tuple(BinaryFrame.zeros(600, 600) for _ in range(20)))
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


def _tiles_frame(tiles):
    """A 100x100 frame of the full 10x10 tiles at I10 cells (row, col)."""
    bits = np.zeros((100, 100), dtype=bool)
    for row, col in tiles:
        bits[10 * row:10 * row + 10, 10 * col:10 * col + 10] = True
    return BinaryFrame(bits)


def test_train_update_follows_its_closed_form(priors, cfg):
    # One label's frames alternate between the overlapping I10 cell sets A
    # and B, with a blank frame between plays of A, B. Decay is fast, so no
    # weight reaches w_max, and each update is exactly: +p at the frame's
    # cells, -m at every other cell of the label's neuron, clipped to
    # [0, w_max], with p and m decayed to the simulated time of the frame.
    a, b = {(4, 8), (5, 8)}, {(5, 8), (5, 9)}
    plays = [a, b, set(), a, b]
    frames = [_tiles_frame(cells) for cells in plays]
    label = estimate_leg(frames[:1], priors)
    assert estimate_leg(frames[1:2], priors) == label
    alpha, beta, omega, sigma_d, w_max = 5.0, 1.0, 0.05, 0.01, 0.35
    sched = TrainSchedule(alpha=alpha, beta=beta, omega=omega, sigma_d=sigma_d,
                          w_max=w_max)
    dt, repeats = cfg.neuron_params().dt, 3
    result = train(FrameStream.from_frames(frames), priors, sched,
                   cfg.neuron_params(), repeats=repeats)

    w = [0.0] * 100
    log = []
    for step in range(repeats * len(plays)):
        cells = {10 * row + col for row, col in plays[step % len(plays)]}
        if not cells:
            continue
        now = step * dt
        p = omega * math.exp(-alpha * now)
        m = sigma_d * math.exp(-beta * now)
        w = [min(max(v + p if i in cells else v - m, 0.0), w_max)
             for i, v in enumerate(w)]
        log.append((f"{now:.3f}", str(label), f"{p:.9g}", f"{m:.9g}", str(len(cells))))

    expected = np.zeros((6, 10, 10))
    expected[label - 1] = np.reshape(w, (10, 10))
    assert np.array_equal(result.weights.w, expected)
    assert [(t, leg, p, m, count) for t, leg, _, p, m, count in
            (line.split() for line in result.log)] == log
    # Depression acts: the cells of A alone and of B alone end lower than
    # the cell of both, and no weight saturates.
    assert 0.0 < max(w[48], w[59]) < w[58] < w_max


def test_train_time_runs_across_repeats(train_stream, priors, cfg):
    result = train(train_stream, priors, cfg.train_schedule(),
                   cfg.neuron_params(), repeats=2)
    n = len(train_stream)
    assert result.raster.n_steps * result.raster.dt == pytest.approx(
        2 * n * cfg.neuron_params().dt)
    times = [float(line.split()[0]) for line in result.log]
    assert any(t >= n * cfg.neuron_params().dt for t in times)


def test_train_ignores_salt_noise(geom, priors, cfg):
    # Salt noise never fills a 10x10 tile, so training on the noisy
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


def test_repro_passes_under_salt_noise_that_fills_2x2_tiles(tmp_path):
    # At p = 0.05 noise fills about one 2x2 tile per frame; the labeller
    # must not be swayed by it.
    config = tmp_path / "noisy.cfg"
    config.write_text("[scene]\nnoise_density = 0.05\n")
    out = tmp_path / "out"
    assert main(["--config", str(config), "--seed", "0", "--out", str(out),
                 "repro"]) == 0
    report = (out / "report.txt").read_text().splitlines()
    assert "sequence_accuracy=1.000000" in report
    assert "tripod_accuracy=1.000000" in report


def _lone_tile_frame(y, x):
    """One full 10x10 tile and nothing else."""
    bits = np.zeros((600, 600), dtype=bool)
    bits[y:y + 10, x:x + 10] = True
    return BinaryFrame(bits)


@pytest.mark.parametrize("n", [1, 3, 7, 10, 11, 12, 40, "skips"])
def test_train_repeats_equal_an_unrolled_stream(train_stream, priors, cfg, n):
    # Three plays of a stream are one play of the stream written out three
    # times: the same frames at the same steps, so the same bits. "skips"
    # loops 24 frames of blank frames and lone full tiles between leg
    # frames; every active frame is labelled, none is skipped.
    if n == "skips":
        blank = BinaryFrame.zeros(600, 600)
        frames = (train_stream.frames[:8] + (blank, _lone_tile_frame(300, 200))
                  + (blank,) * 13 + (_lone_tile_frame(100, 400),))
    else:
        frames = train_stream.frames[:n]
    sched = TrainSchedule(omega=0.5)
    looped = train(FrameStream.from_frames(frames), priors, sched,
                   cfg.neuron_params(), repeats=3)
    unrolled = train(FrameStream.from_frames(frames * 3), priors, sched,
                     cfg.neuron_params())
    assert looped.log and looped.log == unrolled.log
    assert np.array_equal(looped.weights.w, unrolled.weights.w)
    assert looped.raster == unrolled.raster
    assert looped.skipped == unrolled.skipped == 0


def _dense_estimate(frame, priors):
    """(leg, theta) of a frame from the dense I10 pool: the labeller's
    reference. Theta runs from the I10 centroid to the body centre."""
    x, y = centroid(andpool(frame, 10))
    theta = math.atan2(0.5 - y, 0.5 - x)
    return classify_angle(theta, priors), theta


def _dense_log(frames, priors, repeats, dt):
    """(time, leg, theta, popcount) columns of every update the dense
    reference makes over `repeats` plays of `frames`."""
    rows = []
    for gt in range(repeats * len(frames)):
        frame = frames[gt % len(frames)]
        count = int(andpool(frame, 10).bits.sum())
        if count:
            leg, theta = _dense_estimate(frame, priors)
            rows.append((f"{gt * dt:.3f}", str(leg), f"{theta:.6f}", str(count)))
    return rows


def _log_columns(log):
    return [(t, leg, theta, count) for t, leg, theta, _, _, count in
            (line.split() for line in log)]


@pytest.mark.parametrize("n,repeats", [(216, 2), (15, 3)])
def test_train_labels_match_dense_reference(train_stream, priors, cfg, n, repeats):
    # Each update labels the leg, at the angle, that the dense pool gives
    # for the frame played; estimate_leg agrees.
    frames = train_stream.frames[:n]
    params = cfg.neuron_params()
    result = train(FrameStream.from_frames(frames), priors,
                   cfg.train_schedule(), params, repeats=repeats)
    assert len(result.log) == repeats * (48 if n == 216 else 8)
    assert _log_columns(result.log) == _dense_log(frames, priors, repeats, params.dt)
    for frame in frames:
        if andpool(frame, 10).any():
            assert estimate_leg([frame], priors) == _dense_estimate(frame, priors)[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(10, 20), st.integers(10, 20),
       st.floats(0, 0.1), st.integers(2, 6), st.integers(1, 3))
def test_train_labels_match_dense_reference_on_drawn_scenes(geom, priors, cfg, seed,
                                                            tw, th, noise, fpc,
                                                            repeats):
    # Scenes of 100x100 to 200x200 pixels under salt noise up to 0.1.
    stream = render_expert_sequence(geom, GaitSchedule.sequential(), fpc, 10 * tw,
                                    10 * th, noise, seed, cfg.render_params())
    params = cfg.neuron_params()
    result = train(stream, priors, cfg.train_schedule(), params, repeats=repeats)
    assert result.log
    assert _log_columns(result.log) == _dense_log(stream.frames, priors, repeats,
                                                  params.dt)
