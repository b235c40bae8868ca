import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
