import numpy as np
import pytest

from hexgait.frames import andpool, popcount
from hexgait.scene import (GaitSchedule, HexapodGeometry, leg_region_mask,
                           render_expert_sequence, segment_boundaries,
                           splice_segments)
from hexgait.errors import DataError

FPC = 25


def test_schedule_validation():
    with pytest.raises(ValueError):
        GaitSchedule(((0, set()),))
    with pytest.raises(ValueError):
        GaitSchedule(((0, {7}),))
    with pytest.raises(ValueError):
        GaitSchedule(((1, {1}), (0, {2})))


def test_geometry_rejects_coincident_anchors():
    from hexgait.frames import Point
    with pytest.raises(ValueError, match="too close"):
        HexapodGeometry(leg_anchors=tuple([Point(0.5, 0.3)] * 6))


def test_render_determinism(geom, cfg):
    kwargs = dict(frames_per_cycle=FPC, width=200, height=200,
                  noise_density=0.01, seed=42, params=cfg.render_params())
    sched = GaitSchedule(((0, {1}), (1, {4})))
    a = render_expert_sequence(geom, sched, **kwargs)
    b = render_expert_sequence(geom, sched, **kwargs)
    assert a.frames == b.frames
    c = render_expert_sequence(geom, sched, **{**kwargs, "seed": 43})
    assert a.frames != c.frames


def test_render_separation(geom, cfg):
    # Noise-free frames of a leg-1 segment stay inside leg 1's region.
    params = cfg.render_params()
    sched = GaitSchedule(((0, {1}),))
    stream = render_expert_sequence(geom, sched, FPC, 600, 600,
                                    noise_density=0.0, seed=0, params=params)
    region = leg_region_mask(geom, 1, FPC, 600, 600, params)
    for frame in stream.frames:
        assert not (frame.bits & ~region).any()


def test_render_noise_is_pool_removable(geom, cfg):
    sched = GaitSchedule(((0, {1}),))
    params = cfg.render_params()
    noisy = render_expert_sequence(geom, sched, FPC, 600, 600,
                                   noise_density=0.001, seed=5, params=params)
    region2 = andpool(
        __import__("hexgait.frames", fromlist=["BinaryFrame"]).BinaryFrame(
            leg_region_mask(geom, 1, FPC, 600, 600, params)), 2)
    for frame in noisy.frames:
        pooled = andpool(frame, 2)
        # everything surviving the 2x2 pool is leg signal, not salt noise
        assert not (pooled.bits & ~region2.bits).any()


def test_render_i10_sparsity(geom, cfg):
    stream = render_expert_sequence(geom, GaitSchedule.sequential(), FPC,
                                    600, 600, noise_density=0.001, seed=0,
                                    params=cfg.render_params())
    counts = [popcount(andpool(f, 10)) for f in stream.frames]
    active = [c for c in counts if c]
    assert active
    assert all(1 <= c <= 5 for c in active)


def test_splice_identity(train_stream, cfg):
    bounds = segment_boundaries(GaitSchedule.sequential(), FPC, cfg.render_params())
    out = splice_segments(train_stream, bounds, GaitSchedule.sequential())
    assert out.frames == train_stream.frames


def test_splice_tripod_is_per_frame_or(train_stream, cfg):
    bounds = segment_boundaries(GaitSchedule.sequential(), FPC, cfg.render_params())
    out = splice_segments(train_stream, bounds, GaitSchedule.tripod(1))
    seg_len = bounds[0][1] - bounds[0][0]
    assert len(out) == 2 * seg_len
    for j in range(seg_len):
        expect_a = (train_stream.frames[bounds[0][0] + j].bits
                    | train_stream.frames[bounds[2][0] + j].bits
                    | train_stream.frames[bounds[4][0] + j].bits)
        assert np.array_equal(out.frames[j].bits, expect_a)
        expect_b = (train_stream.frames[bounds[1][0] + j].bits
                    | train_stream.frames[bounds[3][0] + j].bits
                    | train_stream.frames[bounds[5][0] + j].bits)
        assert np.array_equal(out.frames[seg_len + j].bits, expect_b)


def test_splice_repeated_leg(train_stream, cfg):
    bounds = segment_boundaries(GaitSchedule.sequential(), FPC, cfg.render_params())
    out = splice_segments(train_stream, bounds,
                          GaitSchedule(((0, {3}), (1, {3}))))
    seg = train_stream.frames[bounds[2][0]:bounds[2][1]]
    assert out.frames == seg + seg


def test_splice_bad_boundaries(train_stream):
    with pytest.raises(DataError):
        splice_segments(train_stream, [(0, 10)] * 6, GaitSchedule.sequential())


def test_ground_truth_empty_schedule_is_rejected():
    with pytest.raises(ValueError):
        GaitSchedule(())


def test_render_rejects_bad_args(geom):
    sched = GaitSchedule.sequential()
    with pytest.raises(ValueError):
        render_expert_sequence(geom, sched, 1, 600, 600)
    with pytest.raises(ValueError):
        render_expert_sequence(geom, sched, FPC, 600, 600, noise_density=1.0)


def test_render_noise_depends_on_seed_and_frame_only(geom, cfg):
    # Frame k draws its noise from the substream (seed, k): a longer
    # schedule renders the frames of its first step exactly as a short one.
    params = cfg.render_params()
    kwargs = dict(frames_per_cycle=FPC, width=200, height=200, seed=3,
                  params=params)
    short = render_expert_sequence(geom, GaitSchedule(((0, {1}),)),
                                   noise_density=0.01, **kwargs)
    long = render_expert_sequence(geom, GaitSchedule.sequential(),
                                  noise_density=0.01, **kwargs)
    clean = render_expert_sequence(geom, GaitSchedule(((0, {1}),)),
                                   noise_density=0.0, **kwargs)
    seg_len = FPC + params.gap_frames
    assert len(short) == seg_len and len(long) == 6 * seg_len
    assert long.frames[:seg_len] == short.frames
    assert np.setdiff1d(short.keys, clean.keys).size > 0


def test_render_noise_count_is_binomial(geom, cfg, train_stream):
    # Noise only adds pixels, and over the 216 default frames their count
    # lies within 5 sigma of n_frames * H * W * p.
    clean = render_expert_sequence(geom, GaitSchedule.sequential(), FPC, 600,
                                   600, noise_density=0.0, seed=0,
                                   params=cfg.render_params())
    assert np.isin(clean.keys, train_stream.keys).all()
    noise = np.setdiff1d(train_stream.keys, clean.keys).size
    trials, p = len(train_stream) * 600 * 600, 0.001
    assert len(train_stream) == 216
    assert abs(noise - trials * p) <= 5 * np.sqrt(trials * p * (1 - p))
