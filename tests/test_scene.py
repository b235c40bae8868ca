import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexgait.config import HexapodGeometry, RenderParams, foot_blocks
from hexgait.frames import BinaryFrame, andpool, popcount
from hexgait.scene import (GaitSchedule, leg_region_mask, load_schedule,
                           render_expert_sequence, save_schedule, splice_segments)

FPC = 25


def test_schedule_validation():
    with pytest.raises(ValueError):
        GaitSchedule(((0, set()),))
    with pytest.raises(ValueError):
        GaitSchedule(((0, {7}),))
    with pytest.raises(ValueError):
        GaitSchedule(((1, {1}), (0, {2})))


def test_ground_truth_empty_schedule_is_rejected():
    with pytest.raises(ValueError):
        GaitSchedule(())


_STEPS = st.lists(st.tuples(st.integers(0, 10**19 - 1),
                            st.frozensets(st.integers(1, 6), min_size=1)),
                  min_size=1, max_size=50).map(sorted)


@settings(max_examples=100, deadline=None)
@given(_STEPS, st.integers(0, 10**6), st.integers(0, 10**6))
def test_schedule_roundtrip(tmp_path_factory, steps, frames_per_cycle, gap_frames):
    schedule = GaitSchedule(tuple(steps))
    path = tmp_path_factory.mktemp("schedule") / "schedule.txt"
    save_schedule(path, schedule, frames_per_cycle, gap_frames)
    loaded = load_schedule(path)
    assert loaded == schedule
    again = path.with_name("again.txt")
    save_schedule(again, loaded, frames_per_cycle, gap_frames)
    assert again.read_bytes() == path.read_bytes()


def test_schedule_comment_may_hold_any_byte(tmp_path):
    path = tmp_path / "schedule.txt"
    path.write_bytes(b"# \xff\xfe\nstep 0 1 # caf\xe9\nstep 1 2,3\r\n")
    assert load_schedule(path) == GaitSchedule(((0, {1}), (1, {2, 3})))


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 0.5, exclude_min=True), st.floats(0, 1e308, exclude_min=True),
       st.integers(1, 6), st.integers(1, 200), st.integers(1, 200), st.integers(0, 30))
def test_foot_blocks_are_distinct_grid_blocks_or_raise(radius, length, leg, tw, th,
                                                       tip_blocks):
    # Up to tip_blocks distinct blocks of the 10x10 grid, or a ValueError
    # for a leg whose foot site leaves the frame.
    geom = HexapodGeometry(body_radius=radius, leg_length=length)
    try:
        blocks = foot_blocks(geom, leg, 10 * tw, 10 * th,
                             RenderParams(tip_blocks=tip_blocks))
    except ValueError:
        return
    assert len(set(blocks)) == len(blocks) <= tip_blocks
    assert all(0 <= bx < tw and 0 <= by < th for bx, by in blocks)


def test_render_peak_memory_is_about_its_keys(geom, cfg):
    # Every frame's keys go to one buffer that `from_keys` sorts in place,
    # so the render's traced peak stays near the 8 bytes of each key it
    # returns, however many frames hold noise.
    tracemalloc.start()
    try:
        stream = render_expert_sequence(geom, GaitSchedule.sequential(), FPC, 600,
                                        600, noise_density=0.02, seed=0,
                                        params=cfg.render_params())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.keys.size > 1.5e6
    assert peak <= 1.6 * 8 * stream.keys.size


def test_render_noise_is_pool_removable(geom, cfg):
    sched = GaitSchedule(((0, {1}),))
    params = cfg.render_params()
    noisy = render_expert_sequence(geom, sched, FPC, 600, 600,
                                   noise_density=0.001, seed=5, params=params)
    region2 = andpool(BinaryFrame(leg_region_mask(geom, 1, FPC, 600, 600, params)), 2)
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


def test_splice_bad_boundaries(train_stream):
    with pytest.raises(ValueError):
        splice_segments(train_stream, [(0, 10)] * 6, GaitSchedule.sequential())


def test_render_rejects_bad_args(geom):
    sched = GaitSchedule.sequential()
    with pytest.raises(ValueError):
        render_expert_sequence(geom, sched, 1, 600, 600)
    with pytest.raises(ValueError):
        render_expert_sequence(geom, sched, FPC, 600, 600, noise_density=1.0)


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
