import math
import re
from pathlib import Path

import numpy as np
import pytest

from hexgait.config import BLOCK, N_LEGS, HexapodGeometry, default_config, foot_blocks
from hexgait.errors import DataError
from hexgait.events import centered_crop
from hexgait.frames import (BinaryFrame, FrameStream, _check_frame_count, andpool,
                            cell_centroid)
from hexgait.neurons import NeuronParams, NeuronState, SpikeRaster, WeightMap, step_neuron
from hexgait.scene import GaitSchedule, render_expert_sequence
from hexgait.training import TrainResult, calibrate_priors, classify_angle, train


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def geom(cfg):
    return cfg.geometry()


@pytest.fixture(scope="session")
def priors(geom):
    return calibrate_priors(geom)


@pytest.fixture(scope="session")
def train_stream(cfg, geom):
    """Default sequential-leg training stream, light salt noise."""
    return render_expert_sequence(
        geom, GaitSchedule.sequential(),
        frames_per_cycle=cfg["scene"]["frames_per_cycle"],
        width=600, height=600, noise_density=0.001, seed=0,
        params=cfg.render_params())


@pytest.fixture(scope="session")
def trained(cfg, train_stream, priors):
    return train(train_stream, priors, cfg.train_schedule(),
                 cfg.neuron_params(), repeats=3)


def random_frame(rng, width, height, density=0.5):
    return BinaryFrame(rng.random((height, width)) < density)


def centroid(frame: BinaryFrame) -> tuple:
    """cell_centroid (x, y) of a dense frame."""
    return cell_centroid(np.flatnonzero(frame.bits), frame.width, frame.height)


# The scalar network reference that neurons.step_state is checked against.
def inject(state: NeuronState, weights: np.ndarray, frame: BinaryFrame) -> NeuronState:
    """Add the weight/frame dot product to g_e; refractory neurons discard it."""
    if weights.shape != frame.bits.shape:
        raise ValueError(
            f"weight grid {weights.shape} != frame {frame.bits.shape}")
    if not frame.bits.any():
        return state
    return state.replace(g_e=state.g_e + float(weights[frame.bits].sum()))


def step_network(states, weights: WeightMap, frame: BinaryFrame,
                 params: NeuronParams, now: float):
    """Inject then step every neuron. Returns (states, set of spiked labels)."""
    new_states = []
    spiked = set()
    for i, state in enumerate(states):
        if now >= state.refractory_until:
            state = inject(state, weights.w[i], frame)
        state, fired = step_neuron(state, params, now)
        if fired:
            spiked.add(i + 1)
        new_states.append(state)
    return tuple(new_states), spiked


def reference_train(frames, priors, sched, params, repeats) -> TrainResult:
    """`train` played on dense frames, one step at a time, as its
    docstring and the paper word it: pool the frame to I10, step the
    network at gt * dt on the weights so far, then label a frame with set
    cells by the direction from their centroid to the body centre, and
    move that leg's weights +p at the cells, -m elsewhere, into
    [0, w_max]. It shares no code with train's streams, its labeller or
    its in-place update."""
    i10 = [andpool(frame, 10) for frame in frames]
    weights = WeightMap.zeros(i10[0].width, i10[0].height)
    w = weights.w  # updated in place, so step_network sees each update
    states = (NeuronState.resting(params),) * N_LEGS
    cx, cy = HexapodGeometry.body_center
    steps, log = [], []
    for gt in range(repeats * len(i10)):
        frame = i10[gt % len(i10)]
        now = gt * params.dt
        states, spiked = step_network(states, weights, frame, params, now)
        if spiked:
            steps.append((now, spiked))
        if not frame.bits.any():
            continue
        x, y = centroid(frame)
        theta = math.atan2(cy - y, cx - x)
        leg = classify_angle(theta, priors)
        p, m = sched.potentiation(now), sched.depression(now)
        w[leg - 1] = np.clip(np.where(frame.bits, w[leg - 1] + p, w[leg - 1] - m),
                             0.0, sched.w_max)
        log.append(f"{now:.3f} {leg} {theta:.6f} {p:.9g} {m:.9g} {frame.bits.sum()}")
    raster = SpikeRaster(dt=params.dt, steps=tuple(steps), n_steps=repeats * len(i10))
    return TrainResult(weights=weights, raster=raster, log=log)


# The scene references, one draw and one dense frame at a time. They share
# no code with `noise.salt`, the renderer's keys or the splice.
_M64, _GAMMA = 2**64 - 1, 0x9E3779B97F4A7C15


def _splitmix(z: int) -> int:
    """SplitMix64's finalizer on a Python int."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def reference_salt(area, p, seed, k) -> list:
    """Frame k's salt pixels, one draw at a time: uniform n is SplitMix64 of
    n * gamma plus a key of k and every 64-bit word of the seed, and the
    pixels run up the geometric gaps to the first one at or past the area."""
    key = _splitmix(k + _GAMMA & _M64)
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = _splitmix((key ^ seed >> shift & _M64) + _GAMMA & _M64)
    log_q = math.log1p(-p)
    pixels, n = [-1], 0
    while pixels[-1] < area:
        n += 1
        u = ((_splitmix(n * _GAMMA + key & _M64) >> 11) + 1) * 2.0**-53
        pixels.append(pixels[-1] + int(max(math.log(u), area * log_q) / log_q) + 1)
    return pixels[1:-1]


def reference_foot_site(geom, leg, frames_per_cycle, width, height, params):
    """The dense pixels leg `leg` sets in an active frame: its foot_blocks,
    or none when a cycle has no active frame."""
    site = np.zeros((height, width), dtype=bool)
    if min(params.active_frames, frames_per_cycle):
        for bx, by in foot_blocks(geom, leg, width, height, params):
            site[BLOCK * by:BLOCK * (by + 1), BLOCK * bx:BLOCK * (bx + 1)] = True
    return site


def reference_render(geom, schedule, frames_per_cycle, width, height, noise_density,
                     seed, params) -> np.ndarray:
    """render_expert_sequence as dense boolean frames: each step is a cycle of
    frames_per_cycle frames, its legs' foot sites in the first active_frames of
    them, then gap_frames still ones; frame k holds reference_salt(W * H, p, seed, k)."""
    frames = np.zeros((len(schedule.entries), frames_per_cycle + params.gap_frames,
                       height, width), dtype=bool)
    for cycle, (_, legs) in zip(frames, schedule.entries):
        for leg in legs:
            cycle[:frames_per_cycle][:params.active_frames] |= reference_foot_site(
                geom, leg, frames_per_cycle, width, height, params)
    frames = frames.reshape(-1, height, width)
    for k, frame in enumerate(frames if noise_density else ()):
        frame.flat[reference_salt(width * height, noise_density, seed, k)] = True
    return frames


def reference_splice(frames, boundaries, schedule) -> np.ndarray:
    """splice_segments on dense frames: per step, the frame-by-frame OR of
    its legs' segments, padded with empty frames to the longest of them."""
    steps = []
    for _, legs in schedule.entries:
        segments = [frames[slice(*boundaries[leg - 1])] for leg in legs]
        step = np.zeros((max(map(len, segments)),) + frames.shape[1:], dtype=bool)
        for segment in segments:
            step[:len(segment)] |= segment
        steps.append(step)
    return np.concatenate(steps)


# The line-by-line reference that the block decoder of `events` is checked
# against, written from the format's rules. It shares no code with the
# decoder, its crop or its keys.
_REF_BLANK = re.compile(rb"[ \t]*")
_REF_HEADER = re.compile(rb"[ \t]*!sensor[ \t]+([0-9]+)[xX]([0-9]+)[ \t]*")
_REF_EVENT = re.compile(rb"[ \t]*([0-9]{1,16})[ \t]*,[ \t]*([0-9]{1,16})[ \t]*,"
                        rb"[ \t]*([0-9]{1,16})[ \t]*")


def _ref_shown(text: bytes) -> str:
    """A line's text outside its comment, for a message: stripped of
    spaces and tabs, non-ASCII bytes escaped, cut to 80 bytes with `...`
    after the quote."""
    text = text.strip(b" \t")
    return ascii(text[:80].decode("latin-1")) + "..." * (len(text) > 80)


def _ref_dimension(digits: bytes):
    """The value of a run of digits, or None past int64."""
    digits = digits.lstrip(b"0") or b"0"
    return int(digits) if len(digits) <= 19 and int(digits) < 2**63 else None


def reference_events(path):
    """(sensor, x, y, t) of an event file, one line at a time, the
    columns int64 arrays in file order; a DataError as `events` words it."""
    data = Path(path).read_bytes()
    if data and not data.endswith(b"\n"):
        data += b"\n"  # a last line without a newline gets one
    sensor, rows = None, []
    for lineno, line in enumerate(data.split(b"\n")[:-1], start=1):
        if line.endswith(b"\r"):  # CR+LF
            line = line[:-1]
        text = line.split(b"#", 1)[0]  # a comment may hold any byte
        if _REF_BLANK.fullmatch(text):
            continue
        if sensor is not None:
            event = _REF_EVENT.fullmatch(text)
            if event is None:
                raise DataError(
                    f"line {lineno}: expected x,y,t_us, got {_ref_shown(text)}")
            rows.append([int(v) for v in event.groups()])
            continue
        header = _REF_HEADER.fullmatch(text)
        sensor = header and tuple(map(_ref_dimension, header.groups()))
        if not sensor or None in sensor:
            if text.strip(b" \t").startswith(b"!sensor"):
                raise DataError(f"line {lineno}: bad sensor header {_ref_shown(text)}")
            raise DataError("missing !sensor WxH header")
    if sensor is None:
        raise DataError("missing !sensor WxH header")
    x, y, t = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return sensor, x, y, t


def reference_frames(path, window_ms, width, height) -> FrameStream:
    """load_frames as the line reference, a check against the sensor, a
    crop and a bucketing of whole arrays compute it: events numbered in
    file order, keys of frame t // window, a DataError naming the file."""
    try:
        return _reference_frames(path, window_ms, width, height)
    except DataError as exc:
        raise DataError(f"bad event file {path}: {exc}") from exc


def _reference_frames(path, window_ms, width, height) -> FrameStream:
    (sensor_w, sensor_h), x, y, t = reference_events(path)
    left, top = centered_crop(sensor_w, sensor_h, width, height)
    outside = np.flatnonzero((x >= sensor_w) | (y >= sensor_h))
    if outside.size:
        i = outside[0]
        raise DataError(
            f"event {i} at ({x[i]},{y[i]}) outside {sensor_w}x{sensor_h} sensor")
    x, y = x - left, y - top
    inside = (x >= 0) & (x < width) & (y >= 0) & (y < height)
    x, y, t = x[inside], y[inside], t[inside]
    frame = t // round(window_ms * 1000)
    n_frames = int(frame.max()) + 1 if frame.size else 0
    _check_frame_count(n_frames)  # before a wild frame index overflows a key
    return FrameStream(np.unique((frame * height + y) * width + x), n_frames,
                       width, height)


def reference_event_text(keys, width, height, window_us) -> str:
    """The event file that `save_events` writes, one f-string per key, as
    README step 1 words it: a `!sensor WxH` header, then `x,y,t` for key
    (frame * H + y) * W + x, stamped mid-window. It shares no code with
    the writer."""
    lines = [f"!sensor {width}x{height}\n"]
    for key in keys.tolist():
        frame, pixel = divmod(key, width * height)
        y, x = divmod(pixel, width)
        lines.append(f"{x},{y},{frame * window_us + window_us // 2}\n")
    return "".join(lines)
