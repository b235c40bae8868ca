from dataclasses import replace

import numpy as np
import pytest

from hexgait import events
from hexgait.config import default_config
from hexgait.errors import DataError
from hexgait.events import centered_crop
from hexgait.frames import BinaryFrame, FrameStream, _check_frame_count, cell_centroid
from hexgait.neurons import NeuronParams, NeuronState, WeightMap, step_neuron
from hexgait.scene import GaitSchedule, render_expert_sequence
from hexgait.training import calibrate_priors, train


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
    return replace(state, g_e=state.g_e + float(weights[frame.bits].sum()))


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


# The whole-array reference that events.load_frames is checked against. It
# shares no code with the block decoder, its crop or its keys.
def reference_frames(path, window_ms, width, height) -> FrameStream:
    """load_frames as the line parser, a check against the sensor, a crop
    and a bucketing of whole arrays compute it: events numbered in file
    order, keys of frame t // window."""
    rows, (sensor_w, sensor_h) = events._parse_lines(path)
    x, y, t = rows["x"], rows["y"], rows["t"]
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
