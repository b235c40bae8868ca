"""Conductance-driven leaky integrate-and-fire neurons, Forward Euler.

Six output neurons, each fully connected to a pooled binary input frame
through a nonnegative weight grid. Membrane dynamics:

    dv/dt  = (-(v - v_rest) - g_e * (v - v_exc)) / tau_v
    dge/dt = -g_e / tau_ge

integrated with a fixed step dt; crossing v_thresh emits a spike, resets
v to v_rest and starts the refractory hold.

The network runs on `NetworkState`, n doubles per state variable,
stepped by `step_state`. The scalar `NeuronState` and `step_neuron` are
its per-neuron reference.
"""
from __future__ import annotations

import math
import re
from array import array

import numpy as np

from .atomic import quoted, text_lines, write_atomic
from .config import N_LEGS, NeuronParams, Record
from .errors import DataError
from .frames import as_stream

class NeuronState(Record):
    """Membrane potential, excitatory conductance, refractory deadline."""

    v: float
    g_e: float = 0.0
    refractory_until: float = -math.inf

    @classmethod
    def resting(cls, params: NeuronParams) -> "NeuronState":
        return cls(v=params.v_rest)


class NetworkState(Record, eq=False):
    """The state of every neuron as n doubles, one array("d") per field of
    NeuronState; `step_state` updates them in place. For six neurons a step
    is a few dozen float operations: fewer than the numpy calls it would
    take on arrays, each of which costs more than its arithmetic."""

    v: array
    g_e: array
    refractory_until: array

    @classmethod
    def resting(cls, params: NeuronParams, n: int = N_LEGS) -> "NetworkState":
        return cls(array("d", [params.v_rest] * n), array("d", [0.0] * n),
                   array("d", [-math.inf] * n))


class WeightMap:
    """Per-neuron real-valued weight grids matching the input frame dims."""

    def __init__(self, w: np.ndarray):
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 3:
            raise ValueError(f"weights must be (neurons, h, w), got {w.shape}")
        self.w = w

    @classmethod
    def zeros(cls, width: int, height: int) -> "WeightMap":
        return cls(np.zeros((N_LEGS, height, width)))

    @property
    def n_neurons(self) -> int:
        return self.w.shape[0]

    @property
    def height(self) -> int:
        return self.w.shape[1]

    @property
    def width(self) -> int:
        return self.w.shape[2]


def save_weights(path, weights: WeightMap) -> None:
    """Plain-text weights: header `neurons height width`, then rows."""
    # "%.12g" formats every double as format(v, ".12g") does.
    row = " ".join(["%.12g"] * weights.width) + "\n"
    write_atomic(path, f"{weights.n_neurons} {weights.height} {weights.width}\n"
                 + (row * (weights.n_neurons * weights.height))
                 % tuple(weights.w.ravel().tolist()))


_HEADER = re.compile(rb"[ \t]+".join([rb"0*([1-9][0-9]{0,18})"] * 3))
_DATA = bytes(range(32, 127)) + b"\t"  # printable ASCII and tab


def load_weights(path) -> WeightMap:
    """The weights of a file as save_weights writes it, read by
    `atomic.text_lines`: a header of three ASCII integers from 1 to 10**19 - 1,
    then rows of printable ASCII and tabs. A DataError names the first bad line."""
    bad = f"bad weight file {path}: "
    with open(path, "rb") as fh:
        lines = text_lines(fh)
        lineno, header = next(lines, (1, b""))
        if not (match := _HEADER.fullmatch(header)):
            raise DataError(f"{bad}line {lineno}: bad weight header {quoted(header)}")
        n, h, w = map(int, match.groups())
        rows = []  # (line number, text) of the body
        for lineno, text in lines:
            if len(text.split()) != w or text.translate(None, _DATA):
                raise DataError(f"{bad}line {lineno}: expected {w} numbers, "
                                f"got {quoted(text)}")
            rows.append((lineno, text))
    if len(rows) != n * h:
        raise DataError(f"{bad}header {n} {h} {w} wants {n * h} rows of {w}, "
                        f"got {len(rows)}")
    try:
        values = np.loadtxt([text for _, text in rows], dtype=np.float64, ndmin=2)
    except ValueError as exc:
        # numpy numbers the rows it failed on its own way; name the line.
        for lineno, text in rows:
            try:
                np.loadtxt([text], dtype=np.float64)
            except ValueError:
                break
        raise DataError(f"{bad}line {lineno}: expected {w} numbers, "
                        f"got {quoted(text)}") from exc
    if n != N_LEGS:
        raise DataError(f"{bad}{n} neurons, need {N_LEGS}")
    if not np.isfinite(values).all():
        raise DataError(bad + "non-finite weight")
    return WeightMap(values.reshape(n, h, w))


class SpikeRaster(Record):
    """Spiking steps only: ordered (time_s, set of neuron labels) pairs.

    `n_steps` records the total simulated step count, including silent steps.
    """

    dt: float
    steps: tuple
    n_steps: int = 0

    def __post_init__(self):
        steps = tuple((float(t), frozenset(s)) for t, s in self.steps)
        times = [t for t, _ in steps]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("raster times must be strictly increasing")
        object.__setattr__(self, "steps", steps)

    def total_spikes(self) -> int:
        return sum(len(s) for _, s in self.steps)


def save_raster(path, raster: SpikeRaster) -> None:
    """Step-indexed `time_s neuron` pairs, one spike per line."""
    lines = [f"# dt={raster.dt:.6g} n_steps={raster.n_steps}"]
    for t, spikes in raster.steps:
        lines.extend(f"{t:.6f} {n}" for n in sorted(spikes))
    write_atomic(path, "\n".join(lines) + "\n")


def step_neuron(state: NeuronState, params: NeuronParams, now: float):
    """One Euler step. Returns (new_state, spiked)."""
    g_e = state.g_e * (1.0 - params.dt / params.tau_ge)
    if g_e < 0.0:
        g_e = 0.0
    if now < state.refractory_until:
        # Held at rest; conductance still decays.
        return NeuronState(params.v_rest, g_e, state.refractory_until), False
    dv = (-(state.v - params.v_rest) - state.g_e * (state.v - params.v_exc))
    v = state.v + params.dt / params.tau_v * dv
    if v >= params.v_thresh:
        return NeuronState(v=params.v_rest, g_e=g_e,
                           refractory_until=now + params.refractory), True
    return NeuronState(v=v, g_e=g_e, refractory_until=state.refractory_until), False


def step_state(state: NetworkState, weights: np.ndarray, cells: np.ndarray,
               params: NeuronParams, now: float) -> frozenset:
    """Inject then step every neuron, in place.

    `weights` holds one flat weight row per neuron and `cells` the sorted
    flat indices of the set input pixels. A neuron that is not refractory
    adds its weights at `cells` to g_e, then takes step_neuron's operations
    in step_neuron's order, so the doubles are the same. Returns the
    spiked labels.
    """
    # np.take keeps the gathered block C-ordered, so each row sums in the
    # same order as float(w[i][bits].sum()); w[:, cells] is F-ordered and
    # sums column by column, to different doubles.
    gain = np.take(weights, cells, axis=1).sum(axis=1).tolist() if len(cells) else None
    decay = 1.0 - params.dt / params.tau_ge
    rate = params.dt / params.tau_v
    vs, gs, until = state.v, state.g_e, state.refractory_until
    spiked = []
    for i in range(len(vs)):
        g_e = gs[i]
        live = now >= until[i]
        if live and gain:
            g_e = g_e + gain[i]
        decayed = g_e * decay
        gs[i] = 0.0 if decayed < 0.0 else decayed
        if not live:
            vs[i] = params.v_rest
            continue
        v = vs[i]
        v = v + rate * (-(v - params.v_rest) - g_e * (v - params.v_exc))
        if v >= params.v_thresh:
            vs[i] = params.v_rest
            until[i] = now + params.refractory
            spiked.append(i + 1)
        else:
            vs[i] = v
    return frozenset(spiked)


def run_network(frames, weights: WeightMap, params: NeuronParams):
    """Drive the network from rest over a FrameStream, or a sequence of
    BinaryFrames, with frozen weights.

    Returns (final state, SpikeRaster). One frame per dt step.
    """
    stream = as_stream(frames)
    if len(stream) and (stream.height, stream.width) != weights.w.shape[1:]:
        raise ValueError(f"weight grid {weights.w.shape[1:]} != frame "
                         f"{(stream.height, stream.width)}")
    state = NetworkState.resting(params, weights.n_neurons)
    rows = weights.w.reshape(weights.n_neurons, -1)
    steps = []
    for k, cells in enumerate(stream.per_frame()):
        now = k * params.dt
        spiked = step_state(state, rows, cells, params, now)
        if spiked:
            steps.append((now, spiked))
    return state, SpikeRaster(dt=params.dt, steps=tuple(steps), n_steps=len(stream))
