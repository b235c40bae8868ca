"""Conductance-driven leaky integrate-and-fire neurons, Forward Euler.

Six output neurons, each fully connected to a pooled binary input frame
through a nonnegative weight grid. Membrane dynamics:

    dv/dt  = (-(v - v_rest) - g_e * (v - v_exc)) / tau_v
    dge/dt = -g_e / tau_ge

integrated with a fixed step dt; crossing v_thresh emits a spike, resets
v to v_rest and starts the refractory hold.

The network runs on `NetworkState`, n doubles per state variable,
stepped by `step_state`. The scalar `NeuronState`, `inject`,
`step_neuron` and `step_network` are its per-neuron reference.
"""
from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .atomic import write_atomic
from .errors import DataError, DimensionError
from .frames import BinaryFrame, as_stream

N_LEGS = 6


@dataclass(frozen=True)
class NeuronParams:
    """LIF constants. Voltages in mV, times in seconds."""

    tau_v: float = 4.0
    tau_ge: float = 1.2
    v_rest: float = -65.0
    v_exc: float = -30.0
    v_thresh: float = -52.0
    refractory: float = 2.0
    dt: float = 0.04

    def __post_init__(self):
        for name in ("tau_v", "tau_ge", "dt", "refractory"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (self.v_rest < self.v_thresh):
            raise ValueError(
                f"require v_rest < v_thresh, got {self.v_rest} >= {self.v_thresh}")
        if not (self.v_rest < self.v_exc):
            raise ValueError(
                f"require v_rest < v_exc, got {self.v_rest} >= {self.v_exc}")


@dataclass(frozen=True)
class NeuronState:
    """Membrane potential, excitatory conductance, refractory deadline."""

    v: float
    g_e: float = 0.0
    refractory_until: float = -math.inf

    @classmethod
    def resting(cls, params: NeuronParams) -> "NeuronState":
        return cls(v=params.v_rest)


@dataclass(eq=False)
class NetworkState:
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
            raise DimensionError(f"weights must be (neurons, h, w), got {w.shape}")
        self.w = w

    @classmethod
    def zeros(cls, width: int, height: int, n_neurons: int = N_LEGS) -> "WeightMap":
        return cls(np.zeros((n_neurons, height, width)))

    @property
    def n_neurons(self) -> int:
        return self.w.shape[0]

    @property
    def height(self) -> int:
        return self.w.shape[1]

    @property
    def width(self) -> int:
        return self.w.shape[2]

    def copy(self) -> "WeightMap":
        return WeightMap(self.w.copy())

    def __eq__(self, other):
        if not isinstance(other, WeightMap):
            return NotImplemented
        return np.array_equal(self.w, other.w)


def save_weights(path, weights: WeightMap) -> None:
    """Plain-text weights: header `neurons height width`, then rows."""
    # "%.12g" formats every double as format(v, ".12g") does.
    row = " ".join(["%.12g"] * weights.width) + "\n"
    write_atomic(path, f"{weights.n_neurons} {weights.height} {weights.width}\n"
                 + (row * (weights.n_neurons * weights.height))
                 % tuple(weights.w.ravel().tolist()))


def load_weights(path) -> WeightMap:
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 3:
                raise ValueError(f"bad weight header {header!r}")
            n, h, w = (int(v) for v in header)
            with warnings.catch_warnings():
                # An empty body is reported below, not as numpy's warning.
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DataError(f"bad weight file {path}: {exc}") from exc
    if values.shape != (n * h, w):
        raise DataError(f"bad weight file {path}: header {n} {h} {w} wants "
                        f"{n * h} rows of {w}, got {values.shape}")
    return WeightMap(values.reshape(n, h, w))


@dataclass(frozen=True)
class SpikeRaster:
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


def load_raster(path) -> SpikeRaster:
    dt, n_steps = 0.04, 0
    by_time = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line.startswith("#"):
                    for tok in line[1:].split():
                        if tok.startswith("dt="):
                            dt = float(tok[3:])
                        elif tok.startswith("n_steps="):
                            n_steps = int(tok[8:])
                    continue
                if not line:
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise ValueError(f"line {lineno}: expected `time_s neuron`, got {line!r}")
                by_time.setdefault(float(fields[0]), set()).add(int(fields[1]))
    except ValueError as exc:
        raise DataError(f"bad raster file {path}: {exc}") from exc
    steps = tuple((t, frozenset(s)) for t, s in sorted(by_time.items()))
    return SpikeRaster(dt=dt, steps=steps, n_steps=n_steps)


def inject(state: NeuronState, weights: np.ndarray, frame: BinaryFrame) -> NeuronState:
    """Add the weight/frame dot product to g_e; refractory neurons discard it."""
    if weights.shape != frame.bits.shape:
        raise DimensionError(
            f"weight grid {weights.shape} != frame {frame.bits.shape}")
    if not frame.bits.any():
        return state
    return replace(state, g_e=state.g_e + float(weights[frame.bits].sum()))


def step_neuron(state: NeuronState, params: NeuronParams, now: float):
    """One Euler step. Returns (new_state, spiked)."""
    g_e = state.g_e * (1.0 - params.dt / params.tau_ge)
    if g_e < 0.0:
        g_e = 0.0
    if now < state.refractory_until:
        # Held at rest; conductance still decays.
        return replace(state, v=params.v_rest, g_e=g_e), False
    dv = (-(state.v - params.v_rest) - state.g_e * (state.v - params.v_exc))
    v = state.v + params.dt / params.tau_v * dv
    if v >= params.v_thresh:
        return NeuronState(v=params.v_rest, g_e=g_e,
                           refractory_until=now + params.refractory), True
    return NeuronState(v=v, g_e=g_e, refractory_until=state.refractory_until), False


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


def step_state(state: NetworkState, weights: np.ndarray, cells: np.ndarray,
               params: NeuronParams, now: float) -> frozenset:
    """Inject then step every neuron, in place: step_network on floats.

    `weights` holds one flat weight row per neuron and `cells` the sorted
    flat indices of the set input pixels. Each neuron takes step_neuron's
    operations in step_neuron's order, so the doubles are the same.
    Returns the spiked labels.
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


def run_network(frames, weights: WeightMap, params: NeuronParams,
                state: NetworkState = None, t0: float = 0.0):
    """Drive the network over a FrameStream, or a sequence of BinaryFrames,
    with frozen weights.

    Returns (final state, SpikeRaster). One frame per dt step; a given
    `state` is advanced in place.
    """
    stream = as_stream(frames)
    if len(stream) and (stream.height, stream.width) != weights.w.shape[1:]:
        raise DimensionError(f"weight grid {weights.w.shape[1:]} != frame "
                             f"{(stream.height, stream.width)}")
    if state is None:
        state = NetworkState.resting(params, weights.n_neurons)
    rows = weights.w.reshape(weights.n_neurons, -1)
    steps = []
    for k, cells in enumerate(stream.per_frame()):
        now = t0 + k * params.dt
        spiked = step_state(state, rows, cells, params, now)
        if spiked:
            steps.append((now, spiked))
    return state, SpikeRaster(dt=params.dt, steps=tuple(steps), n_steps=len(stream))
