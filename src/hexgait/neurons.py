"""Conductance-driven leaky integrate-and-fire neurons, Forward Euler.

Six output neurons, each fully connected to a pooled binary input frame
through a nonnegative weight grid. Membrane dynamics:

    dv/dt  = (-(v - v_rest) - g_e * (v - v_exc)) / tau_v
    dge/dt = -g_e / tau_ge

integrated with a fixed step dt; crossing v_thresh emits a spike, resets
v to v_rest and starts the refractory hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .atomic import write_atomic
from .errors import DimensionError
from .frames import BinaryFrame

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


def fresh_states(params: NeuronParams, n: int = N_LEGS):
    return tuple(NeuronState.resting(params) for _ in range(n))


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
    lines = [f"{weights.n_neurons} {weights.height} {weights.width}"]
    for n in range(weights.n_neurons):
        for row in weights.w[n]:
            lines.append(" ".join(format(v, ".12g") for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


def load_weights(path) -> WeightMap:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: bad weight header {header!r}")
        n, h, w = (int(v) for v in header)
        values = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if values.shape != (n * h, w):
        raise DimensionError(
            f"{path}: expected {n * h}x{w} rows, got {values.shape}")
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
    with open(path) as fh:
        for line in fh:
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
            t_s, n = line.split()
            by_time.setdefault(float(t_s), set()).add(int(n))
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


def run_network(frames, weights: WeightMap, params: NeuronParams,
                states=None, t0: float = 0.0):
    """Drive the network over a frame sequence with frozen weights.

    Returns (final states, SpikeRaster). One frame per dt step.
    """
    if states is None:
        states = fresh_states(params, weights.n_neurons)
    steps = []
    now = t0
    for k, frame in enumerate(frames):
        now = t0 + k * params.dt
        states, spiked = step_network(states, weights, frame, params, now)
        if spiked:
            steps.append((now, frozenset(spiked)))
    return states, SpikeRaster(dt=params.dt, steps=tuple(steps), n_steps=len(frames))
