"""Run configuration: one key=value file with a section per subsystem.

Unknown sections or keys are rejected; every value is validated against
the owning module's invariants at load time.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .energy import EnergyModel
from .errors import ConfigError
from .neurons import NeuronParams
from .scene import HexapodGeometry, RenderParams
from .training import TrainSchedule

_SCHEMA = {
    "run": {"seed": int, "out": str},
    "scene": {
        "width": int, "height": int, "frames_per_cycle": int,
        "noise_density": float, "gap_frames": int, "tip_blocks": int,
        "shaft_clusters": int, "body_radius": float, "leg_length": float,
        "sweep_angle_deg": float, "active_frames": int,
    },
    "events": {"window_ms": float},
    "neuron": {
        "tau_v": float, "tau_ge": float, "v_rest": float, "v_exc": float,
        "v_thresh": float, "refractory": float, "dt": float,
    },
    "training": {
        "alpha": float, "beta": float, "omega": float, "sigma_d": float,
        "w_max": float, "repeats": int, "prior_std_deg": float,
    },
    "gait": {"period_s": float, "group_gap_s": float},
    "energy": {"energy_per_spike_nj": float, "andpool_energy_per_frame_nj": float},
    "test": {"tripod_repeats": int},
}

_DEFAULTS = {
    "run": {"seed": 0, "out": "out"},
    "scene": {
        "width": 600, "height": 600, "frames_per_cycle": 25,
        "noise_density": 0.001, "gap_frames": 11, "tip_blocks": 3,
        "shaft_clusters": 5, "body_radius": 0.18, "leg_length": 0.17,
        "sweep_angle_deg": 30.0, "active_frames": 8,
    },
    "events": {"window_ms": 40.0},
    "neuron": {
        "tau_v": 4.0, "tau_ge": 1.2, "v_rest": -65.0, "v_exc": -30.0,
        "v_thresh": -52.0, "refractory": 2.0, "dt": 0.04,
    },
    "training": {
        "alpha": 0.01, "beta": 0.01, "omega": 0.05, "sigma_d": 0.0005,
        "w_max": 0.35, "repeats": 10, "prior_std_deg": 15.0,
    },
    "gait": {"period_s": 0.0, "group_gap_s": 0.0},  # 0 = derive from scene
    "energy": {"energy_per_spike_nj": 1.7, "andpool_energy_per_frame_nj": 2.5},
    "test": {"tripod_repeats": 4},
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, section):
        return self.values[section]

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    def neuron_params(self) -> NeuronParams:
        n = self.values["neuron"]
        try:
            return NeuronParams(**n)
        except ValueError as exc:
            raise ConfigError(f"[neuron]: {exc}") from exc

    def geometry(self) -> HexapodGeometry:
        s = self.values["scene"]
        try:
            return HexapodGeometry(
                body_radius=s["body_radius"], leg_length=s["leg_length"],
                sweep_angle=math.radians(s["sweep_angle_deg"]))
        except ValueError as exc:
            raise ConfigError(f"[scene]: {exc}") from exc

    def render_params(self) -> RenderParams:
        s = self.values["scene"]
        return RenderParams(tip_blocks=s["tip_blocks"],
                            shaft_clusters=s["shaft_clusters"],
                            gap_frames=s["gap_frames"],
                            active_frames=s["active_frames"])

    def train_schedule(self) -> TrainSchedule:
        t = self.values["training"]
        try:
            return TrainSchedule(alpha=t["alpha"], beta=t["beta"],
                                 omega=t["omega"], sigma_d=t["sigma_d"],
                                 w_max=t["w_max"])
        except ValueError as exc:
            raise ConfigError(f"[training]: {exc}") from exc

    def energy_model(self) -> EnergyModel:
        e = self.values["energy"]
        return EnergyModel(energy_per_spike=e["energy_per_spike_nj"] * 1e-9,
                           andpool_energy_per_frame=e["andpool_energy_per_frame_nj"] * 1e-9)

    def period_s(self) -> float:
        p = self.values["gait"]["period_s"]
        if p > 0:
            return p
        return self.values["scene"]["frames_per_cycle"] * self.values["neuron"]["dt"]

    def group_gap_s(self) -> float:
        g = self.values["gait"]["group_gap_s"]
        return g if g > 0 else self.period_s() / 2.0


def default_config() -> RunConfig:
    return RunConfig({s: dict(kv) for s, kv in _DEFAULTS.items()})


def load_config(path) -> RunConfig:
    """Parse and validate a config file; unknown keys are an error."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            caster = _SCHEMA[section][key]
            try:
                values[section][key] = caster(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"[{section}] {key}={raw!r}: expected {caster.__name__}") from exc
    cfg = RunConfig(values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    s = cfg.values["scene"]
    if s["width"] <= 0 or s["height"] <= 0:
        raise ConfigError("[scene]: width/height must be positive")
    if s["width"] % 20 or s["height"] % 20:
        raise ConfigError("[scene]: width/height must divide the 2x2 and 10x10 pools")
    if s["frames_per_cycle"] < 2:
        raise ConfigError("[scene]: frames_per_cycle must be >= 2")
    if not (0.0 <= s["noise_density"] < 1.0):
        raise ConfigError("[scene]: noise_density must be in [0, 1)")
    if cfg.values["events"]["window_ms"] <= 0:
        raise ConfigError("[events]: window_ms must be > 0")
    if cfg.values["training"]["repeats"] < 0:
        raise ConfigError("[training]: repeats must be >= 0")
    if cfg.values["training"]["prior_std_deg"] <= 0:
        raise ConfigError("[training]: prior_std_deg must be > 0")
    # Construct the derived objects so their own invariants run now.
    cfg.neuron_params()
    cfg.geometry()
    cfg.train_schedule()
    cfg.energy_model()


EXAMPLE_CONFIG = """\
# hexgait run configuration (all defaults shown)

[run]
seed = 0
out = out

[scene]
width = 600
height = 600
frames_per_cycle = 25      # 1 s leg cycle at 40 ms/frame
noise_density = 0.001
gap_frames = 11            # still frames between cycles
tip_blocks = 3             # foot-site blocks surviving the 10x10 AND pool
shaft_clusters = 5
body_radius = 0.18
leg_length = 0.17
sweep_angle_deg = 30.0
active_frames = 8          # fast-sweep frames that light the foot site

[events]
window_ms = 40.0           # sensors larger than the scene are center-cropped

[neuron]
tau_v = 4.0
tau_ge = 1.2
v_rest = -65.0
v_exc = -30.0
v_thresh = -52.0
refractory = 2.0
dt = 0.04

[training]
alpha = 0.01
beta = 0.01
omega = 0.05
sigma_d = 0.0005
w_max = 0.35
repeats = 10
prior_std_deg = 15.0

[gait]
period_s = 0.0             # 0 = frames_per_cycle * dt
group_gap_s = 0.0          # 0 = period / 2

[energy]
energy_per_spike_nj = 1.7
andpool_energy_per_frame_nj = 2.5

[test]
tripod_repeats = 4
"""
