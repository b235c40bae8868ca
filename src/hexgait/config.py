"""Run configuration: one key=value file with a section per subsystem.

Unknown sections or keys are rejected; every value is validated against
the owning module's invariants at load time. A key's type is the type of
its default.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .energy import EnergyModel
from .errors import ConfigError
from .neurons import NeuronParams
from .scene import HexapodGeometry, RenderParams
from .training import TrainSchedule

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
    "gait": {"period_s": 0.0, "group_gap_s": 0.0},
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
        try:
            return RenderParams(tip_blocks=s["tip_blocks"],
                                shaft_clusters=s["shaft_clusters"],
                                gap_frames=s["gap_frames"],
                                active_frames=s["active_frames"])
        except ValueError as exc:
            raise ConfigError(f"[scene]: {exc}") from exc

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
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _DEFAULTS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            caster = type(_DEFAULTS[section][key])
            try:
                values[section][key] = caster(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"[{section}] {key}={raw!r}: expected {caster.__name__}") from exc
    cfg = RunConfig(values)
    validate(cfg)
    return cfg


def validate(cfg: RunConfig) -> None:
    """Raise ConfigError unless every value meets its owner's invariants."""
    if cfg.seed < 0:
        raise ConfigError("[run]: seed must be >= 0")
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
    if cfg.values["test"]["tripod_repeats"] < 1:
        raise ConfigError("[test]: tripod_repeats must be >= 1")
    # Construct the derived objects so their own invariants run now.
    cfg.neuron_params()
    cfg.geometry()
    cfg.render_params()
    cfg.train_schedule()
    cfg.energy_model()


# Comments of the annotated example config.
_NOTES = {
    ("scene", "frames_per_cycle"): "1 s leg cycle at 40 ms/frame",
    ("scene", "gap_frames"): "still frames between cycles",
    ("scene", "tip_blocks"): "foot-site blocks surviving the 10x10 AND pool",
    ("scene", "active_frames"): "fast-sweep frames that light the foot site",
    ("events", "window_ms"): "sensors larger than the scene are center-cropped",
    ("gait", "period_s"): "0 = frames_per_cycle * dt",
    ("gait", "group_gap_s"): "0 = period / 2",
}


def _example_config() -> str:
    lines = ["# hexgait run configuration (all defaults shown)"]
    for section, values in _DEFAULTS.items():
        lines += ["", f"[{section}]"]
        for key, value in values.items():
            line = f"{key} = {value}"
            note = _NOTES.get((section, key))
            lines.append(f"{line:<26} # {note}" if note else line)
    return "\n".join(lines) + "\n"


EXAMPLE_CONFIG = _example_config()
