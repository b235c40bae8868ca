"""Run configuration: one key=value file with a section per subsystem.

Unknown sections or keys are rejected; config owns the parameter classes,
`EnergyModel` among them, their invariants and `Record`, the base of every
value class, and every value is checked against them at load time. A key's
type is the type of its default. This module imports no numpy, so a
command that only reads its config never loads the pipeline.
"""
from __future__ import annotations

import math

from .errors import ConfigError

N_LEGS = 6

# Longest stream accepted: one hour of 40 ms frames. Its I10 stack alone
# takes 324 MB, so a wild timestamp is rejected before anything is sized
# by it.
MAX_FRAMES = 90_000

# Longest frame window, in us, that keeps MAX_FRAMES frames' stamps within
# the 16 digits of an event file's field, so every saved file loads back.
_MAX_WINDOW_US = (10**16 - 1) // MAX_FRAMES


def _window_us(window_ms: float) -> int:
    """`window_ms` in whole us; ValueError unless finite and 1.._MAX_WINDOW_US."""
    if not (math.isfinite(window_ms) and 1 <= round(window_ms * 1000) <= _MAX_WINDOW_US):
        raise ValueError(f"window_ms must be finite, at least 1 us and at most "
                         f"{_MAX_WINDOW_US} us, got {window_ms}")
    return int(round(window_ms * 1000))


class Record:
    """Base of the value classes: a subclass's fields are its annotated names, in
    order, each defaulting to the class attribute of that name. Instances are frozen
    and compare and hash by their fields, unless `eq=False`: then by identity."""

    def __init_subclass__(cls, eq=True):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        # dict(**a, **b) is a TypeError when a field is given twice.
        values = {**self._defaults, **dict(**dict(zip(self._fields, args)), **kwargs)}
        if len(args) > len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name in self._fields:
            object.__setattr__(self, name, values[name])
        if hasattr(self, "__post_init__"):  # the class's checks
            self.__post_init__()

    def replace(self, **changes):
        """A copy with `changes` to its fields, checked as a new instance is."""
        return type(self)(**{**self._items(), **changes})

    def _items(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._items().items())
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        return self._items() == other._items() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._items().values()))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__


class NeuronParams(Record):
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


# Side of a foot-site block: the I10 AND-pool kernel of
# frames.pooled_streams, which the foot site must survive.
BLOCK = 10

# Anchor directions (degrees, image coords): legs 1-3 on the left side,
# legs 4-6 on the right. Adjacent directions are 45 degrees apart, so
# neighbouring anchors are 2 r sin(22.5 deg) ~ 0.77 r apart.
ANCHOR_DEG = (135.0, 180.0, -135.0, 45.0, 0.0, -45.0)


class HexapodGeometry(Record):
    """Planar hexapod layout in normalized [0,1]^2 coordinates; the leg
    anchors sit on the body's rim in the ANCHOR_DEG directions."""

    body_center = (0.5, 0.5)
    body_radius: float = 0.18
    leg_length: float = 0.17

    def __post_init__(self):
        # Above 0.5 the 180-degree anchor would lie left of the frame.
        if not (0 < self.body_radius <= 0.5 and self.leg_length > 0):
            raise ValueError("body_radius must be in (0, 0.5] and leg_length > 0")

    def anchor_angle(self, leg: int) -> float:
        """Outward direction of leg `leg` (1..6) from the body center."""
        return math.radians(ANCHOR_DEG[leg - 1])


class RenderParams(Record):
    """Knobs for the synthetic renderer: foot-site size in 10x10 blocks,
    cycle timing in frames."""

    tip_blocks: int = 3          # full 10x10 blocks at the foot site
    gap_frames: int = 11         # still frames after each cycle
    active_frames: int = 8       # cycle frames dense enough to light the foot site

    def __post_init__(self):
        for name, value in self._items().items():
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


def foot_blocks(geom: HexapodGeometry, leg: int, width: int, height: int,
                params: RenderParams) -> list:
    """Grid-aligned 10x10 blocks (bx, by) of leg `leg`'s foot site: up to
    `tip_blocks` distinct blocks, as many as the leg holds, marching in from
    its tip in half-block steps. ValueError if a step leaves the frame."""
    phi = geom.anchor_angle(leg)
    ux, uy = math.cos(phi), math.sin(phi)
    cx, cy = geom.body_center
    ax = (cx + geom.body_radius * ux) * (width - 1)
    ay = (cy + geom.body_radius * uy) * (height - 1)
    blocks = []
    r = geom.leg_length * min(width, height) - BLOCK * 0.5
    while len(blocks) < params.tip_blocks and r > 0:
        px, py = ax + r * ux, ay + r * uy
        # As floats: int() truncates (-1, 0) to 0; inf and nan fail the test.
        if not (-1 < px < width and -1 < py < height):
            raise ValueError(f"leg {leg}'s foot site at ({px:.4g}, {py:.4g}) lies "
                             f"outside the {width}x{height} frame")
        block = (int(px) // BLOCK, int(py) // BLOCK)
        if block not in blocks:
            blocks.append(block)
        r -= BLOCK * 0.5
    return blocks


class TrainSchedule(Record):
    """Exponentially decaying potentiation/depression schedule."""

    alpha: float = 0.01      # 1/s, potentiation decay rate
    beta: float = 0.01       # 1/s, depression decay rate
    omega: float = 0.05      # potentiation scale
    sigma_d: float = 0.0005  # depression scale
    w_max: float = 0.35      # weight ceiling

    def __post_init__(self):
        for name in ("alpha", "beta", "omega", "sigma_d", "w_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    def potentiation(self, t_sec: float) -> float:
        return self.omega * math.exp(-self.alpha * t_sec)

    def depression(self, t_sec: float) -> float:
        return self.sigma_d * math.exp(-self.beta * t_sec)


class EnergyModel(Record):
    energy_per_spike: float = 1.7e-9        # joules per event spike
    andpool_energy_per_frame: float = 2.5e-9  # joules per filter application

    def __post_init__(self):
        if self.energy_per_spike < 0 or self.andpool_energy_per_frame < 0:
            raise ValueError("energies must be >= 0")


# A key owned by a parameter class takes its default from the class. The
# frame window is the network step dt, in ms: 0.04 * 1000 == 40.0 exactly.
_DEFAULTS = {
    "run": {"seed": 0, "out": "out"},
    "scene": {
        "width": 600, "height": 600, "frames_per_cycle": 25,
        "noise_density": 0.001, "gap_frames": RenderParams.gap_frames,
        "tip_blocks": RenderParams.tip_blocks,
        "body_radius": HexapodGeometry.body_radius,
        "leg_length": HexapodGeometry.leg_length,
        "active_frames": RenderParams.active_frames,
    },
    "events": {"window_ms": NeuronParams.dt * 1000},
    "neuron": {k: v for k, v in NeuronParams._defaults.items() if k != "dt"},
    "training": {**TrainSchedule._defaults, "repeats": 10},
    "energy": {
        "energy_per_spike_nj": EnergyModel.energy_per_spike * 1e9,
        "andpool_energy_per_frame_nj": EnergyModel.andpool_energy_per_frame * 1e9,
    },
    "test": {"tripod_repeats": 4},
}


class RunConfig(Record):
    values: dict

    def __getitem__(self, section):
        return self.values[section]

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    def _build(self, owner, section: str, **converted):
        """`owner` from the keys of [section] named after its fields, plus
        `converted`; its ValueError becomes a ConfigError."""
        values = self.values[section]
        named = {name: values[name] for name in owner._fields if name in values}
        try:
            return owner(**named, **converted)
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc

    def neuron_params(self) -> NeuronParams:
        return self._build(NeuronParams, "neuron",
                           dt=self.values["events"]["window_ms"] / 1000)

    def geometry(self) -> HexapodGeometry:
        return self._build(HexapodGeometry, "scene")

    def render_params(self) -> RenderParams:
        return self._build(RenderParams, "scene")

    def train_schedule(self) -> TrainSchedule:
        return self._build(TrainSchedule, "training")

    def energy_model(self) -> EnergyModel:
        e = self.values["energy"]
        return self._build(EnergyModel, "energy",
                           energy_per_spike=e["energy_per_spike_nj"] / 1e9,
                           andpool_energy_per_frame=e["andpool_energy_per_frame_nj"] / 1e9)

    def period_s(self) -> float:
        return self.values["scene"]["frames_per_cycle"] * self.neuron_params().dt

    def group_gap_s(self) -> float:
        return self.period_s() / 2.0


def default_config() -> RunConfig:
    return RunConfig({s: dict(kv) for s, kv in _DEFAULTS.items()})


def load_config(path) -> RunConfig:
    """Parse and validate a UTF-8 config file, `%` literal; unknown keys are an error."""
    import configparser  # here, so a run without --config never loads it

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if parser.defaults():
        raise ConfigError("unknown config section [DEFAULT]")
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


# Work budget: the bytes the frame cap already allows the I10 stack of a
# default 600 x 600 stream (one byte per 10 x 10 tile per frame). The keys
# of the rendered stream's expected set pixels (8 bytes each) and the I10
# weight map (one double per neuron per tile) must each fit it.
WORK_BYTES = MAX_FRAMES * 60 * 60


def validate(cfg: RunConfig) -> None:
    """Raise ConfigError unless every value meets its owner's invariants."""
    for section, values in cfg.values.items():
        for key, value in values.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"[{section}] {key}={value}: must be finite")
            if isinstance(value, int) and not -2**63 <= value < 2**63:
                raise ConfigError(f"[{section}] {key}: must fit in int64")
    if cfg.seed < 0:
        raise ConfigError("[run]: seed must be >= 0")
    if not cfg.values["run"]["out"]:
        raise ConfigError("[run]: out must not be empty")
    s = cfg.values["scene"]
    if s["width"] <= 0 or s["height"] <= 0:
        raise ConfigError("[scene]: width/height must be positive")
    if s["width"] % 10 or s["height"] % 10:
        raise ConfigError("[scene]: width/height must divide the 10x10 pool")
    if s["frames_per_cycle"] < 2:
        raise ConfigError("[scene]: frames_per_cycle must be >= 2")
    if not (0.0 <= s["noise_density"] < 1.0):
        raise ConfigError("[scene]: noise_density must be in [0, 1)")
    try:
        _window_us(cfg.values["events"]["window_ms"])
    except ValueError as exc:
        raise ConfigError(f"[events]: {exc}") from exc
    if cfg.values["training"]["repeats"] < 0:
        raise ConfigError("[training]: repeats must be >= 0")
    if cfg.values["test"]["tripod_repeats"] < 1:
        raise ConfigError("[test]: tripod_repeats must be >= 1")
    # Construct the derived objects so their own invariants run now.
    p = cfg.neuron_params()
    if p.dt >= min(p.tau_ge, p.tau_v):  # an Euler decay factor 1 - dt/tau <= 0
        raise ConfigError(f"[events]/[neuron]: window_ms / 1000 = {p.dt} s must be "
                          "below tau_ge and tau_v")
    geom, params = cfg.geometry(), cfg.render_params()
    cfg.train_schedule()
    cfg.energy_model()
    segment = s["frames_per_cycle"] + s["gap_frames"]
    n_frames = max(N_LEGS * max(cfg.values["training"]["repeats"], 1),
                   2 * cfg.values["test"]["tripod_repeats"]) * segment
    if n_frames > MAX_FRAMES:
        raise ConfigError(f"[scene]/[training]/[test]: the training run or the tripod "
                          f"stream spans {n_frames} frames, more than the limit of "
                          f"{MAX_FRAMES}")
    leg_pixels = BLOCK * BLOCK * s["tip_blocks"]
    pixels = N_LEGS * (segment * s["width"] * s["height"] * s["noise_density"]
                       + s["frames_per_cycle"] * leg_pixels)
    if 8 * pixels > WORK_BYTES:
        raise ConfigError(f"[scene]: the rendered stream would set about {pixels:.3g} "
                          f"pixels; the work budget allows {WORK_BYTES // 8:,}")
    weights = N_LEGS * (s["width"] // 10) * (s["height"] // 10)
    if 8 * weights > WORK_BYTES:
        raise ConfigError(f"[scene]: the I10 weight map would take {weights:,} doubles; "
                          f"the work budget allows {WORK_BYTES // 8:,}")
    # Last: the weight-map budget bounds the frame, so each march is short.
    for leg in range(1, N_LEGS + 1):
        try:
            foot_blocks(geom, leg, s["width"], s["height"], params)
        except ValueError as exc:
            raise ConfigError(f"[scene]: {exc}") from exc


# Comments of the annotated example config.
_NOTES = {
    ("scene", "frames_per_cycle"): "1 s leg cycle at 40 ms/frame",
    ("scene", "gap_frames"): "still frames between cycles",
    ("scene", "tip_blocks"): "foot-site blocks surviving the 10x10 AND pool",
    ("scene", "active_frames"): "leading cycle frames that light the foot site",
    ("events", "window_ms"): "sensors larger than the scene are center-cropped",
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
