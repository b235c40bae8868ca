"""Seeded input generator for the hexgait benchmark.

Everything a workload feeds the program is made here, once per seed and
before any timing starts. The same seed gives byte-identical files.

Inputs for seed S, all under one directory; a workload makes only the
parts it uses:

- ``synth/events.txt`` and ``synth/schedule.txt``: ``hexgait --seed S synth``
  with the default config (600x600, noise 0.001, 216 frames).
- ``weights.txt``: ``hexgait train`` on that event file (default config).
- ``clean/events.txt``: the same expert video with ``noise_density = 0``.
- ``tripod_events.txt`` and ``tripod_schedule.txt``: a tripod recording
  spliced from the clean footage (see ``make_recording``).
- ``train_long.ini``: ``[training] repeats = 100``, nothing else.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

# Recording geometry of the replay workload.
SENSOR = 800            # square sensor side, pixels
SCENE = 600             # default scene side, centred on the sensor
NOISE_DENSITY = 0.002   # salt noise per sensor pixel per window
TRIPOD_REPEATS = 6      # (1,3,5) then (2,4,6), six times over
WINDOW_US = 40_000      # default accumulation window
POOL = 10               # the I10 AND-pool tile

TRAIN_LONG_CONFIG = "[training]\nrepeats = 100\n"
CLEAN_CONFIG = "[scene]\nnoise_density = 0.0\n"


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_events(path):
    """(x, y, t) int64 arrays and (sensor_w, sensor_h) of an event file."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "!sensor":
            raise ValueError(f"{path}: missing !sensor header")
        w, h = (int(v) for v in header[1].lower().split("x"))
        data = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
    if data.size == 0:
        data = np.zeros((0, 3), dtype=np.int64)
    return data[:, 0], data[:, 1], data[:, 2], (w, h)


def write_events(path, x, y, t, sensor) -> None:
    body = "\n".join(f"{a},{b},{c}" for a, b, c in
                     zip(x.tolist(), y.tolist(), t.tolist()))
    with open(path, "w") as fh:
        fh.write(f"!sensor {sensor[0]}x{sensor[1]}\n")
        if body:
            fh.write(body + "\n")


def read_segments(schedule_path):
    """(frames_per_cycle + gap_frames, ordered leg list) of a synth schedule."""
    fields, legs = {}, []
    with open(schedule_path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("step "):
                _, _, leg = line.split()
                legs.append(int(leg))
            elif "=" in line:
                k, v = line.split("=", 1)
                fields[k] = int(v)
    return fields["frames_per_cycle"] + fields["gap_frames"], legs


def tripod_schedule_text(repeats: int) -> str:
    lines = []
    for r in range(repeats):
        lines.append(f"step {2 * r} 1,3,5")
        lines.append(f"step {2 * r + 1} 2,4,6")
    return "\n".join(lines) + "\n"


def make_recording(x, y, t, seg_len: int, legs, seed: int,
                   repeats: int = TRIPOD_REPEATS, sensor: int = SENSOR,
                   scene: int = SCENE, noise: float = NOISE_DENSITY,
                   window_us: int = WINDOW_US):
    """Splice clean one-leg-at-a-time footage into a noisy tripod recording.

    Each tripod step ORs the three legs' segments frame by frame. The scene
    is placed in the centre of a larger sensor, salt noise at `noise` per
    sensor pixel per window covers the whole sensor, and every event gets a
    timestamp drawn uniformly within its window. Returns time-ordered
    (x, y, t) arrays.
    """
    frame = t // window_us
    off = (sensor - scene) // 2
    seg_of_leg = {leg: i for i, leg in enumerate(legs)}
    rng = np.random.default_rng([seed, 0x7219])
    fx, fy, ff = [], [], []
    out_frame = 0
    for _ in range(repeats):
        for group in ((1, 3, 5), (2, 4, 6)):
            for leg in group:
                lo = seg_of_leg[leg] * seg_len
                sel = (frame >= lo) & (frame < lo + seg_len)
                fx.append(x[sel] + off)
                fy.append(y[sel] + off)
                ff.append(frame[sel] - lo + out_frame)
            out_frame += seg_len
    n_frames = out_frame
    counts = rng.binomial(sensor * sensor, noise, size=n_frames)
    pos = rng.integers(0, sensor * sensor, size=int(counts.sum()))
    fx.append(pos % sensor)
    fy.append(pos // sensor)
    ff.append(np.repeat(np.arange(n_frames), counts))
    xs, ys, fs = np.concatenate(fx), np.concatenate(fy), np.concatenate(ff)
    # One event per set pixel per window: OR of legs and noise.
    key = np.unique((fs * sensor + ys) * sensor + xs)
    fs, rem = np.divmod(key, sensor * sensor)
    ys, xs = np.divmod(rem, sensor)
    ts = fs * window_us + rng.integers(0, window_us, size=key.size)
    order = np.lexsort((xs, ys, ts))
    return xs[order], ys[order], ts[order]


def input_properties(x, y, t, sensor, scene: int = SCENE,
                     window_us: int = WINDOW_US, pool: int = POOL) -> dict:
    """Exact counts of what the program will see after its centre crop."""
    left, top = (sensor[0] - scene) // 2, (sensor[1] - scene) // 2
    keep = (x >= left) & (x < left + scene) & (y >= top) & (y < top + scene)
    cx, cy, frame = x[keep] - left, y[keep] - top, t[keep] // window_us
    n_frames = int(t.max()) // window_us + 1 if t.size else 0
    pixels = np.unique((frame * scene + cy) * scene + cx)
    f = pixels // (scene * scene)
    tiles_per_side = scene // pool
    py, px = np.divmod(pixels % (scene * scene), scene)
    tile = (f * tiles_per_side + py // pool) * tiles_per_side + px // pool
    tile_ids, tile_counts = np.unique(tile, return_counts=True)
    full = tile_ids[tile_counts == pool * pool]
    active = np.unique(full // (tiles_per_side * tiles_per_side))
    return {
        "frames": n_frames,
        "events": int(x.size),
        "kept_events": int(keep.sum()),
        "set_pixel_ratio": pixels.size / (n_frames * scene * scene) if n_frames else 0.0,
        "active_i10_frames": int(active.size),
    }


def generate(run_cli, root: str, seed: int, parts=("synth", "weights", "tripod")) -> dict:
    """Make the inputs named in `parts` for `seed` under `root`.

    `run_cli(argv)` runs the hexgait CLI untimed and returns its exit code.
    "synth" is always made. Returns the input paths, their sha256 and the
    input properties of each recording made.
    """
    def cli(argv):
        rc = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"hexgait {' '.join(argv)} exited with {rc}")

    os.makedirs(root, exist_ok=True)
    p = lambda *parts: os.path.join(root, *parts)
    with open(p("train_long.ini"), "w") as fh:
        fh.write(TRAIN_LONG_CONFIG)
    cli(["--seed", str(seed), "--out", p("synth"), "synth"])
    files = {
        "synth/events.txt": p("synth", "events.txt"),
        "synth/schedule.txt": p("synth", "schedule.txt"),
        "train_long.ini": p("train_long.ini"),
    }
    sx, sy, st, sensor = read_events(files["synth/events.txt"])
    properties = {"synth": input_properties(sx, sy, st, sensor)}

    if "weights" in parts:
        cli(["--out", p("synth"), "train", files["synth/events.txt"]])
        files["weights.txt"] = p("synth", "weights.txt")
    if "tripod" in parts:
        with open(p("clean.ini"), "w") as fh:
            fh.write(CLEAN_CONFIG)
        cli(["--config", p("clean.ini"), "--out", p("clean"), "synth"])
        x, y, t, _ = read_events(p("clean", "events.txt"))
        seg_len, legs = read_segments(p("clean", "schedule.txt"))
        rx, ry, rt = make_recording(x, y, t, seg_len, legs, seed)
        files["tripod_events.txt"] = p("tripod_events.txt")
        files["tripod_schedule.txt"] = p("tripod_schedule.txt")
        write_events(files["tripod_events.txt"], rx, ry, rt, (SENSOR, SENSOR))
        with open(files["tripod_schedule.txt"], "w") as fh:
            fh.write(tripod_schedule_text(TRIPOD_REPEATS))
        properties["tripod"] = input_properties(rx, ry, rt, (SENSOR, SENSOR))
    return {
        "paths": files,
        "sha256": {name: sha256(path) for name, path in sorted(files.items())},
        "properties": properties,
    }
