"""Command-line pipeline: synth | train | test | energy | repro.

Exit codes: 0 success, 2 config error, 3 data error, 4 end-to-end check
failure (repro only).
"""
from __future__ import annotations

import argparse
import importlib
import os
import sys

from .config import (EXAMPLE_CONFIG, RunConfig, default_config, load_config,
                     validate)
from .errors import ConfigError, DataError

# The pipeline's names, bound here by _load_pipeline. Only a command that
# computes loads them, after its config is valid, so example-config, --help
# and a config error import no numpy and nothing but config and errors.
_PIPELINE = {
    "atomic": ("write_atomic",), "energy": ("energy_report",),
    "frames": ("as_stream", "pooled_streams"),
    "gait": ("format_sequence", "format_trace", "is_tripod", "label_sequence",
             "sequence_accuracy", "spikes_to_gait"),
    "neurons": ("WeightMap", "load_weights", "run_network", "save_raster",
                "save_weights"),
    "scene": ("GaitSchedule", "render_expert_sequence", "segment_boundaries",
              "splice_segments"),
    "training": ("calibrate_priors", "train"),
}


def _load_pipeline() -> None:
    """Import the pipeline and bind its names in this module. A name that
    is already bound is kept, so a wrapper set on it from outside stays."""
    names = globals()
    names.setdefault("ev", importlib.import_module(".events", __package__))
    for module, attrs in _PIPELINE.items():
        mod = importlib.import_module("." + module, __package__)
        for attr in attrs:
            names.setdefault(attr, getattr(mod, attr))


def __getattr__(name):
    """Resolve a pipeline name before any command has loaded it (PEP 562)."""
    if name == "ev" or any(name in attrs for attrs in _PIPELINE.values()):
        _load_pipeline()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _schedule_text(cfg: RunConfig, schedule: GaitSchedule) -> str:
    lines = [
        f"frames_per_cycle={cfg['scene']['frames_per_cycle']}",
        f"gap_frames={cfg['scene']['gap_frames']}",
    ]
    for i, legs in schedule.entries:
        lines.append(f"step {i} {','.join(str(l) for l in sorted(legs))}")
    return "\n".join(lines) + "\n"


def _load_schedule(path) -> GaitSchedule:
    """The steps of a schedule file: `step i legs` lines among blank and
    comment lines and the header lines of _schedule_text. Any other line
    is a DataError that names it."""
    entries = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                key, _, value = line.partition("=")
                try:
                    if line.startswith("step "):
                        _, idx, legs = line.split()
                        entries.append((int(idx), {int(l) for l in legs.split(",")}))
                    elif line and key not in ("frames_per_cycle", "gap_frames"):
                        raise ValueError(line)
                    elif line:
                        int(value)
                except ValueError as exc:
                    raise DataError(
                        f"bad schedule file {path}: line {lineno}: {line!r}") from exc
        if not entries:
            raise DataError(f"schedule file {path} has no steps")
        return GaitSchedule(tuple(entries))
    except ValueError as exc:
        raise DataError(f"bad schedule file {path}: {exc}") from exc


def _ingest_events(cfg: RunConfig, path):
    """Load an event file into frames of the configured size."""
    _load_pipeline()
    return ev.load_frames(path, cfg["events"]["window_ms"], cfg["scene"]["width"],
                          cfg["scene"]["height"])


def _synth(cfg: RunConfig, out: str):
    """Render the expert video, write events.txt and schedule.txt, and
    return (schedule, raw FrameStream)."""
    schedule = GaitSchedule.sequential()
    width, height = cfg["scene"]["width"], cfg["scene"]["height"]
    stream = render_expert_sequence(
        cfg.geometry(), schedule,
        frames_per_cycle=cfg["scene"]["frames_per_cycle"], width=width,
        height=height, noise_density=cfg["scene"]["noise_density"],
        seed=cfg.seed, params=cfg.render_params())
    ev.save_events(os.path.join(out, "events.txt"), stream.keys, width, height,
                   cfg["events"]["window_ms"])
    write_atomic(os.path.join(out, "schedule.txt"), _schedule_text(cfg, schedule))
    return schedule, stream


def _train(cfg: RunConfig, out: str, stream):
    """Train on a raw FrameStream; write weights.txt and train_raster.txt."""
    priors = calibrate_priors(cfg.geometry())
    result = train(stream, priors, cfg.train_schedule(), cfg.neuron_params(),
                   repeats=cfg["training"]["repeats"])
    save_weights(os.path.join(out, "weights.txt"), result.weights)
    save_raster(os.path.join(out, "train_raster.txt"), result.raster)
    return result


def _test(cfg: RunConfig, out: str, weights: WeightMap, i10, raster_name: str,
          schedule: GaitSchedule = None):
    """Frozen run over an I10 FrameStream: replay, write the raster.
    Returns (raster, label sequence, accuracy against `schedule` or None)."""
    _, raster = run_network(i10, weights, cfg.neuron_params())
    save_raster(os.path.join(out, raster_name), raster)
    sequence = label_sequence(raster, cfg.group_gap_s())
    accuracy = None
    if schedule is not None:
        expected = [set(legs) for _, legs in schedule.entries]
        accuracy = sequence_accuracy(sequence, expected)
    return raster, sequence, accuracy


def cmd_synth(cfg: RunConfig, out: str) -> int:
    _, stream = _synth(cfg, out)  # one event per set pixel
    print(f"wrote {len(stream.keys)} events over {len(stream)} frames "
          f"to {out}/events.txt")
    return 0


def cmd_train(cfg: RunConfig, out: str, events_path) -> int:
    result = _train(cfg, out, _ingest_events(cfg, events_path))
    write_atomic(os.path.join(out, "train_log.txt"),
                 "# t_sec leg theta_rad p m popcount_i10\n"
                 + "\n".join(result.log) + "\n")
    print(f"trained for {result.raster.n_steps * result.raster.dt:.1f} simulated s; "
          f"weights in {out}/weights.txt")
    return 0


def cmd_test(cfg: RunConfig, out: str, weights_path, events_path,
             schedule_path=None) -> int:
    weights = load_weights(weights_path)
    grid = (cfg["scene"]["height"] // 10, cfg["scene"]["width"] // 10)
    if weights.w.shape[1:] != grid:
        raise DataError(f"weight file {weights_path}: grid {weights.w.shape[1:]} "
                        f"!= the I10 grid {grid} of the configured frame")
    schedule = _load_schedule(schedule_path) if schedule_path else None
    i10 = pooled_streams(_ingest_events(cfg, events_path))
    raster, sequence, accuracy = _test(cfg, out, weights, i10, "test_raster.txt",
                                       schedule)
    write_atomic(os.path.join(out, "gait_trace.txt"),
                 format_trace(spikes_to_gait(raster, cfg.period_s())))
    report = [format_sequence(sequence).rstrip(), f"is_tripod={is_tripod(sequence)}"]
    if accuracy is not None:
        report.append(f"sequence_accuracy={accuracy:.6f}")
    write_atomic(os.path.join(out, "report.txt"), "\n".join(report) + "\n")
    print("\n".join(report))
    return 0


def _leg_event_counts(i10_frames):
    """Canonical per-leg-event accounting: (spikes, leg events).

    `i10_frames` is the I10 FrameStream or its BinaryFrames. A leg event
    is one burst of consecutive active I10 frames, so a step that moves
    three legs at once counts once. It costs the peak pixel count of the
    burst in spikes and one filter application."""
    _load_pipeline()
    n_spikes = n_events = 0
    peak = 0
    for c in (cells.size for cells in as_stream(i10_frames).per_frame()):
        if c:
            peak = max(peak, c)
        elif peak:
            n_spikes += peak
            n_events += 1
            peak = 0
    if peak:
        n_spikes += peak
        n_events += 1
    return n_spikes, n_events


def _energy(cfg: RunConfig, i10):
    """Energy report of an I10 FrameStream, one leg event per burst."""
    n_spikes, n_events = _leg_event_counts(i10)
    return energy_report(n_spikes, n_events, n_events, cfg.energy_model())


def cmd_energy(cfg: RunConfig, events_path) -> int:
    i10 = pooled_streams(_ingest_events(cfg, events_path))
    print(_energy(cfg, i10).format(), end="")
    return 0


def cmd_repro(cfg: RunConfig, out: str) -> int:
    """One-shot pipeline: the synth, train and test stages, then a frozen
    test on the training footage spliced into a tripod gait."""
    schedule, stream = _synth(cfg, out)
    result = _train(cfg, out, stream)
    # Frozen test on one further repetition of the training video.
    _, _, seq_acc = _test(cfg, out, result.weights,
                          pooled_streams(stream), "seq_raster.txt",
                          schedule)
    bounds = segment_boundaries(schedule, cfg["scene"]["frames_per_cycle"],
                                cfg.render_params())
    # Repeat k of the tripod splice is repeat 0 shifted by k periods, and
    # pooling is per frame: so one period is spliced and pooled, and its
    # I10 stream repeated.
    repeats = cfg["test"]["tripod_repeats"]
    i10 = pooled_streams(
        splice_segments(stream, bounds, GaitSchedule.tripod(1))).repeated(repeats)
    tripod = GaitSchedule.tripod(repeats)
    tri_raster, tri_observed, tri_acc = _test(cfg, out, result.weights, i10,
                                              "tripod_raster.txt", tripod)
    write_atomic(os.path.join(out, "tripod_trace.txt"),
                 format_trace(spikes_to_gait(tri_raster, cfg.period_s())))
    tripod_ok = is_tripod(tri_observed)

    report = [
        f"train_duration_s={result.raster.n_steps * result.raster.dt:.2f}",
        f"train_repeats={cfg['training']['repeats']}",
        f"train_skipped_frames={result.skipped}",
        f"sequence_accuracy={seq_acc:.6f}",
        f"tripod_accuracy={tri_acc:.6f}",
        f"is_tripod={tripod_ok}",
        _energy(cfg, i10).format().rstrip(),
    ]
    write_atomic(os.path.join(out, "report.txt"), "\n".join(report) + "\n")
    print("\n".join(report))
    if seq_acc != 1.0 or tri_acc != 1.0 or not tripod_ok:
        print("repro check FAILED", file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexgait",
        description="Imitation gait learning on synthetic event-camera footage")
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--out", metavar="DIR", help="output directory override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="render the expert video as an event file")

    p = sub.add_parser("train", help="train the network on an event file")
    p.add_argument("events", help="event file (x,y,t_us per line)")

    p = sub.add_parser("test", help="run a frozen network over an event file")
    p.add_argument("weights", help="trained weight file")
    p.add_argument("events", help="event file")
    p.add_argument("--schedule", help="expected schedule file for scoring")

    p = sub.add_parser("energy", help="energy per leg event of an event file")
    p.add_argument("events", help="event file")

    sub.add_parser("repro", help="full synth/train/splice/test pipeline")

    sub.add_parser("example-config", help="print the annotated default config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            cfg.values["run"]["seed"] = args.seed
            validate(cfg)
        if args.command == "example-config":
            print(EXAMPLE_CONFIG, end="")
            return 0
        _load_pipeline()
        if args.command == "energy":  # writes no artifact, so makes no --out
            return cmd_energy(cfg, args.events)
        out = args.out or cfg["run"]["out"]
        os.makedirs(out, exist_ok=True)
        if args.command == "synth":
            return cmd_synth(cfg, out)
        if args.command == "train":
            return cmd_train(cfg, out, args.events)
        if args.command == "test":
            return cmd_test(cfg, out, args.weights, args.events, args.schedule)
        if args.command == "repro":
            return cmd_repro(cfg, out)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, DataError, OSError) as exc:
        kind, code = ("config", 2) if isinstance(exc, ConfigError) else ("data", 3)
        message = " ".join(line.strip() for line in str(exc).splitlines())
        print(f"{kind} error: {message}", file=sys.stderr)  # one line
        return code


if __name__ == "__main__":
    sys.exit(main())
