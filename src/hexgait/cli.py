"""Command-line pipeline: synth | train | test | energy | repro.

Exit codes: 0 success, 2 config error, 3 data error, 4 end-to-end check
failure (repro only).
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import events as ev
from .atomic import write_atomic
from .config import (EXAMPLE_CONFIG, RunConfig, default_config, load_config,
                     validate)
from .energy import energy_report
from .errors import ConfigError, DataError, HexgaitError
from .frames import as_stream, pooled_streams
from .gait import (format_sequence, format_trace, is_tripod, label_sequence,
                   sequence_accuracy, spikes_to_gait)
from .neurons import (WeightMap, load_raster, load_weights, run_network,
                      save_raster, save_weights)
from .scene import (GaitSchedule, render_expert_sequence, segment_boundaries,
                    splice_segments)
from .training import calibrate_priors, train


def _schedule_text(cfg: RunConfig, schedule: GaitSchedule) -> str:
    lines = [
        f"frames_per_cycle={cfg['scene']['frames_per_cycle']}",
        f"gap_frames={cfg['scene']['gap_frames']}",
    ]
    for i, legs in schedule.entries:
        lines.append(f"step {i} {','.join(str(l) for l in sorted(legs))}")
    return "\n".join(lines) + "\n"


def _load_schedule(path) -> GaitSchedule:
    entries = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line.startswith("step "):
                    _, idx, legs = line.split()
                    entries.append((int(idx), {int(l) for l in legs.split(",")}))
        if not entries:
            raise DataError(f"schedule file {path} has no steps")
        return GaitSchedule(tuple(entries))
    except (OSError, ValueError) as exc:
        raise DataError(f"bad schedule file {path}: {exc}") from exc


def _ingest_events(cfg: RunConfig, path):
    """Load an event file and accumulate it at the configured frame size."""
    evts, sw, sh = ev.load_events(path)
    width, height = cfg["scene"]["width"], cfg["scene"]["height"]
    if (sw, sh) != (width, height):
        left, top = ev.centered_crop(sw, sh, width, height)
        evts = ev.crop_events(evts, left, top, width, height)
    return ev.accumulate_frames(evts, cfg["events"]["window_ms"], width, height)


def _synth(cfg: RunConfig, out: str):
    """Render the expert video, write events.txt and schedule.txt, and
    return (schedule, raw FrameStream)."""
    schedule = GaitSchedule.sequential()
    width, height = cfg["scene"]["width"], cfg["scene"]["height"]
    stream = render_expert_sequence(
        cfg.geometry(), schedule,
        frames_per_cycle=cfg["scene"]["frames_per_cycle"], width=width,
        height=height, noise_density=cfg["scene"]["noise_density"],
        seed=cfg.seed, window_ms=cfg["events"]["window_ms"],
        params=cfg.render_params())
    ev.save_events(os.path.join(out, "events.txt"), ev.frames_to_events(stream),
                   width, height)
    write_atomic(os.path.join(out, "schedule.txt"), _schedule_text(cfg, schedule))
    return schedule, stream


def _train(cfg: RunConfig, out: str, stream):
    """Train on a raw FrameStream; write weights.txt and train_raster.txt."""
    priors = calibrate_priors(cfg.geometry(),
                              std=math.radians(cfg["training"]["prior_std_deg"]))
    result = train(stream, priors, cfg.train_schedule(), cfg.neuron_params(),
                   repeats=cfg["training"]["repeats"])
    save_weights(os.path.join(out, "weights.txt"), result.weights)
    save_raster(os.path.join(out, "train_raster.txt"), result.raster)
    return result


def _test(cfg: RunConfig, out: str, weights: WeightMap, stream, raster_name: str,
          schedule: GaitSchedule = None):
    """Frozen run over a raw FrameStream: pool to I10, replay, write the
    raster. Returns (I10 stream, raster, label sequence, accuracy against
    `schedule` or None)."""
    i10, _ = pooled_streams(stream, body=False)
    _, raster = run_network(i10, weights, cfg.neuron_params())
    save_raster(os.path.join(out, raster_name), raster)
    sequence = label_sequence(raster, cfg.group_gap_s())
    accuracy = None
    if schedule is not None:
        expected = [set(legs) for _, legs in schedule.entries]
        accuracy = sequence_accuracy(sequence, expected)
    return i10, raster, sequence, accuracy


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
    print(f"trained for {result.duration_s:.1f} simulated s "
          f"({result.skipped} frames skipped); weights in {out}/weights.txt")
    return 0


def cmd_test(cfg: RunConfig, out: str, weights_path, events_path,
             schedule_path=None) -> int:
    weights = load_weights(weights_path)
    schedule = _load_schedule(schedule_path) if schedule_path else None
    _, raster, sequence, accuracy = _test(
        cfg, out, weights, _ingest_events(cfg, events_path), "test_raster.txt",
        schedule)
    write_atomic(os.path.join(out, "gait_trace.txt"),
                 format_trace(spikes_to_gait(raster, cfg.period_s())))
    report = [format_sequence(sequence).rstrip(), f"is_tripod={is_tripod(sequence)}"]
    if accuracy is not None:
        report.append(f"sequence_accuracy={accuracy:.6f}")
    write_atomic(os.path.join(out, "report.txt"), "\n".join(report) + "\n")
    print("\n".join(report))
    return 0


def cmd_energy(cfg: RunConfig, raster_path, active_frames: int,
               leg_events: int) -> int:
    raster = load_raster(raster_path)
    rep = energy_report(raster.total_spikes(), active_frames, leg_events,
                        cfg.energy_model())
    print(rep.format(), end="")
    return 0


def _leg_event_counts(i10_frames):
    """Canonical per-leg-event accounting: (spikes, leg events).

    `i10_frames` is the I10 FrameStream or its BinaryFrames. A leg event
    is one burst of consecutive active I10 frames, so a step that moves
    three legs at once counts once. It costs the peak pixel count of the
    burst in spikes and one filter application."""
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


def cmd_repro(cfg: RunConfig, out: str) -> int:
    """One-shot pipeline: the synth, train and test stages, then a frozen
    test on the training footage spliced into a tripod gait."""
    schedule, stream = _synth(cfg, out)
    result = _train(cfg, out, stream)
    # Frozen test on one further repetition of the training video.
    _, _, _, seq_acc = _test(cfg, out, result.weights, stream, "seq_raster.txt",
                             schedule)
    bounds = segment_boundaries(schedule, cfg["scene"]["frames_per_cycle"],
                                cfg.render_params())
    tripod = GaitSchedule.tripod(cfg["test"]["tripod_repeats"])
    i10, tri_raster, tri_observed, tri_acc = _test(
        cfg, out, result.weights, splice_segments(stream, bounds, tripod),
        "tripod_raster.txt", tripod)
    write_atomic(os.path.join(out, "tripod_trace.txt"),
                 format_trace(spikes_to_gait(tri_raster, cfg.period_s())))
    tripod_ok = is_tripod(tri_observed)

    n_spikes, n_events = _leg_event_counts(i10)
    erep = energy_report(n_spikes, n_events, n_events, cfg.energy_model())

    report = [
        f"train_duration_s={result.duration_s:.2f}",
        f"train_repeats={cfg['training']['repeats']}",
        f"train_skipped_frames={result.skipped}",
        f"sequence_accuracy={seq_acc:.6f}",
        f"tripod_accuracy={tri_acc:.6f}",
        f"is_tripod={tripod_ok}",
        erep.format().rstrip(),
    ]
    write_atomic(os.path.join(out, "report.txt"), "\n".join(report) + "\n")
    print("\n".join(report))
    if seq_acc != 1.0 or tri_acc != 1.0 or not tripod_ok:
        print("repro check FAILED", file=sys.stderr)
        return 4
    return 0


def _count(text: str) -> int:
    """argparse type of a count: an integer >= 0."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


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

    p = sub.add_parser("energy", help="energy estimate for a raster")
    p.add_argument("raster", help="raster file (time_s neuron pairs)")
    p.add_argument("--active-frames", type=_count, default=0)
    p.add_argument("--leg-events", type=_count, default=0)

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
        out = args.out or cfg["run"]["out"]
        os.makedirs(out, exist_ok=True)
        if args.command == "synth":
            return cmd_synth(cfg, out)
        if args.command == "train":
            return cmd_train(cfg, out, args.events)
        if args.command == "test":
            return cmd_test(cfg, out, args.weights, args.events, args.schedule)
        if args.command == "energy":
            return cmd_energy(cfg, args.raster, args.active_frames, args.leg_events)
        if args.command == "repro":
            return cmd_repro(cfg, out)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except HexgaitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
