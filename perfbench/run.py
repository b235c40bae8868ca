#!/usr/bin/env python3
"""hexgait benchmark: one client, closed loop, the real CLI in a fresh child.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list        # every metric, its unit and direction

Each run makes its inputs from --seed (``inputs.py``), then calls the CLI
one operation at a time, each in a new interpreter, for --seconds. With
--trace 0 no wrapper is installed and the end-to-end metrics are reported.
With --trace 1 untraced and span-traced calls of the same argv alternate,
one tracemalloc pass follows, and the per-layer metrics are reported.
Every operation's artifacts are checked outside the timed region. The
last line of stdout is the result object; the lines before it give
provenance, inputs, samples and checks. Workloads and metrics are
documented in perfbench/README.md and listed in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

SETUP_STARTS = 9     # fewest interpreter starts behind one setup_s median
MIN_OPS = 2          # per mode; two same-seed calls make the determinism check

WORKLOADS = {
    "repro": lambda inp, out, seed: [
        "--seed", str(seed), "--out", out, "repro"],
    "replay-noisy": lambda inp, out, seed: [
        "--out", out, "test", inp["weights.txt"], inp["tripod_events.txt"],
        "--schedule", inp["tripod_schedule.txt"]],
    "train-long": lambda inp, out, seed: [
        "--config", inp["train_long.ini"], "--out", out, "train",
        inp["synth/events.txt"]],
}
# Generated inputs each workload needs, and which recording it feeds the CLI.
PARTS = {"repro": ("synth",), "replay-noisy": ("synth", "weights", "tripod"),
         "train-long": ("synth", "tripod")}
INPUT_OF = {"repro": "synth", "replay-noisy": "tripod", "train-long": "synth"}


def run_child(mode: str, argv, work: str, tag: str) -> dict:
    """One CLI call in a new interpreter: exit code, host wall, CPU, peak RSS."""
    report = os.path.join(work, tag + ".json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, CHILD, mode, report, "--", *argv]
    with open(os.path.join(work, tag + ".err"), "w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()[-2000:]
    rec = {"mode": mode, "rc": proc.returncode, "wall_s": wall,
           "cpu_s": usage.ru_utime + usage.ru_stime}
    if proc.returncode == 0 and os.path.exists(report):
        with open(report) as fh:
            rec["report"] = json.load(fh)
        rec["rss_mb"] = rec["report"]["peak_rss_mb"]
    else:
        rec["stderr"] = stderr
        rec["rss_mb"] = usage.ru_maxrss / 1024.0
    return rec


def hash_dir(path: str) -> dict:
    return {name: inputs.sha256(os.path.join(path, name))
            for name in sorted(os.listdir(path))}


def read_report(path: str) -> dict:
    fields = {}
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                key, sep, value = line.strip().partition("=")
                if sep:
                    fields[key] = value
    return fields


def run_ops(name, inp, seed, seconds, modes, work, between=None):
    """Alternate `modes` for `seconds`; check every call's artifacts.

    `between()`, if given, runs after each call, so its samples spread over
    the whole run rather than one moment of it.
    """
    ops, ref = [], None
    deadline = perf_counter() + seconds
    while len(ops) < MIN_OPS * len(modes) or perf_counter() < deadline:
        k = len(ops)
        out = os.path.join(work, f"op{k}")
        op = run_child(modes[k % len(modes)], WORKLOADS[name](inp, out, seed),
                       work, f"op{k}")
        artifacts = hash_dir(out) if op["rc"] == 0 else None
        if ref is None:
            ref = artifacts
        else:
            shutil.rmtree(out, ignore_errors=True)
        op["ok"] = artifacts is not None and artifacts == ref
        ops.append(op)
        if between is not None:
            between()
    return ops


def untimed_test(weights, events, schedule, work, tag) -> dict:
    out = os.path.join(work, tag)
    rec = run_child("off", ["--out", out, "test", weights, events,
                            "--schedule", schedule], work, tag)
    return read_report(os.path.join(out, "report.txt")) if rec["rc"] == 0 else {}


def accuracies(name, inp, work) -> dict:
    """Sequence and tripod accuracy of the weights the workload uses or makes."""
    ref_out = os.path.join(work, "op0")
    rep = read_report(os.path.join(ref_out, "report.txt"))
    if name == "repro":
        seq, tri = rep, rep
        tri_key = "tripod_accuracy"
    else:
        weights = (inp["weights.txt"] if name == "replay-noisy"
                   else os.path.join(ref_out, "weights.txt"))
        seq = untimed_test(weights, inp["synth/events.txt"],
                           inp["synth/schedule.txt"], work, "check_seq")
        tri = rep if name == "replay-noisy" else untimed_test(
            weights, inp["tripod_events.txt"], inp["tripod_schedule.txt"],
            work, "check_tri")
        tri_key = "sequence_accuracy"
    return {"sequence_accuracy": float(seq.get("sequence_accuracy", 0.0)),
            "tripod_accuracy": float(tri.get(tri_key, 0.0)),
            "is_tripod": tri.get("is_tripod") == "True"}


def end_to_end(name, inp, seed, seconds, work):
    setup_argv = (["--config", inp["train_long.ini"]]
                  if name == "train-long" else []) + ["example-config"]
    starts = []

    def start():
        starts.append(run_child("off", setup_argv, work, f"setup{len(starts)}"))

    ops = run_ops(name, inp, seed, seconds, ("off",), work, between=start)
    while len(starts) < SETUP_STARTS:
        start()
    metrics = {
        "wall_s": (statistics.median(o["wall_s"] for o in ops), "s"),
        "cpu_s": (statistics.median(o["cpu_s"] for o in ops), "s"),
        "peak_rss_mb": (statistics.median(o["rss_mb"] for o in ops), "MB"),
        "setup_s": (statistics.median(s["wall_s"] for s in starts), "s"),
    }
    checks = {"setup_exit_ok": all(s["rc"] == 0 for s in starts)}
    return ops, metrics, checks


def per_layer(name, inp, seed, seconds, work):
    ops = run_ops(name, inp, seed, seconds, ("off", "spans"), work)
    out = os.path.join(work, "alloc")
    alloc = run_child("alloc", WORKLOADS[name](inp, out, seed), work, "alloc")
    alloc["ok"] = alloc["rc"] == 0 and hash_dir(out) == hash_dir(
        os.path.join(work, "op0"))
    ops.append(alloc)

    plain = [o["report"]["wall_s"] for o in ops if o["mode"] == "off" and o["ok"]]
    traced = sorted((o["report"] for o in ops if o["mode"] == "spans" and o["ok"]),
                    key=lambda r: r["wall_s"])
    if not plain or not traced or not alloc["ok"]:
        return ops, {}, {"traced_ops_ok": False}
    tr = traced[(len(traced) - 1) // 2]   # the median traced call
    c = tr["counts"].get
    m = {}
    for span in spans.SPAN_NAMES:
        m[spans.self_metric(span)] = (tr["self_s"].get(span, 0.0), "s")
    m["trace.wall_s"] = (tr["wall_s"], "s")
    m["trace.untraced_wall_s"] = (statistics.median(plain), "s")
    m["trace.overhead_s"] = (tr["wall_s"] - statistics.median(plain), "s")
    pooled = c("frames.pooled", 0)
    m.update({
        "events.read": (c("events.read", 0), "count"),
        "events.written": (c("events.written", 0), "count"),
        "events.kept_ratio": (c("events.accumulated", 0) / c("events.read", 0)
                              if c("events.read") else 0.0, "ratio"),
        "events.file_mb": (c("events.file_bytes", 0) / 2**20, "MB"),
        "frames.pooled": (pooled, "count"),
        "frames.active_ratio": (c("frames.active", 0) / pooled if pooled else 0.0,
                                "ratio"),
        "frames.set_pixel_ratio": (c("frames.set_pixels", 0) / c("frames.pixels")
                                   if pooled else 0.0, "ratio"),
        "training.updates": (c("training.updates", 0), "count"),
        "training.skipped_ratio": (
            c("training.skipped", 0) / (c("training.updates", 0) + c("training.skipped", 0))
            if c("training.updates") or c("training.skipped") else 0.0, "ratio"),
        "neurons.steps": (c("neurons.steps", 0), "count"),
        "neurons.spikes": (c("neurons.spikes", 0), "count"),
    })
    for span in spans.SPAN_NAMES:
        m[span + ".calls"] = (tr["calls"].get(span, 0), "count")
    for span in spans.ALLOC_SPANS:
        peak = alloc["report"]["alloc_peak_bytes"].get(span, 0)
        m[span + ".alloc_peak_mb"] = (peak / 2**20, "MB")
    # Self times must partition the traced wall exactly (up to rounding).
    unaccounted = tr["wall_s"] - sum(tr["self_s"].values())
    return ops, m, {"self_times_add_up": abs(unaccounted) < 1e-6,
                    "unaccounted_s": unaccounted}


def provenance() -> dict:
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "platform": platform.platform()}


def list_metrics() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for group in ("end_to_end", "per_layer"):
        print(f"# {group}")
        for metric in bench[group]:
            bound = f"  bound {metric['bound']}" if "bound" in metric else ""
            print(f"{metric['name']:36s} {metric['unit']:6s} "
                  f"{metric['better']} is better{bound}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args()
    if args.list:
        return list_metrics()
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "hexgait", "cli.py")):
        print(f"hexgait sources not found under {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception: the running child is killed and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        gen = os.path.join(work, "inputs")
        t0 = perf_counter()
        made = inputs.generate(
            lambda argv: run_child("off", argv, work, "gen")["rc"], gen, args.seed,
            PARTS[args.workload])
        gen_s = perf_counter() - t0
        inp = made["paths"]
        if args.trace:
            ops, metrics, checks = per_layer(
                args.workload, inp, args.seed, args.seconds, work)
        else:
            ops, metrics, checks = end_to_end(
                args.workload, inp, args.seed, args.seconds, work)
        acc = accuracies(args.workload, inp, work)
        if not args.trace:
            metrics["sequence_accuracy"] = (acc["sequence_accuracy"], "ratio")
            metrics["tripod_accuracy"] = (acc["tripod_accuracy"], "ratio")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    outputs_ok = (acc["sequence_accuracy"] == 1.0 and acc["tripod_accuracy"] == 1.0
                  and acc["is_tripod"])
    checks.update(acc)
    # Every call's artifacts equal the reference call's, so a bad reference
    # output fails them all.
    failed = sum(1 for o in ops if not o["ok"]) if outputs_ok else len(ops)
    correct = failed == 0 and all(v for k, v in checks.items()
                                  if isinstance(v, bool))
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "provenance": provenance(),
        "inputs": {"sha256": made["sha256"], "generate_s": gen_s,
                   "properties": made["properties"][INPUT_OF[args.workload]]},
        "samples": sum(1 for o in ops if o["mode"] == "off"),
        "ops": [{k: o.get(k) for k in ("mode", "rc", "ok", "wall_s", "cpu_s", "rss_mb")}
                for o in ops],
        "checks": checks,
        "errors": [o["stderr"] for o in ops if "stderr" in o][:3],
    }
    print(json.dumps(details, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
