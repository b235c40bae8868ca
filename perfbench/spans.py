"""Per-layer tracing of one hexgait CLI call, from outside the program.

A layer is a module of ``hexgait``. Each traced function is wrapped on the
module attribute its caller looks up (``hexgait.cli.train`` is what
``cmd_train`` calls), so the program itself is not edited. A wrapper records
a span ``[name, start, end, parent]`` and, for a few layers, exact work
counts taken from the call's arguments and result. Spans stay in memory;
``Tracer.summary`` reduces them once, at the end.

A layer's self time is its span's duration minus the durations of its
direct child spans. Calls on one thread nest, so the self times of all
spans add up to the root span, which is the whole ``cli.main`` call.

The allocation pass is separate: ``Tracer(alloc=True)`` wraps only
``ALLOC_SPANS`` and traces allocations only while one of them runs: the
metric is the peak of memory allocated during a call and not yet freed.
Its overhead never enters a timed span.
"""
from __future__ import annotations

import functools
import importlib
import os
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "cli.main"

# (module, attribute the caller looks up, span name)
TARGETS = (
    ("hexgait.cli", "render_expert_sequence", "scene.render"),
    ("hexgait.cli", "segment_boundaries", "scene.splice"),
    ("hexgait.cli", "splice_segments", "scene.splice"),
    ("hexgait.events", "frames_to_events", "events.to_events"),
    ("hexgait.events", "save_events", "events.save"),
    ("hexgait.events", "load_events", "events.load"),
    ("hexgait.events", "centered_crop", "events.crop"),
    ("hexgait.events", "crop_events", "events.crop"),
    ("hexgait.events", "accumulate_frames", "events.accumulate"),
    ("hexgait.training", "pooled_views", "frames.pooled_views"),
    ("hexgait.cli", "andpool", "frames.i10"),
    ("hexgait.cli", "train", "training.train"),
    ("hexgait.training", "step_network", "neurons.step"),
    ("hexgait.cli", "run_network", "neurons.run"),
    ("hexgait.cli", "save_weights", "neurons.io"),
    ("hexgait.cli", "load_weights", "neurons.io"),
    ("hexgait.cli", "save_raster", "neurons.io"),
    ("hexgait.cli", "load_raster", "neurons.io"),
    ("hexgait.cli", "spikes_to_gait", "gait.score"),
    ("hexgait.cli", "label_sequence", "gait.score"),
    ("hexgait.cli", "sequence_accuracy", "gait.score"),
    ("hexgait.cli", "is_tripod", "gait.score"),
    ("hexgait.cli", "format_trace", "gait.score"),
    ("hexgait.cli", "format_sequence", "gait.score"),
    ("hexgait.cli", "energy_report", "energy.report"),
)

SPAN_NAMES = (ROOT,) + tuple(dict.fromkeys(name for _, _, name in TARGETS))

ALLOC_SPANS = ("events.load", "events.crop", "events.accumulate",
               "frames.pooled_views")

# Self-time metric of each span; the rest are "<span>_s".
_SELF_METRIC = {ROOT: "cli.self_s", "training.train": "training.train_self_s"}


def self_metric(span: str) -> str:
    return _SELF_METRIC.get(span, span + "_s")


def self_times(spans) -> dict:
    """Sum of (duration - direct children's durations) per span name."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


# Work counters: f(counts, attribute, args, result) after a call returns.
# They run outside the callee's span, so their cost lands in the caller.

def _count_file(counts, path):
    counts["events.file_bytes"] += os.path.getsize(path)


def _count_load(counts, attr, args, result):
    counts["events.read"] += len(result[0])
    _count_file(counts, args[0])


def _count_save(counts, attr, args, result):
    counts["events.written"] += len(args[1])
    _count_file(counts, args[0])


def _count_accumulate(counts, attr, args, result):
    counts["events.accumulated"] += len(args[0])


def _count_pooled(counts, attr, args, result):
    raw = args[0].bits
    counts["frames.pooled"] += 1
    counts["frames.pixels"] += raw.size
    counts["frames.set_pixels"] += int(np.count_nonzero(raw))
    i10 = result[0] if attr == "pooled_views" else result
    counts["frames.active"] += bool(i10.bits.any())


def _count_train(counts, attr, args, result):
    counts["training.updates"] += len(result.log)
    counts["training.skipped"] += result.skipped


def _count_step(counts, attr, args, result):
    counts["neurons.steps"] += 1
    counts["neurons.spikes"] += len(result[1])


def _count_run(counts, attr, args, result):
    raster = result[1]
    counts["neurons.steps"] += raster.n_steps
    counts["neurons.spikes"] += raster.total_spikes()


COUNTERS = {
    "events.load": _count_load,
    "events.save": _count_save,
    "events.accumulate": _count_accumulate,
    "frames.pooled_views": _count_pooled,
    "frames.i10": _count_pooled,
    "training.train": _count_train,
    "neurons.step": _count_step,
    "neurons.run": _count_run,
}


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self, alloc: bool = False, targets=TARGETS):
        self.alloc = alloc
        self.targets = targets
        self.spans = []
        self.counts = defaultdict(int)
        self.alloc_peak = defaultdict(float)
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module, attr, name in self.targets:
            if self.alloc and name not in ALLOC_SPANS:
                continue
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:  # layer renamed or removed: the span reads 0
                continue
            self._saved.append((mod, attr, fn))
            wrap = self._alloc_wrap if self.alloc else self._span_wrap
            setattr(mod, attr, wrap(name, attr, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def call(self, fn, *args):
        """Run `fn(*args)` as the root span."""
        return self._span_wrap(ROOT, ROOT, fn)(*args)

    def _span_wrap(self, name, attr, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, attr, args, result)
            return result
        return wrapper

    def _alloc_wrap(self, name, attr, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak[name] = max(self.alloc_peak[name], peak)
        return wrapper

    def summary(self) -> dict:
        """Self time and call count per span, work counts, traced wall."""
        calls = defaultdict(int)
        for rec in self.spans:
            calls[rec[0]] += 1
        root = [rec for rec in self.spans if rec[3] == -1 and rec[0] == ROOT]
        return {
            "wall_s": sum(end - start for _, start, end, _ in root),
            "self_s": self_times(self.spans),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "alloc_peak_bytes": dict(self.alloc_peak),
        }
