"""The per-layer benchmark traces functions by (module, attribute) name and
skips a name it cannot resolve, so a rename would silently zero its metric.
This checks that every traced name still resolves."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Removed from hexgait; the benchmark is to retarget them. The event
# functions went with the whole-array event API: their work now runs in
# save_events and load_frames. No command reads a raster any more.
_STALE = {("hexgait.training", "pooled_views"), ("hexgait.cli", "andpool"),
          ("hexgait.training", "step_network"),
          ("hexgait.events", "frames_to_events"), ("hexgait.events", "load_events"),
          ("hexgait.events", "crop_events"), ("hexgait.events", "accumulate_frames"),
          ("hexgait.cli", "load_raster")}


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = {(module, attr) for module, attr, _ in spans.TARGETS}
    assert _STALE <= targets  # once retargeted, drop them from _STALE
    missing = [(module, attr) for module, attr in sorted(targets - _STALE)
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
