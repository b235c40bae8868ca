"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

The file name keeps these tests out of the repository's pytest run: they
check the harness, not hexgait.
"""
import os
import subprocess
import sys
import tempfile
import time
import types
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import inputs  # noqa: E402
import spans   # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        recs = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 2.0, 3.0, 1],
            ["a", 5.0, 9.0, 0],
            ["b", 6.0, 6.5, 3],
            ["b", 7.0, 8.0, 3],
        ]
        got = spans.self_times(recs)
        self.assertEqual(got, {"root": 3.0, "a": 2.0 + 2.5, "b": 2.5})
        self.assertAlmostEqual(sum(got.values()), 10.0)

    def test_tracer_nests_restores_and_adds_up(self):
        mod = types.ModuleType("perfbench_fake_layer")

        def inner(x):
            time.sleep(0.002)
            return x

        def outer(n):
            return sum(mod.inner(i) for i in range(n))

        mod.inner, mod.outer = inner, outer
        sys.modules[mod.__name__] = mod
        try:
            targets = ((mod.__name__, "outer", "fake.outer"),
                       (mod.__name__, "inner", "fake.inner"))
            with spans.Tracer(targets=targets) as tracer:
                self.assertIsNot(mod.inner, inner)
                self.assertEqual(tracer.call(mod.outer, 3), 3)
            self.assertIs(mod.inner, inner)
            self.assertIs(mod.outer, outer)
        finally:
            del sys.modules[mod.__name__]
        summary = tracer.summary()
        self.assertEqual(summary["calls"],
                         {spans.ROOT: 1, "fake.outer": 1, "fake.inner": 3})
        self.assertAlmostEqual(sum(summary["self_s"].values()),
                               summary["wall_s"], places=9)
        self.assertGreater(summary["self_s"]["fake.inner"], 0.005)

    def test_hexgait_wrappers_removed_after_traced_run(self):
        from hexgait import cli, events, training

        modules = {"hexgait.cli": cli, "hexgait.events": events,
                   "hexgait.training": training}
        before = {(m, a): getattr(modules[m], a) for m, a, _ in spans.TARGETS}
        for alloc in (False, True):
            with self.assertRaises(RuntimeError):
                with spans.Tracer(alloc=alloc):
                    changed = [k for k, fn in before.items()
                               if getattr(modules[k[0]], k[1]) is not fn]
                    self.assertTrue(changed)
                    raise RuntimeError("the traced call failed")
            for (m, a), fn in before.items():
                self.assertIs(getattr(modules[m], a), fn, f"{m}.{a}")


def _clean_footage(seg_len=4, legs=(2, 1, 3, 4, 6, 5)):
    """Tiny one-leg-at-a-time event arrays: one 10x10 tile per leg segment."""
    xs, ys, ts = [], [], []
    for i, leg in enumerate(legs):
        yy, xx = np.mgrid[0:10, 0:10]
        for f in range(i * seg_len, i * seg_len + 2):
            xs.append(xx.ravel() + 10 * leg)
            ys.append(yy.ravel())
            ts.append(np.full(100, f * inputs.WINDOW_US + inputs.WINDOW_US // 2))
    return (np.concatenate(xs), np.concatenate(ys), np.concatenate(ts),
            seg_len, list(legs))


class GeneratorTest(unittest.TestCase):
    def test_recording_is_deterministic_and_seeded(self):
        x, y, t, seg_len, legs = _clean_footage()
        a = inputs.make_recording(x, y, t, seg_len, legs, seed=7)
        b = inputs.make_recording(x, y, t, seg_len, legs, seed=7)
        c = inputs.make_recording(x, y, t, seg_len, legs, seed=8)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)
        self.assertFalse(all(u.shape == v.shape and (u == v).all()
                             for u, v in zip(a, c)))
        with tempfile.TemporaryDirectory() as d:
            paths = [os.path.join(d, f"{i}.txt") for i in range(2)]
            for path, rec in zip(paths, (a, b)):
                inputs.write_events(path, *rec, (inputs.SENSOR, inputs.SENSOR))
            self.assertEqual(inputs.sha256(paths[0]), inputs.sha256(paths[1]))
            rx, ry, rt, sensor = inputs.read_events(paths[0])
        np.testing.assert_array_equal(rt, a[2])
        self.assertTrue((np.diff(rt) >= 0).all(), "recording is time-ordered")

    def test_recording_layout_and_properties(self):
        x, y, t, seg_len, legs = _clean_footage()
        rx, ry, rt = inputs.make_recording(x, y, t, seg_len, legs, seed=1,
                                           repeats=2, noise=0.0)
        props = inputs.input_properties(rx, ry, rt, (inputs.SENSOR, inputs.SENSOR))
        # Two tripod steps per repeat, each ORs three legs' frames.
        self.assertEqual(props["frames"], 2 * 2 * seg_len - (seg_len - 2))
        self.assertEqual(props["events"], 2 * 2 * 2 * 3 * 100)
        self.assertEqual(props["kept_events"], props["events"])
        self.assertEqual(props["active_i10_frames"], 2 * 2 * 2)
        off = (inputs.SENSOR - inputs.SCENE) // 2
        self.assertEqual(int(rx.min()), off + 10)

    def test_generate_is_deterministic(self):
        env = dict(os.environ, PYTHONPATH=SRC)

        def run_cli(argv):
            return subprocess.call([sys.executable, "-m", "hexgait.cli", *argv],
                                   env=env, stdout=subprocess.DEVNULL)

        with tempfile.TemporaryDirectory() as d:
            a = inputs.generate(run_cli, os.path.join(d, "a"), seed=3)
            b = inputs.generate(run_cli, os.path.join(d, "b"), seed=3)
        self.assertEqual(a["sha256"], b["sha256"])
        self.assertEqual(a["properties"], b["properties"])


if __name__ == "__main__":
    unittest.main()
