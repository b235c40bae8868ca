import argparse
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hexgait
from hexgait import cli
from hexgait.atomic import write_atomic
from hexgait.cli import main
from hexgait.config import _DEFAULTS, EXAMPLE_CONFIG, default_config, load_config
from hexgait.energy import EnergyModel, energy_report
from hexgait.events import load_frames, save_events
from hexgait.errors import ConfigError
from hexgait.frames import MAX_FRAMES, FrameStream, pooled_streams
from hexgait.neurons import NeuronParams, WeightMap, save_weights
from hexgait.scene import HexapodGeometry, RenderParams
from hexgait.training import TrainSchedule

FAST_CFG = """\
[scene]
noise_density = 0.0005

[training]
repeats = 2

[test]
tripod_repeats = 2
"""


@pytest.fixture(scope="module")
def fast_cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.ini"
    path.write_text(FAST_CFG)
    return str(path)


def test_example_config_parses_to_defaults(tmp_path):
    path = tmp_path / "example.ini"
    path.write_text(EXAMPLE_CONFIG)
    cfg = load_config(path)
    assert cfg.values == default_config().values


def test_config_overrides_and_derived_values(fast_cfg_path):
    cfg = load_config(fast_cfg_path)
    assert cfg["training"]["repeats"] == 2
    assert cfg["scene"]["noise_density"] == 0.0005
    assert cfg["neuron"]["tau_v"] == 4.0  # untouched default
    assert cfg.period_s() == pytest.approx(25 * 0.04)
    assert cfg.group_gap_s() == pytest.approx(0.5)


def test_config_percent_is_literal(tmp_path):
    path = tmp_path / "pct.ini"
    path.write_text("[run]\nout = runs/50%(seed)s %%\n")
    assert load_config(path)["run"]["out"] == "runs/50%(seed)s %%"


def test_repro_runs_on_a_frame_of_whole_10x10_tiles(tmp_path):
    # Only the 10x10 pool constrains the frame size.
    path = tmp_path / "small.ini"
    path.write_text("[scene]\nwidth = 110\nheight = 130\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "repro"]) == 0


def test_config_frame_cap_boundary(tmp_path):
    # The tripod stream spans 2 * tripod_repeats segments of 25 + 11 frames.
    path = tmp_path / "cap.ini"
    path.write_text(f"[test]\ntripod_repeats = {MAX_FRAMES // 72}\n")
    load_config(path)
    path.write_text(f"[test]\ntripod_repeats = {MAX_FRAMES // 72 + 1}\n")
    with pytest.raises(ConfigError, match="spans 90072 frames"):
        load_config(path)
    # The training run spans repeats plays of 6 segments.
    path.write_text(f"[training]\nrepeats = {MAX_FRAMES // 216}\n")
    load_config(path)
    path.write_text(f"[training]\nrepeats = {MAX_FRAMES // 216 + 1}\n")
    with pytest.raises(ConfigError, match="spans 90072 frames"):
        load_config(path)


def test_config_window_is_the_network_step(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text("[events]\nwindow_ms = 20\n")
    cfg = load_config(path)
    assert cfg.neuron_params().dt == 0.02
    assert cfg.period_s() == 0.5
    path.write_text("[events]\nwindow_ms = 1000\n")  # dt below tau_ge = 1.2 s
    assert load_config(path).neuron_params().dt == 1.0


def test_config_builders_give_owner_defaults():
    cfg = default_config()
    assert cfg.neuron_params() == NeuronParams()
    assert cfg.train_schedule() == TrainSchedule()
    assert cfg.render_params() == RenderParams()
    assert cfg.geometry() == HexapodGeometry()
    assert cfg.energy_model() == EnergyModel()


def test_cli_example_config(capsys):
    assert main(["example-config"]) == 0
    assert "[neuron]" in capsys.readouterr().out


def _fails(id, argv, code, pattern, out, **files):
    """A row of _FAILURES: `main(argv)`, run in a directory that holds
    only `files`, exits `code` with a message that matches `pattern`, and
    leaves the directory `out` "absent" or "empty"."""
    files = {name: data if isinstance(data, bytes) else data.encode()
             for name, data in files.items()}
    return pytest.param(files, argv.split(), code, pattern, out, id=id)


def _config(id, text, pattern, command="repro"):
    return _fails(id, f"--config cfg --out out {command}", 2, pattern, "absent", cfg=text)


def _data(id, argv, pattern, out="empty", **files):
    return _fails(id, "--out out " + argv, 3, pattern, out, **files)


def _weights(n=6, h=60, w=60, last="0"):
    """A weight file of zeros, but for its last value."""
    row = "0 " * (w - 1)
    return f"{n} {h} {w}\n" + (row + "0\n") * (n * h - 1) + row + last + "\n"


_EVENTS = "!sensor 600x600\n1,1,0\n"
_SIX = "".join(f"step {i} {i + 1}\n" for i in range(6))
_BUDGET = "the work budget allows 40,500,000$"
_NO_FILE = r": \[Errno 2\] No such file or directory: '{}'$"

# The exit-code contract, one row per failure, in the order of README's
# "Exit codes" list. A pattern need not repeat the `config error: ` or
# `data error: ` that check_failure requires.
_FAILURES = [
    # Exit 2: a config file that cannot be read, is not well-formed INI or
    # is not UTF-8.
    _fails("config-missing", "--config absent.ini repro", 2,
           ": cannot read config file absent.ini$", "absent"),
    _config("repeated-key", "[scene]\nwidth = 100\nwidth = 200\n",
            r": bad config file cfg: While reading from 'cfg' \[line  3\]: "
            "option 'width' in section 'scene' already exists$"),
    _config("repeated-section", "[scene]\nwidth = 100\n[scene]\nheight = 100\n",
            r"\[line  3\]: section 'scene' already exists$"),
    _config("key-before-section", "width = 100\n[scene]\n",
            r": bad config file cfg: File contains no section headers\. "
            r"file: 'cfg', line: 1 'width = 100\\n'$"),
    _config("line-without-value", "[scene]\nwidth = 100\nfoo\n",
            r": bad config file cfg: Source contains parsing errors: 'cfg' "
            r"\[line  3\]: 'foo\\n'$"),
    _config("not-utf-8", b"[run]\nout = \xff\n", "'utf-8' codec can't decode byte 0xff"),
    # An unknown section or key, among them [DEFAULT] and keys that earlier
    # versions read.
    *(_config(f"section-{name}", text, rf": unknown config section \[{name}\]$",
              "example-config")
      for name, text in (("scnee", "[scnee]\nwidth = 600\n"), ("nope", "[nope]\nx = 1\n"),
                         ("gait", "[gait]\nperiod_s = 1.0\n"),
                         ("DEFAULT", "[DEFAULT]\nseed = 5\n"))),
    *(_config(f"section-DEFAULT-{into}", f"[DEFAULT]\nwidth = 100\n[{into}]\n",
              r": unknown config section \[DEFAULT\]$", "example-config")
      for into in ("scene", "run")),  # spread into each section
    *(_config(f"key-{key}", f"[{section}]\n{key} = 600\n",
              rf": unknown key '{key}' in section \[{section}\]$", "example-config")
      for section, key in (("scene", "wdith"), ("events", "sensor_width"),
                           ("events", "sensor_height"), ("energy", "gates"),
                           ("neuron", "dt"), ("scene", "shaft_clusters"),
                           ("scene", "sweep_angle_deg"), ("training", "prior_std_deg"))),
    # A bad value.
    _config("width-many", "[scene]\nwidth = many\n",
            r": \[scene\] width='many': expected int$"),
    _config("width-605", "[scene]\nwidth = 605\n",  # not whole 10x10 tiles
            r": \[scene\]: width/height must divide the 10x10 pool$"),
    _config("width-0", "[scene]\nwidth = 0\n",
            r": \[scene\]: width/height must be positive$"),
    # Integers too large for a float, which the work budget multiplies in.
    *(_config(f"{key}-1e400", f"[scene]\n{key} = 1{'0' * 400}\n",
              rf": \[scene\] {key}: must fit in int64$")
      for key in ("width", "tip_blocks")),
    _config("frames_per_cycle-1", "[scene]\nframes_per_cycle = 1\n",
            r": \[scene\]: frames_per_cycle must be >= 2$"),
    _config("noise_density-1", "[scene]\nnoise_density = 1.0\n",
            r": \[scene\]: noise_density must be in \[0, 1\)$"),
    _config("noise_density-percent", "[scene]\nnoise_density = 0.1%\n",  # no interpolation
            r": \[scene\] noise_density='0\.1%': expected float$"),
    *(_config(f"{key}-negative", f"[scene]\n{key} = {v}\n",
              rf": \[scene\]: {key} must be >= 0, got {v}$")
      for key, v in (("gap_frames", -30), ("tip_blocks", -1), ("active_frames", -1))),
    # All six anchors at one point, anchors outside [0,1]^2, no legs.
    *(_config(f"{key}-{v}", f"[scene]\n{key} = {v}\n",
              r": \[scene\]: body_radius must be in \(0, 0\.5\] and leg_length > 0$")
      for key, v in (("body_radius", 0.0), ("body_radius", 0.6), ("leg_length", 0.0))),
    *(_config(f"{key}-{v}", f"[{section}]\n{key} = {v}\n",
              rf": \[{section}\] {key}={v}: must be finite$")
      for section, key, v in (("scene", "leg_length", "inf"),
                              ("events", "window_ms", "inf"), ("neuron", "tau_v", "nan"))),
    # A window that rounds to 0 us, or puts timestamps beyond int64.
    *(_config(f"window_ms-{v}", f"[events]\nwindow_ms = {v}\n",
              r": \[events\]: window_ms must be finite, at least 1 us and at most "
              rf"111111111111 us, got {got}$")
      for v, got in (("0.0001", r"0\.0001"), ("5e13", r"50000000000000\.0"),
                     ("1e16", r"1e\+16"))),
    # A step of tau_ge or more: Euler's g_e decay factor is 0 or negative.
    *(_config(f"{key}-{v}", f"[{section}]\n{key} = {v}\n",
              rf": \[events\]/\[neuron\]: window_ms / 1000 = {dt} s must be below "
              "tau_ge and tau_v$")
      for section, key, v, dt in (("events", "window_ms", 1200, "1.2"),
                                  ("events", "window_ms", 1300, "1.3"),
                                  ("neuron", "tau_ge", 0.04, "0.04"))),
    _config("v_thresh-below-rest", "[neuron]\nv_thresh = -70.0\n",
            r": \[neuron\]: require v_rest < v_thresh, got -65\.0 >= -70\.0$"),
    _config("energy-negative", "[energy]\nenergy_per_spike_nj = -1.0\n",
            r": \[energy\]: energies must be >= 0$"),
    _config("seed-negative", "[run]\nseed = -1\n", r": \[run\]: seed must be >= 0$"),
    _fails("out-empty", "--config cfg synth", 2, r": \[run\]: out must not be empty$",
           "absent", cfg="[run]\nout =\n"),
    _config("repeats-negative", "[training]\nrepeats = -1\n",
            r": \[training\]: repeats must be >= 0$"),
    _config("tripod_repeats-0", "[test]\ntripod_repeats = 0\n",
            r": \[test\]: tripod_repeats must be >= 1$"),
    # A leg whose foot site falls off the frame: at 0.4 leg 2 reaches past
    # the left edge, and the larger lengths put every tip far out.
    _config("leg_length-0.4", "[scene]\nleg_length = 0.4\n",
            r": \[scene\]: leg 2's foot site at \(-43\.32, 299\.5\) lies outside the "
            "600x600 frame$", "synth"),
    *(_config(f"leg_length-{v}", f"[scene]\nleg_length = {v}\n",
              r": \[scene\]: leg 1's foot site at .* lies outside the 600x600 frame$")
      for v in ("1e6", "1e300", "1e306")),
    # A training run or tripod stream over the frame cap, or a scene over
    # the work budget: 1.1e12 expected set pixels and a 4.8 GB weight map,
    # the weight map alone, the noise alone.
    *(_config(id, text, rf"the tripod stream spans {n} frames, more than the limit of "
              "90000$")
      for id, text, n in (
          ("frames_per_cycle-15000", "[scene]\nframes_per_cycle = 15000\n", 900660),
          ("tripod_repeats-1300",
           "[scene]\nnoise_density = 0.0\n[test]\ntripod_repeats = 1300\n", 93600),
          ("repeats-2**63-1", f"[training]\nrepeats = {2**63 - 1}\n", r"\d+"))),
    _config("budget-both",
            "[scene]\nwidth = 100000\nheight = 100000\nnoise_density = 0.5\n",
            r"would set about 1\.08e\+12 pixels; " + _BUDGET),
    _config("budget-weights",
            "[scene]\nwidth = 30000\nheight = 30000\nnoise_density = 0.0\n",
            "would take 54,000,000 doubles; " + _BUDGET),
    _config("budget-noise", "[scene]\nnoise_density = 0.9\n",
            r"would set about 7e\+07 pixels; " + _BUDGET),
    # A bad flag value.
    _fails("flag-seed--1", "--seed -1 --out out repro", 2, r": \[run\]: seed must be >= 0$",
           "absent"),
    _fails("flag-seed-2**63", f"--seed {2**63} --out out repro", 2,
           r": \[run\] seed: must fit in int64$", "absent"),
    # Exit 3: in an event file, a line that is not an event, a blank or
    # comment line or the one header, named by its number.
    _data("events-short-line", "train events", ": line 2: expected x,y,t_us, got '1,2'$",
          events="!sensor 600x600\n1,2\n"),
    _data("energy-short-line", "energy events", ": line 3: expected x,y,t_us, got '1,2'$",
          "absent", events=_EVENTS + "1,2\n"),
    _data("events-sensor-2**70", "train events",
          f": line 1: bad sensor header '!sensor {2**70}x600'$",
          events=f"!sensor {2**70}x600\n1,2,3\n"),
    _data("events-not-text", "train events",
          r": line 3: expected x,y,t_us, got '\\xff\\xfe,\\x80,0'$",
          events=b"!sensor 600x600\n1,1,0\n\xff\xfe,\x80,0\n"),
    # An event outside its file's sensor; a sensor smaller than the frame.
    _data("event-off-sensor", "train events",
          r": event 1 at \(600,1\) outside 600x600 sensor$",
          events=_EVENTS + "600,1,0\n"),
    _data("sensor-100x100", "train events",
          ": sensor 100x100 is smaller than the 600x600 frame$",
          events="!sensor 100x100\n1,1,0\n"),
    # No events left to train on: none recorded, all outside the crop, or
    # a crop offset beyond the int32 columns.
    *(_data(id, "train events", ": cannot train on an empty stream$", events=text)
      for id, text in (("no-events", "!sensor 600x600\n# nothing recorded\n"),
                       ("events-off-crop", "!sensor 800x800\n5,5,0\n790,400,40000\n"),
                       ("events-off-wide-crop", "!sensor 5000000000x600\n5,5,0\n"))),
    # A stream longer than 90,000 frames.
    _data("stream-2500000-frames", "train events",
          ": stream spans 2500000 frames, more than the limit of 90000$",
          events="!sensor 600x600\n1,1,99999999999\n"),
    # A malformed weight file, or one with other than 6 neurons, with a
    # non-finite weight, or with another grid, found before the events.
    _data("weights-abc", "test weights events", ": bad weight file weights: .*'abc'",
          weights="1 2 2\n0.1 0.2\nabc 0.4\n", events=_EVENTS),
    _data("weights-no-body", "test weights events",
          r": bad weight file weights: header 6 10 10 wants 60 rows of 10, got \(0, 1\)$",
          weights="6 10 10\n", events=_EVENTS),
    *(_data(f"weights-{n}-neurons", "test weights events",
            f": bad weight file weights: {n} neurons, need 6$",
            weights=_weights(n), events=_EVENTS) for n in (5, 7)),
    *(_data(f"weights-{v}", "test weights events",
            ": bad weight file weights: non-finite weight$",
            weights=_weights(last=v), events=_EVENTS) for v in ("nan", "inf", "-inf")),
    _data("weights-grid", "test weights absent.txt",
          r": weight file weights: grid \(10, 10\) != the I10 grid \(60, 60\) of the "
          "configured frame$", weights=_weights(h=10, w=10)),
    # A malformed schedule file, its bad line named by its number.
    *(_data(f"schedule-{id}", "test weights events --schedule schedule",
            ": bad schedule file schedule: " + pattern, weights=_weights(),
            events=_EVENTS, schedule="frames_per_cycle=25\n" + steps)
      for id, steps, pattern in (
          ("leg-7", "step 0 1,7\n", r"schedule step 0: leg labels \[7\] outside 1\.\.6$"),
          ("out-of-order", "step 1 1\nstep 0 2\n",
           "schedule entries must be ordered by step index$"),
          ("typo", _SIX.replace("step 2", "stpe 2"), "line 4: 'stpe 2 3'$"),
          ("not-a-step", "hello world\nstep 0 1\n", "line 2: 'hello world'$"),
          ("bad-gap", "gap_frames=x\n" + _SIX, "line 2: 'gap_frames=x'$"))),
    # An OS error, such as a missing file.
    _data("train-missing-events", "train absent.txt", _NO_FILE.format("absent.txt")),
    _data("energy-missing-events", "energy absent.txt", _NO_FILE.format("absent.txt"),
          "absent"),
    _data("test-missing-schedule", "test weights events --schedule absent.txt",
          _NO_FILE.format("absent.txt"), weights=_weights(), events=_EVENTS),
]


def check_failure(captured, code, pattern=""):
    """`main`'s report of exit `code`: nothing on stdout and one line on
    stderr, `config error: …` for 2 or `data error: …` for 3, that
    matches `pattern`."""
    assert captured.out == ""
    line = captured.err[:-1]
    assert captured.err == line + "\n" and line.splitlines() == [line], captured.err
    assert line.startswith({2: "config error: ", 3: "data error: "}[code]), line
    assert re.search(pattern, line), line


@pytest.mark.filterwarnings("error")  # a warning would reach stderr outside pytest
@pytest.mark.parametrize("files, argv, code, pattern, out", _FAILURES)
def test_exit_code_contract(tmp_path, monkeypatch, capsys, files, argv, code, pattern, out):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert main(argv) == code
    check_failure(capsys.readouterr(), code, pattern)
    # The inputs are untouched and nothing is written. `out` is made only
    # by a command that writes artifacts and gets past its config.
    left = {p.name: os.listdir(p) if p.is_dir() else p.read_bytes()
            for p in tmp_path.iterdir()}
    assert left == {**files, **({"out": []} if out == "empty" else {})}


def test_config_just_inside_the_limits_loads(tmp_path):
    # 216 frames at p = 0.5 set 38.9M of the 40.5M pixels the work budget
    # allows; at leg_length 0.3 every foot site lies inside the frame.
    path = tmp_path / "ok.ini"
    for text in ("[scene]\nnoise_density = 0.5\n", "[scene]\nleg_length = 0.3\n"):
        path.write_text(text)
        load_config(path)


def test_cli_empty_out_falls_back_to_the_configs_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[run]\nout = elsewhere\n[scene]\nwidth = 100\nheight = 100\n")
    assert main(["--config", str(cfg), "--out", "", "synth"]) == 0
    assert sorted(os.listdir(tmp_path / "elsewhere")) == ["events.txt", "schedule.txt"]


def test_cli_energy_makes_no_out_directory(tmp_path):
    evts = tmp_path / "events.txt"
    evts.write_text(_EVENTS)
    assert main(["--out", str(tmp_path / "out"), "energy", str(evts)]) == 0
    assert not (tmp_path / "out").exists()


# Small valid inputs for the parser fuzz: a 100x100 scene, so the weight
# file holds 6x10x10 values, and one full 10x10 tile per active window.
_FUZZ_CFG = "[scene]\nwidth = 100\nheight = 100\n\n[training]\nrepeats = 2\n"
_FUZZ_EVENTS = "# two tiles and some salt\n!sensor 120x100\n" + "".join(
    f"{x},{y},{t}\n" for t, (x0, y0) in ((1000, (40, 30)), (41000, (70, 60)))
    for y in range(y0, y0 + 10) for x in range(x0, x0 + 10)) + "3,4,5000\n119,99,90000\n"
_FUZZ_SCHEDULE = "frames_per_cycle=25\ngap_frames=11\nstep 0 1,3,5\nstep 1 2,4,6\n"


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {"config": _FUZZ_CFG, "events": _FUZZ_EVENTS, "schedule": _FUZZ_SCHEDULE}
    paths = {name: root / f"{name}.txt" for name in (*files, "weights")}
    for name, text in files.items():
        paths[name].write_text(text)
    rng = np.random.default_rng(0)
    save_weights(paths["weights"], WeightMap(rng.random((6, 10, 10)) * 40))
    return root, {name: str(path) for name, path in paths.items()}


def _fuzz_argv(target, mutated, p):
    """CLI argv that feeds the mutated copy of `target`'s file to a parser."""
    if target == "config":
        return ["example-config"]
    if target == "events-train":
        return ["train", mutated]
    if target == "events-test":
        return ["test", p["weights"], mutated]
    if target == "weights":
        return ["test", mutated, p["events"]]
    if target == "events-energy":
        return ["energy", mutated]
    return ["test", p["weights"], p["events"], "--schedule", mutated]


_INSERT = st.one_of(st.binary(min_size=1, max_size=3), st.sampled_from([
    b"-", b"0", b"9", b",", b" ", b"\t", b"\n", b"\r", b"#", b".", b"e", b"x",
    b"nan", b"inf", b"!sensor 8x8\n", b"step ", b"\xff", b"\x00", b"%", b"[", b"="]))
# Edits at a position (taken modulo the length): delete up to 4 bytes, then
# insert some; the result may also be cut short.
_EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 4), _INSERT),
                  max_size=3)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["config", "events-train", "events-test", "events-energy",
                        "weights", "schedule"]),
       _EDITS, st.one_of(st.none(), st.integers(0, 1 << 16)))
def test_cli_parsers_survive_mutated_files(fuzz_inputs, capsys, target, edits, cut):
    root, p = fuzz_inputs
    data = Path(p[target.split("-")[0]]).read_bytes()
    for pos, n, insert in edits:
        pos %= len(data) + 1
        data = data[:pos] + insert + data[pos + n:]
    if cut is not None:
        data = data[:cut % (len(data) + 1)]
    mutated = root / "mutated.txt"
    mutated.write_bytes(data)
    config = str(mutated) if target == "config" else p["config"]
    argv = ["--config", config, "--out", str(root / "out")]
    capsys.readouterr()
    rc = main(argv + _fuzz_argv(target, str(mutated), p))
    assert rc in ((0, 2) if target == "config" else (0, 2, 3))
    if rc:
        check_failure(capsys.readouterr(), rc)


def _fuzz_values(default):
    """Values, valid and invalid, that the config fuzz draws for a key."""
    if isinstance(default, float):
        return (0.0, -1.0, default, 1e300, math.inf, math.nan)
    if isinstance(default, str):
        return (default, "elsewhere")  # --out overrides [run] out
    return (-1, 0, 1, 2, default, 2**63 - 1)


# Width and height are always drawn, at most 200, so a valid scene is small.
_SIDE = st.sampled_from((0, 50, 100, 105, 200))
_FUZZ_VALUES = {(section, key): _fuzz_values(default)
                for section, values in _DEFAULTS.items()
                for key, default in values.items() if key not in ("width", "height")}
_SETTING = st.sampled_from(sorted(_FUZZ_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(_FUZZ_VALUES[key])))
_REPRO_ARTIFACTS = ["events.txt", "report.txt", "schedule.txt", "seq_raster.txt",
                    "train_raster.txt", "tripod_raster.txt", "tripod_trace.txt",
                    "weights.txt"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_SIDE, _SIDE, st.lists(_SETTING, max_size=5, unique_by=lambda kv: kv[0]))
def test_cli_repro_survives_fuzzed_configs(tmp_path, capsys, width, height, values):
    """`repro` under a config of a width x height scene and up to five
    other keys set: it exits 0, 2 or 4 and raises nothing; a config error
    is one line and writes nothing, and a run writes the 8 artifacts with
    one file mode.
    A config that passes validation is small, so this never runs long."""
    sections = {"scene": [f"width = {width}", f"height = {height}"]}
    for (section, key), value in values:
        sections.setdefault(section, []).append(f"{key} = {value}")
    path, out = tmp_path / "fuzz.ini", tmp_path / "out"
    path.write_text("".join(f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
                            for section, lines in sections.items()))
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    rc = main(["--config", str(path), "--out", str(out), "repro"])
    assert rc in (0, 2, 4), path.read_text()
    if rc == 2:
        check_failure(capsys.readouterr(), 2)
        assert not out.exists(), path.read_text()
        return
    names = sorted(os.listdir(out))
    assert names == _REPRO_ARTIFACTS, path.read_text()
    assert len({stat.S_IMODE(os.stat(out / name).st_mode) for name in names}) == 1


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sets(st.integers(0, 99), max_size=3), min_size=1, max_size=12),
       st.lists(st.integers(0, 1 << 20), max_size=20))
def test_cli_energy_of_a_saved_stream_is_repros_accounting(tmp_path, capsys, tiles,
                                                           salt):
    """`energy` on the event file of a 100x100 stream S prints the report
    `repro` makes of S: the leg events of pooled_streams(S). Frame k of S
    fills the 10x10 tiles tiles[k] and holds some salt pixels."""
    n_frames = len(tiles)
    keys = [k * 10_000 + (tile // 10 * 10 + dy) * 100 + tile % 10 * 10 + dx
            for k, frame in enumerate(tiles) for tile in frame
            for dy in range(10) for dx in range(10)]
    keys += [key % (n_frames * 10_000) for key in salt]
    stream = FrameStream.from_keys(np.array(keys, dtype=np.int64), n_frames, 100, 100)
    path, evts = tmp_path / "small.ini", tmp_path / "events.txt"
    path.write_text(_FUZZ_CFG)
    cfg = load_config(path)
    save_events(evts, stream.keys, 100, 100, cfg["events"]["window_ms"])
    capsys.readouterr()
    assert main(["--config", str(path), "energy", str(evts)]) == 0
    n_spikes, n_events = cli._leg_event_counts(pooled_streams(stream))
    assert capsys.readouterr().out == energy_report(
        n_spikes, n_events, n_events, cfg.energy_model()).format()


@pytest.mark.parametrize("text, code", [
    (FAST_CFG, 0),
    # Untrained weights never spike, so the check fails after every write.
    (FAST_CFG.replace("repeats = 2\n\n[test]", "repeats = 0\n\n[test]"), 4),
], ids=["trained", "untrained"])
def test_cli_artifacts_share_one_mode(text, code, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "repro"]) == code
    umask = os.umask(0)
    os.umask(umask)
    names = sorted(os.listdir(out))
    assert names == ["events.txt", "report.txt", "schedule.txt", "seq_raster.txt",
                     "train_raster.txt", "tripod_raster.txt", "tripod_trace.txt",
                     "weights.txt"]
    modes = {name: stat.S_IMODE(os.stat(out / name).st_mode) for name in names}
    assert set(modes.values()) == {0o666 & ~umask}, modes
    if code:
        assert "repro check FAILED" in capsys.readouterr().err
        assert "sequence_accuracy=0.000000" in (out / "report.txt").read_text()


def test_write_atomic_leaves_the_target_when_a_chunk_fails(tmp_path):
    target = tmp_path / "weights.txt"
    target.write_text("old\n")

    def chunks():
        yield "new\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        write_atomic(target, chunks())
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["weights.txt"]


@pytest.mark.parametrize("cells, counts", [
    (([], [0, 1], [0, 1, 2]), (3, 1)),
    (([0], [], [0, 1]), (3, 2)),
], ids=["one-burst", "two-bursts"])
def test_leg_event_counts_close_a_burst_at_the_stream_end(cells, counts):
    keys = [k * 4 + c for k, frame in enumerate(cells) for c in frame]
    i10 = FrameStream.from_keys(np.array(keys, dtype=np.int64), len(cells), 2, 2)
    assert cli._leg_event_counts(i10) == counts


def test_readme_command_line_matches_the_parser():
    """README's `## Command line` section names each subcommand of
    build_parser() with its positionals, every long option, and nothing
    the parser does not define."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    synopsis = {line.split()[1]: line
                for line in section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()}
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(synopsis) == sorted(commands)
    options = {opt for a in parser._actions for opt in a.option_strings}
    for name, sub in commands.items():
        words = [Path(w).stem.upper() for w in synopsis[name].split("#")[0].split()]
        for action in sub._actions:
            if not action.option_strings:  # as EVENTS or as OUT/events.txt
                assert action.dest.upper() in words, (name, action.dest)
            options.update(action.option_strings)
    options = {opt for opt in options if opt.startswith("--") and opt != "--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == options


def test_module_entry_point_runs_main():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hexgait.__file__)))
    run = subprocess.run([sys.executable, "-m", "hexgait.cli", "example-config"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == EXAMPLE_CONFIG


def test_cli_pipeline_synth_train_test(fast_cfg_path, tmp_path, capsys):
    run = tmp_path / "run"
    out = str(run)
    base = ["--config", fast_cfg_path, "--out", out]
    assert main(base + ["synth"]) == 0
    assert main(base + ["train", f"{out}/events.txt"]) == 0
    weights_before = (run / "weights.txt").read_bytes()
    assert main(base + ["test", f"{out}/weights.txt", f"{out}/events.txt",
                        "--schedule", f"{out}/schedule.txt"]) == 0
    assert "sequence_accuracy=1.000000" in (run / "report.txt").read_text()
    # the frozen run must not touch the weight file
    assert (run / "weights.txt").read_bytes() == weights_before
    # energy charges the recording as repro charges its I10 stream.
    capsys.readouterr()
    assert main(base + ["energy", f"{out}/events.txt"]) == 0
    cfg = load_config(fast_cfg_path)
    i10 = pooled_streams(load_frames(run / "events.txt", cfg["events"]["window_ms"],
                                     cfg["scene"]["width"], cfg["scene"]["height"]))
    n_spikes, n_events = cli._leg_event_counts(i10)
    assert n_events == 6
    assert capsys.readouterr().out == energy_report(
        n_spikes, n_events, n_events, cfg.energy_model()).format()
    # repro runs the same stages, without reading events.txt back.
    repro = tmp_path / "repro"
    assert main(["--config", fast_cfg_path, "--out", str(repro), "repro"]) == 0
    for name in ("events.txt", "schedule.txt", "weights.txt", "train_raster.txt"):
        assert (repro / name).read_bytes() == (run / name).read_bytes(), name
    assert (repro / "seq_raster.txt").read_bytes() == (run / "test_raster.txt").read_bytes()


@pytest.fixture(scope="module")
def fast_run(fast_cfg_path, tmp_path_factory):
    """synth and train under the fast config: the run directory."""
    run = tmp_path_factory.mktemp("fast_run")
    base = ["--config", fast_cfg_path, "--out", str(run)]
    assert main(base + ["synth"]) == 0
    assert main(base + ["train", str(run / "events.txt")]) == 0
    return run


@pytest.mark.parametrize("sensor_w,sensor_h", [(801, 700), (2**32 + 601, 700)])
def test_cli_test_is_unchanged_by_a_larger_sensor(fast_cfg_path, fast_run, tmp_path,
                                                 sensor_w, sensor_h):
    """The scene centred in a larger sensor, with events outside the crop,
    gives the artifacts of the uncropped recording, also with columns
    wider than int32."""
    rows = np.loadtxt(fast_run / "events.txt", delimiter=",", dtype=np.int64,
                      skiprows=1, ndmin=2)
    left, top = (sensor_w - 600) // 2, (sensor_h - 600) // 2
    rng = np.random.default_rng(0)
    extra = np.column_stack([rng.integers(0, sensor_w, 4000),
                             rng.integers(0, sensor_h, 4000),
                             rng.integers(0, rows[-1, 2] + 1, 4000)])
    inside = ((extra[:, 0] >= left) & (extra[:, 0] < left + 600)
              & (extra[:, 1] >= top) & (extra[:, 1] < top + 600))
    moved = np.vstack([rows + [left, top, 0], extra[~inside]])
    big = tmp_path / "big.txt"
    big.write_text(f"!sensor {sensor_w}x{sensor_h}\n"
                   + "".join(f"{x},{y},{t}\n" for x, y, t in moved.tolist()))
    outs = {}
    for name, events in (("plain", fast_run / "events.txt"), ("big", big)):
        outs[name] = tmp_path / name
        assert main(["--config", fast_cfg_path, "--out", str(outs[name]), "test",
                     str(fast_run / "weights.txt"), str(events), "--schedule",
                     str(fast_run / "schedule.txt")]) == 0
    for fname in ("test_raster.txt", "report.txt", "gait_trace.txt"):
        assert (outs["big"] / fname).read_bytes() == (outs["plain"] / fname).read_bytes()
    assert "sequence_accuracy=1.000000" in (outs["plain"] / "report.txt").read_text()


def _move_in_window(body, rng):
    """Each event's timestamp moved to a random point of its 40 ms window."""
    rows = np.array([line.split(",") for line in body], dtype=np.int64)
    rows[:, 2] += rng.integers(0, 40_000, len(rows)) - rows[:, 2] % 40_000
    return [f"{x},{y},{t}" for x, y, t in rows.tolist()]


_RELATIONS = {
    "shuffled": lambda body, rng: [body[i] for i in rng.permutation(len(body))],
    "duplicated": lambda body, rng: body + body,
    "moved_in_window": _move_in_window,
}


@pytest.fixture(scope="module")
def fast_test_run(fast_cfg_path, fast_run, tmp_path_factory):
    """`test --schedule` of the fast run's weights on its own events."""
    out = tmp_path_factory.mktemp("fast_test")
    assert main(["--config", fast_cfg_path, "--out", str(out), "test",
                 str(fast_run / "weights.txt"), str(fast_run / "events.txt"),
                 "--schedule", str(fast_run / "schedule.txt")]) == 0
    return out


@pytest.mark.parametrize("relation", sorted(_RELATIONS))
def test_cli_ignores_event_order_repeats_and_times_within_a_window(
        fast_cfg_path, fast_run, fast_test_run, tmp_path, relation):
    """A frame is the OR of its window's events: reordering the event lines,
    repeating every event, or moving a timestamp within its window leaves
    the `train` and `test` artifacts byte-identical."""
    header, *body = (fast_run / "events.txt").read_text().splitlines()
    events = tmp_path / "events.txt"
    events.write_text("\n".join(
        [header] + _RELATIONS[relation](body, np.random.default_rng(0))) + "\n")
    out = tmp_path / "out"
    base = ["--config", fast_cfg_path, "--out", str(out)]
    assert main(base + ["train", str(events)]) == 0
    assert main(base + ["test", str(fast_run / "weights.txt"), str(events),
                        "--schedule", str(fast_run / "schedule.txt")]) == 0
    for name in ("weights.txt", "train_raster.txt", "train_log.txt"):
        assert (out / name).read_bytes() == (fast_run / name).read_bytes(), name
    for name in ("test_raster.txt", "report.txt", "gait_trace.txt"):
        assert (out / name).read_bytes() == (fast_test_run / name).read_bytes(), name
    assert "sequence_accuracy=1.000000" in (out / "report.txt").read_text()


def test_cli_repro_deterministic(fast_cfg_path, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["--config", fast_cfg_path, "--out", out, "repro"]) == 0
        outs.append(out)
    for fname in ("events.txt", "weights.txt", "train_raster.txt",
                  "seq_raster.txt", "tripod_raster.txt", "report.txt"):
        a = Path(outs[0], fname).read_bytes()
        b = Path(outs[1], fname).read_bytes()
        assert a == b, fname
    report = Path(outs[0], "report.txt").read_text()
    assert "tripod_accuracy=1.000000" in report
    assert "is_tripod=True" in report


def test_repro_memory_does_not_grow_with_tripod_repeats(fast_cfg_path, tmp_path,
                                                       capsys):
    """Allocation peak of `repro` on the fast scene at 2 and 40 tripod
    repeats. One tripod period is spliced and pooled, and its I10 stream
    repeated: 3.00 and 3.01 MB here. Splicing the raw footage of every
    repeat measured 4.07 and 54.39 MB, about 1.3 MB per repeat."""
    def peak(repeats):
        cfg = tmp_path / f"{repeats}.ini"
        cfg.write_text(FAST_CFG.replace("tripod_repeats = 2",
                                        f"tripod_repeats = {repeats}"))
        argv = ["--config", str(cfg), "--out", str(tmp_path / str(repeats)), "repro"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Warm up numpy's lazy imports and caches, untraced.
    assert main(["--config", fast_cfg_path, "--out", str(tmp_path / "warm"),
                 "repro"]) == 0
    small, large = peak(2), peak(40)
    assert abs(large - small) < 2**20, (small / 2**20, large / 2**20)


def test_cli_seed_override_changes_events(fast_cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["--config", fast_cfg_path, "--out", out1, "synth"]) == 0
    assert main(["--config", fast_cfg_path, "--out", out2, "--seed", "7",
                 "synth"]) == 0
    a = Path(out1, "events.txt").read_bytes()
    b = Path(out2, "events.txt").read_bytes()
    assert a != b


_THREADS = """\
import os, sys, hexgait, numpy
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as fh:
        threads = next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""


@pytest.mark.parametrize("user_value", [None, "3"])
def test_import_starts_no_blas_thread_pool(user_value):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hexgait.__file__)))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if user_value:
        env["OPENBLAS_NUM_THREADS"] = user_value
    run = subprocess.run([sys.executable, "-c", _THREADS], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    value, threads = run.stdout.split()
    assert value == (user_value or "1")
    if not user_value and threads != "None":
        assert threads == "1"


_NO_RANDOM = """\
import sys
from hexgait.cli import main
out, cfg = sys.argv[1], sys.argv[2]
calls = (["repro"], ["train", out + "/events.txt"],
         ["test", out + "/weights.txt", out + "/events.txt"])
for argv in calls:
    assert main(["--config", cfg, "--out", out] + argv) == 0, argv
print(*sorted({"numpy.random", "secrets", "hashlib"} & set(sys.modules)))
"""


def test_commands_never_import_numpy_random(tmp_path):
    # The salt noise is a hash of (seed, frame), so no command loads
    # numpy.random and the OpenSSL hashing it pulls in.
    cfg = tmp_path / "small.ini"
    cfg.write_text(_FUZZ_CFG)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hexgait.__file__)))
    run = subprocess.run([sys.executable, "-c", _NO_RANDOM, str(tmp_path / "out"),
                          str(cfg)], env=env, check=True, capture_output=True,
                         text=True, timeout=120)
    assert run.stdout.splitlines()[-1] == ""


_START_UP = """\
import json, sys
from hexgait.cli import main
argv, code, repro = json.loads(sys.argv[1])
if argv:
    try:
        assert main(argv) == code
    except SystemExit as exc:  # argparse ends --help
        assert exc.code == code
print("numpy imported:", "numpy" in sys.modules)
print("configparser imported:", "configparser" in sys.modules)
print("also imported:", *sorted({"dataclasses", "inspect", "hexgait.energy",
                                 "hexgait.atomic"} & set(sys.modules)))
print("hexgait modules:", *sorted(m for m in sys.modules if m.startswith("hexgait")))
assert main(repro) == 0
"""


@pytest.mark.parametrize("argv,code", [
    ([], 0), (["example-config"], 0), (["--help"], 0),
    (["--config", "{bad}", "synth"], 2), (["--config", "{leg}", "synth"], 2)])
def test_start_up_imports_no_numpy(tmp_path, argv, code):
    # Only a command that computes imports the pipeline, and only once its
    # config is valid, its foot sites included; until then no hexgait
    # module but cli, config and errors is loaded, nor dataclasses and
    # inspect. Only --config imports configparser; a later command in the
    # same process still runs.
    bad, leg, cfg = tmp_path / "bad.ini", tmp_path / "leg.ini", tmp_path / "small.ini"
    bad.write_text("[neuron]\ntau_v = -1\n")
    leg.write_text("[scene]\nleg_length = 0.4\n")
    cfg.write_text(_FUZZ_CFG)
    argv = [a.format(bad=bad, leg=leg) for a in argv]
    repro = ["--config", str(cfg), "--out", str(tmp_path / "out"), "repro"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hexgait.__file__)))
    run = subprocess.run([sys.executable, "-c", _START_UP, json.dumps([argv, code, repro])],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "numpy imported: False" in lines
    uses_config = "--config" in argv
    assert f"configparser imported: {uses_config}" in lines
    assert "also imported:" in lines
    assert "hexgait modules: hexgait hexgait.cli hexgait.config hexgait.errors" in lines


# The key-liveness table: for each config key but [run] out, one valid
# change and the artifacts it must change, on a 200x200 scene trained for
# 2 repeats. The artifacts are `repro`'s plus the train_log.txt of `train`
# on the events.txt that `repro` wrote. The weights reach w_max within
# the first repeat, so the decay rates alpha and beta and the depression
# scale sigma_d reach train_log.txt only.
_LIVE_CFG = {"scene": {"width": 200, "height": 200}, "training": {"repeats": 2}}
_RASTERS = {"seq_raster.txt", "train_raster.txt", "tripod_raster.txt", "tripod_trace.txt"}
_SCENE = {"events.txt", "train_log.txt", "weights.txt"}
_EVERY = _RASTERS | _SCENE | {"report.txt", "schedule.txt"}
_KEY_LIVENESS = [
    ("run", "seed", 1, {"events.txt"}),  # salt noise never fills a tile
    ("scene", "width", 220, _SCENE),
    ("scene", "height", 220, _SCENE),
    ("scene", "frames_per_cycle", 20, _EVERY - {"weights.txt"}),
    ("scene", "noise_density", 0.002, {"events.txt"}),  # nor at this density
    ("scene", "gap_frames", 9, _EVERY - {"weights.txt"}),
    ("scene", "tip_blocks", 2, _EVERY - {"schedule.txt"}),
    ("scene", "body_radius", 0.2, _EVERY - {"schedule.txt"}),
    ("scene", "leg_length", 0.2, _SCENE),
    ("scene", "active_frames", 6, _RASTERS | {"events.txt", "train_log.txt"}),
    ("events", "window_ms", 44.0, _EVERY - {"schedule.txt", "weights.txt"}),
    ("neuron", "tau_v", 3.0, _RASTERS),
    ("neuron", "tau_ge", 1.0, _RASTERS - {"seq_raster.txt"}),
    ("neuron", "v_rest", -66.0, _RASTERS),
    ("neuron", "v_exc", -25.0, _RASTERS),
    ("neuron", "v_thresh", -53.0, _RASTERS),
    ("neuron", "refractory", 1.5, _RASTERS - {"seq_raster.txt"}),
    ("training", "alpha", 0.0105, {"train_log.txt"}),  # 0.011 also moves train_raster
    ("training", "beta", 0.02, {"train_log.txt"}),
    ("training", "omega", 0.06, {"train_log.txt", "train_raster.txt"}),
    ("training", "sigma_d", 0.001, {"train_log.txt"}),
    ("training", "w_max", 0.3, _RASTERS | {"weights.txt"}),
    ("training", "repeats", 3, {"report.txt", "train_log.txt", "train_raster.txt"}),
    ("energy", "energy_per_spike_nj", 1.0, {"report.txt"}),
    ("energy", "andpool_energy_per_frame_nj", 1.0, {"report.txt"}),
    ("test", "tripod_repeats", 3, {"report.txt", "tripod_raster.txt", "tripod_trace.txt"}),
]


def _live_artifacts(root, change=None):
    """Bytes of each artifact of `repro`, then of `train`'s train_log.txt,
    on the table's scene with `change` = (section, key, value) applied."""
    values = {section: dict(keys) for section, keys in _LIVE_CFG.items()}
    if change:
        section, key, value = change
        values.setdefault(section, {})[key] = value
    cfg = root / "live.ini"
    cfg.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for section, keys in values.items()))
    repro, train = root / "repro", root / "train"
    assert main(["--config", str(cfg), "--out", str(repro), "repro"]) == 0
    assert main(["--config", str(cfg), "--out", str(train), "train",
                 str(repro / "events.txt")]) == 0
    artifacts = {p.name: p.read_bytes() for p in repro.iterdir()}
    artifacts["train_log.txt"] = (train / "train_log.txt").read_bytes()
    return artifacts


@pytest.fixture(scope="module")
def live_base(tmp_path_factory):
    return _live_artifacts(tmp_path_factory.mktemp("live"))


def test_key_liveness_table_lists_every_key():
    keys = [(section, key) for section, values in _DEFAULTS.items() for key in values]
    assert [(s, k) for s, k, _, _ in _KEY_LIVENESS] == [
        k for k in keys if k != ("run", "out")]


@pytest.mark.parametrize("section,key,value,changed", _KEY_LIVENESS,
                         ids=[f"{s}.{k}" for s, k, _, _ in _KEY_LIVENESS])
def test_every_key_changes_its_artifacts(tmp_path, live_base, section, key, value,
                                         changed):
    got = _live_artifacts(tmp_path, (section, key, value))
    assert set(got) == set(live_base)
    assert {name for name in got if got[name] != live_base[name]} == changed
