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


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scene]\nwdith = 600\n")
    with pytest.raises(ConfigError, match="wdith"):
        load_config(path)
    path.write_text("[scnee]\nwidth = 600\n")
    with pytest.raises(ConfigError, match="scnee"):
        load_config(path)


# Config files with one bad value each: load_config rejects each one, so
# the CLI exits 2 before it renders or writes anything.
_BAD_VALUES = (
    "[scene]\nwidth = many\n",
    "[scene]\nwidth = 605\n",  # not a whole number of 10x10 tiles
    "[neuron]\nv_thresh = -70.0\n",  # below rest
    "[run]\nseed = -1\n",
    "[run]\nout =\n",
    "[test]\ntripod_repeats = 0\n",
    "[scene]\ngap_frames = -30\n",
    "[scene]\ntip_blocks = -1\n",
    "[scene]\nactive_frames = -1\n",
    "[events]\nwindow_ms = inf\n",
    "[scene]\nleg_length = inf\n",
    "[neuron]\ntau_v = nan\n",
    "[energy]\nenergy_per_spike_nj = -1.0\n",
    "[events]\nwindow_ms = 0.0001\n",  # rounds to 0 us
    "[events]\nwindow_ms = 5e13\n",  # timestamps beyond int64
    "[events]\nwindow_ms = 1e16\n",
    "[scene]\nbody_radius = 0.0\n",  # all six anchors coincide
    "[scene]\nbody_radius = 0.6\n",  # anchors outside [0,1]^2
    "[scene]\nleg_length = 0.0\n",
    "[scene]\nframes_per_cycle = 15000\n",  # over MAX_FRAMES when rendered
    "[scene]\nnoise_density = 0.0\n[test]\ntripod_repeats = 1300\n",  # when spliced
    "[events]\nwindow_ms = 1200\n",  # dt = tau_ge: Euler's g_e decay factor is 0
    "[events]\nwindow_ms = 1300\n",  # dt > tau_ge: the factor is negative
    "[neuron]\ntau_ge = 0.04\n",  # tau_ge = dt
    "[scene]\nwidth = 0\n",
    "[scene]\nframes_per_cycle = 1\n",
    "[scene]\nnoise_density = 1.0\n",
    "[training]\nrepeats = -1\n",
    "[training]\nrepeats = 9223372036854775807\n",  # a training run over MAX_FRAMES
    # Integers too large for a float, which the work budget multiplies in.
    "[scene]\nwidth = 1" + "0" * 400 + "\n",
    "[scene]\ntip_blocks = 1" + "0" * 400 + "\n",
)


# Configs over the work budget: 1.1e12 expected set pixels and a 4.8 GB
# weight map; the weight map alone; the noise alone.
_OVER_BUDGET = (
    "[scene]\nwidth = 100000\nheight = 100000\nnoise_density = 0.5\n",
    "[scene]\nwidth = 30000\nheight = 30000\nnoise_density = 0.0\n",
    "[scene]\nnoise_density = 0.9\n",
)


def test_config_percent_is_literal(tmp_path):
    path = tmp_path / "pct.ini"
    path.write_text("[run]\nout = runs/50%(seed)s %%\n")
    assert load_config(path)["run"]["out"] == "runs/50%(seed)s %%"


def test_config_over_the_work_budget_exits_2_without_rendering(tmp_path, capsys,
                                                               monkeypatch):
    def render(*args, **kwargs):
        raise AssertionError("rendered a config over the work budget")

    monkeypatch.setattr(cli, "render_expert_sequence", render)
    path, out = tmp_path / "big.ini", tmp_path / "out"
    for text in _OVER_BUDGET:
        path.write_text(text)
        assert main(["--config", str(path), "--out", str(out), "repro"]) == 2, text
        assert "the work budget allows" in capsys.readouterr().err
    assert not out.exists()
    # Just inside: 216 frames at p = 0.5 set 38.9M of the 40.5M pixels.
    path.write_text("[scene]\nnoise_density = 0.5\n")
    load_config(path)


def test_config_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    for text in _BAD_VALUES:
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")


def test_repro_runs_on_a_frame_of_whole_10x10_tiles(tmp_path):
    # Only the 10x10 pool constrains the frame size.
    path = tmp_path / "small.ini"
    path.write_text("[scene]\nwidth = 110\nheight = 130\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "repro"]) == 0


def test_config_off_frame_foot_site_exits_2(tmp_path, capsys):
    # A leg whose foot site leaves the frame is a config error, found before
    # anything renders: at 0.4 leg 2 reaches past the left edge, and the
    # larger lengths put every tip far out or at infinity.
    path, out = tmp_path / "leg.ini", tmp_path / "out"
    for value in ("0.4", "1e6", "1e300", "1e306"):
        path.write_text(f"[scene]\nleg_length = {value}\n")
        with pytest.raises(ConfigError, match=r"leg [1-6]'s foot site at .* lies "
                                              r"outside the 600x600 frame"):
            load_config(path)
    path.write_text("[scene]\nleg_length = 0.4\n")
    assert main(["--config", str(path), "--out", str(out), "synth"]) == 2
    assert "config error: [scene]: leg 2's foot site" in capsys.readouterr().err
    assert not out.exists()
    path.write_text("[scene]\nleg_length = 0.3\n")  # every tip inside
    load_config(path)


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


# Files configparser itself rejects, or that are not UTF-8.
_MALFORMED_FILES = (
    b"[scene]\nwidth = 100\nwidth = 200\n",  # a repeated key
    b"[scene]\nwidth = 100\n[scene]\nheight = 100\n",  # a repeated section
    b"width = 100\n[scene]\n",  # a key before any section
    b"[scene]\nnoise_density = 0.1%\n",  # a bad value, not an interpolation
    b"[run]\nout = \xff\n",
)


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[nope]\nx = 1\n")
    assert main(["--config", str(bad), "example-config"]) == 2
    assert "config error" in capsys.readouterr().err
    bad.write_text("[gait]\nperiod_s = 1.0\n")
    assert main(["--config", str(bad), "example-config"]) == 2
    assert "unknown config section [gait]" in capsys.readouterr().err
    for text in ("[DEFAULT]\nseed = 5\n",
                 "[DEFAULT]\nwidth = 100\n[scene]\n",  # spread into [scene]
                 "[DEFAULT]\nwidth = 100\n[run]\n"):
        bad.write_text(text)
        assert main(["--config", str(bad), "example-config"]) == 2, text
        assert "unknown config section [DEFAULT]" in capsys.readouterr().err
    out = tmp_path / "out"
    for text in _BAD_VALUES:
        bad.write_text(text)
        assert main(["--config", str(bad), "--out", str(out), "repro"]) == 2, text
        assert "config error:" in capsys.readouterr().err
    for data in _MALFORMED_FILES:
        bad.write_bytes(data)
        assert main(["--config", str(bad), "--out", str(out), "repro"]) == 2, data
        assert "config error:" in capsys.readouterr().err
    assert main(["--seed", "-1", "--out", str(out), "repro"]) == 2
    assert "config error:" in capsys.readouterr().err
    assert main(["--seed", str(2**63), "--out", str(out), "repro"]) == 2
    assert "[run] seed: must fit in int64" in capsys.readouterr().err
    assert not out.exists()


def test_cli_empty_out_exits_2(tmp_path, capsys, monkeypatch):
    """An empty `[run] out` is a config error that writes nothing; an
    empty `--out` falls back to the config's out."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[run]\nout =\n")
    assert main(["--config", str(cfg), "synth"]) == 2
    assert capsys.readouterr().err == "config error: [run]: out must not be empty\n"
    assert os.listdir(tmp_path) == ["cfg.ini"]
    cfg.write_text("[run]\nout = elsewhere\n[scene]\nwidth = 100\nheight = 100\n")
    assert main(["--config", str(cfg), "--out", "", "synth"]) == 0
    assert sorted(os.listdir(tmp_path / "elsewhere")) == ["events.txt", "schedule.txt"]


def test_cli_data_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.events"
    bad.write_text("!sensor 600x600\n1,2\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "train", str(bad)]) == 3
    assert "line 2" in capsys.readouterr().err
    bad.write_text(f"!sensor {2**70}x600\n1,2,3\n")
    assert main(["--out", str(out), "train", str(bad)]) == 3
    assert "line 1: bad sensor header" in capsys.readouterr().err
    assert main(["--out", str(out), "train", str(tmp_path / "absent")]) == 3


def test_cli_sensor_smaller_than_frame_exit_3(tmp_path, capsys):
    small = tmp_path / "small.events"
    small.write_text("!sensor 100x100\n1,1,0\n")
    assert main(["--out", str(tmp_path / "out"), "train", str(small)]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "100x100" in err


def test_cli_train_on_no_events_exit_3(tmp_path, capsys):
    header_only = tmp_path / "header.events"
    header_only.write_text("!sensor 600x600\n# nothing recorded\n")
    border_only = tmp_path / "border.events"  # every event outside the crop
    border_only.write_text("!sensor 800x800\n5,5,0\n790,400,40000\n")
    wide = tmp_path / "wide.events"  # a crop offset beyond the int32 columns
    wide.write_text("!sensor 5000000000x600\n5,5,0\n")
    for path in (header_only, border_only, wide):
        assert main(["--out", str(tmp_path / "out"), "train", str(path)]) == 3
        assert "data error: cannot train on an empty stream" in capsys.readouterr().err


def test_cli_wild_timestamp_exit_3(tmp_path, capsys):
    wild = tmp_path / "wild.events"
    wild.write_text("!sensor 600x600\n1,1,99999999999\n")
    assert main(["--out", str(tmp_path / "out"), "train", str(wild)]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "2500000 frames" in err


def test_cli_energy_bad_events_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.events"
    bad.write_text("!sensor 600x600\n1,1,0\n1,2\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "energy", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "line 3" in err
    assert main(["--out", str(out), "energy", str(tmp_path / "absent")]) == 3
    assert "data error:" in capsys.readouterr().err


def test_cli_energy_makes_no_out_directory(tmp_path, capsys):
    evts = tmp_path / "events.txt"
    evts.write_text("!sensor 600x600\n1,1,0\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "energy", str(evts)]) == 0
    assert main(["--out", str(out), "energy", str(tmp_path / "missing.txt")]) == 3
    assert "data error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_test_non_numeric_weights_exit_3(tmp_path, capsys):
    weights = tmp_path / "weights.txt"
    weights.write_text("1 2 2\n0.1 0.2\nabc 0.4\n")
    evts = tmp_path / "events.txt"
    evts.write_text("!sensor 600x600\n1,1,0\n")
    assert main(["--out", str(tmp_path / "out"), "test", str(weights),
                 str(evts)]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "abc" in err
    for value in (np.nan, np.inf, -np.inf):
        w = np.zeros((6, 60, 60))
        w[2, 30, 40] = value
        save_weights(weights, WeightMap(w))
        assert main(["--out", str(tmp_path / "out"), "test", str(weights),
                     str(evts)]) == 3, value
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "test_raster.txt").exists()


@pytest.mark.filterwarnings("error")  # a warning would reach stderr outside pytest
def test_cli_test_weight_body_mismatch_exit_3(tmp_path, capsys):
    weights = tmp_path / "weights.txt"
    weights.write_text("6 10 10\n")
    evts = tmp_path / "events.txt"
    evts.write_text("!sensor 600x600\n1,1,0\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "test", str(weights), str(evts)]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "Warning" not in err
    assert not (out / "test_raster.txt").exists()


def test_cli_test_weight_neuron_count_exit_3(tmp_path, capsys):
    evts = tmp_path / "events.txt"
    evts.write_text("!sensor 600x600\n1,1,0\n")
    weights = tmp_path / "weights.txt"
    out = tmp_path / "out"
    for n in (5, 7):
        save_weights(weights, WeightMap(np.zeros((n, 60, 60))))
        assert main(["--out", str(out), "test", str(weights), str(evts)]) == 3, n
        assert "data error:" in capsys.readouterr().err
        assert not (out / "test_raster.txt").exists()


def test_cli_test_weight_grid_mismatch_exit_3(tmp_path, capsys):
    # A 100x100 scene's weights against the default 600x600 frame: rejected
    # from the weight file alone, before the events are read.
    weights = tmp_path / "weights.txt"
    save_weights(weights, WeightMap.zeros(10, 10))
    out = tmp_path / "out"
    assert main(["--out", str(out), "test", str(weights),
                 str(tmp_path / "absent.txt")]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "grid (10, 10)" in err
    assert not (out / "test_raster.txt").exists()


def test_cli_train_non_text_events_exit_3(tmp_path, capsys):
    evts = tmp_path / "events.txt"
    evts.write_bytes(b"!sensor 600x600\n1,1,0\n\xff\xfe,\x80,0\n")
    assert main(["--out", str(tmp_path / "out"), "train", str(evts)]) == 3
    assert "data error:" in capsys.readouterr().err


def test_cli_bad_schedule_exit_3(tmp_path, capsys):
    weights = tmp_path / "weights.txt"
    save_weights(weights, WeightMap.zeros(60, 60))
    evts = tmp_path / "events.txt"
    evts.write_text("!sensor 600x600\n1,1,0\n")
    schedule = tmp_path / "schedule.txt"
    out = tmp_path / "out"
    six = "".join(f"step {i} {i + 1}\n" for i in range(6))
    for steps in ("step 0 1,7\n", "step 1 1\nstep 0 2\n",
                  six.replace("step 2", "stpe 2"),  # a typo'd step among six
                  "hello world\nstep 0 1\n", "gap_frames=x\n" + six):
        schedule.write_text("frames_per_cycle=25\n" + steps)
        assert main(["--out", str(out), "test", str(weights), str(evts),
                     "--schedule", str(schedule)]) == 3
        assert "data error" in capsys.readouterr().err
        assert not (out / "test_raster.txt").exists()


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
    rc = main(argv + _fuzz_argv(target, str(mutated), p))
    assert rc in ((0, 2) if target == "config" else (0, 2, 3))
    if rc:
        assert "error" in capsys.readouterr().err


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
def test_cli_repro_survives_fuzzed_configs(tmp_path, width, height, values):
    """`repro` under a config of a width x height scene and up to five
    other keys set: it exits 0, 2 or 4 and raises nothing; a config error
    writes nothing, and a run writes the 8 artifacts with one file mode.
    A config that passes validation is small, so this never runs long."""
    sections = {"scene": [f"width = {width}", f"height = {height}"]}
    for (section, key), value in values:
        sections.setdefault(section, []).append(f"{key} = {value}")
    path, out = tmp_path / "fuzz.ini", tmp_path / "out"
    path.write_text("".join(f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
                            for section, lines in sections.items()))
    shutil.rmtree(out, ignore_errors=True)
    rc = main(["--config", str(path), "--out", str(out), "repro"])
    assert rc in (0, 2, 4), path.read_text()
    names = sorted(os.listdir(out)) if out.exists() else []
    if rc == 2:
        assert names == [], path.read_text()
        return
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


@pytest.mark.parametrize("section,key", [("events", "sensor_width"),
                                         ("events", "sensor_height"),
                                         ("energy", "gates"),
                                         ("neuron", "dt"),
                                         ("scene", "shaft_clusters"),
                                         ("scene", "sweep_angle_deg"),
                                         ("training", "prior_std_deg")])
def test_cli_removed_keys_exit_2(tmp_path, capsys, section, key):
    cfg = tmp_path / "old.ini"
    cfg.write_text(f"[{section}]\n{key} = 600\n")
    assert main(["--config", str(cfg), "example-config"]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


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
