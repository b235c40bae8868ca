import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hexgait
from hexgait.cli import main
from hexgait.config import (EXAMPLE_CONFIG, default_config, load_config)
from hexgait.errors import ConfigError
from hexgait.neurons import WeightMap, save_weights

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
    "[neuron]\nv_thresh = -70.0\n",  # below rest
    "[run]\nseed = -1\n",
    "[test]\ntripod_repeats = 0\n",
    "[scene]\ngap_frames = -30\n",
    "[scene]\nshaft_clusters = -1\n",
    "[scene]\ntip_blocks = -1\n",
    "[scene]\nactive_frames = -1\n",
)


def test_config_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    for text in _BAD_VALUES:
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")


def test_cli_example_config(capsys):
    assert main(["example-config"]) == 0
    assert "[neuron]" in capsys.readouterr().out


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[nope]\nx = 1\n")
    assert main(["--config", str(bad), "example-config"]) == 2
    assert "config error" in capsys.readouterr().err
    out = tmp_path / "out"
    for text in _BAD_VALUES:
        bad.write_text(text)
        assert main(["--config", str(bad), "--out", str(out), "repro"]) == 2, text
        assert "config error:" in capsys.readouterr().err
    assert main(["--seed", "-1", "--out", str(out), "repro"]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_energy_bad_raster_exit_3(tmp_path, capsys):
    raster = tmp_path / "raster.txt"
    raster.write_text("# dt=0.04 n_steps=10\n0.080000 1\n0.120000 2 5\n")
    assert main(["--out", str(tmp_path / "out"), "energy", str(raster)]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "line 3" in err


def test_cli_test_non_numeric_weights_exit_3(tmp_path, capsys):
    weights = tmp_path / "weights.txt"
    weights.write_text("1 2 2\n0.1 0.2\nabc 0.4\n")
    evts = tmp_path / "events.txt"
    evts.write_text("!sensor 600x600\n1,1,0\n")
    assert main(["--out", str(tmp_path / "out"), "test", str(weights),
                 str(evts)]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "abc" in err


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
    for steps in ("step 0 1,7\n", "step 1 1\nstep 0 2\n"):
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
_FUZZ_RASTER = "# dt=0.04 n_steps=10\n0.080000 1\n0.080000 3\n0.120000 2\n"
_FUZZ_SCHEDULE = "frames_per_cycle=25\ngap_frames=11\nstep 0 1,3,5\nstep 1 2,4,6\n"


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {"config": _FUZZ_CFG, "events": _FUZZ_EVENTS, "raster": _FUZZ_RASTER,
             "schedule": _FUZZ_SCHEDULE}
    paths = {name: root / f"{name}.txt" for name in (*files, "weights")}
    for name, text in files.items():
        paths[name].write_text(text)
    rng = np.random.default_rng(0)
    save_weights(paths["weights"], WeightMap(rng.random((6, 10, 10)) * 40))
    return root, {name: str(path) for name, path in paths.items()}


def _fuzz_argv(target, mutated, p):
    """CLI argv that feeds the mutated copy of `target`'s file to a parser."""
    if target == "events-train":
        return ["train", mutated]
    if target == "events-test":
        return ["test", p["weights"], mutated]
    if target == "weights":
        return ["test", mutated, p["events"]]
    if target == "raster":
        return ["energy", mutated, "--active-frames", "2", "--leg-events", "1"]
    return ["test", p["weights"], p["events"], "--schedule", mutated]


_INSERT = st.one_of(st.binary(min_size=1, max_size=3), st.sampled_from([
    b"-", b"0", b"9", b",", b" ", b"\t", b"\n", b"\r", b"#", b".", b"e", b"x",
    b"nan", b"inf", b"!sensor 8x8\n", b"step ", b"\xff", b"\x00"]))
# Edits at a position (taken modulo the length): delete up to 4 bytes, then
# insert some; the result may also be cut short.
_EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 4), _INSERT),
                  max_size=3)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["events-train", "events-test", "weights", "raster",
                        "schedule"]),
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
    argv = ["--config", p["config"], "--out", str(root / "out")]
    rc = main(argv + _fuzz_argv(target, str(mutated), p))
    assert rc in (0, 2, 3)
    if rc:
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [("events", "sensor_width"),
                                         ("events", "sensor_height"),
                                         ("energy", "gates")])
def test_cli_removed_keys_exit_2(tmp_path, capsys, section, key):
    cfg = tmp_path / "old.ini"
    cfg.write_text(f"[{section}]\n{key} = 600\n")
    assert main(["--config", str(cfg), "example-config"]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_cli_artifacts_share_one_mode(fast_cfg_path, tmp_path):
    out = tmp_path / "run"
    assert main(["--config", fast_cfg_path, "--out", str(out), "repro"]) == 0
    umask = os.umask(0)
    os.umask(umask)
    names = sorted(os.listdir(out))
    assert names == ["events.txt", "report.txt", "schedule.txt", "seq_raster.txt",
                     "train_raster.txt", "tripod_raster.txt", "tripod_trace.txt",
                     "weights.txt"]
    modes = {name: stat.S_IMODE(os.stat(out / name).st_mode) for name in names}
    assert set(modes.values()) == {0o666 & ~umask}, modes


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
    assert main(base + ["energy", f"{out}/test_raster.txt",
                        "--active-frames", "6", "--leg-events", "6"]) == 0
    assert "per_leg_event" in capsys.readouterr().out
    for flag in ("--active-frames", "--leg-events"):
        with pytest.raises(SystemExit) as exc:
            main(base + ["energy", f"{out}/test_raster.txt", flag, "-1"])
        assert exc.value.code == 2
        assert "expected an integer >= 0" in capsys.readouterr().err
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
    gives the artifacts of the uncropped recording. Columns wider than
    int32 take the line parser."""
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
