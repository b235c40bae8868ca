import math
import os
import stat

import pytest

from hexgait.cli import main
from hexgait.config import (EXAMPLE_CONFIG, default_config, load_config)
from hexgait.errors import ConfigError

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


def test_config_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scene]\nwidth = many\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[neuron]\nv_thresh = -70.0\n")  # below rest
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


def test_cli_data_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.events"
    bad.write_text("!sensor 600x600\n1,2\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "train", str(bad)]) == 3
    assert "line 2" in capsys.readouterr().err
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
    for path in (header_only, border_only):
        assert main(["--out", str(tmp_path / "out"), "train", str(path)]) == 3
        assert "data error: cannot train on an empty stream" in capsys.readouterr().err


def test_cli_wild_timestamp_exit_3(tmp_path, capsys):
    wild = tmp_path / "wild.events"
    wild.write_text("!sensor 600x600\n1,1,99999999999\n")
    assert main(["--out", str(tmp_path / "out"), "train", str(wild)]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "2500000 frames" in err


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
    out = str(tmp_path / "run")
    base = ["--config", fast_cfg_path, "--out", out]
    assert main(base + ["synth"]) == 0
    assert main(base + ["train", f"{out}/events.txt"]) == 0
    weights_before = open(f"{out}/weights.txt").read()
    assert main(base + ["test", f"{out}/weights.txt", f"{out}/events.txt",
                        "--schedule", f"{out}/schedule.txt"]) == 0
    report = open(f"{out}/report.txt").read()
    assert "sequence_accuracy=1.000000" in report
    # the frozen run must not touch the weight file
    assert open(f"{out}/weights.txt").read() == weights_before
    assert main(base + ["energy", f"{out}/test_raster.txt",
                        "--active-frames", "6", "--leg-events", "6"]) == 0
    assert "per_leg_event" in capsys.readouterr().out


def test_cli_repro_deterministic(fast_cfg_path, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["--config", fast_cfg_path, "--out", out, "repro"]) == 0
        outs.append(out)
    for fname in ("events.txt", "weights.txt", "train_raster.txt",
                  "seq_raster.txt", "tripod_raster.txt", "report.txt"):
        a = open(f"{outs[0]}/{fname}", "rb").read()
        b = open(f"{outs[1]}/{fname}", "rb").read()
        assert a == b, fname
    report = open(f"{outs[0]}/report.txt").read()
    assert "tripod_accuracy=1.000000" in report
    assert "is_tripod=True" in report


def test_cli_seed_override_changes_events(fast_cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["--config", fast_cfg_path, "--out", out1, "synth"]) == 0
    assert main(["--config", fast_cfg_path, "--out", out2, "--seed", "7",
                 "synth"]) == 0
    a = open(f"{out1}/events.txt").read()
    b = open(f"{out2}/events.txt").read()
    assert a != b
