"""Golden artifact hashes.

The sha256 of every file `hexgait --seed 0 repro` writes, and of what
`hexgait train` writes from that run's `events.txt`, both with the default
config. A change that alters an artifact on purpose updates these hashes
and says so in CHANGES.md. The doubles behind the files depend on numpy's
summation and formatting, so the test runs only on the numpy the hashes
were recorded with.
"""
import hashlib

import numpy as np
import pytest

from hexgait.cli import main

NUMPY_VERSION = "2.4.6"

REPRO = {
    "events.txt": "a760019a4387cb5f78f0ceb29b4c614e2b0c63f8d0cbf14cd5f93eea5efea914",
    "report.txt": "9e5221582756410e4f96490ac9963a378edb6906028e8af93f612413896f7d72",
    "schedule.txt": "47a6a442639576ca35337682da4e912ffd83421b2eb07382574919837b01047c",
    "seq_raster.txt": "b9e31d743c1a55c9548646aeb11468dc27a83ba057f01c8d15e3c79902ac72da",
    "train_raster.txt": "0df93184045bfff34a6ee09e4fe2d5c575332c8f6b51a1c0d5dcec6ca6cf4861",
    "tripod_raster.txt": "d494835040677ebf14b26cf6354e77bbe41ff9e559caeaef0fe573a05f74a791",
    "tripod_trace.txt": "4f2d6693c788d75085aad2bb1c3799987520f67a198f1ce0354da05eac6a7be4",
    "weights.txt": "3c5592b29068e4ff11d554f2add27cb0463389b3282f086d53d72015e3c6cce9",
}

TRAIN = {
    "train_log.txt": "2064635dab8cd5abbf1b526a24e17b72a1da8503fa6dda9e2258a5cc006c0fd6",
    "train_raster.txt": "0df93184045bfff34a6ee09e4fe2d5c575332c8f6b51a1c0d5dcec6ca6cf4861",
    "weights.txt": "3c5592b29068e4ff11d554f2add27cb0463389b3282f086d53d72015e3c6cce9",
}

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"hashes recorded with numpy {NUMPY_VERSION}, found {np.__version__}")


def _hashes(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def test_repro_and_train_artifacts_match_golden_hashes(tmp_path):
    repro, trained = tmp_path / "repro", tmp_path / "train"
    assert main(["--seed", "0", "--out", str(repro), "repro"]) == 0
    assert _hashes(repro) == REPRO
    assert main(["--out", str(trained), "train", str(repro / "events.txt")]) == 0
    assert _hashes(trained) == TRAIN
