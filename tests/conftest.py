import math

import pytest

from hexgait.config import default_config
from hexgait.frames import BinaryFrame
from hexgait.scene import GaitSchedule, render_expert_sequence
from hexgait.training import calibrate_priors, train


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def geom(cfg):
    return cfg.geometry()


@pytest.fixture(scope="session")
def priors(cfg, geom):
    return calibrate_priors(geom, math.radians(cfg["training"]["prior_std_deg"]))


@pytest.fixture(scope="session")
def train_stream(cfg, geom):
    """Default sequential-leg training stream, light salt noise."""
    return render_expert_sequence(
        geom, GaitSchedule.sequential(),
        frames_per_cycle=cfg["scene"]["frames_per_cycle"],
        width=600, height=600, noise_density=0.001, seed=0,
        params=cfg.render_params())


@pytest.fixture(scope="session")
def trained(cfg, train_stream, priors):
    return train(train_stream, priors, cfg.train_schedule(),
                 cfg.neuron_params(), repeats=3)


def random_frame(rng, width, height, density=0.5):
    return BinaryFrame(rng.random((height, width)) < density)
