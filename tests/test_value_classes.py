"""The parameter and value classes: construction, assignment, equality,
hashing and the copy method `replace`."""
import math
from array import array

import numpy as np
import pytest

from hexgait.config import (EnergyModel, HexapodGeometry, NeuronParams, RenderParams,
                            RunConfig, TrainSchedule)
from hexgait.energy import EnergyReport
from hexgait.frames import BinaryFrame, FrameStream
from hexgait.neurons import NetworkState, NeuronState, SpikeRaster, WeightMap
from hexgait.scene import GaitSchedule
from hexgait.training import TrainResult

# Equality kinds: "value" compares and hashes by the fields, "unhashable"
# compares by the fields and holds a dict or list, so hash fails,
# "identity" compares and hashes by identity, and "bits" compares by the
# bits and is unhashable.
_WEIGHTS = WeightMap.zeros(1, 1)
_RASTER = SpikeRaster(0.04, ())
_ARRAYS = array("d", [1.0]), array("d", [2.0]), array("d", [3.0])
# (class, kind, field names, a value for each field, defaults of
# the trailing fields, a change, a change its checks reject or None)
_CASES = [
    (NeuronParams, "value", "tau_v tau_ge v_rest v_exc v_thresh refractory dt",
     (5.0, 1.0, -60.0, -20.0, -50.0, 1.0, 0.02),
     (4.0, 1.2, -65.0, -30.0, -52.0, 2.0, 0.04), {"dt": 0.01}, {"tau_v": 0}),
    (HexapodGeometry, "value", "body_radius leg_length", (0.2, 0.1),
     (0.18, 0.17), {"leg_length": 0.2}, {"body_radius": 0.6}),
    (RenderParams, "value", "tip_blocks gap_frames active_frames", (2, 5, 4),
     (3, 11, 8), {"gap_frames": 0}, {"active_frames": -1}),
    (TrainSchedule, "value", "alpha beta omega sigma_d w_max",
     (0.02, 0.03, 0.1, 0.001, 0.5), (0.01, 0.01, 0.05, 0.0005, 0.35),
     {"w_max": 1.0}, {"beta": 0}),
    (RunConfig, "unhashable", "values", ({"run": {"seed": 1}},), (),
     {"values": {}}, None),
    (EnergyModel, "value", "energy_per_spike andpool_energy_per_frame",
     (1e-9, 2e-9), (1.7e-9, 2.5e-9), {"energy_per_spike": 0.0},
     {"andpool_energy_per_frame": -1.0}),
    (EnergyReport, "value", "items total_j per_leg_event_j n_leg_events flagged",
     ((("input_spikes", 1, 1.0, 1.0),), 1.0, 0.5, 2, False), (), {"flagged": True},
     None),
    (BinaryFrame, "bits", "bits", (np.eye(2, dtype=bool),), (),
     {"bits": np.zeros((1, 3))}, {"bits": np.zeros(3)}),
    (FrameStream, "identity", "keys n_frames width height",
     (np.array([1, 5]), 2, 3, 1), (), {"n_frames": 3}, {"keys": [5, 1]}),
    (NeuronState, "value", "v g_e refractory_until", (-60.0, 0.5, 1.0),
     (0.0, -math.inf), {"g_e": 2.0}, None),
    (NetworkState, "identity", "v g_e refractory_until", _ARRAYS, (),
     {"g_e": array("d", [0.0])}, None),
    (SpikeRaster, "value", "dt steps n_steps",
     (0.04, ((0.0, frozenset({1})), (0.04, frozenset({2, 3}))), 2), (0,),
     {"n_steps": 5}, {"steps": ((1.0, {1}), (0.5, {2}))}),
    # segment_boundaries keys its cache on a schedule's value.
    (GaitSchedule, "value", "entries", (GaitSchedule.sequential().entries,), (),
     {"entries": ((0, {3}),)}, {"entries": ((0, {7}),)}),
    (TrainResult, "unhashable", "weights raster log skipped",
     (_WEIGHTS, _RASTER, ["0.000 1"], 4), ([], 0), {"skipped": 1}, None),
]


def _plain(value):
    """`value` in a form == compares: arrays as their type and items."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tolist()
    if isinstance(value, array):
        return value.typecode, value.tolist()
    return value


def _state(obj, names):
    return [_plain(getattr(obj, name)) for name in names]


@pytest.mark.parametrize("cls,kind,names,values,defaults,change,bad", _CASES,
                         ids=[case[0].__name__ for case in _CASES])
def test_value_class(cls, kind, names, values, defaults, change, bad):
    names = names.split()
    keywords = dict(zip(names, values))
    obj = cls(*values)
    # Positional arguments follow the field order, and trailing fields
    # take their defaults.
    assert _state(obj, names) == _state(cls(**keywords), names)
    required = values[:len(names) - len(defaults)]
    assert _state(cls(*required), names)[len(required):] == [_plain(d) for d in defaults]
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=0)

    twin = cls(*values)
    assert obj != tuple(values)
    if kind == "identity":
        assert obj == obj and obj != twin and hash(obj) != hash(twin)
    else:
        assert obj == twin and not obj != twin
        if kind == "bits":
            assert obj == cls(values[0].copy()) and obj != cls(~values[0])
        assert obj != obj.replace(**change)
        if kind == "value":
            assert hash(obj) == hash(twin)
        else:
            with pytest.raises(TypeError):
                hash(obj)

    # The copy changes only the named fields and runs the checks again.
    copy = obj.replace(**change)
    assert type(copy) is cls and copy is not obj
    assert _state(copy, names) == _state(cls(**{**keywords, **change}), names)
    assert _state(obj, names) == _state(twin, names)
    if bad is not None:
        with pytest.raises(ValueError):
            obj.replace(**bad)
    with pytest.raises(TypeError):
        obj.replace(no_such_field=0)

    # Every class is frozen: a field can be neither assigned nor deleted.
    with pytest.raises(AttributeError):
        setattr(obj, names[-1], values[-1])
    with pytest.raises(AttributeError):
        delattr(obj, names[-1])
    assert _state(obj, names) == _state(twin, names)
    assert repr(obj).startswith(f"{cls.__name__}({names[0]}=")

