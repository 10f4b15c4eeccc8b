"""Tests for the parameter declarations on the library's dataclasses."""

import math
from dataclasses import fields

import numpy as np
import pytest

from specagg.cli import RunConfig
from specagg.params import ConfigError, violation
from specagg.radio import GapError, RadioParams, snr_gap
from specagg.seeds import derive_rng, derive_seed_sequence
from specagg.simulation import EpisodeConfig, NetworkScenario
from specagg.topology import (
    SpectrumProcessConfig,
    Topology,
    build_topology,
    derive_ground_truth_matrix,
    sense,
)

DECLARING_CLASSES = (NetworkScenario, RadioParams, EpisodeConfig)


def _bound(text):
    if text == "bands":  # the band count; no band count is infinite
        return math.inf
    base, _, power = text.partition("^")
    return float(base) ** int(power or 1)


def _bad_values(spec):
    """Values just outside the declaration of field `spec`."""
    if spec.metadata["choices"]:
        return ["no_such_choice"]
    interval = spec.metadata["interval"]
    low, high = (_bound(t) for t in interval[1:-1].split(", "))
    bad = [math.nan, low if interval[0] == "(" else low - 1]
    bad.append(high if interval[-1] == ")" else high + 1)
    return [int(v) if spec.type == "int" and math.isfinite(v) else v for v in bad]


CASES = [
    (cls, f.name, value)
    for cls in DECLARING_CLASSES
    for f in fields(cls)
    if "interval" in f.metadata
    for value in _bad_values(f)
]


def test_every_parameter_is_declared():
    undeclared = [
        f.name
        for cls in DECLARING_CLASSES
        for f in fields(cls)
        if f.init and "interval" not in f.metadata
    ]
    assert undeclared == []


def test_every_declared_field_is_the_config_key_of_the_same_name():
    # one name per parameter: the library field is the config key, flag and sweep axis
    keys = {f.name: f for f in fields(RunConfig)}
    for cls in DECLARING_CLASSES:
        for f in fields(cls):
            if "interval" in f.metadata:
                assert f.name in keys, f"{cls.__name__}.{f.name}"
                assert (keys[f.name].default, keys[f.name].metadata) == (f.default, f.metadata)


@pytest.mark.parametrize(
    "cls, name, value", CASES, ids=[f"{c.__name__}.{n}={v}" for c, n, v in CASES]
)
def test_declared_field_rejects_value_outside_its_declaration(cls, name, value):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        cls(**{name: value})


INT_FIELDS = [
    (cls, f.name)
    for cls in DECLARING_CLASSES
    for f in fields(cls)
    if "interval" in f.metadata and f.type == "int"
]


@pytest.mark.parametrize(
    "cls, name", INT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in INT_FIELDS]
)
def test_integer_field_rejects_a_number_that_is_not_an_integer(cls, name):
    # 4.5 lies inside every declared integer interval, so only its type is wrong
    with pytest.raises(ValueError, match=rf"{name} must be an integer, got 4\.5"):
        cls(**{name: 4.5})


MATRIX = derive_ground_truth_matrix(0.4, 0.6, 0.75)

# (site, call with one value, declaring class, field): the library
# functions below the dataclasses check each value against its declaration
LOWER_LAYERS = [
    ("Topology", lambda v: Topology(users=v, relays=1, coverage=np.ones((1, 1))),
     NetworkScenario, "users"),
    ("Topology", lambda v: Topology(users=1, relays=v, coverage=np.ones((1, 1))),
     NetworkScenario, "relays"),
    ("build_topology", lambda v: build_topology(2, 2, v, np.random.default_rng(0)),
     NetworkScenario, "coverage_probability"),
    ("derive_ground_truth_matrix", lambda v: derive_ground_truth_matrix(v, 0.6, 0.75),
     NetworkScenario, "p0"),
    ("derive_ground_truth_matrix", lambda v: derive_ground_truth_matrix(0.4, v, 0.75),
     NetworkScenario, "persistence"),
    ("derive_ground_truth_matrix", lambda v: derive_ground_truth_matrix(0.4, 0.6, v),
     NetworkScenario, "good_fraction"),
    ("SpectrumProcessConfig",
     lambda v: SpectrumProcessConfig(band_count=v, ground_truth_matrix=MATRIX),
     NetworkScenario, "bands"),
    ("sense", lambda v: sense(np.random.default_rng(0), v, 1, 3),
     EpisodeConfig, "sensing_error_rate"),
    ("snr_gap", lambda v: snr_gap(v), RadioParams, "ber"),
    ("snr_gap", lambda v: snr_gap(1e-3, v), RadioParams, "gap_formula"),
    ("derive_seed_sequence", lambda v: derive_seed_sequence(v, "x"), EpisodeConfig, "seed"),
]


def _lower_layer_bad_values(spec):
    # 4.5 lies inside every declared integer interval, so only its type is wrong
    return _bad_values(spec) + ([4.5] if spec.type == "int" else [])


LOWER_CASES = [
    pytest.param(call, spec, value, id=f"{site}.{name}={value}")
    for site, call, cls, name in LOWER_LAYERS
    for spec in [cls.__dataclass_fields__[name]]
    for value in _lower_layer_bad_values(spec)
]


@pytest.mark.parametrize("call, spec, value", LOWER_CASES)
def test_lower_layer_rejects_with_the_declared_text(call, spec, value):
    error = GapError if spec.name == "ber" else ConfigError
    with pytest.raises(error) as raised:
        call(value)
    assert str(raised.value) == violation(spec.name, value, spec)


@pytest.mark.parametrize("derive, seed", [(derive_seed_sequence, 2.5), (derive_rng, np.float64(7.9))])
def test_fractional_master_seed_is_refused(derive, seed):
    # each used to return the stream of the integer seed it truncates to
    with pytest.raises(ValueError, match=r"^seed must be an integer"):
        derive(seed, "x")


def test_fractional_band_count_is_refused_at_construction():
    # it used to build, and BandProcessSet then failed with a TypeError
    with pytest.raises(ValueError, match=r"^bands must be an integer, got 2\.5$"):
        SpectrumProcessConfig(band_count=2.5, ground_truth_matrix=MATRIX)


def test_bool_is_not_an_integer_parameter():
    # True used to pass as 1: the config built with seed True
    with pytest.raises(ConfigError, match=r"^seed must be an integer, got True$"):
        EpisodeConfig(seed=True)


def test_bool_master_seed_is_refused():
    # derive_rng(True, ...) used to return seed 1's stream
    with pytest.raises(ConfigError, match=r"^seed must be an integer, got True$"):
        derive_rng(True, "x")
