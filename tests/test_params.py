"""Tests for the parameter declarations on the library's dataclasses."""

import math
from dataclasses import fields

import pytest

from specagg.radio import RadioParams
from specagg.simulation import EpisodeConfig, NetworkScenario

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
    assert undeclared == ["strategy"]


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
