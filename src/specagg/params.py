"""Parameter declarations, made once on the library field that uses each parameter."""

from __future__ import annotations

import math
import numbers
from dataclasses import field, fields


class ConfigError(ValueError):
    """Raised for parameter values, or combinations of them, that cannot run."""


def param(default, interval: str | None = None, choices: tuple = (), db: bool = False):
    """A declared field: its default and the values it accepts.

    `interval` is the range text of a number, e.g. ``"(0, 1]"``; its
    bounds are numbers, ``inf``, ``2^32`` or ``bands`` (the band count,
    checked by `simulation.designated_band_error`).  `choices` lists the
    accepted strings, and `db` marks an Es/N0 value in dB.
    """
    return field(default=default, metadata={"interval": interval, "choices": choices, "db": db})


def _bound(text: str) -> float:
    if text == "bands":
        return math.inf
    base, _, power = text.partition("^")
    return float(base) ** int(power) if power else float(text)


def _in_interval(value, interval: str) -> bool:
    """True when `value` lies in `interval`; nan never does, inf only at a closed bound."""
    low, high = (_bound(t) for t in interval[1:-1].split(", "))
    above = value >= low if interval[0] == "[" else value > low
    below = value <= high if interval[-1] == "]" else value < high
    return above and below


def violation(name: str, value, spec) -> str | None:
    """Why `value`, named `name`, breaks the declaration of field `spec`; None if it does not."""
    choices, interval = spec.metadata["choices"], spec.metadata["interval"]
    if spec.type == "int" and not isinstance(value, numbers.Integral):
        return f"{name} must be an integer, got {value!r}"
    if choices and value not in choices:
        return f"{name} must be one of {', '.join(choices)}, got {value!r}"
    if interval and not _in_interval(value, interval):
        return f"{name} must lie in {interval}, got {value}"
    return None


def check_fields(obj) -> None:
    """Raise `ConfigError` naming the first declared field of `obj` outside its declaration."""
    for f in fields(obj):
        if "interval" in f.metadata and (message := violation(f.name, getattr(obj, f.name), f)):
            raise ConfigError(message)
