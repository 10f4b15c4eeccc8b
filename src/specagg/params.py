"""Parameter declarations, made once on the library field that uses each parameter.

Every layer that takes a declared parameter checks it with `require`.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum


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


@functools.cache
def _bound(text: str) -> float:
    if text == "bands":
        return math.inf
    base, _, power = text.partition("^")
    return float(base) ** int(power) if power else float(text)


def _in_interval(value, interval: str) -> bool:
    """True when `value` lies in `interval`; nan never does, inf only at a closed bound."""
    low, high = map(_bound, interval[1:-1].split(", "))
    above = value >= low if interval[0] == "[" else value > low
    below = value <= high if interval[-1] == "]" else value < high
    return above and below


def is_integer(value) -> bool:
    """True for an integral `value` that is not a bool.

    bool is an Integral, but True would pass as 1 (seed True is seed 1's stream).
    """
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def violation(name: str, value, spec) -> str | None:
    """Why `value`, named `name`, breaks the declaration of field `spec`; None if it does not."""
    choices, interval = spec.metadata["choices"], spec.metadata["interval"]
    if spec.type == "int" and not is_integer(value):
        return f"{name} must be an integer, got {value!r}"
    if choices and value not in choices:
        return f"{name} must be one of {', '.join(choices)}, got {value!r}"
    if interval and not _in_interval(value, interval):
        return f"{name} must lie in {interval}, got {value}"
    return None


def check_fields(obj) -> None:
    """Raise `ConfigError` naming the first declared field of `obj` outside its declaration."""
    for f in fields(obj):
        if "interval" in f.metadata:
            require(type(obj), f.name, getattr(obj, f.name))


def require(cls, name: str, value, error: type[ValueError] = ConfigError) -> None:
    """Raise `error` naming `name` if `value` breaks the declaration of `cls`'s field `name`."""
    if message := violation(name, value, cls.__dataclass_fields__[name]):
        raise error(message)


class Strategy(Enum):
    PREDICT_AGGREGATE = "predict_aggregate"
    NO_PREDICTION = "no_prediction"
    NO_AGGREGATION = "no_aggregation"
    SINGLE_USER = "single_user"


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode shape: slot and episode counts, training window, sensing
    errors, traced band and master seed.

    `slots` must cover the training prefix plus at least one slot pair.
    Which strategies run, and at which Es/N0 points, is the cell's call
    to `simulation.run_strategies`.
    """

    slots: int = param(100, "[4, inf)")
    episodes: int = param(20, "[1, inf)")
    n_train: int = param(20, "[2, inf)")
    sensing_error_rate: float = param(0.0, "[0, 1]")
    designated_band: int = param(0, "[0, bands)")
    seed: int = param(1, "[0, 2^32)")

    def __post_init__(self):
        check_fields(self)
        if self.slots < self.n_train + 2:
            raise ConfigError(
                f"slots must be >= n_train + 2, got slots={self.slots} "
                f"n_train={self.n_train}"
            )

    @property
    def pairs(self) -> int:
        """Number of scored slot pairs per episode."""
        return self.slots - self.n_train


@dataclass(frozen=True)
class NetworkScenario:
    """Population and band-dynamics parameters of one experiment cell."""

    users: int = param(5, "[1, inf)")
    relays: int = param(20, "[1, inf)")
    bands: int = param(100, "[1, inf)")
    coverage_probability: float = param(0.4, "(0, 1]")
    p0: float = param(0.4, "(0, 1)")
    persistence: float = param(0.6, "[0, 1)")
    good_fraction: float = param(0.75, "(0, 1)")

    def __post_init__(self):
        check_fields(self)
