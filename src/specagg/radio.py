"""Link-level arithmetic: SNR gap, throughput, two-hop budgets.

Links are abstracted at SNR level.  The achievable rate on a band is the
Shannon capacity with an SNR gap that accounts for practical coding and
modulation at a target bit error rate.  Two-hop relay links are sampled
as a (source->relay, relay->destination) SNR pair whose sum stays below
twice the end-to-end budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BER_MAX = 0.2  # 5 * ber reaches 1 here and the gap formula degenerates


class GapError(ValueError):
    """Raised for bit error rates where the SNR gap is singular or negative."""


def snr_gap(ber: float, formula: str = "log2") -> float:
    """SNR gap (linear) for a target bit error rate.

    Two variants are supported:

    * ``log2``        -- gap = -1.5 / log2(5 * ber)
    * ``natural_log`` -- gap = -ln(5 * ber) / 1.5, the conventional form

    Both are positive only for ber < 0.2; the whole interval
    [0.2, 1) is rejected.
    """
    if not 0.0 < ber < BER_MAX:
        raise GapError(
            f"ber must lie in (0, {BER_MAX}) for a finite positive gap, got {ber}"
        )
    if formula == "log2":
        return -1.5 / np.log2(5.0 * ber)
    if formula == "natural_log":
        return -np.log(5.0 * ber) / 1.5
    raise ValueError(f"unknown gap formula {formula!r}; use 'log2' or 'natural_log'")


@dataclass(frozen=True)
class RadioParams:
    """Link and sweep parameters shared by every node.

    Attributes:
        band_width_hz: bandwidth of one spectrum band (b).
        noise_power_w: system noise power over one band.
        ber: target bit error rate, in (0, 0.2).
        es_over_n0: end-to-end SNR budget of a direct source-destination
            link (linear ratio); the sweep variable.
        tx_power_w: per-node, per-band transmit power.
        gap_formula: 'log2' or 'natural_log' (see `snr_gap`).
        gain_model: per-(band, relay, slot-pair) power-gain law;
            'rayleigh' draws i.i.d. Exponential(mean 1) gains, 'unit'
            fixes every gain at 1 for deterministic tests.
        snr_combining: which hop SNR limits a relayed band;
            'second_hop' uses the relay-to-destination leg, 'min_hop'
            the weaker of the two legs.
        gamma: derived SNR gap; computed once at construction.
    """

    band_width_hz: float = 2e6
    noise_power_w: float = 1e-6
    ber: float = 1e-3
    es_over_n0: float = 10.0
    tx_power_w: float = 1.0
    gap_formula: str = "log2"
    gain_model: str = "rayleigh"
    snr_combining: str = "second_hop"
    gamma: float = field(init=False)

    def __post_init__(self):
        for name in ("band_width_hz", "noise_power_w", "es_over_n0", "tx_power_w"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.gain_model not in ("rayleigh", "unit"):
            raise ValueError("gain_model must be 'rayleigh' or 'unit'")
        if self.snr_combining not in ("second_hop", "min_hop"):
            raise ValueError("snr_combining must be 'second_hop' or 'min_hop'")
        object.__setattr__(self, "gamma", snr_gap(self.ber, self.gap_formula))


def link_throughput(params: RadioParams, snr) -> float:
    """Achievable rate b * log2(1 + snr) in bits/s.

    Zero exactly when snr is zero, strictly increasing in snr, and
    exactly linear in the bandwidth.  Accepts scalars or arrays.
    """
    snr = np.asarray(snr, dtype=np.float64)
    if np.any(snr < 0):
        raise ValueError("snr must be >= 0")
    out = params.band_width_hz * np.log2(1.0 + snr)
    return float(out) if out.ndim == 0 else out


def sample_hop_splits(
    rng: np.random.Generator, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (alpha, beta) arrays of `shape` that place relays on their links.

    The position split alpha ~ U(0.25, 0.75) keeps both hops
    non-degenerate; the attenuation beta ~ U(0.5, 1.0) keeps the hop sum
    strictly below 2 * Es/N0 because beta < 1.  All position splits are
    drawn first, then all attenuations.  The draws do not depend on
    Es/N0, so one draw serves every Es/N0 point.
    """
    alpha = rng.uniform(0.25, 0.75, size=shape)
    beta = rng.uniform(0.5, 1.0, size=shape)
    return alpha, beta


def hop_snrs(
    params: RadioParams, alpha: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (snr1, snr2) hops of relayed links with splits `alpha`, `beta`:

        snr1 = alpha * beta * 2 * Es/N0
        snr2 = (1 - alpha) * beta * 2 * Es/N0
    """
    total = beta * 2.0 * params.es_over_n0
    return alpha * total, (1.0 - alpha) * total


def sample_hop_snrs(
    params: RadioParams, rng: np.random.Generator, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (snr1, snr2) arrays of `shape`: the two hops of relayed links.

    `sample_hop_splits` followed by `hop_snrs`.
    """
    return hop_snrs(params, *sample_hop_splits(rng, shape))
