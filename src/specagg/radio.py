"""Link-level arithmetic: SNR gap, throughput, two-hop budgets.

Links are abstracted at SNR level.  The achievable rate on a band is the
Shannon capacity with an SNR gap that accounts for practical coding and
modulation at a target bit error rate.  Two-hop relay links are sampled
as a (source->relay, relay->destination) SNR pair whose sum stays below
twice the end-to-end budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import check_fields, param, require


class GapError(ValueError):
    """Raised for bit error rates where the SNR gap is singular or negative."""


def snr_gap(ber: float, formula: str = "log2") -> float:
    """SNR gap (linear) for a target bit error rate.

    Two variants are supported:

    * ``log2``        -- gap = -1.5 / log2(5 * ber)
    * ``natural_log`` -- gap = -ln(5 * ber) / 1.5, the conventional form

    Both are positive only for ber < 0.2; a ber outside the declared
    (0, 0.2) raises `GapError`.
    """
    require(RadioParams, "ber", ber, GapError)
    require(RadioParams, "gap_formula", formula)
    if formula == "log2":
        return -1.5 / np.log2(5.0 * ber)
    return -np.log(5.0 * ber) / 1.5


@dataclass(frozen=True)
class RadioParams:
    """Link and sweep parameters shared by every node.

    Attributes:
        band_width_hz: bandwidth of one spectrum band (b).
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

    band_width_hz: float = param(2e6, "(0, inf)")
    ber: float = param(1e-3, "(0, 0.2)")  # 5 * ber reaches 1 at 0.2
    es_over_n0: float = param(10.0, "(0, inf)")
    tx_power_w: float = param(1.0, "(0, inf)")
    gap_formula: str = param("log2", choices=("log2", "natural_log"))
    gain_model: str = param("rayleigh", choices=("rayleigh", "unit"))
    snr_combining: str = param("second_hop", choices=("second_hop", "min_hop"))
    gamma: float = field(init=False)

    def __post_init__(self):
        # the gap checks ber and gap_formula first, so a bad ber raises GapError
        object.__setattr__(self, "gamma", snr_gap(self.ber, self.gap_formula))
        check_fields(self)


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
