"""Tests for link arithmetic: gap, throughput, two-hop budgets."""

import numpy as np
import pytest

from specagg.radio import (
    GapError,
    RadioParams,
    link_throughput,
    sample_hop_snrs,
    snr_gap,
)

# frozen regression constants (direct formula evaluations)
GAMMA_BER_1E3 = 0.19623603097171916
BUDGET_SEED42_ES10 = (9.165339457294472, 5.223444940226052)


class TestSnrGap:
    def test_singular_at_one_fifth(self):
        with pytest.raises(GapError):
            snr_gap(0.2)

    def test_unit_gap_construction(self):
        # log2(5 * ber) = -1.5 exactly when ber = 2^-1.5 / 5
        ber = 2.0**-1.5 / 5.0
        assert snr_gap(ber) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self):
        assert snr_gap(1e-3) == pytest.approx(GAMMA_BER_1E3, rel=1e-15)

    def test_rejects_whole_upper_interval(self):
        for ber in (0.2, 0.3, 0.5, 0.9, 0.99):
            with pytest.raises(GapError):
                snr_gap(ber)
        with pytest.raises(GapError):
            snr_gap(0.0)
        with pytest.raises(GapError):
            snr_gap(-0.01)

    def test_natural_log_variant(self):
        assert snr_gap(1e-3, "natural_log") == pytest.approx(
            -np.log(5e-3) / 1.5, rel=1e-15
        )
        with pytest.raises(ValueError):
            snr_gap(1e-3, "decibel")


class TestRadioParams:
    def test_gamma_derived_once(self):
        params = RadioParams(ber=1e-3)
        assert params.gamma == pytest.approx(GAMMA_BER_1E3, rel=1e-15)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            RadioParams(band_width_hz=0)
        for name in ("band_width_hz", "tx_power_w"):
            for value in (np.inf, np.nan):
                with pytest.raises(ValueError, match=rf"{name} must lie in \(0, inf\)"):
                    RadioParams(**{name: value})
        with pytest.raises(GapError):
            RadioParams(ber=0.25)
        with pytest.raises(ValueError):
            RadioParams(gain_model="rice")
        with pytest.raises(ValueError):
            RadioParams(snr_combining="sum")


class TestLinkThroughput:
    def test_zero_snr(self):
        assert link_throughput(RadioParams(), 0.0) == 0.0

    def test_snr_one_at_2mhz(self):
        assert link_throughput(RadioParams(band_width_hz=2e6), 1.0) == 2e6

    def test_snr_three_at_2mhz(self):
        assert link_throughput(RadioParams(band_width_hz=2e6), 3.0) == 4e6

    @pytest.mark.parametrize("snr", [-1e-300, [0.0, 2.0, -1.0]])
    def test_rejects_a_negative_snr(self, snr):
        with pytest.raises(ValueError, match="snr must be >= 0"):
            link_throughput(RadioParams(), snr)

    def test_monotone_in_snr(self):
        params = RadioParams()
        snrs = np.linspace(0, 100, 300)
        rates = link_throughput(params, snrs)
        assert np.all(np.diff(rates) > 0)

    def test_exactly_linear_in_bandwidth(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            snr = float(rng.uniform(0, 1e4))
            b = float(rng.uniform(1e3, 1e8))
            single = link_throughput(RadioParams(band_width_hz=b), snr)
            double = link_throughput(RadioParams(band_width_hz=2 * b), snr)
            assert double == pytest.approx(2 * single, rel=1e-12)


class _StubRng:
    """Returns scripted values for uniform() calls, in order."""

    def __init__(self, values):
        self._values = list(values)

    def uniform(self, low, high, size=None):
        value = self._values.pop(0)
        assert low <= value <= high
        return value


class TestLinkBudget:
    def test_symmetric_split(self):
        snr1, snr2 = sample_hop_snrs(10.0, _StubRng([0.5, 0.5]), (1,))
        assert snr1 == pytest.approx(10.0 / 2)
        assert snr2 == pytest.approx(10.0 / 2)

    def test_seeded_snapshot(self):
        # one link draws alpha, then beta, from the generator
        rng = np.random.default_rng(42)
        snr1, snr2 = sample_hop_snrs(10.0, rng, (1,))
        assert snr1[0] == pytest.approx(BUDGET_SEED42_ES10[0], rel=1e-15)
        assert snr2[0] == pytest.approx(BUDGET_SEED42_ES10[1], rel=1e-15)

    def test_budget_constraint_over_many_draws(self):
        # the hop sum stays strictly under twice the end-to-end budget
        snr1, snr2 = sample_hop_snrs(7.0, np.random.default_rng(1234), (10_000,))
        assert np.all(snr1 > 0) and np.all(snr2 > 0)
        assert np.all(snr1 + snr2 < 2 * 7.0)

    def test_bulk_sampling_shares_the_constraint(self):
        snr1, snr2 = sample_hop_snrs(3.0, np.random.default_rng(8), (200, 5))
        assert np.all(snr1 + snr2 < 2 * 3.0)
        assert np.all(snr1 > 0) and np.all(snr2 > 0)
