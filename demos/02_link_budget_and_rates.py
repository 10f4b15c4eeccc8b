#!/usr/bin/env python3
"""Walkthrough: SNR gap, per-band rates, and two-hop link budgets.

The achievable rate on a band is Shannon capacity with an SNR gap that
prices in practical coding at a target bit error rate.  Relayed links
split an end-to-end SNR budget across two hops; the sampler keeps the
hop sum strictly below twice the budget.
"""

import numpy as np

from specagg import RadioParams, link_throughput, sample_hop_snrs, snr_gap


def main():
    print("SNR gap versus target bit error rate (log2 and natural-log forms):")
    for ber in (1e-5, 1e-4, 1e-3, 1e-2, 0.1):
        print(
            f"  ber={ber:<7g} gap={snr_gap(ber):.4f}"
            f"  gap_nl={snr_gap(ber, 'natural_log'):.4f}"
        )

    params = RadioParams(band_width_hz=2e6, ber=1e-3)
    print(f"\nper-band rate at b=2 MHz, gap={params.gamma:.4f}:")
    for snr in (0.5, 1.0, 3.0, 10.0, 100.0):
        print(f"  snr={snr:<6g} rate={link_throughput(params, snr) / 1e6:.3f} Mb/s")

    print("\ntwo-hop budget sampling at Es/N0 = 10 (linear):")
    es_over_n0 = 10.0
    snr1, snr2 = sample_hop_snrs(es_over_n0, np.random.default_rng(42), (5,))
    for hop1, hop2 in zip(snr1, snr2):
        print(
            f"  hop1={hop1:7.3f}  hop2={hop2:7.3f}"
            f"  sum={hop1 + hop2:7.3f}  < {2 * es_over_n0:.0f}"
        )

    snr1, snr2 = sample_hop_snrs(es_over_n0, np.random.default_rng(0), (100_000,))
    print(
        f"\n100000 draws: max hop sum = {(snr1 + snr2).max():.4f}"
        f" (always below {2 * es_over_n0:.0f})"
    )


if __name__ == "__main__":
    main()
