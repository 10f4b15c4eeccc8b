#!/usr/bin/env python3
"""Walkthrough: the four aggregation steps on a small worked instance.

Two user pairs, four relays, six bands.  The engine (1) assigns relays
to pairs, (2) resolves each band to one user's common free set,
(3) hands every band to the owner's best predicted-free relay, and
(4) aggregates per relay and scores throughput.
"""

import numpy as np

from specagg import (
    RadioParams,
    Topology,
    aggregate_and_score,
    allocate_spectrum,
    assign_relays,
    common_free_spectrum,
    link_throughput,
    prediction_bits,
    two_slot_availability,
)
from specagg.markov import SpectrumState

GOOD, BAD, BUSY = SpectrumState.GOOD, SpectrumState.BAD, SpectrumState.BUSY


def main():
    # relay coverage: rows = relays, columns = user pairs
    topology = Topology(
        users=2,
        relays=4,
        coverage=np.array(
            [
                [True, False],   # relay 0 only reaches pair 0
                [False, True],   # relay 1 only reaches pair 1
                [True, True],    # relays 2 and 3 reach both
                [True, True],
            ]
        ),
    )
    params = RadioParams(band_width_hz=2e6)
    rng = np.random.default_rng(7)

    # step 1: relay assignment by relay->destination throughput
    pair_rate = link_throughput(params, rng.uniform(1.0, 30.0, size=(4, 2)))
    owner = assign_relays(topology, pair_rate)
    print("step 1 - relay owners (-1 = dropped):", owner)

    # sensing at slot t and prediction for slot t+1, per band
    sensed = np.array([GOOD, GOOD, BAD, BUSY, GOOD, GOOD])
    predicted = np.array([GOOD, BAD, GOOD, GOOD, BUSY, GOOD])
    source_avail = np.vstack([two_slot_availability(sensed, predicted)] * 2)
    relay_avail = np.vstack([two_slot_availability(sensed, predicted)] * 4)
    bits = np.vstack([prediction_bits(predicted)] * 4)
    print("step 2 - availability (idle both slots):", source_avail[0])

    snr = rng.uniform(0.5, 40.0, size=(6, 4))
    band_user = common_free_spectrum(owner, topology.users, source_avail, relay_avail, snr)
    print("step 2 - owning user per band (-1 = dropped):", band_user)

    band_relay, band_snr = allocate_spectrum(band_user, owner, bits, snr)
    print("step 3 - winning relay per band:", band_relay)
    with np.printoptions(precision=2, suppress=True):
        print("step 3 - winning SNR per band: ", band_snr)
    print(f"step 3 - SNR total: {band_snr.sum():.2f}")

    total_bps, user_bps = aggregate_and_score(band_user, band_snr, topology.users, params)
    bands_of_relay = {
        int(relay): np.flatnonzero(band_relay == relay)
        for relay in np.unique(band_relay[band_relay >= 0])
    }
    print("step 4 - bands aggregated per relay:", bands_of_relay)
    print(f"step 4 - network throughput: {total_bps / 1e6:.2f} Mb/s")
    for user in range(2):
        print(f"         user {user} capacity: {user_bps[user] / 1e6:.2f} Mb/s")

if __name__ == "__main__":
    main()
