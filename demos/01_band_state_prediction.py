#!/usr/bin/env python3
"""Walkthrough: estimating band-state dynamics and predicting the next slot.

A spectrum band is modelled as a three-state Markov chain: Good (idle,
usable), Bad (idle, too noisy) and Busy (licensed user active).  This
demo fits a transition matrix to a 20-slot observation string, inspects
its long-run behaviour, and predicts the next slot from each state.
"""

import numpy as np

from specagg import (
    SpectrumState,
    estimate_transition_matrix,
    parse_observations,
    predict_next_states,
    stationary_distribution,
)

# one sensed sequence, one digit per slot: 0=Good 1=Bad 2=Busy
OBSERVED = "00010210000112010001"


def main():
    sequence = parse_observations(OBSERVED)[0]
    print(f"observed {len(sequence)} slots: {OBSERVED}")

    matrix = estimate_transition_matrix(sequence)
    print("\nestimated transition matrix (rows: from Good/Bad/Busy):")
    with np.printoptions(precision=4, suppress=True):
        print(matrix.probs)

    pi = stationary_distribution(matrix)
    print(f"\nstationary distribution: Good={pi[0]:.4f} Bad={pi[1]:.4f} Busy={pi[2]:.4f}")
    print(f"long-run idle probability (Good+Bad): {pi[0] + pi[1]:.4f}")

    print("\nnext-slot prediction from each current state:")
    for state in SpectrumState:
        nxt = SpectrumState(int(predict_next_states(matrix.probs, state)))
        print(f"  {state.name:>4} -> {nxt.name}")

    print("\ndistribution drift from a certainly-Good slot:")
    p = np.array([1.0, 0.0, 0.0])
    for n in (1, 2, 5, 20):
        dist = p @ np.linalg.matrix_power(matrix.probs, n)
        print(f"  after {n:>2} slots: Good={dist[0]:.4f} Bad={dist[1]:.4f} Busy={dist[2]:.4f}")
    print("(the drift converges to the stationary distribution)")


if __name__ == "__main__":
    main()
