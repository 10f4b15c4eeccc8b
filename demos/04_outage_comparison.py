#!/usr/bin/env python3
"""Walkthrough: what state prediction buys (and when it cannot help).

Runs paired episodes -- identical ground truth, budgets and fading --
under the predicting strategy and the persistence baseline, first on a
deterministically alternating channel where prediction shines, then on
the default lazy channel where persistence is already the best
single-state predictor.
"""

import numpy as np

from specagg import (
    BandProcessSet,
    EpisodeConfig,
    NetworkScenario,
    RadioParams,
    SpectrumProcessConfig,
    Strategy,
    Topology,
    TransitionMatrix,
    run_episode,
    run_strategies,
    score_episode,
    summarize,
)

PERIOD_TWO = TransitionMatrix(
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
)


def alternating_channel():
    print("--- alternating channel: every band flips Good <-> Busy each slot ---")
    config = EpisodeConfig(slots=30, episodes=1, n_train=4, seed=7)

    def world():
        topology = Topology(users=2, relays=4, coverage=np.ones((4, 2), dtype=bool))
        processes = BandProcessSet(
            SpectrumProcessConfig(band_count=16, ground_truth_matrix=PERIOD_TWO),
            np.random.SeedSequence(7),
            max_slots=29,
        )
        return topology, processes

    params = RadioParams()
    for strategy in (Strategy.PREDICT_AGGREGATE, Strategy.NO_PREDICTION):
        topology, processes = world()
        (decided,) = run_episode(config, topology, processes, params, 0, (strategy,))
        # the pass decides without Es/N0; score it at Es/N0 = 10 (linear)
        allocated, outages, [throughput], _ = score_episode(decided, [10.0], params)
        rate = outages.sum() / allocated.sum() if allocated.sum() else 0.0
        print(
            f"  {strategy.value:>17}: allocated={allocated.sum():>3}"
            f"  outage rate={rate:.2f}"
            f"  throughput={throughput.mean() / 1e6:.1f} Mb/s"
        )
    print("  the trained predictor refuses bands about to turn Busy;")
    print("  the persistence baseline walks into an outage every time.\n")


def lazy_channel():
    print("--- lazy channel (default): states freeze in place 60% of slots ---")
    scenario = NetworkScenario()  # 5 users, 20 relays, 100 bands, P0=0.4
    config = EpisodeConfig(slots=100, episodes=20, n_train=20, seed=1)
    params = RadioParams()
    strategies = [Strategy.PREDICT_AGGREGATE, Strategy.NO_PREDICTION]
    # one paired cell of both strategies at Es/N0 = 10 (linear)
    runs = run_strategies(scenario, config, params, strategies, [10.0])
    for strategy, metrics in zip(strategies, runs):
        # the episode means of the point's first two summary rows
        outage, throughput = (row.mean() for row in summarize(metrics)[0, :2])
        print(
            f"  {strategy.value:>17}: outage rate={outage:.4f}"
            f"  throughput={throughput / 1e6:.1f} Mb/s"
        )
    print("  here the most likely next state IS the current state, so the")
    print("  persistence baseline is already optimal and training noise makes")
    print("  the predictor slightly worse -- prediction only pays off when the")
    print("  channel has real transition structure to learn.")


def main():
    alternating_channel()
    lazy_channel()


if __name__ == "__main__":
    main()
