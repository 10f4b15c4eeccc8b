"""The benchmark tracer can read every layer of a small run and sweep.

`perfbench/tracer.py` reports a traced layer as "absent" when its target
no longer resolves, when a keyed layer (`build_episode_world`,
`run_episode`) is never called, or when a call's arguments do not fit
the tracer's key function; a benchmark run then ends without a numeric
result.  This runs the unmodified tracer over a tiny `run_single`, the same run
under noisy sensing (the only path through `topology.sense` and per-node
prediction), a tiny p0 `run_sweep` and a tiny es_over_n0 `run_sweep`,
and checks that every layer resolves, every keyed call fits its key,
that each world and decision pass runs once, and that the decision
pass, its prediction, its allocation steps 1-3, the no-aggregation
keep, the scoring step, the summary and, when noisy, the sensing each
still run: a layer with no calls reports nothing per pair.  It also
keys one `run_episode` call on a hand-built world, whose process
config holds only its chain.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from specagg import cli, simulation
from specagg.markov import TransitionMatrix
from specagg.params import EpisodeConfig, Strategy
from specagg.radio import RadioParams
from specagg.topology import BandProcessSet, SpectrumProcessConfig, Topology

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer, layer_stats  # noqa: E402

TINY = {"users": "2", "relays": "4", "bands": "8", "slots": "26", "n_train": "20",
        "episodes": "1", "es_n0_db_sweep": "0,10,20"}


@pytest.mark.parametrize("command", ["run", "noisy_run", "sweep", "es_over_n0_sweep"])
def test_every_layer_resolves_and_each_world_and_pass_runs_once(command, tmp_path):
    noisy = {"sensing_error_rate": "0.1"} if command == "noisy_run" else {}
    config = cli.parse_config(None, {**TINY, **noisy, "out": str(tmp_path)})
    tracer = Tracer()
    with tracer:
        if command == "sweep":
            cli.run_sweep(config, "p0", ["0.3", "0.5"])
        elif command == "es_over_n0_sweep":
            cli.run_sweep(config, "es_over_n0", ["0", "10", "20"])
        else:
            cli.run_single(config)
    assert tracer.absent == []
    assert tracer.key_errors == {}
    ratios = tracer.distinct_ratios()
    for ratio in ratios.values():
        assert isinstance(ratio, float) and math.isfinite(ratio)
        assert ratio == 1.0
    json.dumps(ratios, allow_nan=False)
    stats = layer_stats(**tracer.spans())
    sensed = ("topology.sense",) if noisy else ()
    for layer in ("simulation.run_episode", "aggregation.assign_relays",
                  "markov.predict_next_states", "aggregation.common_free_spectrum",
                  "aggregation.allocate_spectrum", "simulation.reduce_to_best_band",
                  "aggregation.aggregate_and_score", "simulation.summarize", *sensed):
        calls, _ = stats[layer]
        assert calls >= 1, layer


def test_a_hand_built_world_with_a_derived_idle_mass_is_keyed():
    # demo 04's alternating world: its idle mass, which the key reads, is the chain's
    period_two = TransitionMatrix(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    topology = Topology(users=2, relays=4, coverage=np.ones((4, 2), dtype=bool))
    processes = BandProcessSet(
        SpectrumProcessConfig(band_count=16, ground_truth_matrix=period_two),
        np.random.SeedSequence(7),
        max_slots=29,
    )
    config = EpisodeConfig(slots=30, episodes=1, n_train=4, seed=7)
    tracer = Tracer()
    with tracer:
        simulation.run_episode(
            config, topology, processes, RadioParams(), 0, (Strategy.PREDICT_AGGREGATE,)
        )
    assert tracer.absent == []
    assert tracer.key_errors == {}
    assert len(tracer.keys["simulation.run_episode"]) == 1
